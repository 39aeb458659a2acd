package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FSMTransition flags writes to a state-machine field that bypass its
// setState method.
//
// The convention it enforces is structural: a struct with a field named
// "state" and a method named "setState" is a guarded FSM (core's buffer
// block, Figure 6 of the paper). setState validates every transition
// against the validNext table; a direct write — assignment, composite
// literal, increment, or taking the field's address — skips that
// validation, so the table silently stops being the single source of
// truth.
//
// The same guard owns the span table: spans.Recorder.Transition stamps
// a block's state change, and the table agrees with the FSM only if
// every stamp sits lexically inside a function named setState. A stamp
// anywhere else can record a transition validNext rejected (or miss one
// it allowed). The spans package itself stamps freely.
var FSMTransition = &Analyzer{
	Name: "fsmtransition",
	Doc:  "flag state-field writes and span stamps outside setState",
	Run:  runFSMTransition,
}

func runFSMTransition(pass *Pass) error {
	// Find guarded fields: the "state" field of any struct that also has
	// a setState method declared in this package.
	guarded := make(map[*types.Var]bool)
	var setStateBodies []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "setState" {
				continue
			}
			setStateBodies = append(setStateBodies, fd)
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if v := stateFieldOf(pass.Info.TypeOf(fd.Recv.List[0].Type)); v != nil {
					guarded[v] = true
				}
			}
		}
	}
	inSetState := func(pos token.Pos) bool {
		for _, fd := range setStateBodies {
			if fd.Body != nil && fd.Body.Pos() <= pos && pos <= fd.Body.End() {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, v *types.Var, how string) {
		owner := ownerName(v)
		pass.Report(Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf("%s of %s.%s outside setState bypasses FSM transition validation (validNext)",
				how, owner, v.Name()),
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isRecorderTransition(pass, n) && !inSetState(n.Pos()) {
					pass.Report(Diagnostic{
						Pos:     n.Pos(),
						Message: "span stamp (spans.Recorder.Transition) outside setState: lifecycle transitions must be stamped by the FSM guard",
					})
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if v := guardedField(pass.Info, guarded, lhs); v != nil && !inSetState(n.Pos()) {
						report(lhs.Pos(), v, "direct write")
					}
				}
			case *ast.IncDecStmt:
				if v := guardedField(pass.Info, guarded, n.X); v != nil && !inSetState(n.Pos()) {
					report(n.Pos(), v, "direct write")
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if v := guardedField(pass.Info, guarded, n.X); v != nil && !inSetState(n.Pos()) {
						report(n.Pos(), v, "taking the address")
					}
				}
			case *ast.CompositeLit:
				reportGuardedLiteral(pass, guarded, n, inSetState, report)
			}
			return true
		})
	}
	return nil
}

// stateFieldOf returns the "state" field of the struct underlying t
// (through one pointer), or nil.
func stateFieldOf(t types.Type) *types.Var {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == "state" {
			return f
		}
	}
	return nil
}

// guardedField resolves e to a guarded field var when e is a selector
// (or parenthesized selector) naming one.
func guardedField(info *types.Info, guarded map[*types.Var]bool, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var obj types.Object
	if s, ok := info.Selections[sel]; ok {
		obj = s.Obj()
	} else {
		obj = info.Uses[sel.Sel]
	}
	if v, ok := obj.(*types.Var); ok && guarded[v] {
		return v
	}
	return nil
}

// reportGuardedLiteral flags composite literals that initialize a
// guarded state field, keyed or positional: constructing a block at an
// arbitrary state is as much an unvalidated transition as assigning one.
func reportGuardedLiteral(pass *Pass, guarded map[*types.Var]bool, lit *ast.CompositeLit,
	inSetState func(token.Pos) bool, report func(token.Pos, *types.Var, string)) {
	t := pass.Info.TypeOf(lit)
	v := stateFieldOf(t)
	if v == nil || !guarded[v] || inSetState(lit.Pos()) {
		return
	}
	st := t.Underlying().(*types.Struct)
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == v.Name() {
				report(kv.Pos(), v, "composite-literal initialization")
			}
			continue
		}
		// Positional literal: field i is being set.
		if i < st.NumFields() && st.Field(i) == v {
			report(elt.Pos(), v, "composite-literal initialization")
		}
	}
}

// ownerName names the struct a field belongs to, best effort.
func ownerName(v *types.Var) string {
	if v.Pkg() != nil {
		scope := v.Pkg().Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return tn.Name()
				}
			}
		}
	}
	return "struct"
}

// isRecorderTransition reports whether call invokes the Transition
// method of a Recorder type defined in another package named "spans".
func isRecorderTransition(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var obj types.Object
	if s, ok := pass.Info.Selections[sel]; ok {
		obj = s.Obj()
	} else {
		obj = pass.Info.Uses[sel.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Transition" {
		return false
	}
	// The defining package stamps freely (implementation and tests);
	// pointer identity also covers its test-augmented variant, which is
	// type-checked as one package.
	if fn.Pkg() == nil || fn.Pkg() == pass.Pkg || pathBase(fn.Pkg().Path()) != "spans" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Recorder"
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
