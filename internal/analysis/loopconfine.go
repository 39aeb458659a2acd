package analysis

import (
	"go/ast"
	"go/types"
)

// LoopConfine flags loop-confined protocol state touched from a raw
// goroutine.
//
// The sharded-reactor design keeps every mutable protocol structure —
// the block FSM, the credit ledger, the span table — confined to one
// reactor loop; that confinement, not locking, is what makes the hot
// path safe. The compiler cannot see the convention, and the race
// detector only catches the schedules a test happens to produce. This
// pass checks the structural half: the recognised confined operations
// (any setState method, the invariant credit-ledger probes that shadow
// the real ledger, and spans.Recorder.Transition) must never execute
// on a goroutine launched with a bare `go` statement, and neither may
// a write (plain assignment, op-assignment, or ++/--) into a field of a
// per-session record (the sessionRecords types), whose credit counters,
// deficits, load depths and queues are mutated loop-confined, never
// under a lock.
//
// A confined call is reported when walking outward from the call site
// reaches a `go` statement before reaching either a function
// declaration (assumed to run on the owning loop, like every reactor
// callback) or a function literal handed to a loop scheduler (an
// argument of a call whose method is named Post, After, or AfterFunc —
// those run the literal back on the loop, which is exactly the
// sanctioned way to cross shards). Literals that escape through other
// calls, assignments, or returns inherit their defining context rather
// than being guessed at, so mailbox handlers and completion callbacks
// stay quiet. The invariant and spans packages drive their own
// primitives freely.
var LoopConfine = &Analyzer{
	Name: "loopconfine",
	Doc:  "flag loop-confined calls and session-record writes on raw goroutines",
	Run:  runLoopConfine,
}

// loopHandoff names the scheduler methods that move a closure onto an
// event loop: a literal passed to one of these runs loop-confined again.
var loopHandoff = map[string]bool{
	"Post":      true,
	"After":     true,
	"AfterFunc": true,
}

// sessionRecords names the per-session record types owned by their
// connection's loop: no field of one may be written on a raw goroutine.
var sessionRecords = map[string]bool{
	"srcSession":  true,
	"sinkSession": true,
}

func runLoopConfine(pass *Pass) error {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.CallExpr:
				if what := confinedCall(pass, n); what != "" && onRawGoroutine(stack) {
					pass.Report(Diagnostic{
						Pos: n.Pos(),
						Message: "loop-confined call (" + what + ") on a raw goroutine: " +
							"shard state is single-loop by design; hand the work to the owning loop with Post",
					})
				}
				return true
			case *ast.AssignStmt:
				targets = n.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			default:
				return true
			}
			for _, lhs := range targets {
				if what := sessionFieldWrite(pass, lhs); what != "" && onRawGoroutine(stack) {
					pass.Report(Diagnostic{
						Pos: lhs.Pos(),
						Message: "session-affine write (" + what + ") on a raw goroutine: " +
							"session records are owned by the connection's loop; hand the write to it with Post",
					})
				}
			}
			return true
		})
	}
	return nil
}

// confinedCall classifies call as one of the loop-confined operations,
// returning a short label for the diagnostic ("" when unconfined).
func confinedCall(pass *Pass, call *ast.CallExpr) string {
	if isRecorderTransition(pass, call) {
		return "spans.Recorder.Transition"
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	var obj types.Object
	if s, ok := pass.Info.Selections[sel]; ok {
		obj = s.Obj()
	} else {
		obj = pass.Info.Uses[sel.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if fn.Name() == "setState" && sig != nil && sig.Recv() != nil {
		return "setState"
	}
	// The credit probes mirror the ledger mutations one-for-one, so they
	// mark exactly the sites that must stay on-loop. The invariant
	// package itself (and its tests) is exempt.
	switch fn.Name() {
	case "CreditGrant", "CreditConsume", "CreditOutstanding":
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg && pathBase(fn.Pkg().Path()) == "invariant" {
			return "invariant." + fn.Name()
		}
	}
	return ""
}

// sessionFieldWrite classifies lhs as a field write into a session
// record, returning "type.field" for the diagnostic ("" otherwise).
// Nested paths (sess.info.ID = …) count: the root record is still
// being mutated.
func sessionFieldWrite(pass *Pass, lhs ast.Expr) string {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if name := sessionTypeName(pass.Info.Types[e.X].Type); name != "" {
				return name + "." + e.Sel.Name
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return ""
		}
	}
}

// sessionTypeName returns the name of t (possibly behind pointers) when
// it is one of the sessionRecords types, "" otherwise.
func sessionTypeName(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && sessionRecords[named.Obj().Name()] {
		return named.Obj().Name()
	}
	return ""
}

// onRawGoroutine walks the enclosure stack (innermost last) outward
// from a confined call and reports whether the nearest decisive
// boundary is a `go` statement.
func onRawGoroutine(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.GoStmt:
			// `go b.setState(x)` — the confined call is launched directly.
			return true
		case *ast.FuncDecl:
			return false
		case *ast.FuncLit:
			parent := enclosing(stack, i)
			pcall, ok := parent.(*ast.CallExpr)
			if !ok {
				// Assigned, returned, or stored: the literal inherits its
				// defining context — keep walking.
				continue
			}
			if ast.Unparen(pcall.Fun) == n {
				// Immediately invoked (possibly by go/defer); the statement
				// above decides, so keep walking.
				continue
			}
			// The literal is an argument. A loop handoff re-confines it;
			// any other callee leaves the defining context in force.
			if sel, ok := ast.Unparen(pcall.Fun).(*ast.SelectorExpr); ok && loopHandoff[sel.Sel.Name] {
				return false
			}
			continue
		}
	}
	return false
}

// enclosing returns the nearest non-paren ancestor of stack[i].
func enclosing(stack []ast.Node, i int) ast.Node {
	for j := i - 1; j >= 0; j-- {
		if _, ok := stack[j].(*ast.ParenExpr); ok {
			continue
		}
		return stack[j]
	}
	return nil
}
