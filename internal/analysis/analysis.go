// Package analysis is RFTP's custom static-analysis suite: a minimal
// go/analysis-style framework (self-contained, standard library only)
// plus the protocol-specific passes cmd/rftplint runs over the tree.
//
// The passes machine-check the three conventions the paper's
// correctness story rests on but the compiler cannot see:
//
//   - fsmtransition: every write to a state-machine field guarded by a
//     setState method must go through setState, keeping the validNext
//     transition table the single source of truth (Figure 6); and every
//     spans.Recorder.Transition call (a lifecycle span stamp) must sit
//     inside a setState body, so the span table can never record a
//     transition the FSM did not validate.
//   - bufownership: after a buffer is handed to PostSend (zero-copy
//     verbs ownership), the caller must not mutate or repost it until
//     the completion returns ownership.
//   - loopconfine: loop-confined operations (setState, the credit
//     ledger, span stamps) and writes into per-session records
//     (srcSession, sinkSession) must never run on a raw goroutine —
//     crossing shards is only sanctioned through a loop's Post/After
//     handoff.
//   - blockleak: flow-sensitive — every pool acquisition must reach a
//     release, repost, or ownership handoff on every path out of the
//     function, error returns included (CFG + forward dataflow + one-
//     level call summaries; see cfg.go and dataflow.go).
//   - msgexhaustive: every MsgType switch covers all constants or
//     defaults explicitly; every Flag* bit is used outside its
//     declaring file; encoder/decoder field sets match and decoders
//     bounds-check their input.
//   - fsmlive: the validNext transition table itself is live — every
//     state reachable from the zero state, every state with a path
//     back, every transition target exercised by a setState call.
//
// Findings are suppressed with an inline comment on the flagged line
// (or alone on the line above):
//
//	//lint:allow <pass-name> <justification>
//
// The justification is mandatory by convention; the suppression is
// reported by cmd/rftplint -allows so stale ones stay visible, and a
// suppression whose pass ran without matching anything, or that names
// no pass in All, is stale — surfaced by Result.Stale and fatal under
// rftplint -strict-allows.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in output and in //lint:allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package.
	Run func(*Pass) error
	// Begin, when non-nil, allocates whole-program state shared by every
	// Pass (via Pass.Shared) across packages of one Run call.
	Begin func() any
	// End, when non-nil, runs after every package has been visited and
	// reports whole-program findings (e.g. a Flag* bit never used).
	End func(shared any, report func(Diagnostic))
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Shared is the value returned by Analyzer.Begin (nil otherwise).
	Shared any
	// Report records one finding. Suppressed findings are dropped by the
	// driver before they reach the caller.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic as returned by Run.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Suppression records one //lint:allow comment encountered in a loaded
// file, whether or not it matched a finding.
type Suppression struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	// Used marks a suppression that dropped at least one finding in this
	// Run. A suppression for an analyzer that ran but stayed unused is
	// stale: the code it excused has been fixed (or moved), and the
	// comment now only licenses a future regression.
	Used bool
}

// allowKey addresses a source line for suppression lookup.
type allowKey struct {
	file string
	line int
}

// allowIndex maps lines to suppression indices (into the Result's
// Suppressions slice) in force there.
type allowIndex map[allowKey][]int

// collectAllows scans file comments for //lint:allow directives. A
// directive suppresses findings of the named analyzer on its own line
// and, when it is the only thing on its line, on the following line.
func collectAllows(fset *token.FileSet, files []*ast.File, idx allowIndex, sups *[]Suppression) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				if len(fields) == 0 {
					continue
				}
				name := fields[0]
				pos := fset.Position(c.Pos())
				i := len(*sups)
				*sups = append(*sups, Suppression{
					Pos:      pos,
					Analyzer: name,
					Reason:   strings.Join(fields[1:], " "),
				})
				key := allowKey{pos.Filename, pos.Line}
				idx[key] = append(idx[key], i)
				next := allowKey{pos.Filename, pos.Line + 1}
				idx[next] = append(idx[next], i)
			}
		}
	}
}

// allowed reports whether a suppression for name is in force at pos,
// marking every matching suppression used.
func (idx allowIndex) allowed(name string, pos token.Position, sups []Suppression) bool {
	hit := false
	for _, i := range idx[allowKey{pos.Filename, pos.Line}] {
		if sups[i].Analyzer == name {
			sups[i].Used = true
			hit = true
		}
	}
	return hit
}

// Result is the outcome of running a set of analyzers over a set of
// packages.
type Result struct {
	Findings     []Finding
	Suppressions []Suppression
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. Package order is the loader's
// (dependency order), so whole-program analyzers see a stable view.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	res := &Result{}
	if len(pkgs) == 0 {
		return res, nil
	}
	fset := pkgs[0].Fset
	allows := make(allowIndex)
	for _, p := range pkgs {
		collectAllows(fset, p.Files, allows, &res.Suppressions)
	}
	for _, a := range analyzers {
		var shared any
		if a.Begin != nil {
			shared = a.Begin()
		}
		report := func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if allows.allowed(a.Name, pos, res.Suppressions) {
				return
			}
			res.Findings = append(res.Findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		for _, p := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    p.Files,
				Pkg:      p.Types,
				Info:     p.Info,
				Shared:   shared,
				Report:   report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, p.ImportPath, err)
			}
		}
		if a.End != nil {
			a.End(shared, report)
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

// Stale returns the suppressions that excuse nothing: those addressed
// to an analyzer that ran in this Result but matched no finding
// (comments excusing code that no longer trips the pass), and those
// naming no analyzer in All (a typo, or a pass since deleted, which
// would otherwise be honoured forever). A suppression for a known
// analyzer outside the run set is not judged: this invocation did not
// include its pass.
func (r *Result) Stale(analyzers []*Analyzer) []Suppression {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var stale []Suppression
	for _, s := range r.Suppressions {
		if !s.Used && (ran[s.Analyzer] || !known[s.Analyzer]) {
			stale = append(stale, s)
		}
	}
	return stale
}

// All returns the full RFTP analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{FSMTransition, BufOwnership, LoopConfine, BlockLeak, MsgExhaustive, FSMLive}
}

// pathString renders an ident/selector chain as a stable dotted path
// ("s.ep.Ctrl"), eliding index and slice expressions ("s.ctrlQ[]").
// Expressions that are not simple paths render as "" (never matched).
// bufownership matches buffer and work-request aliases by it.
func pathString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := pathString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := pathString(e.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	case *ast.SliceExpr:
		return pathString(e.X)
	case *ast.ParenExpr:
		return pathString(e.X)
	case *ast.StarExpr:
		return pathString(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return pathString(e.X)
		}
		return ""
	default:
		return ""
	}
}
