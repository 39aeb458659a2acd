package analysis

import "testing"

func TestFSMTransitionFixture(t *testing.T) {
	res := runFixture(t, FSMTransition, "fsm")
	assertSuppression(t, res, "fsmtransition")
}

func TestSpanStampFixture(t *testing.T) {
	res := runFixture(t, FSMTransition, "spanstamp")
	assertSuppression(t, res, "fsmtransition")
	// A package with no guarded state field is still checked for stamps.
	runFixture(t, FSMTransition, "spanstamp/unguarded")
}

func TestBufOwnershipFixture(t *testing.T) {
	res := runFixture(t, BufOwnership, "bufown")
	assertSuppression(t, res, "bufownership")
}

func TestLoopConfineFixture(t *testing.T) {
	res := runFixture(t, LoopConfine, "loopconfine")
	assertSuppression(t, res, "loopconfine")
}

func TestSessionAffinityFixture(t *testing.T) {
	res := runFixture(t, LoopConfine, "sessionaffinity")
	assertSuppression(t, res, "loopconfine")
}

func TestBlockLeakFixture(t *testing.T) {
	res := runFixture(t, BlockLeak, "blockleak")
	assertSuppression(t, res, "blockleak")
}

func TestMsgExhaustiveFixture(t *testing.T) {
	res := runFixture(t, MsgExhaustive, "msgexhaustive")
	assertSuppression(t, res, "msgexhaustive")
}

func TestFSMLiveFixture(t *testing.T) {
	runFixture(t, FSMLive, "fsmlive")
}

// assertSuppression checks that the fixture's //lint:allow line was
// recorded (the want-matching in runFixture already proved it produced
// no finding).
func assertSuppression(t *testing.T, res *Result, analyzer string) {
	t.Helper()
	for _, s := range res.Suppressions {
		if s.Analyzer == analyzer {
			if s.Reason == "" {
				t.Errorf("suppression at %s has no justification", s.Pos)
			}
			return
		}
	}
	t.Errorf("no %s suppression recorded; fixture should carry one //lint:allow", analyzer)
}

// TestStaleSuppressionDetection pins the staleness semantics on a
// fixture: an allow whose pass ran and matched nothing is stale, but
// only relative to the set of analyzers that actually ran; an allow
// naming no pass in All is stale whatever ran.
func TestStaleSuppressionDetection(t *testing.T) {
	pkgs, err := Load("", nil, "./testdata/src/staleallow")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	res, err := Run(pkgs, []*Analyzer{BlockLeak})
	if err != nil {
		t.Fatalf("running blockleak: %v", err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("fixture is clean but got findings:\n%s", findingsString(res))
	}
	stale := res.Stale([]*Analyzer{BlockLeak})
	if len(stale) != 2 || stale[0].Analyzer != "blockleak" || stale[1].Analyzer != "nosuchpass" {
		t.Fatalf("stale = %+v, want the unused blockleak allow and the nosuchpass allow", stale)
	}
	// The blockleak suppression is not judged against a run that did not
	// include its pass; the one naming no known pass still is.
	if got := res.Stale([]*Analyzer{FSMLive}); len(got) != 1 || got[0].Analyzer != "nosuchpass" {
		t.Errorf("stale outside blockleak's run = %+v, want only the nosuchpass allow", got)
	}
}

// TestRepoClean runs the full suite over the whole module — the same
// invocation as make lint — and fails on any finding or any stale
// suppression (the -strict-allows gate). Fixture packages under
// testdata are excluded from ./... expansion by the go tool.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs, err := Load("../..", nil, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	res, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	if len(res.Findings) > 0 {
		t.Errorf("suite reported %d findings on the tree:\n%s", len(res.Findings), findingsString(res))
	}
	for _, s := range res.Stale(All()) {
		t.Errorf("%s: stale suppression: allow %s matched no finding (fix shipped? remove the comment)", s.Pos, s.Analyzer)
	}
}
