package core

import (
	"strings"
	"testing"

	"cachier/internal/analysis"
	"cachier/internal/memory"
	"cachier/internal/parc"
)

func newTestPlanner(t *testing.T, src string, cacheSize int) *planner {
	t.Helper()
	prog := mustParse(t, src)
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	if cacheSize > 0 {
		opts.CacheSize = cacheSize
	}
	return newPlanner(prog, analysis.Analyze(prog), layout, opts)
}

func TestProgression(t *testing.T) {
	cases := []struct {
		in           []int64
		lo, hi, step int64
		ok           bool
	}{
		{[]int64{2, 4, 6, 8}, 2, 8, 2, true},
		{[]int64{1, 9, 17}, 1, 17, 8, true},
		{[]int64{1, 2, 3}, 0, 0, 0, false}, // unit stride: use a range
		{[]int64{5}, 0, 0, 0, false},       // single element
		{[]int64{1, 3, 6}, 0, 0, 0, false}, // irregular
		{[]int64{4, 2}, 0, 0, 0, false},    // not ascending
		{[]int64{0, 4, 8, 13}, 0, 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, step, ok := progression(c.in)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi || step != c.step)) {
			t.Errorf("progression(%v) = %d,%d,%d,%v want %d,%d,%d,%v",
				c.in, lo, hi, step, ok, c.lo, c.hi, c.step, c.ok)
		}
	}
}

func TestTripCount(t *testing.T) {
	prog := mustParse(t, `
const N = 10;
func main() {
    for i = 0 to N - 1 { }
    for j = 10 to 1 step -3 { }
    for k = 5 to 4 { }
    for l = 0 to nprocs() { }
}
`)
	var loops []*parc.ForStmt
	parc.WalkProgram(prog, func(s parc.Stmt) bool {
		if f, ok := s.(*parc.ForStmt); ok {
			loops = append(loops, f)
		}
		return true
	})
	if n, ok := analysis.TripCount(loops[0], prog.ConstVal); !ok || n != 10 {
		t.Errorf("i loop: %d, %v", n, ok)
	}
	if n, ok := analysis.TripCount(loops[1], prog.ConstVal); !ok || n != 4 {
		t.Errorf("j loop (10,7,4,1): %d, %v", n, ok)
	}
	if n, ok := analysis.TripCount(loops[2], prog.ConstVal); !ok || n != 0 {
		t.Errorf("empty loop: %d, %v", n, ok)
	}
	if _, ok := analysis.TripCount(loops[3], prog.ConstVal); ok {
		t.Error("non-constant bound evaluated")
	}
}

func TestUnitStep(t *testing.T) {
	prog := mustParse(t, `
func main() {
    for a = 0 to 3 { }
    for b = 3 to 0 step -1 { }
    for c = 0 to 8 step 2 { }
}
`)
	var loops []*parc.ForStmt
	parc.WalkProgram(prog, func(s parc.Stmt) bool {
		if f, ok := s.(*parc.ForStmt); ok {
			loops = append(loops, f)
		}
		return true
	})
	if !unitStep(loops[0], prog.ConstVal) || !unitStep(loops[1], prog.ConstVal) {
		t.Error("unit steps rejected")
	}
	if unitStep(loops[2], prog.ConstVal) {
		t.Error("stride-2 accepted as unit")
	}
}

const hoistSrc = `
const N = 16;
shared float A[N][N] label "A";
func main() {
    var t float;
    for i = 0 to N - 1 {
        for j = 0 to N - 1 {
            t = A[i][j];
        }
        barrier;
    }
}
`

func TestHoistStopsAtBarrierLoop(t *testing.T) {
	// The i loop contains a barrier, so hoisting must stop at the j level.
	pl := newTestPlanner(t, hoistSrc, 0)
	var site parc.Stmt
	parc.WalkProgram(pl.prog, func(s parc.Stmt) bool {
		if a, ok := s.(*parc.AssignStmt); ok && a.LHS.Name == "t" {
			site = s
		}
		return true
	})
	ref, ok := pl.refFor(site, "A", false)
	if !ok {
		t.Fatal("no ref")
	}
	w := &siteWork{site: site, varName: "A", perNode: make([]AddrSet, 1), merged: AddrSet{}}
	anchor, hoisted := pl.hoist(w, ref)
	if len(hoisted) != 1 || hoisted[0].Var != "j" {
		t.Fatalf("hoisted %d loops", len(hoisted))
	}
	if f, ok := anchor.(*parc.ForStmt); !ok || f.Var != "j" {
		t.Errorf("anchor = %T", anchor)
	}
}

func TestHoistRespectsCacheBudget(t *testing.T) {
	src := `
const N = 16;
shared float A[N][N] label "A";
func main() {
    var t float;
    for i = 0 to N - 1 {
        for j = 0 to N - 1 {
            t = A[i][j];
        }
    }
}
`
	var site parc.Stmt
	find := func(pl *planner) {
		site = nil
		parc.WalkProgram(pl.prog, func(s parc.Stmt) bool {
			if a, ok := s.(*parc.AssignStmt); ok && a.LHS.Name == "t" {
				site = s
			}
			return true
		})
	}
	// Big cache: hoist above both loops.
	big := newTestPlanner(t, src, 1<<20)
	find(big)
	ref, _ := big.refFor(site, "A", false)
	w := &siteWork{site: site, varName: "A", perNode: make([]AddrSet, 1), merged: AddrSet{}}
	_, hoisted := big.hoist(w, ref)
	if len(hoisted) != 2 {
		t.Errorf("big cache hoisted %d loops, want 2", len(hoisted))
	}
	// Tiny cache: a full row (16*8=128B) exceeds budget 0.5*128=64B; no
	// hoisting at all.
	tiny := newTestPlanner(t, src, 128)
	find(tiny)
	ref, _ = tiny.refFor(site, "A", false)
	w = &siteWork{site: site, varName: "A", perNode: make([]AddrSet, 1), merged: AddrSet{}}
	_, hoisted = tiny.hoist(w, ref)
	if len(hoisted) != 0 {
		t.Errorf("tiny cache hoisted %d loops, want 0", len(hoisted))
	}
}

func TestDynamicRef(t *testing.T) {
	src := `
const N = 16;
shared float A[N] label "A";
func main() {
    var c int = 3;
    for i = 0 to N - 1 {
        A[i] = 1.0;          // structured
        A[i + 1] = 2.0;      // structured (affine)
        A[c] = 3.0;          // constant-ish local: dynamic
        A[i * 2] = 4.0;      // non-affine: dynamic
        A[5] = 5.0;          // constant literal: structured
    }
}
`
	pl := newTestPlanner(t, src, 0)
	var refs []analysis.Ref
	parc.WalkProgram(pl.prog, func(s parc.Stmt) bool {
		if a, ok := s.(*parc.AssignStmt); ok && a.LHS.Name == "A" {
			r, _ := pl.refFor(s, "A", true)
			refs = append(refs, r)
		}
		return true
	})
	want := []bool{false, false, true, true, false}
	for i, r := range refs {
		if got := pl.dynamicRef(r); got != want[i] {
			t.Errorf("ref %d: dynamicRef = %v, want %v", i, got, want[i])
		}
	}
}

func TestLiteralTargets(t *testing.T) {
	src := `
shared float V[64] label "V";
shared float M[8][8] label "M";
shared int s label "s";
func main() { }
`
	pl := newTestPlanner(t, src, 0)
	v := pl.layout.Region("V")
	m := pl.layout.Region("M")

	addrOf := func(r *memory.Region, ix ...int) uint64 {
		a, err := r.AddrOf(ix...)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	render := func(ts []*parc.RangeRef) string {
		var parts []string
		for _, t := range ts {
			parts = append(parts, parc.RangeRefString(t))
		}
		return strings.Join(parts, " ")
	}

	// 1-D: block-coalesced single run.
	set := AddrSet{addrOf(v, 0), addrOf(v, 4), addrOf(v, 8)}
	if got := render(pl.literalTargets("V", set)); got != "V[0:11]" {
		t.Errorf("1-D coalesced: %q", got)
	}
	// 1-D: two runs with a block gap.
	set = AddrSet{addrOf(v, 0), addrOf(v, 32)}
	if got := render(pl.literalTargets("V", set)); got != "V[0:3] V[32:35]" {
		t.Errorf("1-D gapped: %q", got)
	}
	// 2-D: run within one row.
	set = AddrSet{addrOf(m, 2, 0), addrOf(m, 2, 4)}
	if got := render(pl.literalTargets("M", set)); got != "M[2:2][0:7]" {
		t.Errorf("2-D one row: %q", got)
	}
	// 2-D: full-row crossing run.
	set = AddrSet{}
	for i := 1; i <= 3; i++ {
		for j := 0; j < 8; j += 4 {
			set = append(set, addrOf(m, i, j))
		}
	}
	if got := render(pl.literalTargets("M", set)); got != "M[1:3][0:7]" {
		t.Errorf("2-D full rows: %q", got)
	}
	// Scalar.
	if got := render(pl.literalTargets("s", AddrSet{pl.layout.Region("s").BaseAddr})); got != "s" {
		t.Errorf("scalar: %q", got)
	}
	// Empty set and unknown variable.
	if pl.literalTargets("V", AddrSet{}) != nil {
		t.Error("empty set produced targets")
	}
	if pl.literalTargets("nope", AddrSet{1}) != nil {
		t.Error("unknown variable produced targets")
	}
}

func TestSubstVarAndPipelineTarget(t *testing.T) {
	prog := mustParse(t, `
shared float B[16][16];
func main() {
    var lj int = 0;
    for k = 0 to 15 {
        check_out_s B[k][lj:lj + 3];
    }
}
`)
	var c *parc.CICOStmt
	var loop *parc.ForStmt
	parc.WalkProgram(prog, func(s parc.Stmt) bool {
		switch n := s.(type) {
		case *parc.CICOStmt:
			c = n
		case *parc.ForStmt:
			loop = n
		}
		return true
	})
	next := pipelineTarget(c.Target, loop, prog.ConstVal)
	if got := parc.RangeRefString(next); got != "B[k + 1][lj:lj + 3]" {
		t.Errorf("pipelined target = %q", got)
	}
	// Negative step pipelines downward.
	prog2 := mustParse(t, `
shared float B[16][16];
func main() {
    for k = 15 to 0 step -1 {
        check_out_s B[k][0:3];
    }
}
`)
	parc.WalkProgram(prog2, func(s parc.Stmt) bool {
		switch n := s.(type) {
		case *parc.CICOStmt:
			c = n
		case *parc.ForStmt:
			loop = n
		}
		return true
	})
	next = pipelineTarget(c.Target, loop, prog2.ConstVal)
	if got := parc.RangeRefString(next); got != "B[k - 1][0:3]" {
		t.Errorf("downward pipelined target = %q", got)
	}
}

func TestLastRefSite(t *testing.T) {
	src := `
const N = 8;
shared float A[N] label "A";
func main() {
    A[0] = 1.0;          // site 1
    A[1] = 2.0;          // site 2 (last before barrier)
    barrier;
    A[2] = 3.0;          // different epoch: must not be reached
}
`
	pl := newTestPlanner(t, src, 0)
	var sites []parc.Stmt
	parc.WalkProgram(pl.prog, func(s parc.Stmt) bool {
		if a, ok := s.(*parc.AssignStmt); ok && a.LHS.Name == "A" {
			sites = append(sites, s)
		}
		return true
	})
	got := pl.lastRefSite("A", sites[0])
	if got != sites[1] {
		t.Errorf("lastRefSite stopped at ID %d, want %d", got.ID(), sites[1].ID())
	}
	// From the post-barrier site there is nothing later.
	if got := pl.lastRefSite("A", sites[2]); got != sites[2] {
		t.Errorf("post-barrier site moved to %d", got.ID())
	}
}

func TestSoleNode(t *testing.T) {
	w := &siteWork{perNode: []AddrSet{nil, {1}, nil}}
	if got := soleNode(w); got != 1 {
		t.Errorf("soleNode = %d", got)
	}
	w.perNode[2] = AddrSet{2}
	if got := soleNode(w); got != -1 {
		t.Errorf("multi-node soleNode = %d", got)
	}
	if got := soleNode(&siteWork{perNode: []AddrSet{nil, nil}}); got != -1 {
		t.Errorf("empty soleNode = %d", got)
	}
}
