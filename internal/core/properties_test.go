package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cachier/internal/core"
	"cachier/internal/testutil"
)

// TestEquationInvariants: for any trace and both styles, the Section 4.1
// equations only ever annotate addresses the node actually touched, keep
// co_x within the write set, co_s within the read set, and never check the
// same address out both shared and exclusive for one node in one epoch.
// The checks themselves live in testutil so the conformance harness applies
// the identical invariants to real simulation traces.
func TestEquationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := testutil.RandomTrace(rng)
		epochs := core.ProcessTrace(tr)
		conflicts := core.FindAllConflicts(epochs, tr.BlockSize)
		for _, style := range []core.Style{core.StyleProgrammer, core.StylePerformance} {
			ann := core.ComputeAnnotations(epochs, conflicts, style)
			if err := testutil.CheckAnnotationSets(epochs, ann, style); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPerformanceSubsetOfProgrammer: Performance CICO's check-outs are a
// subset of Programmer CICO's — it only strips annotations Dir1SW makes
// redundant, never adds new ones (Section 4.1).
func TestPerformanceCoXSubset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := testutil.RandomTrace(rng)
		epochs := core.ProcessTrace(tr)
		conflicts := core.FindAllConflicts(epochs, tr.BlockSize)
		prog := core.ComputeAnnotations(epochs, conflicts, core.StyleProgrammer)
		perf := core.ComputeAnnotations(epochs, conflicts, core.StylePerformance)
		for i := range epochs {
			for n := range epochs[i].Nodes {
				for _, addr := range perf[i][n].CoX {
					if !prog[i][n].CoX.Has(addr) {
						t.Logf("epoch %d node %d: performance co_x %d not in programmer set", i, n, addr)
						return false
					}
				}
				if len(perf[i][n].CoS) != 0 {
					t.Logf("epoch %d node %d: performance co_s not empty", i, n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestConflictSymmetry: race and false-sharing detection do not depend on
// miss ordering within an epoch (the trace has no such ordering).
func TestConflictOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := testutil.RandomTrace(rng)
		epochs1 := core.ProcessTrace(tr)
		// Shuffle each epoch's misses and re-process.
		for i := range tr.Epochs {
			ms := tr.Epochs[i].Misses
			rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
		}
		epochs2 := core.ProcessTrace(tr)
		c1 := core.FindAllConflicts(epochs1, tr.BlockSize)
		c2 := core.FindAllConflicts(epochs2, tr.BlockSize)
		for i := range c1 {
			if !slices.Equal(c1[i].Race, c2[i].Race) || !slices.Equal(c1[i].FalseShare, c2[i].FalseShare) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
