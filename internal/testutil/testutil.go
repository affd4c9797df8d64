// Package testutil holds checks shared between core's property tests and the
// conformance harness: trace generation, the Section 4.1 annotation-set
// invariants, and shared-memory comparison. Everything returns errors rather
// than calling testing.T so the helpers compose inside testing/quick
// predicates and fuzz targets alike.
package testutil

import (
	"fmt"
	"math/rand"
	"testing"

	"cachier/internal/core"
	"cachier/internal/interp"
	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/trace"
)

// RandomTrace builds an arbitrary (possibly racy) multi-epoch trace: the
// annotation equations must hold for any trace, not just ones a real
// simulation can produce.
func RandomTrace(rng *rand.Rand) *trace.Trace {
	nodes := 1 + rng.Intn(4)
	b := trace.NewBuilder(nodes, 32, nil)
	epochs := 1 + rng.Intn(5)
	for e := 0; e < epochs; e++ {
		for i := 0; i < rng.Intn(30); i++ {
			b.AddMiss(trace.Kind(rng.Intn(3)), 32+uint64(rng.Intn(32))*8,
				rng.Intn(50), rng.Intn(nodes))
		}
		vt := make([]uint64, nodes)
		pc := rng.Intn(20)
		final := e == epochs-1
		if final {
			pc = -1
		}
		b.EndEpoch(pc, vt, final)
	}
	return b.Trace()
}

// CheckAnnotationSets verifies the Section 4.1 equation invariants for one
// style's computed annotations against the epoch sets they came from:
// co_x only of written addresses, co_s only of read addresses and never
// doubling a co_x, ci only of touched addresses.
func CheckAnnotationSets(epochs []*core.EpochSets, ann [][]core.AnnSets, style core.Style) error {
	for i, es := range epochs {
		for n, ns := range es.Nodes {
			a := ann[i][n]
			s := ns.S()
			for _, addr := range a.CoX {
				if !ns.SW.Has(addr) {
					return fmt.Errorf("style %v epoch %d node %d: co_x of unwritten %d", style, i, n, addr)
				}
			}
			for _, addr := range a.CoS {
				if !ns.SR.Has(addr) {
					return fmt.Errorf("style %v epoch %d node %d: co_s of unread %d", style, i, n, addr)
				}
				if a.CoX.Has(addr) {
					return fmt.Errorf("style %v epoch %d node %d: %d both co_s and co_x", style, i, n, addr)
				}
			}
			for _, addr := range a.CI {
				if !s.Has(addr) {
					return fmt.Errorf("style %v epoch %d node %d: ci of untouched %d", style, i, n, addr)
				}
			}
		}
	}
	return nil
}

// DiffSharedMemory compares every shared region word-for-word between two
// stores laid out by the same Layout, returning an error naming the first
// differing element. Floats are compared as raw bits: for race-free programs
// every variant executes the identical per-element operation sequence, so
// even NaN payloads must agree.
func DiffSharedMemory(layout *memory.Layout, got, want *interp.Store) error {
	for _, r := range layout.Regions {
		for off := uint64(0); off < r.Bytes; off += parc.ElemSize {
			addr := r.BaseAddr + off
			g, w := got.Load(addr), want.Load(addr)
			if g != w {
				idx, _ := r.IndexOf(addr)
				return fmt.Errorf("shared %s%v: got %#x (%v), want %#x (%v)",
					r.Name, idx,
					g, interp.FromBits(g, r.Base == parc.FloatType),
					w, interp.FromBits(w, r.Base == parc.FloatType))
			}
		}
	}
	return nil
}

// MustParse parses and checks src, failing the test on any error.
func MustParse(tb testing.TB, src string) *parc.Program {
	tb.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	return prog
}
