package core

import (
	"slices"
	"testing"

	"cachier/internal/trace"
)

// Figure 4 reconstruction (E7). Four variables in distinct cache blocks:
//
//	a=32, b=64, c=96, d=128 (32-byte blocks)
//
// Epoch 0 (the paper's epoch i-1, the program's first epoch):
//
//	P0: write a, write b, read d        P1: read a   -> data race on a
//
// Epoch 1 (epoch i):
//
//	P0: read c, read a, read d, write b P1: idle
//
// Epoch 2 (epoch i+1):
//
//	P0: read a, write b                 P1: write c
//
// Section 4.1's stated results:
//
//	Programmer epoch i:   co_s(c), co_s(a), ci(c), ci(d)
//	Performance epoch i:  ci(c)
//	Programmer epoch i-1: co_x(a), co_x(b), co_s(d), ci(a)
//	Performance epoch i-1: ci(a)
const (
	aAddr = uint64(32)
	bAddr = uint64(64)
	cAddr = uint64(96)
	dAddr = uint64(128)
)

func figure4Trace() *trace.Trace {
	b := trace.NewBuilder(2, 32, nil)
	// Epoch 0 (i-1)
	b.AddMiss(trace.WriteMiss, aAddr, 10, 0)
	b.AddMiss(trace.WriteMiss, bAddr, 11, 0)
	b.AddMiss(trace.ReadMiss, dAddr, 12, 0)
	b.AddMiss(trace.ReadMiss, aAddr, 13, 1)
	b.EndEpoch(100, []uint64{50, 50}, false)
	// Epoch 1 (i)
	b.AddMiss(trace.ReadMiss, cAddr, 20, 0)
	b.AddMiss(trace.ReadMiss, aAddr, 21, 0)
	b.AddMiss(trace.ReadMiss, dAddr, 22, 0)
	b.AddMiss(trace.WriteMiss, bAddr, 23, 0)
	b.EndEpoch(100, []uint64{90, 90}, false)
	// Epoch 2 (i+1)
	b.AddMiss(trace.ReadMiss, aAddr, 30, 0)
	b.AddMiss(trace.WriteMiss, bAddr, 31, 0)
	b.AddMiss(trace.WriteMiss, cAddr, 32, 1)
	b.EndEpoch(-1, []uint64{130, 130}, true)
	return b.Trace()
}

func setEq(t *testing.T, name string, got AddrSet, want ...uint64) {
	t.Helper()
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestFigure4ProgrammerCICO(t *testing.T) {
	epochs := ProcessTrace(figure4Trace())
	conflicts := FindAllConflicts(epochs, 32)
	ann := ComputeAnnotations(epochs, conflicts, StyleProgrammer)

	// Epoch i-1 (index 0), node 0: co_x(a), co_x(b), co_s(d), ci(a).
	e0 := ann[0][0]
	setEq(t, "epoch i-1 co_x", e0.CoX, aAddr, bAddr)
	setEq(t, "epoch i-1 co_s", e0.CoS, dAddr)
	setEq(t, "epoch i-1 ci", e0.CI, aAddr)

	// Epoch i (index 1), node 0: co_s(c), co_s(a), ci(c), ci(d); no co_x.
	e1 := ann[1][0]
	setEq(t, "epoch i co_x", e1.CoX)
	setEq(t, "epoch i co_s", e1.CoS, aAddr, cAddr)
	setEq(t, "epoch i ci", e1.CI, cAddr, dAddr)
}

func TestFigure4PerformanceCICO(t *testing.T) {
	epochs := ProcessTrace(figure4Trace())
	conflicts := FindAllConflicts(epochs, 32)
	ann := ComputeAnnotations(epochs, conflicts, StylePerformance)

	// Epoch i-1: just ci(a) (the data race makes the check-in necessary).
	e0 := ann[0][0]
	setEq(t, "perf epoch i-1 co_x", e0.CoX)
	setEq(t, "perf epoch i-1 co_s", e0.CoS)
	setEq(t, "perf epoch i-1 ci", e0.CI, aAddr)

	// Epoch i: just ci(c).
	e1 := ann[1][0]
	setEq(t, "perf epoch i co_x", e1.CoX)
	setEq(t, "perf epoch i co_s", e1.CoS)
	setEq(t, "perf epoch i ci", e1.CI, cAddr)
}

func TestFigure4RaceDetected(t *testing.T) {
	epochs := ProcessTrace(figure4Trace())
	conflicts := FindAllConflicts(epochs, 32)
	if !conflicts[0].Race.Has(aAddr) {
		t.Error("race on a in epoch i-1 not detected")
	}
	if conflicts[1].Race.Has(aAddr) {
		t.Error("phantom race on a in epoch i")
	}
	for i, c := range conflicts {
		if len(c.FalseShare) != 0 {
			t.Errorf("epoch %d: phantom false sharing %v", i, c.FalseShare.Sorted())
		}
	}
}

func TestProcessTraceFoldsWriteFaults(t *testing.T) {
	b := trace.NewBuilder(1, 32, nil)
	b.AddMiss(trace.ReadMiss, aAddr, 1, 0)
	b.AddMiss(trace.WriteFault, aAddr, 2, 0)
	b.AddMiss(trace.ReadMiss, bAddr, 3, 0)
	b.EndEpoch(-1, []uint64{10}, true)
	epochs := ProcessTrace(b.Trace())
	ns := epochs[0].Nodes[0]
	setEq(t, "SR", ns.SR, bAddr) // a removed: its fault folded into SW
	setEq(t, "SW", ns.SW, aAddr)
	setEq(t, "WF", ns.WF, aAddr)
	if i := ns.PCs.Addrs.search(aAddr); len(ns.PCs.At(i)) != 2 {
		t.Errorf("PCs = %v", ns.PCs.At(i))
	}
}

func TestFalseSharingDetection(t *testing.T) {
	// Nodes write different elements of one block.
	b := trace.NewBuilder(2, 32, nil)
	b.AddMiss(trace.WriteMiss, 32, 1, 0)
	b.AddMiss(trace.WriteMiss, 40, 2, 1)
	// Another block read by both nodes at different addresses: no write, so
	// no false sharing under the write-required interpretation.
	b.AddMiss(trace.ReadMiss, 64, 3, 0)
	b.AddMiss(trace.ReadMiss, 72, 4, 1)
	// Same-address contention only: race, not false sharing.
	b.AddMiss(trace.WriteMiss, 96, 5, 0)
	b.AddMiss(trace.ReadMiss, 96, 6, 1)
	b.EndEpoch(-1, []uint64{10, 10}, true)
	epochs := ProcessTrace(b.Trace())
	c := FindConflicts(epochs[0], 32)
	setEq(t, "false sharing", c.FalseShare, 32, 40)
	setEq(t, "races", c.Race, 96)
}

func TestFalseSharingAsymmetric(t *testing.T) {
	// Node 0 touches both elements, node 1 only one: both addresses still
	// falsely share with respect to the other node's accesses.
	b := trace.NewBuilder(2, 32, nil)
	b.AddMiss(trace.WriteMiss, 32, 1, 0)
	b.AddMiss(trace.ReadMiss, 40, 2, 0)
	b.AddMiss(trace.ReadMiss, 40, 3, 1)
	b.EndEpoch(-1, []uint64{10, 10}, true)
	epochs := ProcessTrace(b.Trace())
	c := FindConflicts(epochs[0], 32)
	if !c.FalseShare.Has(32) || !c.FalseShare.Has(40) {
		t.Errorf("false sharing = %v", c.FalseShare.Sorted())
	}
	// 40 is touched by both nodes but never written; only the block is
	// written. It is false sharing, not a race.
	if c.Race.Has(40) || c.Race.Has(32) {
		t.Errorf("races = %v", c.Race.Sorted())
	}
}

func TestAddrSetOps(t *testing.T) {
	s := AddrSet{1, 2, 3}
	u := AddrSet{3, 4}
	setEq(t, "union", s.Union(u), 1, 2, 3, 4)
	setEq(t, "union with empty", s.Union(nil), 1, 2, 3)
	setEq(t, "normalize", normalize([]uint64{3, 1, 3, 2, 1}), 1, 2, 3)
	for a := uint64(0); a <= 5; a++ {
		if got, want := s.Has(a), a >= 1 && a <= 3; got != want {
			t.Errorf("Has(%d) = %v", a, got)
		}
	}
	if (AddrSet)(nil).Has(0) {
		t.Error("empty set has a member")
	}
	got := s.Sorted()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("sorted = %v", got)
	}
}

func TestCheckInSuppressedWhenReusedNextEpoch(t *testing.T) {
	// P0 writes x in both epochs; Programmer CICO must not check x in at
	// the end of epoch 0 (it is reused), modelling the cache across the
	// epoch boundary.
	b := trace.NewBuilder(1, 32, nil)
	b.AddMiss(trace.WriteMiss, aAddr, 1, 0)
	b.EndEpoch(5, []uint64{10}, false)
	b.AddMiss(trace.WriteMiss, aAddr, 2, 0)
	b.EndEpoch(-1, []uint64{20}, true)
	epochs := ProcessTrace(b.Trace())
	conflicts := FindAllConflicts(epochs, 32)
	ann := ComputeAnnotations(epochs, conflicts, StyleProgrammer)
	setEq(t, "epoch 0 ci", ann[0][0].CI)
	setEq(t, "epoch 0 co_x", ann[0][0].CoX, aAddr)
	// And epoch 1 needs no fresh check-out: it was checked out in epoch 0.
	setEq(t, "epoch 1 co_x", ann[1][0].CoX)
	setEq(t, "epoch 1 ci", ann[1][0].CI, aAddr)
}
