package cico

import "testing"

func TestBlocksInRange(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		want   uint64
	}{
		{0, 0, 1},
		{0, 31, 1},
		{0, 32, 2},
		{31, 32, 2},
		{32, 95, 2},
		{40, 40, 1},
		{100, 99, 0}, // empty
	}
	for _, c := range cases {
		if got := BlocksInRange(c.lo, c.hi, 32); got != c.want {
			t.Errorf("BlocksInRange(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestJacobiFormulas(t *testing.T) {
	// Spot-check the paper's closed forms with N=64, P=4, T=10, b=4.
	var n, p, tt, b int64 = 64, 4, 10, 4
	// 2*64*4*10*5/4 + 64*64/4 = 6400 + 1024 = 7424
	if got := JacobiWholeMatrixCheckouts(n, p, tt, b); got != 7424 {
		t.Errorf("whole-fit = %d", got)
	}
	// (2*64*4*5/4 + 1024) * 10 = (640+1024)*10 = 16640
	if got := JacobiColumnCheckouts(n, p, tt, b); got != 16640 {
		t.Errorf("column-fit = %d", got)
	}
	// The column regime always costs at least as much per run.
	if JacobiColumnCheckouts(n, p, tt, b) < JacobiWholeMatrixCheckouts(n, p, tt, b) {
		t.Error("column regime cheaper than whole-fit regime")
	}
	// Per-processor per-column counts: N/(bP) vs NT/(bP), ratio T.
	w := JacobiPerProcColumnBlocksWholeFit(n, p, b)
	c := JacobiPerProcColumnBlocksColumnFit(n, p, tt, b)
	if c != w*tt {
		t.Errorf("per-column counts: whole %d column %d, want ratio %d", w, c, tt)
	}
}

func TestMatMulSection5Counts(t *testing.T) {
	var n, p, b int64 = 256, 4, 4
	if got := MatMulOriginalCCheckouts(n); got != 256*256*256 {
		t.Errorf("original = %d", got)
	}
	// N^2 * P / 2 = 65536*4/2 = 131072
	if got := MatMulRestructuredCCheckouts(n, p, b); got != 131072 {
		t.Errorf("restructured = %d", got)
	}
	// N^2 * P / 4 = 65536
	if got := MatMulRestructuredRacyCheckouts(n, p, b); got != 65536 {
		t.Errorf("racy = %d", got)
	}
	// Restructuring must slash C's check-out count (by N*2/P here).
	if MatMulRestructuredCCheckouts(n, p, b) >= MatMulOriginalCCheckouts(n) {
		t.Error("restructuring did not reduce check-outs")
	}
}

func TestProgramCost(t *testing.T) {
	if got := ProgramCost(10, 10); got != 10*checkOutBlockCost+10*checkInBlockCost {
		t.Errorf("cost = %d", got)
	}
	if ProgramCost(0, 0) != 0 {
		t.Error("empty program has nonzero cost")
	}
}

func TestFootprintOverlap(t *testing.T) {
	a := map[uint64]bool{1: true, 2: true, 3: true}
	b := map[uint64]bool{2: true, 3: true, 4: true, 5: true}
	both, onlyA, onlyB := FootprintOverlap(a, b)
	if both != 2 || onlyA != 1 || onlyB != 2 {
		t.Errorf("overlap = (%d, %d, %d), want (2, 1, 2)", both, onlyA, onlyB)
	}
	if both, onlyA, onlyB = FootprintOverlap(nil, nil); both+onlyA+onlyB != 0 {
		t.Error("empty sets overlap")
	}
}
