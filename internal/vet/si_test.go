package vet

import "testing"

// The strided-interval domain carries the race detector: if intersect or
// overlaps is wrong in either direction, vet reports phantom races or
// misses real ones. These tables pin the congruence arithmetic, with the
// CRT refinement and the degenerate/empty/widened corners called out.

func TestSINorm(t *testing.T) {
	cases := []struct {
		name string
		in   si
		want si
	}{
		{"inverted is empty", si{5, 3, 1}, siEmpty},
		{"singleton drops stride", si{4, 4, 7}, si{4, 4, 0}},
		{"hi snaps to grid", si{0, 10, 3}, si{0, 9, 3}},
		{"snap collapses to const", si{2, 4, 3}, si{2, 2, 0}},
		{"zero stride defaults to 1", si{0, 5, 0}, si{0, 5, 1}},
		{"negative stride defaults to 1", si{0, 5, -2}, si{0, 5, 1}},
		{"infinite bound forces stride 1", si{negInf, 10, 4}, si{negInf, 10, 1}},
		{"bounds clamp at sentinels", si{negInf - 5, posInf + 5, 1}, siTop},
	}
	for _, c := range cases {
		if got := c.in.norm(); got != c.want {
			t.Errorf("%s: %+v.norm() = %+v, want %+v", c.name, c.in, got, c.want)
		}
	}
}

func TestSIIntersect(t *testing.T) {
	cases := []struct {
		name string
		a, b si
		want si
	}{
		{"disjoint intervals", siRange(0, 4, 1), siRange(10, 12, 1), siEmpty},
		{"touching endpoints", siRange(0, 4, 1), siRange(4, 8, 1), siConst(4)},
		{"either empty", siEmpty, siRange(0, 9, 1), siEmpty},
		{"both empty", siEmpty, siEmpty, siEmpty},

		// Parity via CRT: evens ∩ odds over the same interval is empty —
		// this is the red/black disjointness proof.
		{"even vs odd", siRange(0, 10, 2), siRange(1, 11, 2), siEmpty},
		{"even vs even shifted", siRange(0, 10, 2), siRange(4, 20, 2), siRange(4, 10, 2)},

		// Coprime strides: 3Z ∩ 5Z = 15Z, anchored at the common element.
		{"stride 3 vs 5", siRange(0, 30, 3), siRange(0, 30, 5), siRange(0, 30, 15)},
		{"stride 3 vs 5 offset", siRange(1, 31, 3), siRange(2, 32, 5), siRange(7, 22, 15)},
		{"incompatible residues", siRange(0, 100, 4), siRange(1, 101, 2), siEmpty},

		// Non-coprime strides with a solution: x≡2 (mod 4), x≡0 (mod 6) → x≡12 (mod 12)...
		// gcd(4,6)=2 divides 0-2, lcm=12, first common element ≥ max(lo) is 6? No: 2,6,10,...∩0,6,12.. = {6,18,30}.
		{"stride 4 vs 6", siRange(2, 50, 4), siRange(0, 48, 6), siRange(6, 42, 12)},

		// Constants against grids.
		{"const on grid", siConst(6), siRange(0, 30, 3), siConst(6)},
		{"const off grid", siConst(7), siRange(0, 30, 3), siEmpty},
		{"const outside interval", siConst(33), siRange(0, 30, 3), siEmpty},
		{"grid vs const", siRange(0, 30, 3), siConst(6), siConst(6)},

		// Widened operands have stride 1; intersection is the clipped interval.
		{"widened lo", si{negInf, 10, 1}, siRange(-5, 20, 1), siRange(-5, 10, 1)},
		{"widened both", siTop, siRange(3, 9, 2), siRange(3, 9, 2)},

		// Negative anchors exercise the mod normalization in the CRT path.
		{"negative anchor parity", siRange(-10, 10, 2), siRange(-9, 9, 2), siEmpty},
		{"negative anchor match", siRange(-12, 12, 3), siRange(-6, 18, 6), siRange(-6, 12, 6)},
	}
	for _, c := range cases {
		if got := c.a.intersect(c.b); got != c.want {
			t.Errorf("%s: %+v ∩ %+v = %+v, want %+v", c.name, c.a, c.b, got, c.want)
		}
		// Intersection is symmetric up to normalization of the anchor.
		rev := c.b.intersect(c.a)
		if rev.empty() != c.want.empty() {
			t.Errorf("%s: asymmetric emptiness: %+v vs %+v", c.name, rev, c.want)
		}
	}
}

// TestSIIntersectSound cross-checks intersect against brute-force membership
// on small sets: every reported element must be in both, and no common
// element may be dropped (dropping one is a missed race).
func TestSIIntersectSound(t *testing.T) {
	grids := []si{
		siEmpty,
		siConst(0), siConst(7), siConst(-3),
		siRange(0, 24, 1), siRange(0, 24, 2), siRange(1, 25, 2),
		siRange(0, 24, 3), siRange(2, 26, 4), siRange(-12, 12, 5),
		siRange(-7, 23, 6), siRange(3, 3, 9),
	}
	for _, a := range grids {
		for _, b := range grids {
			got := a.intersect(b)
			for v := int64(-30); v <= 30; v++ {
				inBoth := a.member(v) && b.member(v)
				if inBoth != got.member(v) {
					t.Fatalf("%+v ∩ %+v = %+v: element %d membership: want %v",
						a, b, got, v, inBoth)
				}
			}
			if got.overlaps(a) != !got.empty() || a.overlaps(b) != !got.empty() {
				t.Fatalf("overlaps inconsistent for %+v, %+v", a, b)
			}
		}
	}
}

// TestSIDisjointIntervalsNeverOverlap pins what the race finder's pruning
// rests on: two sets whose intervals are disjoint do not overlap, whatever
// their strides, widened and huge-stride sets included.
func TestSIDisjointIntervalsNeverOverlap(t *testing.T) {
	grids := []si{
		siEmpty, siConst(0), siConst(7), siConst(-3),
		siRange(0, 24, 1), siRange(1, 25, 2), siRange(2, 26, 4), siRange(-12, 12, 5),
		siRange(30, 40, 1), siRange(negInf, -20, 1), siRange(20, posInf, 1),
		{1, 1 + (1 << 40), 1 << 40}, {3, 3 + 2*(1<<41-1), 1<<41 - 1},
	}
	for _, a := range grids {
		for _, b := range grids {
			if (a.empty() || b.empty() || a.hi < b.lo || a.lo > b.hi) && a.overlaps(b) {
				t.Errorf("%+v and %+v have disjoint intervals but overlap", a, b)
			}
		}
	}
}

func TestSIOverlapsDegenerate(t *testing.T) {
	cases := []struct {
		name string
		a, b si
		want bool
	}{
		{"empty never overlaps", siEmpty, siTop, false},
		{"empty vs empty", siEmpty, siEmpty, false},
		{"const vs itself", siConst(5), siConst(5), true},
		{"const vs other const", siConst(5), siConst(6), false},
		{"zero-stride singleton vs grid", si{8, 8, 0}, siRange(0, 32, 8), true},
		{"un-normalized inverted operand", si{9, 2, 1}.norm(), siRange(0, 100, 1), false},
		{"top overlaps anything nonempty", siTop, siConst(-123456), true},
	}
	for _, c := range cases {
		if got := c.a.overlaps(c.b); got != c.want {
			t.Errorf("%s: %+v.overlaps(%+v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestSIModResidue(t *testing.T) {
	cases := []struct {
		name string
		a    si
		m    int64
		want si
	}{
		{"parity survives mod 2", siRange(0, 100, 2), 2, siConst(0)},
		{"odd parity survives mod 2", siRange(1, 101, 2), 2, siConst(1)},
		{"stride 4 mod 6 keeps mod-2 class", siRange(0, 100, 4), 6, siRange(0, 4, 2)},
		{"already in range", siRange(1, 5, 2), 8, siRange(1, 5, 2)},
		{"const negative", siConst(-7), 5, siConst(3)},
		{"coprime stride loses all", siRange(0, 100, 3), 5, siRange(0, 4, 1)},
		{"negative anchor residue", siRange(-4, 96, 10), 4, siRange(0, 2, 2)},
		{"non-positive modulus is top", siRange(0, 10, 1), 0, siTop},
		{"empty stays empty", siEmpty, 7, siEmpty},
	}
	for _, c := range cases {
		if got := c.a.mod(c.m); got != c.want {
			t.Errorf("%s: %+v.mod(%d) = %+v, want %+v", c.name, c.a, c.m, got, c.want)
		}
	}
	// Soundness sweep: every concrete remainder must be a member.
	for _, a := range []si{siRange(-20, 20, 3), siRange(-19, 23, 6), siRange(2, 26, 4)} {
		for _, m := range []int64{2, 3, 4, 5, 6, 7, 12} {
			got := a.mod(m)
			for v := a.lo; v <= a.hi; v += a.stride {
				r := ((v % m) + m) % m
				if !got.member(r) {
					t.Fatalf("%+v.mod(%d) = %+v drops remainder %d of %d", a, m, got, r, v)
				}
			}
		}
	}
}

func TestSIDivConst(t *testing.T) {
	cases := []struct {
		name string
		a    si
		c    int64
		want si
	}{
		{"exact grid division", siRange(0, 24, 4), 4, siRange(0, 6, 1)},
		{"exact with larger residue stride", siRange(0, 24, 8), 4, siRange(0, 6, 2)},
		{"inexact loses stride", siRange(1, 25, 4), 4, siRange(0, 6, 1)},
		{"divide by zero is top", siRange(0, 10, 1), 0, siTop},
		{"negative divisor flips", siRange(0, 12, 4), -4, siRange(-3, 0, 1)},
		{"truncation across zero", siRange(-7, 7, 1), 2, siRange(-3, 3, 1)},
		{"const", siConst(9), 2, siConst(4)},
		{"const negative truncates toward zero", siConst(-9), 2, siConst(-4)},
	}
	for _, c := range cases {
		if got := c.a.divConst(c.c); got != c.want {
			t.Errorf("%s: %+v.divConst(%d) = %+v, want %+v", c.name, c.a, c.c, got, c.want)
		}
	}
}

func TestSIJoinWidenClamp(t *testing.T) {
	// join keeps the coarsest common congruence, including the anchor gap.
	if got := siRange(0, 8, 4).join(siRange(2, 10, 4)); got != siRange(0, 10, 2) {
		t.Errorf("join parity gap: %+v", got)
	}
	if got := siRange(0, 12, 6).join(siRange(3, 15, 6)); got != siRange(0, 15, 3) {
		t.Errorf("join residue gap: %+v", got)
	}
	if got := siEmpty.join(siRange(1, 9, 2)); got != siRange(1, 9, 2) {
		t.Errorf("join with empty: %+v", got)
	}
	if got := siConst(5).join(siConst(5)); got != siConst(5) {
		t.Errorf("join equal consts: %+v", got)
	}

	// widen jumps only the unstable bound to infinity.
	a, b := siRange(0, 10, 1), siRange(0, 20, 1)
	if got := a.widen(b); got != (si{0, posInf, 1}) {
		t.Errorf("widen hi: %+v", got)
	}
	if got := a.widen(siRange(-5, 10, 1)); got != (si{negInf, 10, 1}) {
		t.Errorf("widen lo: %+v", got)
	}
	if got := a.widen(siRange(0, 10, 1)); got != a {
		t.Errorf("widen stable: %+v", got)
	}
	if got := siEmpty.widen(b); got != b {
		t.Errorf("widen from empty: %+v", got)
	}

	// clampMin re-anchors on the stride grid; clampMax just cuts.
	if got := siRange(0, 20, 4).clampMin(5); got != siRange(8, 20, 4) {
		t.Errorf("clampMin re-anchor: %+v", got)
	}
	if got := siRange(0, 20, 4).clampMin(8); got != siRange(8, 20, 4) {
		t.Errorf("clampMin on grid: %+v", got)
	}
	if got := siRange(0, 20, 4).clampMin(21); !got.empty() {
		t.Errorf("clampMin past hi should be empty: %+v", got)
	}
	if got := siRange(0, 20, 4).clampMax(14); got != siRange(0, 12, 4) {
		t.Errorf("clampMax snaps to grid: %+v", got)
	}
	if got := siRange(0, 20, 4).clampMax(-1); !got.empty() {
		t.Errorf("clampMax below lo should be empty: %+v", got)
	}
}

func TestSIContainsMember(t *testing.T) {
	grid := siRange(0, 30, 3)
	if !grid.contains(siRange(6, 24, 6)) {
		t.Error("multiple-stride subgrid should be contained")
	}
	if grid.contains(siRange(6, 24, 4)) {
		t.Error("stride 4 is not a subgrid of stride 3")
	}
	if grid.contains(siRange(1, 28, 3)) {
		t.Error("off-anchor grid should not be contained")
	}
	if !grid.contains(siEmpty) {
		t.Error("empty is contained in everything")
	}
	if siEmpty.contains(siConst(0)) {
		t.Error("empty contains nothing")
	}
	if !siTop.contains(grid) {
		t.Error("top contains every finite set")
	}
	for _, v := range []int64{0, 3, 30} {
		if !grid.member(v) {
			t.Errorf("member(%d) should hold", v)
		}
	}
	for _, v := range []int64{-3, 1, 31} {
		if grid.member(v) {
			t.Errorf("member(%d) should not hold", v)
		}
	}
}

func TestSIScaleAddArith(t *testing.T) {
	if got := siRange(0, 10, 2).scale(-3); got != siRange(-30, 0, 6) {
		t.Errorf("negative scale: %+v", got)
	}
	if got := siRange(0, 10, 2).scale(0); got != siConst(0) {
		t.Errorf("zero scale: %+v", got)
	}
	if got := siRange(0, 6, 2).add(siRange(0, 9, 3)); got != siRange(0, 15, 1) {
		t.Errorf("add mixes strides to gcd: %+v", got)
	}
	if got := siRange(0, 6, 2).add(siConst(5)); got != siRange(5, 11, 2) {
		t.Errorf("add const keeps stride: %+v", got)
	}
	if got := siRange(0, 8, 4).add(siRange(0, 8, 4)); got != siRange(0, 16, 4) {
		t.Errorf("add same stride: %+v", got)
	}
	if got := siEmpty.add(siConst(1)); !got.empty() {
		t.Errorf("add with empty: %+v", got)
	}
	// Saturation: scaling a huge set pins at the sentinels instead of wrapping.
	big := si{negInf, posInf, 1}
	if got := big.scale(1000); got != big {
		t.Errorf("saturating scale: %+v", got)
	}
	if got := siRange(posInf/2, posInf, 1).addConst(posInf); got != (si{posInf, posInf, 0}) {
		t.Errorf("saturating addConst: %+v", got)
	}
	if got := siRange(-4, 4, 2).mul(siRange(-3, 3, 3)); got != siRange(-12, 12, 1) {
		t.Errorf("general mul brackets products: %+v", got)
	}
}
