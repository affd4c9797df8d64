package vet

// Strided intervals are the index domain of the race detector: the set of
// array elements a node may touch through an index expression is abstracted
// as {lo, lo+stride, ..., hi}. Keeping the stride (not just the interval)
// is what lets vet prove red/black-style partitionings disjoint — two
// stride-2 sets of opposite parity never meet even though their intervals
// overlap — via a Chinese-remainder emptiness test.

// Infinity sentinels for widened bounds. They are far from the int64 edges
// so sums of two in-range values never overflow. Arithmetic on constants
// alone is exact instead, wrapping as the engines' int64 arithmetic does,
// so a constant past a sentinel is still the value the program computes.
const (
	negInf = -(1 << 60)
	posInf = 1 << 60
)

// si is a strided interval: the integers lo, lo+stride, ..., hi. Invariants
// after norm(): lo <= hi; stride == 0 iff lo == hi; hi lies on the stride
// grid; an infinite bound forces stride 1 (congruence information is only
// kept for finite sets). The empty set is canonically {1, 0, 0}.
type si struct {
	lo, hi, stride int64
}

var (
	siEmpty = si{1, 0, 0}
	siTop   = si{negInf, posInf, 1}
)

func siConst(c int64) si { return si{c, c, 0} }

func siRange(lo, hi, stride int64) si { return si{lo, hi, stride}.norm() }

func (a si) empty() bool   { return a.lo > a.hi }
func (a si) isConst() bool { return !a.empty() && a.lo == a.hi }

func (a si) norm() si {
	if a.lo > a.hi {
		return siEmpty
	}
	if a.lo < negInf {
		a.lo = negInf
	}
	if a.hi > posInf {
		a.hi = posInf
	}
	if a.lo == a.hi {
		a.stride = 0
		return a
	}
	if a.lo == negInf || a.hi == posInf {
		a.stride = 1
		return a
	}
	if a.stride <= 0 {
		a.stride = 1
	}
	a.hi = a.lo + (a.hi-a.lo)/a.stride*a.stride
	if a.lo == a.hi {
		a.stride = 0
	}
	return a
}

// satAdd adds with saturation at the infinity sentinels.
func satAdd(a, b int64) int64 {
	s := a + b
	if s < negInf {
		return negInf
	}
	if s > posInf {
		return posInf
	}
	return s
}

// satMul multiplies with saturation at the infinity sentinels.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	s := a * b
	if s/b != a || s < negInf || s > posInf {
		if (a > 0) == (b > 0) {
			return posInf
		}
		return negInf
	}
	return s
}

func (a si) addConst(c int64) si {
	if a.empty() {
		return a
	}
	if a.isConst() {
		return siConst(a.lo + c)
	}
	return si{satAdd(a.lo, c), satAdd(a.hi, c), a.stride}.norm()
}

// scale multiplies every element by c.
func (a si) scale(c int64) si {
	switch {
	case a.empty():
		return a
	case a.isConst():
		return siConst(a.lo * c)
	case c == 0:
		return siConst(0)
	case c > 0:
		return si{satMul(a.lo, c), satMul(a.hi, c), satMul(a.stride, c)}.norm()
	default:
		return si{satMul(a.hi, c), satMul(a.lo, c), satMul(a.stride, -c)}.norm()
	}
}

func (a si) add(b si) si {
	if a.empty() || b.empty() {
		return siEmpty
	}
	if a.isConst() && b.isConst() {
		return siConst(a.lo + b.lo)
	}
	return si{satAdd(a.lo, b.lo), satAdd(a.hi, b.hi), gcd(a.stride, b.stride)}.norm()
}

// mul is the general interval product; the congruence is dropped except in
// the constant cases, which scale handles exactly.
func (a si) mul(b si) si {
	if a.empty() || b.empty() {
		return siEmpty
	}
	if a.isConst() {
		return b.scale(a.lo)
	}
	if b.isConst() {
		return a.scale(b.lo)
	}
	p1, p2 := satMul(a.lo, b.lo), satMul(a.lo, b.hi)
	p3, p4 := satMul(a.hi, b.lo), satMul(a.hi, b.hi)
	return si{min(p1, p2, p3, p4), max(p1, p2, p3, p4), 1}.norm()
}

// divConst divides every element by c (Go truncated division, matching the
// interpreter). The result loses the congruence unless it divides exactly.
func (a si) divConst(c int64) si {
	if a.empty() || c == 0 {
		return siTop
	}
	if a.isConst() {
		return siConst(a.lo / c)
	}
	if c < 0 {
		return a.divConst(-c).scale(-1)
	}
	if a.stride%c == 0 && a.lo%c == 0 {
		return si{a.lo / c, a.hi / c, a.stride / c}.norm()
	}
	// Truncated division is not monotone across zero; the four candidate
	// bounds still bracket every quotient.
	q1, q2 := a.lo/c, a.hi/c
	return si{min(q1, q2), max(q1, q2), 1}.norm()
}

// mod maps every element through ((x % m) + m) % m for m > 0 — the
// canonical non-negative remainder the ParC interpreter uses. The key
// precision rule: a stride-s set keeps its residue class modulo gcd(s, m),
// which is how parity survives "% 2".
func (a si) mod(m int64) si {
	if a.empty() {
		return a
	}
	if m <= 0 {
		return siTop
	}
	if a.isConst() {
		return siConst(((a.lo % m) + m) % m)
	}
	if a.lo >= 0 && a.hi < m {
		return a
	}
	g := gcd(a.stride, m)
	if g <= 1 {
		return siRange(0, m-1, 1)
	}
	r := ((a.lo % g) + g) % g
	return siRange(r, r+(m-1-r)/g*g, g)
}

// join is the least strided interval containing both sets.
func (a si) join(b si) si {
	if a.empty() {
		return b
	}
	if b.empty() {
		return a
	}
	d := a.lo - b.lo
	if d < 0 {
		d = -d
	}
	s := gcd(gcd(a.stride, b.stride), d)
	return si{min(a.lo, b.lo), max(a.hi, b.hi), s}.norm()
}

// widen jumps an unstable bound straight to infinity so fixpoints converge.
func (a si) widen(b si) si {
	j := a.join(b)
	if a.empty() {
		return j
	}
	if j.lo < a.lo {
		j.lo = negInf
	}
	if j.hi > a.hi {
		j.hi = posInf
	}
	return j.norm()
}

// member reports whether v is in the set.
func (a si) member(v int64) bool {
	if a.empty() || v < a.lo || v > a.hi {
		return false
	}
	if a.stride <= 1 {
		return true
	}
	return (v-a.lo)%a.stride == 0
}

// clampMin removes elements below l, re-anchoring on the stride grid.
func (a si) clampMin(l int64) si {
	if a.empty() || l <= a.lo {
		return a
	}
	if a.stride <= 1 {
		return si{l, a.hi, a.stride}.norm()
	}
	d := l - a.lo
	lo := a.lo + (d+a.stride-1)/a.stride*a.stride
	return si{lo, a.hi, a.stride}.norm()
}

// clampMax removes elements above h.
func (a si) clampMax(h int64) si {
	if a.empty() || h >= a.hi {
		return a
	}
	return si{a.lo, h, a.stride}.norm()
}

// intersect computes the exact intersection, solving the congruence pair
// x ≡ a.lo (mod a.stride), x ≡ b.lo (mod b.stride) by the Chinese remainder
// theorem: the common elements form a stride-lcm grid, clipped to the
// interval intersection.
func (a si) intersect(b si) si {
	if a.empty() || b.empty() {
		return siEmpty
	}
	lo, hi := max(a.lo, b.lo), min(a.hi, b.hi)
	if lo > hi {
		return siEmpty
	}
	if a.isConst() {
		if b.member(a.lo) {
			return a
		}
		return siEmpty
	}
	if b.isConst() {
		if a.member(b.lo) {
			return b
		}
		return siEmpty
	}
	if a.lo <= negInf || a.hi >= posInf || b.lo <= negInf || b.hi >= posInf {
		// Widened operands have stride 1; the interval intersection is exact.
		return si{lo, hi, max(a.stride, b.stride)}.norm()
	}
	sa, sb := max(a.stride, 1), max(b.stride, 1)
	g, p, _ := egcd(sa, sb)
	diff := b.lo - a.lo
	if diff%g != 0 {
		return siEmpty
	}
	lcm := sa / g * sb
	if lcm > posInf {
		// Degenerate strides; fall back to the interval bound (sound).
		return si{lo, hi, 1}.norm()
	}
	// x0 ≡ a.lo (mod sa) and ≡ b.lo (mod sb); normalize into [lo, lo+lcm).
	x0 := a.lo + mulMod(diff/g, mulMod(p, 1, lcm/sa), lcm/sa)*sa
	d := lo - x0
	if d > 0 {
		x0 += (d + lcm - 1) / lcm * lcm
	}
	for x0-lcm >= lo {
		x0 -= lcm
	}
	if x0 > hi {
		return siEmpty
	}
	return si{x0, hi, lcm}.norm()
}

// overlaps reports whether the two sets share an element.
func (a si) overlaps(b si) bool { return !a.intersect(b).empty() }

// contains reports whether every element of b is in a.
func (a si) contains(b si) bool {
	if b.empty() {
		return true
	}
	if a.empty() || b.lo < a.lo || b.hi > a.hi {
		return false
	}
	if b.isConst() {
		return a.member(b.lo)
	}
	if a.stride <= 1 {
		return true
	}
	return b.stride%a.stride == 0 && (b.lo-a.lo)%a.stride == 0
}

// mulMod computes (x*y) mod m without overflow for |x|,|y| <= posInf by
// pre-reducing; m here is always a small stride lcm.
func mulMod(x, y, m int64) int64 {
	if m <= 1 {
		return 0
	}
	x, y = ((x%m)+m)%m, ((y%m)+m)%m
	return x * y % m
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// egcd returns g = gcd(a,b) and Bézout coefficients p, q with p*a+q*b = g,
// for a, b > 0.
func egcd(a, b int64) (g, p, q int64) {
	if b == 0 {
		return a, 1, 0
	}
	g, p1, q1 := egcd(b, a%b)
	return g, q1, p1 - (a/b)*q1
}
