package core

// Style selects which annotation set Cachier produces (Section 4.1):
// Programmer CICO exposes all communication for reasoning; Performance CICO
// keeps only the annotations that help Dir1SW (which already performs
// implicit check-outs on misses).
type Style int

// Annotation styles.
const (
	StyleProgrammer Style = iota
	StylePerformance
)

func (s Style) String() string {
	if s == StyleProgrammer {
		return "programmer"
	}
	return "performance"
}

// AnnSets are the annotation address sets for one node in one epoch.
type AnnSets struct {
	CoX AddrSet // check_out_x
	CoS AddrSet // check_out_s
	CI  AddrSet // check_in
}

// ciLookahead is how many epochs ahead the Performance check-in equation
// looks for the "will be written by some processor" condition. The paper
// uses a single epoch; phase-structured programs (build / compute / update,
// like Barnes) rewrite read-shared data two epochs after the readers, so
// the reproduction extends the window. Self-writes are excluded at every
// distance: checking in data the same node is about to rewrite would only
// force a refetch.
const ciLookahead = 2

// ComputeAnnotations evaluates the Section 4.1 equations for every epoch and
// node. epochs and conflicts must be parallel slices (one entry per epoch).
//
// Programmer CICO:
//
//	co_x[i] = !DRFS{SW_i - SW_{i-1}} + DRFS{SW_i}
//	co_s[i] = !FS{SR_i - SR_{i-1}}  + FS{SR_i}
//	ci[i]   = !DRFS{S_i - S_{i+1}}  + DRFS{S_i}
//
// Performance CICO:
//
//	co_x[i] = !DRFS{WF_i - SW_{i-1}} + DRFS{WF_i}
//	co_s[i] = {}
//	ci[i]   = !DRFS{SW_i - SW_{i+1}} + !DRFS{SR_i ∩ SW_{i+1}^any} + DRFS{S_i}
//
// where sets are per-node except SW_{i+1}^any, the union over all nodes
// ("written by some processor in the next epoch").
//
// Each equation of the form !C{X - P} + C{X} is the set {a ∈ X : C(a) ∨ a ∉ P}
// (absorption), so every output is one ascending walk over its source set
// with cursors into the neighbouring epochs' sets and the conflict sets, and
// comes out sorted.
func ComputeAnnotations(epochs []*EpochSets, conflicts []*Conflicts, style Style) [][]AnnSets {
	out := make([][]AnnSets, len(epochs))
	var empty NodeSets // the neighbour of the first and last epochs
	var buf []uint64   // scratch: outputs are copied out at their final size
	// filter returns the members of s that pass keep, asked in ascending
	// order.
	filter := func(s AddrSet, keep func(a uint64) bool) AddrSet {
		buf = buf[:0]
		for _, a := range s {
			if keep(a) {
				buf = append(buf, a)
			}
		}
		return cloneSet(buf)
	}
	for i, es := range epochs {
		cf := conflicts[i]
		out[i] = make([]AnnSets, len(es.Nodes))
		for n, ns := range es.Nodes {
			prev, next := &empty, &empty
			if i > 0 {
				prev = epochs[i-1].Nodes[n]
			}
			if i+1 < len(epochs) {
				next = epochs[i+1].Nodes[n]
			}
			a := &out[i][n]
			drfs, prevSW := cf.cursor(), cursor{s: prev.SW}
			fresh := func(addr uint64) bool { return drfs.has(addr) || !prevSW.has(addr) }
			switch style {
			case StyleProgrammer:
				a.CoX = filter(ns.SW, fresh)
				// An exclusive check-out subsumes a shared one.
				fs, prevSR, cox := cursor{s: cf.FalseShare}, cursor{s: prev.SR}, cursor{s: a.CoX}
				a.CoS = filter(ns.SR, func(addr uint64) bool {
					return (fs.has(addr) || !prevSR.has(addr)) && !cox.has(addr)
				})
				drfs = cf.cursor() // a new walk: rewound
				nextSW, nextSR := cursor{s: next.SW}, cursor{s: next.SR}
				buf = buf[:0]
				union(ns.SW, ns.SR, func(addr uint64, _, _ bool) {
					if drfs.has(addr) || !(nextSW.has(addr) || nextSR.has(addr)) {
						buf = append(buf, addr)
					}
				})
				a.CI = cloneSet(buf)
			case StylePerformance:
				a.CoX = filter(ns.WF, fresh)
				// ci = {SW_i : DRFS ∨ ∉ SW_{i+1}} ∪ {SR_i : DRFS ∨ written by
				// another processor within the lookahead window}.
				drfs = cf.cursor() // a new walk: rewound
				nextSW := cursor{s: next.SW}
				future := newLookahead(epochs, i, n)
				buf = buf[:0]
				union(ns.SW, ns.SR, func(addr uint64, inSW, inSR bool) {
					d := drfs.has(addr)
					if (inSW && (d || !nextSW.has(addr))) || (inSR && (d || future.written(addr))) {
						buf = append(buf, addr)
					}
				})
				a.CI = cloneSet(buf)
			}
		}
	}
	return out
}

// union calls f for every member of s ∪ t in ascending order, saying which
// of the two it came from.
func union(s, t AddrSet, f func(a uint64, inS, inT bool)) {
	for len(s) > 0 || len(t) > 0 {
		switch {
		case len(t) == 0 || (len(s) > 0 && s[0] < t[0]):
			f(s[0], true, false)
			s = s[1:]
		case len(s) == 0 || t[0] < s[0]:
			f(t[0], false, true)
			t = t[1:]
		default:
			f(s[0], true, true)
			s, t = s[1:], t[1:]
		}
	}
}

// lookahead answers, for ascending addresses node n read in epoch i, whether
// some OTHER processor writes the address within ciLookahead epochs before
// node n touches it again.
type lookahead struct {
	allSW, sw, sr [ciLookahead]cursor // of epochs i+1 ..., and node n's sets in them
	depth         int
}

func newLookahead(epochs []*EpochSets, i, n int) lookahead {
	var l lookahead
	for ; l.depth < ciLookahead && i+1+l.depth < len(epochs); l.depth++ {
		ek := epochs[i+1+l.depth]
		l.allSW[l.depth] = cursor{s: ek.AllSW}
		l.sw[l.depth] = cursor{s: ek.Nodes[n].SW}
		l.sr[l.depth] = cursor{s: ek.Nodes[n].SR}
	}
	return l
}

func (l *lookahead) written(a uint64) bool {
	for k := 0; k < l.depth; k++ {
		self := l.sw[k].has(a)
		if !self && l.allSW[k].has(a) {
			return true
		}
		if self || l.sr[k].has(a) {
			return false
		}
	}
	return false
}
