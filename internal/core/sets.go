// Package core implements Cachier, the paper's contribution: a tool that
// automatically inserts CICO annotations into shared-memory programs by
// combining dynamic information (a barrier-flushed miss trace from one
// execution) with static information (the program's AST, loop structure, and
// labelled shared regions).
//
// The pipeline mirrors Section 4 of the paper:
//
//  1. Trace processing (this file): fold shared write faults out of the
//     read-miss sets and into the write sets, producing per-epoch, per-node
//     SR/SW/S address sets, plus address-to-PC attribution.
//  2. Conflict detection (conflicts.go): find data races and false sharing
//     per epoch (the DRFS and FS functions of Section 4.1).
//  3. Annotation equations (equations.go): compute the Programmer or
//     Performance CICO sets co_x, co_s, ci per epoch and node.
//  4. Placement (placement.go): map addresses to variables and reference
//     sites, hoist annotations through loop levels under cache-size
//     constraints, and pin conflicted addresses next to their references.
//  5. Presentation and rewriting (rewrite.go): render annotations as ranged
//     CICO statements or generated loops, insert them into the AST, flag
//     races and false sharing, and unparse the annotated program.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"cachier/internal/trace"
)

// AddrSet is a set of element byte addresses: a sorted, duplicate-free slice.
// Every set the pipeline builds is produced in address order by a merge over
// sets that already are, so membership is a search, iteration is a range, the
// set equations are merges, and nothing downstream re-sorts. Memory is one
// word per member; no set is ever sized by the address space.
type AddrSet []uint64

// Has reports whether the address is in the set.
func (s AddrSet) Has(a uint64) bool {
	i := s.search(a)
	return i < len(s) && s[i] == a
}

// search returns the index of the first member >= a. It is written out
// because every cursor step and membership test ends here: the generic
// slices.BinarySearch measured 5% slower on a whole Annotate.
func (s AddrSet) search(a uint64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Union returns s ∪ t.
func (s AddrSet) Union(t AddrSet) AddrSet {
	return merge(make(AddrSet, 0, len(s)+len(t)), s, t)
}

// merge appends s ∪ t to dst.
func merge(dst, s, t AddrSet) AddrSet {
	if len(s) > 0 && len(t) > 0 && s[len(s)-1] < t[0] {
		return append(append(dst, s...), t...) // neighbouring partitions
	}
	for len(s) > 0 && len(t) > 0 {
		switch {
		case s[0] < t[0]:
			dst, s = append(dst, s[0]), s[1:]
		case s[0] > t[0]:
			dst, t = append(dst, t[0]), t[1:]
		default:
			dst, s, t = append(dst, s[0]), s[1:], t[1:]
		}
	}
	return append(append(dst, s...), t...)
}

// Sorted returns the addresses in ascending order: the set itself.
func (s AddrSet) Sorted() []uint64 { return s }

// cloneSet copies a set out of a scratch buffer at its final size; the empty
// set is nil, so it neither allocates nor keeps the scratch alive.
func cloneSet(s []uint64) AddrSet {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// normalize makes an accumulated address list a set, reusing its storage.
// The lists this package accumulates are a few sorted runs laid end to end
// (one per node, or one per epoch), so this is a natural merge sort: find
// the runs, merge neighbours pairwise until one is left, dropping duplicates
// on the way. A list that already is a set comes back untouched.
func normalize(s []uint64) AddrSet {
	var ends []int // ends[r] is where run r stops
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			ends = append(ends, i)
		}
	}
	if ends == nil {
		return s
	}
	ends = append(ends, len(s))
	src, dst := AddrSet(s), make(AddrSet, 0, len(s))
	for len(ends) > 1 {
		dst = dst[:0]
		lo, merged := 0, ends[:0]
		for r := 0; r < len(ends); r += 2 {
			mid, hi := ends[r], ends[r]
			if r+1 < len(ends) {
				hi = ends[r+1]
			}
			dst = merge(dst, src[lo:mid], src[mid:hi])
			lo, merged = hi, append(merged, len(dst))
		}
		src, dst, ends = dst, src, merged
	}
	return src
}

// cursor answers membership queries for ascending addresses against one set,
// galloping forward from the previous answer: a walk over one set with
// cursors into its neighbours costs O(log gap) per query whether the sets are
// the same size (the gap is 1) or the neighbour is an epoch-wide set many
// times larger.
type cursor struct {
	s AddrSet
	i int
}

// seek advances to, and returns, the index of the first member >= a.
func (c *cursor) seek(a uint64) int {
	s, i := c.s, c.i
	if i < len(s) && s[i] < a {
		step := 1
		for i+step < len(s) && s[i+step] < a {
			i += step
			step <<= 1
		}
		i += 1 + s[i+1:min(i+step, len(s))].search(a)
		c.i = i
	}
	return i
}

func (c *cursor) has(a uint64) bool {
	i := c.seek(a)
	return i < len(c.s) && c.s[i] == a
}

// PCTable maps each address one node missed on during one epoch to the
// statement IDs of those misses, for attributing annotations to reference
// sites: Addrs in address order, and a node's PCs for Addrs[i] at index i.
type PCTable struct {
	Addrs AddrSet
	start []int // PCs of Addrs[i] are pcs[start[i]:start[i+1]]
	pcs   []int
}

// At returns the statement IDs recorded for Addrs[i].
func (t *PCTable) At(i int) []int { return t.pcs[t.start[i]:t.start[i+1]] }

// NodeSets are one node's processed miss sets for one epoch, after the
// paper's trace processing: SW = shared write misses + shared write faults,
// SR = shared read misses - shared write faults.
type NodeSets struct {
	SR AddrSet // shared read set
	SW AddrSet // shared write set
	WF AddrSet // the write-fault subset of SW (read-then-written locations)

	PCs PCTable
}

// S returns the node's full access set SW ∪ SR.
func (n *NodeSets) S() AddrSet { return n.SW.Union(n.SR) }

// NodeBits is a set of node ids. Ids below 64 — every machine the paper
// studies — live in an inline bitmask, so building the per-address toucher
// sets during trace processing allocates nothing; larger ids spill to an
// overflow word slice and stay correct.
type NodeBits struct {
	lo uint64   // nodes 0..63
	hi []uint64 // node 64+w*64+b is bit b of word w; nil until needed
}

// with returns the set with node n added.
func (s NodeBits) with(n int) NodeBits {
	if n < 64 {
		s.lo |= 1 << uint(n)
		return s
	}
	w := (n - 64) / 64
	for len(s.hi) <= w {
		s.hi = append(s.hi, 0)
	}
	s.hi[w] |= 1 << uint((n-64)%64)
	return s
}

// Has reports whether node n is in the set.
func (s NodeBits) Has(n int) bool {
	if n < 64 {
		return s.lo&(1<<uint(n)) != 0
	}
	w := (n - 64) / 64
	return w < len(s.hi) && s.hi[w]&(1<<uint((n-64)%64)) != 0
}

// Count returns the number of nodes in the set.
func (s NodeBits) Count() int {
	c := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		c += bits.OnesCount64(w)
	}
	return c
}

// Multi reports whether the set has at least two members.
func (s NodeBits) Multi() bool {
	if s.lo&(s.lo-1) != 0 {
		return true
	}
	return s.Count() >= 2
}

// hasOther reports whether the set has a member other than node n.
func (s NodeBits) hasOther(n int) bool {
	c := s.Count()
	return c > 1 || (c == 1 && !s.Has(n))
}

// Equal reports whether the two sets have the same members.
func (s NodeBits) Equal(o NodeBits) bool {
	if s.lo != o.lo {
		return false
	}
	// Trailing zero words don't affect membership.
	a, b := s.hi, o.hi
	for len(a) > 0 && a[len(a)-1] == 0 {
		a = a[:len(a)-1]
	}
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TouchTable is an epoch's machine-wide access summary as parallel columns in
// address order: who accessed each address and whether anyone wrote it.
// Addresses of one cache block are adjacent, which is what lets conflict
// detection find false sharing in one pass.
type TouchTable struct {
	Addrs   AddrSet
	Nodes   []NodeBits // Nodes[i] accessed Addrs[i]
	Written []bool     // some node wrote Addrs[i]
}

// EpochSets is one epoch's processed trace data.
type EpochSets struct {
	Index     int
	BarrierPC int
	Nodes     []*NodeSets

	// Touched is what conflict detection and the prefetch filter consume.
	Touched TouchTable

	// AllSW is the union of SW over nodes (the addresses Touched marks
	// written); the Performance check-in equation's "written by some
	// processor in the next epoch" term uses the next epoch's AllSW.
	AllSW AddrSet
}

// ProcessTrace turns a raw trace into per-epoch, per-node sets
// (Section 4's first phase). It establishes the invariant the rest of the
// package relies on — every AddrSet is sorted — by grouping misses that are
// already in trace.Miss.Compare order, which is how sim.Run leaves them; an
// epoch that is not (a trace read from a file, written by hand or shuffled)
// is copied and sorted first. Memory is O(trace records): every slice built
// here holds at most one entry per record.
func ProcessTrace(tr *trace.Trace) []*EpochSets {
	out := make([]*EpochSets, len(tr.Epochs))
	var b setBuilder
	for i := range tr.Epochs {
		out[i] = b.epoch(&tr.Epochs[i], tr.Nodes)
	}
	return out
}

// setBuilder holds ProcessTrace's scratch: sets are accumulated here and
// copied out at their final size, so an epoch with few misses costs few bytes
// however large its neighbours were.
type setBuilder struct {
	sr, sw, wf, addrs []uint64
	start             []int
}

func (b *setBuilder) epoch(ep *trace.Epoch, nodes int) *EpochSets {
	misses := ep.Misses
	if !slices.IsSortedFunc(misses, trace.Miss.Compare) {
		misses = slices.Clone(misses)
		slices.SortFunc(misses, trace.Miss.Compare)
	}
	es := &EpochSets{Index: ep.Index, BarrierPC: ep.BarrierPC, Nodes: make([]*NodeSets, nodes)}
	sets := make([]NodeSets, nodes)
	pcs := make([]int, len(misses))
	lo := 0
	for n := range sets {
		hi := lo
		for hi < len(misses) && misses[hi].Node == n {
			hi++
		}
		b.node(&sets[n], misses[lo:hi], pcs[lo:hi])
		es.Nodes[n] = &sets[n]
		lo = hi
	}
	if lo != len(misses) {
		panic(fmt.Sprintf("core: trace epoch %d has a miss on node %d of %d", ep.Index, misses[lo].Node, nodes))
	}
	es.touch()
	return es
}

// node builds one node's sets from its misses, which arrive as three
// address-sorted runs (read misses, write misses, write faults): one
// three-way merge visits each distinct address once, knowing which kinds of
// miss it had. pcs receives the misses' statement IDs regrouped by address.
func (b *setBuilder) node(ns *NodeSets, misses []trace.Miss, pcs []int) {
	var runs [3][]trace.Miss
	for k := range runs {
		end := 0
		for end < len(misses) && misses[end].Kind == trace.Kind(k) {
			end++
		}
		runs[k], misses = misses[:end], misses[end:]
	}
	if len(misses) != 0 {
		panic(fmt.Sprintf("core: trace miss of unknown kind %d", misses[0].Kind))
	}
	b.sr, b.sw, b.wf, b.addrs, b.start = b.sr[:0], b.sw[:0], b.wf[:0], b.addrs[:0], b.start[:0]
	npc := 0
	for {
		addr, any := ^uint64(0), false
		for _, r := range runs {
			if len(r) > 0 && r[0].Addr <= addr {
				addr, any = r[0].Addr, true
			}
		}
		if !any {
			break
		}
		b.addrs = append(b.addrs, addr)
		b.start = append(b.start, npc)
		var in [3]bool
		for k := range runs {
			for ; len(runs[k]) > 0 && runs[k][0].Addr == addr; runs[k] = runs[k][1:] {
				pcs[npc] = runs[k][0].PC
				npc++
				in[k] = true
			}
		}
		// Fold write faults into SW and out of SR, remembering them
		// separately: the fault implies the read already brought the block
		// in, so the location's governing access is the write, and these
		// read-then-written locations are what an explicit check_out_x
		// exists to optimize.
		if in[trace.WriteFault] {
			b.wf = append(b.wf, addr)
		}
		if in[trace.WriteMiss] || in[trace.WriteFault] {
			b.sw = append(b.sw, addr)
		}
		if in[trace.ReadMiss] && !in[trace.WriteFault] {
			b.sr = append(b.sr, addr)
		}
	}
	if len(b.addrs) == 0 {
		return
	}
	ns.SR, ns.SW, ns.WF = cloneSet(b.sr), cloneSet(b.sw), cloneSet(b.wf)
	ns.PCs = PCTable{Addrs: cloneSet(b.addrs), start: slices.Clone(append(b.start, npc)), pcs: pcs}
}

// touch builds the epoch-wide columns from the per-node tables: the sorted
// union of every node's addresses, then one cursor walk per node to set its
// bit and its writes.
func (es *EpochSets) touch() {
	total := 0
	for _, ns := range es.Nodes {
		total += len(ns.PCs.Addrs)
	}
	all := make([]uint64, 0, total)
	for _, ns := range es.Nodes {
		all = append(all, ns.PCs.Addrs...)
	}
	t := &es.Touched
	t.Addrs = normalize(all)
	t.Nodes = make([]NodeBits, len(t.Addrs))
	t.Written = make([]bool, len(t.Addrs))
	written := 0
	for n, ns := range es.Nodes {
		c := cursor{s: t.Addrs}
		for _, a := range ns.PCs.Addrs {
			i := c.seek(a)
			t.Nodes[i] = t.Nodes[i].with(n)
		}
		c = cursor{s: t.Addrs}
		for _, a := range ns.SW {
			if i := c.seek(a); !t.Written[i] {
				t.Written[i] = true
				written++
			}
		}
	}
	es.AllSW = make(AddrSet, 0, written)
	for i, w := range t.Written {
		if w {
			es.AllSW = append(es.AllSW, t.Addrs[i])
		}
	}
}
