package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cachier/internal/trace"
)

// The model: the same pipeline stages written the obvious way, on hash sets,
// with the Section 4.1 equations in their chained textbook form. It knows
// nothing of sortedness, cursors or merges; the production code must agree
// with it on the membership of every set it returns.

type modelSet map[uint64]bool

func (s modelSet) Clone() modelSet {
	out := make(modelSet, len(s))
	for a := range s {
		out[a] = true
	}
	return out
}

func (s modelSet) Minus(t modelSet) modelSet {
	return s.Filter(func(a uint64) bool { return !t[a] })
}

func (s modelSet) Intersect(t modelSet) modelSet {
	return s.Filter(func(a uint64) bool { return t[a] })
}

func (s modelSet) Union(t modelSet) modelSet {
	out := s.Clone()
	for a := range t {
		out[a] = true
	}
	return out
}

func (s modelSet) Filter(keep func(uint64) bool) modelSet {
	out := make(modelSet)
	for a := range s {
		if keep(a) {
			out[a] = true
		}
	}
	return out
}

type modelNode struct {
	SR, SW, WF modelSet
	PCs        map[uint64][]int
}

func (n *modelNode) S() modelSet { return n.SW.Union(n.SR) }

type modelEpoch struct {
	Nodes   []*modelNode
	Touched map[uint64]map[int]bool
	Written modelSet
}

func modelProcess(tr *trace.Trace) []*modelEpoch {
	var out []*modelEpoch
	for _, ep := range tr.Epochs {
		me := &modelEpoch{Touched: map[uint64]map[int]bool{}, Written: modelSet{}}
		for n := 0; n < tr.Nodes; n++ {
			me.Nodes = append(me.Nodes, &modelNode{SR: modelSet{}, SW: modelSet{}, WF: modelSet{}, PCs: map[uint64][]int{}})
		}
		for _, m := range ep.Misses {
			ns := me.Nodes[m.Node]
			switch m.Kind {
			case trace.ReadMiss:
				ns.SR[m.Addr] = true
			case trace.WriteMiss:
				ns.SW[m.Addr] = true
				me.Written[m.Addr] = true
			case trace.WriteFault:
				ns.SW[m.Addr] = true
				ns.WF[m.Addr] = true
				me.Written[m.Addr] = true
			}
			ns.PCs[m.Addr] = append(ns.PCs[m.Addr], m.PC)
			if me.Touched[m.Addr] == nil {
				me.Touched[m.Addr] = map[int]bool{}
			}
			me.Touched[m.Addr][m.Node] = true
		}
		for _, ns := range me.Nodes {
			ns.SR = ns.SR.Minus(ns.WF)
		}
		out = append(out, me)
	}
	return out
}

type modelConflicts struct{ Race, FalseShare modelSet }

func (c *modelConflicts) DRFS(a uint64) bool { return c.Race[a] || c.FalseShare[a] }
func (c *modelConflicts) FS(a uint64) bool   { return c.FalseShare[a] }

// modelCrossNode is false sharing's pair predicate from its definition: some
// node n touches the first address and a different node m the second, and
// the two are not simply both touching both.
func modelCrossNode(ta, tb map[int]bool) bool {
	for n := range ta {
		for m := range tb {
			if n != m && !(tb[n] && ta[m]) {
				return true
			}
		}
	}
	return false
}

func modelConflictsOf(me *modelEpoch, blockSize int) *modelConflicts {
	c := &modelConflicts{Race: modelSet{}, FalseShare: modelSet{}}
	blocks := map[uint64][]uint64{}
	for a, nodes := range me.Touched {
		if len(nodes) >= 2 && me.Written[a] {
			c.Race[a] = true
		}
		blocks[a/uint64(blockSize)] = append(blocks[a/uint64(blockSize)], a)
	}
	for _, addrs := range blocks {
		written := false
		for _, a := range addrs {
			written = written || me.Written[a]
		}
		if !written {
			continue
		}
		for _, a := range addrs {
			for _, b := range addrs {
				if a != b && modelCrossNode(me.Touched[a], me.Touched[b]) {
					c.FalseShare[a], c.FalseShare[b] = true, true
				}
			}
		}
	}
	return c
}

type modelAnn struct{ CoX, CoS, CI modelSet }

func modelAnnotations(epochs []*modelEpoch, conflicts []*modelConflicts, style Style) [][]modelAnn {
	out := make([][]modelAnn, len(epochs))
	for i, me := range epochs {
		cf := conflicts[i]
		notDRFS := func(a uint64) bool { return !cf.DRFS(a) }
		notFS := func(a uint64) bool { return !cf.FS(a) }
		for n, ns := range me.Nodes {
			prev := &modelNode{SR: modelSet{}, SW: modelSet{}}
			next := &modelNode{SR: modelSet{}, SW: modelSet{}}
			if i > 0 {
				prev = epochs[i-1].Nodes[n]
			}
			if i+1 < len(epochs) {
				next = epochs[i+1].Nodes[n]
			}
			var a modelAnn
			if style == StyleProgrammer {
				a.CoX = ns.SW.Minus(prev.SW).Filter(notDRFS).Union(ns.SW.Filter(cf.DRFS))
				a.CoS = ns.SR.Minus(prev.SR).Filter(notFS).Union(ns.SR.Filter(cf.FS)).Minus(a.CoX)
				a.CI = ns.S().Minus(next.S()).Filter(notDRFS).Union(ns.S().Filter(cf.DRFS))
			} else {
				// SR_i ∩ "written by another processor within the lookahead
				// window, before this one touches it again".
				future := modelSet{}
				self := modelSet{}
				for k := 1; k <= ciLookahead && i+k < len(epochs); k++ {
					ekn := epochs[i+k].Nodes[n]
					future = future.Union(ns.SR.Intersect(epochs[i+k].Written).Minus(ekn.SW).Minus(self))
					self = self.Union(ekn.S())
				}
				a.CoX = ns.WF.Minus(prev.SW).Filter(notDRFS).Union(ns.WF.Filter(cf.DRFS))
				a.CoS = modelSet{}
				a.CI = ns.SW.Minus(next.SW).Filter(notDRFS).
					Union(future.Filter(notDRFS)).
					Union(ns.S().Filter(cf.DRFS))
			}
			out[i] = append(out[i], a)
		}
	}
	return out
}

// randomMisses is an arbitrary, unordered trace with exact duplicate
// records, addresses dense enough to collide within blocks, and sometimes
// more than 64 nodes.
func randomMisses(rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{Nodes: 1 + rng.Intn(5), BlockSize: 8 << rng.Intn(4)}
	if rng.Intn(4) == 0 {
		tr.Nodes += 64
	}
	span := 8 + rng.Intn(120)
	for e, epochs := 0, 1+rng.Intn(6); e < epochs; e++ {
		ep := trace.Epoch{Index: e, BarrierPC: rng.Intn(3), VT: make([]uint64, tr.Nodes)}
		for i, n := 0, rng.Intn(80); i < n; i++ {
			m := trace.Miss{
				Kind: trace.Kind(rng.Intn(3)),
				Addr: 64 + 8*uint64(rng.Intn(span)),
				PC:   rng.Intn(12),
				Node: rng.Intn(tr.Nodes),
			}
			ep.Misses = append(ep.Misses, m)
			if rng.Intn(10) == 0 {
				ep.Misses = append(ep.Misses, m)
			}
		}
		tr.Epochs = append(tr.Epochs, ep)
	}
	return tr
}

func sameSet(t *testing.T, what string, got AddrSet, want modelSet) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("%s: not strictly ascending: %v", what, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d members %v, the model has %d", what, len(got), got, len(want))
	}
	for _, a := range got {
		if !want[a] {
			t.Fatalf("%s: has %d, the model does not", what, a)
		}
	}
}

// TestSetsAgainstMapModel runs seeded random miss streams through the
// sorted-slice pipeline and through the map model above and asserts equal
// membership for every set ProcessTrace, FindConflicts and both styles of
// ComputeAnnotations return, and that every one of them is strictly
// ascending (the representation's invariant).
func TestSetsAgainstMapModel(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		tr := randomMisses(rand.New(rand.NewSource(seed)))
		epochs := ProcessTrace(tr)
		conflicts := FindAllConflicts(epochs, tr.BlockSize)
		model := modelProcess(tr)
		var modelCf []*modelConflicts
		for _, me := range model {
			modelCf = append(modelCf, modelConflictsOf(me, tr.BlockSize))
		}
		if len(epochs) != len(model) {
			t.Fatalf("seed %d: %d epochs, the model has %d", seed, len(epochs), len(model))
		}
		for i, es := range epochs {
			me := model[i]
			at := fmt.Sprintf("seed %d epoch %d", seed, i)
			if es.Index != tr.Epochs[i].Index || es.BarrierPC != tr.Epochs[i].BarrierPC {
				t.Fatalf("%s: index %d barrier %d", at, es.Index, es.BarrierPC)
			}
			for n, ns := range es.Nodes {
				mn := me.Nodes[n]
				at := fmt.Sprintf("%s node %d", at, n)
				sameSet(t, at+" SR", ns.SR, mn.SR)
				sameSet(t, at+" SW", ns.SW, mn.SW)
				sameSet(t, at+" WF", ns.WF, mn.WF)
				keys := modelSet{}
				for a := range mn.PCs {
					keys[a] = true
				}
				sameSet(t, at+" PC keys", ns.PCs.Addrs, keys)
				for j, a := range ns.PCs.Addrs {
					got, want := slices.Clone(ns.PCs.At(j)), slices.Clone(mn.PCs[a])
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: PCs of %d = %v, the model has %v", at, a, got, want)
					}
				}
			}
			touched, written := modelSet{}, modelSet{}
			for a := range me.Touched {
				touched[a] = true
			}
			for j, a := range es.Touched.Addrs {
				if es.Touched.Written[j] {
					written[a] = true
				}
				for n := 0; n < tr.Nodes; n++ {
					if got, want := es.Touched.Nodes[j].Has(n), me.Touched[a][n]; got != want {
						t.Fatalf("%s: node %d touched %d: %v, the model says %v", at, n, a, got, want)
					}
				}
			}
			sameSet(t, at+" Touched", es.Touched.Addrs, touched)
			if !reflect.DeepEqual(written, me.Written) {
				t.Fatalf("%s: Written column %v, the model has %v", at, written, me.Written)
			}
			sameSet(t, at+" AllSW", es.AllSW, me.Written)
			sameSet(t, at+" Race", conflicts[i].Race, modelCf[i].Race)
			sameSet(t, at+" FalseShare", conflicts[i].FalseShare, modelCf[i].FalseShare)
		}
		for _, style := range []Style{StyleProgrammer, StylePerformance} {
			ann := ComputeAnnotations(epochs, conflicts, style)
			want := modelAnnotations(model, modelCf, style)
			for i := range ann {
				for n := range ann[i] {
					at := fmt.Sprintf("seed %d %v epoch %d node %d", seed, style, i, n)
					sameSet(t, at+" CoX", ann[i][n].CoX, want[i][n].CoX)
					sameSet(t, at+" CoS", ann[i][n].CoS, want[i][n].CoS)
					sameSet(t, at+" CI", ann[i][n].CI, want[i][n].CI)
				}
			}
		}
	}
}

// TestConflictsBeyond64Nodes: toucher sets that differ only in nodes 64 and
// up — NodeBits' spill words — must still be told apart.
func TestConflictsBeyond64Nodes(t *testing.T) {
	b := trace.NewBuilder(70, 32, nil)
	// One block, two addresses, two high nodes: false sharing.
	b.AddMiss(trace.WriteMiss, 32, 1, 65)
	b.AddMiss(trace.ReadMiss, 40, 2, 66)
	// One address, a low writer and a high reader: a race.
	b.AddMiss(trace.WriteMiss, 96, 3, 3)
	b.AddMiss(trace.ReadMiss, 96, 4, 67)
	// One block, two addresses, the same high node on both: neither.
	b.AddMiss(trace.WriteMiss, 128, 5, 69)
	b.AddMiss(trace.ReadMiss, 136, 6, 69)
	// One block, two addresses, the same two high nodes on both: races on
	// the written one, but same-address contention is not false sharing.
	for _, n := range []int{64, 68} {
		b.AddMiss(trace.WriteMiss, 160, 7, n)
		b.AddMiss(trace.ReadMiss, 168, 8, n)
	}
	b.EndEpoch(-1, make([]uint64, 70), true)
	es := ProcessTrace(b.Trace())[0]
	c := FindConflicts(es, 32)
	setEq(t, "false sharing", c.FalseShare, 32, 40)
	setEq(t, "races", c.Race, 96, 160)
	if i := es.Touched.Addrs.search(96); !es.Touched.Nodes[i].Has(67) || !es.Touched.Nodes[i].Has(3) || es.Touched.Nodes[i].Count() != 2 {
		t.Errorf("touchers of 96 = %+v", es.Touched.Nodes[i])
	}
}
