package obs

import (
	"bytes"
	"math/rand"
	"testing"

	"cachier/internal/parc"
	"cachier/internal/trace"
)

// checkHistogram asserts the documented Histogram invariants.
func checkHistogram(t *testing.T, h *Histogram) {
	t.Helper()
	var sum uint64
	for _, c := range h.Buckets {
		sum += c
	}
	if sum != h.Count {
		t.Errorf("bucket sum %d != count %d", sum, h.Count)
	}
	if h.Count == 0 {
		if h.Sum != 0 || h.Min != 0 || h.Max != 0 {
			t.Errorf("empty histogram has sum=%d min=%d max=%d", h.Sum, h.Min, h.Max)
		}
		return
	}
	if h.Min > h.Max {
		t.Errorf("min %d > max %d", h.Min, h.Max)
	}
	if m := h.Mean(); m < float64(h.Min) || m > float64(h.Max) {
		t.Errorf("mean %f outside [%d, %d]", m, h.Min, h.Max)
	}
}

func TestHistogramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		var sum, min, max uint64
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			// Mix magnitudes so many buckets get hit, including zero.
			v := uint64(rng.Int63()) >> uint(rng.Intn(64))
			if rng.Intn(10) == 0 {
				v = 0
			}
			h.Observe(v)
			sum += v
			if i == 0 || v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		checkHistogram(t, &h)
		if h.Count != uint64(n) || h.Sum != sum {
			t.Fatalf("count/sum = %d/%d, want %d/%d", h.Count, h.Sum, n, sum)
		}
		if n > 0 && (h.Min != min || h.Max != max) {
			t.Fatalf("min/max = %d/%d, want %d/%d", h.Min, h.Max, min, max)
		}
		h.Compact()
		checkHistogram(t, &h)
		if n == 0 && h.Buckets != nil {
			t.Error("empty histogram did not compact to nil buckets")
		}
		if len(h.Buckets) > 0 && h.Buckets[len(h.Buckets)-1] == 0 {
			t.Error("compact left a trailing empty bucket")
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 62, 63}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all Histogram
	for i := 0; i < 300; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(64))
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	checkHistogram(t, &a)
	if a.Count != all.Count || a.Sum != all.Sum || a.Min != all.Min || a.Max != all.Max {
		t.Errorf("merged = {%d %d %d %d}, direct = {%d %d %d %d}",
			a.Count, a.Sum, a.Min, a.Max, all.Count, all.Sum, all.Min, all.Max)
	}
	var empty Histogram
	empty.Merge(&Histogram{})
	checkHistogram(t, &empty)
}

// drive replays a fixed scripted run against a recorder; the script touches
// every recording entry point across two epochs plus a final partial one.
func drive(r *Recorder) {
	r.Access(0, trace.Hit, 1, 1, false, 10)
	r.Access(0, trace.ReadMiss, 2, 80, false, 90)
	r.Access(1, trace.WriteMiss, 2, 120, true, 120)
	r.Trap(TrapSteal)
	r.Invalidations(1, 1)
	r.DirTransition(StateIdle, StateShared)
	r.DirTransition(StateShared, StateExclusive)
	r.Directive(0, parc.AnnCheckOutX, 4, 130)
	r.VarDirective("U", parc.AnnCheckOutX, 4)
	r.DirectiveTrap(0, 130)
	r.Trap(TrapUpgrade)
	r.Work(0, 50)
	r.Handoff()
	r.BarrierEnd(3, []uint64{180, 150}, 260)
	r.Access(1, trace.WriteFault, 7, 60, false, 320)
	r.Directive(1, parc.AnnCheckIn, 2, 330)
	r.VarDirective("V", parc.AnnCheckIn, 2)
	r.Handoff()
	r.BarrierEnd(3, []uint64{300, 330}, 410)
	r.Access(0, trace.Hit, 7, 1, false, 411)
	r.NodeDone(0, 500)
	r.NodeDone(1, 520)
	r.Finish([]uint64{500, 520})
	r.SetOps(0, 1000)
	r.SetOps(1, 900)
}

func snapshotOf(r *Recorder) *Snapshot {
	return r.Snapshot(520, []uint64{500, 520}, 2, ProtocolStats{})
}

func TestSnapshotDeterminism(t *testing.T) {
	var data [2][]byte
	for i := range data {
		r := New(2, 32)
		r.EnableTimeline()
		drive(r)
		d, err := snapshotOf(r).MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		data[i] = d
	}
	if !bytes.Equal(data[0], data[1]) {
		t.Fatalf("identical recorder scripts produced different snapshots:\n%s\n----\n%s", data[0], data[1])
	}
}

func TestSnapshotShape(t *testing.T) {
	r := New(2, 32)
	r.EnableTimeline()
	drive(r)
	s := snapshotOf(r)
	if len(s.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3 (two barriers + final)", len(s.Epochs))
	}
	if s.Epochs[2].BarrierPC != -1 {
		t.Errorf("final epoch barrier PC = %d, want -1", s.Epochs[2].BarrierPC)
	}
	// Epoch 0, node 0: one hit + one read miss, 80 stall cycles, one
	// directive of 4 blocks, one directive trap; barrier stall 260-180.
	n0 := s.Epochs[0].Nodes[0]
	if n0.Hits != 1 || n0.ReadMisses != 1 || n0.StallCycles != 80 ||
		n0.DirectiveOps != 1 || n0.DirectiveBlocks != 4 || n0.Traps != 1 {
		t.Errorf("epoch 0 node 0 = %+v", n0)
	}
	if n0.BarrierStall != 80 {
		t.Errorf("barrier stall = %d, want 80", n0.BarrierStall)
	}
	// Working set: node 0 touched blocks {1, 2} in epoch 0.
	if n0.WorkingSet != 2 {
		t.Errorf("working set = %d, want 2", n0.WorkingSet)
	}
	checkHistogram(t, &s.Epochs[0].WorkingSet)
	// Vars are name-sorted.
	if len(s.Vars) != 2 || s.Vars[0].Name != "U" || s.Vars[1].Name != "V" {
		t.Errorf("vars = %+v", s.Vars)
	}
	if s.Vars[0].CheckOutX != 4 || s.Vars[0].CheckOuts() != 4 {
		t.Errorf("U = %+v", s.Vars[0])
	}
	if got := s.VarByName("V").CheckIns; got != 2 {
		t.Errorf("V check-ins = %d", got)
	}
	if s.VarByName("missing") != (VarStats{Name: "missing"}) {
		t.Error("missing var not zero")
	}
	// Per-node totals aggregate the epochs.
	if s.PerNode[0].Ops != 1000 || s.PerNode[1].Ops != 900 || s.Interp.Ops != 1900 {
		t.Errorf("ops = %+v / %+v / %d", s.PerNode[0], s.PerNode[1], s.Interp.Ops)
	}
	if s.PerNode[0].Hits != 2 || s.PerNode[1].Invalidations != 1 {
		t.Errorf("per-node totals = %+v", s.PerNode)
	}
	if s.Interp.Handoffs != 2 || s.Interp.WorkCycles != 50 {
		t.Errorf("interp = %+v", s.Interp)
	}
	// Directory detail: only recorded transitions and causes appear.
	if len(s.Directory.Transitions) != 2 || len(s.Directory.TrapCauses) != 2 {
		t.Errorf("directory = %+v", s.Directory)
	}
	// Round trip through the JSON codec.
	data, err := s.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("snapshot does not round-trip through JSON")
	}
}

// TestCounterMonotonicity: replaying a prefix of a script can never yield
// larger aggregate counters than the full script — recording only adds.
func TestCounterMonotonicity(t *testing.T) {
	full := New(2, 32)
	drive(full)
	fullSnap := snapshotOf(full)

	prefix := New(2, 32)
	prefix.Access(0, trace.Hit, 1, 1, false, 10)
	prefix.Access(0, trace.ReadMiss, 2, 80, false, 90)
	prefix.Trap(TrapSteal)
	prefix.Handoff()
	prefix.Finish([]uint64{90, 0})
	preSnap := prefix.Snapshot(90, []uint64{90, 0}, 0, ProtocolStats{})

	total := func(s *Snapshot) (acc, traps, handoffs uint64) {
		for _, n := range s.PerNode {
			acc += n.Hits + n.ReadMisses + n.WriteMisses + n.WriteFaults
			traps += n.Traps
		}
		return acc, traps, s.Interp.Handoffs
	}
	fa, ft, fh := total(fullSnap)
	pa, pt, ph := total(preSnap)
	if pa > fa || pt > ft || ph > fh {
		t.Errorf("prefix counters (%d,%d,%d) exceed full script (%d,%d,%d)", pa, pt, ph, fa, ft, fh)
	}
}

// TestNilRecorder drives every method on the disabled (nil) recorder: all
// must be no-ops, none may panic.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.EnableTimeline()
	drive(r)
	if s := r.Snapshot(1, []uint64{1}, 0, ProtocolStats{}); s != nil {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
	if tl := r.Timeline("x"); tl != nil {
		t.Errorf("nil recorder timeline = %+v", tl)
	}
	if err := r.WriteTimeline(&bytes.Buffer{}, "x"); err == nil {
		t.Error("nil recorder WriteTimeline did not fail")
	}
	if v := r.Var("U"); v != (VarStats{Name: "U"}) {
		t.Errorf("nil recorder var = %+v", v)
	}
}

// TestDisabledEquivalence: a nil recorder and an enabled one receive the
// same call sequence; the nil one must not influence anything (trivially) —
// and the enabled one must not be influenced by how many times Snapshot is
// called (it is a pure fold).
func TestRepeatedSnapshotsAgree(t *testing.T) {
	r := New(2, 32)
	drive(r)
	a, err := snapshotOf(r).MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshotOf(r).MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("repeated Snapshot() calls on one recorder disagree")
	}
}

func TestEnumStrings(t *testing.T) {
	for k := parc.AnnKind(0); k < nDirKinds; k++ {
		if k.String() == "cico(?)" {
			t.Errorf("AnnKind %d has no name", k)
		}
	}
	for c := TrapCause(0); c < nTrapCauses; c++ {
		if c.String() == "trap?" {
			t.Errorf("TrapCause %d has no name", c)
		}
	}
	for s := DirState(0); s < nDirStates; s++ {
		if s.String() == "state?" {
			t.Errorf("DirState %d has no name", s)
		}
	}
}
