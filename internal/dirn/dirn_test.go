package dirn_test

import (
	"math/rand"
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/dirn"
	"cachier/internal/obs"
	"cachier/internal/trace"
)

func mk(t *testing.T, nodes int, proto coherence.Protocol) *coherence.System {
	t.Helper()
	s, err := coherence.New(coherence.Config{
		Nodes:     nodes,
		CacheSize: 1024,
		Assoc:     2,
		BlockSize: 32,
		Costs:     coherence.DefaultCosts(),
		Probe:     true, // exercises CheckEntry after every operation
	}, proto)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNames(t *testing.T) {
	if got := dirn.NB(4).Name(); got != "Dir4NB" {
		t.Errorf("NB(4).Name() = %q", got)
	}
	if got := dirn.B(2).Name(); got != "Dir2B" {
		t.Errorf("B(2).Name() = %q", got)
	}
}

func TestBadPointerCountPanics(t *testing.T) {
	for _, f := range []func(){func() { dirn.NB(0) }, func() { dirn.B(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("n < 1 accepted")
				}
			}()
			f()
		}()
	}
}

// TestNBNeverTraps: every transition that traps under Dir1SW — upgrade with
// sharers, write steal, read of remote-exclusive — is hardware under DirnNB.
func TestNBNeverTraps(t *testing.T) {
	s := mk(t, 4, dirn.NB(1))
	for n := 0; n < 4; n++ {
		if r := s.Read(n, 64, 0); r.Trap {
			t.Errorf("node %d read trapped", n)
		}
	}
	if r := s.Write(0, 64, 1); r.Trap {
		t.Error("write trapped")
	}
	if r := s.Write(1, 64, 2); r.Trap {
		t.Error("steal trapped")
	}
	if r := s.Read(2, 64, 3); r.Trap {
		t.Error("read of exclusive trapped")
	}
	if s.Stats.Traps != 0 {
		t.Errorf("traps = %d", s.Stats.Traps)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
	if err := s.ProbeError(); err != nil {
		t.Error(err)
	}
}

// TestNBOverflowEvicts: the (n+1)-th reader costs an existing sharer its
// copy — the lowest-numbered one other than the requester — and the sharer
// set never exceeds n.
func TestNBOverflowEvicts(t *testing.T) {
	s := mk(t, 4, dirn.NB(2))
	co := coherence.DefaultCosts()
	s.Read(0, 64, 0)
	s.Read(1, 64, 0)
	r := s.Read(2, 64, 0)
	if want := co.CleanMiss() + co.InvalMsg; r.Cycles != want {
		t.Errorf("overflowing read = %d cycles, want %d", r.Cycles, want)
	}
	if s.Stats.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", s.Stats.Invalidations)
	}
	if _, _, sharers := s.DirView(2); len(sharers) != 2 || sharers[0] != 1 || sharers[1] != 2 {
		t.Errorf("sharers = %v, want [1 2] (node 0 evicted)", sharers)
	}
	// Node 0 lost its copy; node 1 kept its.
	if r := s.Read(0, 96, 0); r.Kind != trace.ReadMiss {
		t.Errorf("unrelated read: %v", r.Kind)
	}
	if r := s.Read(1, 64, 0); r.Kind != trace.Hit {
		t.Errorf("surviving sharer: %v, want hit", r.Kind)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

// TestNBDowngradeOverflow: reading an exclusive-held block with n=1 leaves
// only the reader sharing — the downgraded owner's copy is immediately
// evicted to fit the single pointer.
func TestNBDowngradeOverflow(t *testing.T) {
	s := mk(t, 2, dirn.NB(1))
	co := coherence.DefaultCosts()
	s.Write(0, 64, 0)
	r := s.Read(1, 64, 1)
	if r.Trap {
		t.Error("hardware downgrade trapped")
	}
	if want := 4*co.NetHop + co.DirService + co.MemAccess + co.InvalMsg; r.Cycles != want {
		t.Errorf("downgrade+evict = %d cycles, want %d", r.Cycles, want)
	}
	if s.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d (dirty owner copy)", s.Stats.Writebacks)
	}
	if _, _, sharers := s.DirView(2); len(sharers) != 1 || sharers[0] != 1 {
		t.Errorf("sharers = %v, want [1]", sharers)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

// TestNBDirectedWrite: a write with other sharers performs directed
// invalidations in hardware, at full-map cost, never a broadcast.
func TestNBDirectedWrite(t *testing.T) {
	s := mk(t, 8, dirn.NB(4))
	co := coherence.DefaultCosts()
	s.Read(0, 64, 0)
	s.Read(1, 64, 0)
	s.Read(2, 64, 0)
	before := s.Stats.CtlMsgs
	r := s.Write(0, 64, 1)
	if r.Trap {
		t.Error("directed upgrade trapped")
	}
	if want := co.Upgrade() + 2*co.InvalMsg; r.Cycles != want {
		t.Errorf("upgrade = %d cycles, want %d", r.Cycles, want)
	}
	if got := s.Stats.CtlMsgs - before; got != 4 {
		t.Errorf("control messages = %d, want 4 (directed)", got)
	}
	if s.Stats.Invalidations != 2 {
		t.Errorf("invalidations = %d", s.Stats.Invalidations)
	}
}

// TestBSetsBroadcastBitAndBroadcastsOnWrite: overflowing DirnB's pointers
// keeps every copy alive, but the next write pays a broadcast to all
// Nodes-1 — the directory no longer knows the sharers.
func TestBSetsBroadcastBitAndBroadcastsOnWrite(t *testing.T) {
	const nodes = 8
	s := mk(t, nodes, dirn.B(2))
	co := coherence.DefaultCosts()
	s.Read(0, 64, 0)
	s.Read(1, 64, 0)
	s.Read(2, 64, 0) // overflow: bit set, no eviction
	if s.Stats.Invalidations != 0 {
		t.Fatalf("overflow invalidated a copy: %d", s.Stats.Invalidations)
	}
	for n := 0; n < 3; n++ {
		if r := s.Read(n, 64, 1); r.Kind != trace.Hit {
			t.Errorf("node %d lost its copy to overflow", n)
		}
	}
	before := s.Stats.CtlMsgs
	r := s.Write(0, 64, 2)
	if r.Trap {
		t.Error("broadcast upgrade trapped (DirnB broadcasts in hardware)")
	}
	if want := co.Upgrade() + (nodes-1)*co.InvalMsg; r.Cycles != want {
		t.Errorf("broadcast upgrade = %d cycles, want %d", r.Cycles, want)
	}
	if got := s.Stats.CtlMsgs - before; got != 2*(nodes-1) {
		t.Errorf("control messages = %d, want %d (broadcast)", got, 2*(nodes-1))
	}
	if s.Stats.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2 (the real sharers)", s.Stats.Invalidations)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

// TestBDirectedUnderBound: while the pointers suffice, DirnB writes are
// directed exactly like DirnNB's.
func TestBDirectedUnderBound(t *testing.T) {
	s := mk(t, 8, dirn.B(4))
	co := coherence.DefaultCosts()
	s.Read(1, 64, 0)
	s.Read(2, 64, 0)
	before := s.Stats.CtlMsgs
	r := s.Write(3, 64, 1) // write miss with 2 sharers, under the bound
	if want := co.CleanMiss() + 2*co.InvalMsg; r.Cycles != want {
		t.Errorf("directed write miss = %d cycles, want %d", r.Cycles, want)
	}
	if got := s.Stats.CtlMsgs - before; got != 4 {
		t.Errorf("control messages = %d, want 4", got)
	}
}

// TestBBroadcastWriteMiss: a write miss to an overflowed block broadcasts
// too (the requester was never a sharer; everyone else might be).
func TestBBroadcastWriteMiss(t *testing.T) {
	const nodes = 8
	s := mk(t, nodes, dirn.B(1))
	co := coherence.DefaultCosts()
	s.Read(0, 64, 0)
	s.Read(1, 64, 0) // overflow at n=1
	r := s.Write(2, 64, 1)
	if want := co.CleanMiss() + (nodes-1)*co.InvalMsg; r.Cycles != want {
		t.Errorf("broadcast write miss = %d cycles, want %d", r.Cycles, want)
	}
	if s.Stats.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", s.Stats.Invalidations)
	}
}

// TestBBitClearsWhenBlockGoesIdle: once every sharer checks the overflowed
// block in, the entry returns to Idle and the imprecision is forgotten —
// the next write is directed again.
func TestBBitClearsWhenBlockGoesIdle(t *testing.T) {
	s := mk(t, 8, dirn.B(1))
	co := coherence.DefaultCosts()
	s.Read(0, 64, 0)
	s.Read(1, 64, 0) // overflow
	s.CheckIn(0, 64)
	s.CheckIn(1, 64)
	if st, _, _ := s.DirView(2); st != obs.StateIdle {
		t.Fatalf("state = %v after all check-ins", st)
	}
	if r := s.Write(0, 64, 1); r.Cycles != co.CleanMiss() {
		t.Errorf("write after idle = %d cycles, want clean miss %d (no broadcast)", r.Cycles, co.CleanMiss())
	}
}

// TestDirnRandomStorm: random operation sequences keep every variant's
// invariants — sharer count ≤ n for NB, broadcast-bit consistency for B —
// checked by the probe after every access and by CheckCoherence after every
// step.
func TestDirnRandomStorm(t *testing.T) {
	protos := []coherence.Protocol{dirn.NB(1), dirn.NB(2), dirn.NB(4), dirn.B(1), dirn.B(2), dirn.B(4)}
	for _, proto := range protos {
		for seed := int64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, err := coherence.New(coherence.Config{
				Nodes: 4, CacheSize: 256, Assoc: 2, BlockSize: 32,
				Costs: coherence.DefaultCosts(), Probe: true,
			}, proto)
			if err != nil {
				t.Fatal(err)
			}
			now := uint64(0)
			for i := 0; i < 60; i++ {
				node := rng.Intn(4)
				addr := uint64(rng.Intn(16)) * 32
				op := rng.Intn(8)
				switch op {
				case 0, 1:
					s.Read(node, addr, now)
				case 2, 3:
					s.Write(node, addr, now)
				case 4:
					s.CheckOutX(node, addr, now)
				case 5:
					s.CheckOutS(node, addr, now)
				case 6:
					s.CheckIn(node, addr)
				case 7:
					s.Prefetch(node, addr, now, rng.Intn(2) == 0)
				}
				now += uint64(rng.Intn(200))
				if err := s.CheckCoherence(); err != nil {
					t.Fatalf("%s seed %d step %d op %d: %v", proto.Name(), seed, i, op, err)
				}
				if err := s.ProbeError(); err != nil {
					t.Fatalf("%s seed %d step %d op %d: %v", proto.Name(), seed, i, op, err)
				}
			}
		}
	}
}
