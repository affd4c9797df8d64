package coherence_test

// The behavioural tests for the shared memory system drive it through the
// Dir1SW protocol (the paper's, and the machinery's original home): hits,
// misses, directives, prefetch bookkeeping, evictions, flushes, and the
// coherence checker are protocol-independent, and Dir1SW's trap behaviour
// makes the expected costs easy to pin. Protocol-specific behaviour is
// tested in internal/dir1sw and internal/dirn.

import (
	"testing"
	"testing/quick"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
	"cachier/internal/obs"
	"cachier/internal/trace"
)

func sys(t *testing.T, nodes int) *coherence.System {
	t.Helper()
	cfg := dir1sw.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CacheSize = 1024 // small: 1024B = 8 sets x 4 ways x 32B
	s, err := dir1sw.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReadMissThenHit(t *testing.T) {
	s := sys(t, 2)
	co := coherence.DefaultCosts()
	r := s.Read(0, 64, 0)
	if r.Kind != trace.ReadMiss || r.Trap {
		t.Fatalf("first read: %+v", r)
	}
	if r.Cycles != co.CleanMiss() {
		t.Errorf("clean miss cost %d", r.Cycles)
	}
	r = s.Read(0, 72, 10) // same 32B block
	if r.Kind != trace.Hit || r.Cycles != co.CacheHit {
		t.Errorf("second read: %+v", r)
	}
	if s.Stats.ReadMisses != 1 || s.Stats.Hits != 1 {
		t.Errorf("stats: %+v", s.Stats)
	}
}

func TestWriteFaultUpgrade(t *testing.T) {
	s := sys(t, 2)
	co := coherence.DefaultCosts()
	s.Read(0, 64, 0)
	r := s.Write(0, 64, 10)
	if r.Kind != trace.WriteFault {
		t.Fatalf("write after read: %+v", r)
	}
	if r.Trap {
		t.Error("sole-sharer upgrade should not trap (Dir1SW pointer check)")
	}
	if r.Cycles != co.Upgrade() {
		t.Errorf("upgrade cost %d", r.Cycles)
	}
	// Now exclusive: further writes hit.
	if r := s.Write(0, 64, 20); r.Kind != trace.Hit {
		t.Errorf("write to exclusive: %+v", r)
	}
}

func TestWriteFaultWithOtherSharersTraps(t *testing.T) {
	s := sys(t, 4)
	s.Read(0, 64, 0)
	s.Read(1, 64, 0)
	s.Read(2, 64, 0)
	r := s.Write(0, 64, 10)
	if r.Kind != trace.WriteFault || !r.Trap {
		t.Fatalf("upgrade with sharers: %+v", r)
	}
	if s.Stats.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", s.Stats.Invalidations)
	}
	// Other sharers lost their copies.
	if r := s.Read(1, 64, 20); r.Kind != trace.ReadMiss {
		t.Errorf("node 1 after invalidation: %+v", r)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

func TestReadFromExclusiveTrapsAndDowngrades(t *testing.T) {
	s := sys(t, 2)
	s.Write(0, 64, 0)
	r := s.Read(1, 64, 10)
	if r.Kind != trace.ReadMiss || !r.Trap {
		t.Fatalf("read of remote-exclusive: %+v", r)
	}
	if s.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d (dirty owner copy must be written back)", s.Stats.Writebacks)
	}
	// Both nodes now share.
	if r := s.Read(0, 64, 20); r.Kind != trace.Hit {
		t.Errorf("owner post-downgrade: %+v", r)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

func TestWriteToRemoteExclusiveTraps(t *testing.T) {
	s := sys(t, 2)
	s.Write(0, 64, 0)
	r := s.Write(1, 64, 10)
	if r.Kind != trace.WriteMiss || !r.Trap {
		t.Fatalf("write steal: %+v", r)
	}
	if r := s.Write(0, 64, 20); r.Kind != trace.WriteMiss {
		t.Errorf("node 0 lost its copy, expected write miss: %+v", r)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

func TestCheckOutXAvoidsWriteFault(t *testing.T) {
	// The canonical CICO win: read-then-write with a prior check_out_x does
	// not pay the upgrade (paper Section 4.1).
	plain := sys(t, 2)
	plain.Read(0, 64, 0)
	plain.Write(0, 64, 10)
	if plain.Stats.WriteFaults != 1 {
		t.Fatalf("baseline write faults = %d", plain.Stats.WriteFaults)
	}

	cico := sys(t, 2)
	cico.CheckOutX(0, 64, 0)
	cico.Read(0, 64, 10)
	cico.Write(0, 64, 20)
	if cico.Stats.WriteFaults != 0 {
		t.Errorf("annotated write faults = %d, want 0", cico.Stats.WriteFaults)
	}
	if cico.Stats.Hits != 2 {
		t.Errorf("annotated hits = %d, want 2", cico.Stats.Hits)
	}
}

func TestCheckInAvoidsInvalidationTrap(t *testing.T) {
	// Producer writes, checks in; consumer writes. Without the check-in the
	// consumer's write traps to retrieve the producer's exclusive copy.
	plain := sys(t, 2)
	plain.Write(0, 64, 0)
	r := plain.Write(1, 64, 10)
	if !r.Trap {
		t.Fatal("baseline should trap")
	}

	cico := sys(t, 2)
	cico.Write(0, 64, 0)
	cico.CheckIn(0, 64)
	r = cico.Write(1, 64, 10)
	if r.Trap {
		t.Error("write after check-in should not trap")
	}
	if r.Kind != trace.WriteMiss {
		t.Errorf("kind = %v", r.Kind)
	}
	if cico.Stats.Writebacks != 1 {
		t.Errorf("check-in of dirty block should write back, got %d", cico.Stats.Writebacks)
	}
}

func TestCheckInShared(t *testing.T) {
	s := sys(t, 3)
	s.Read(0, 64, 0)
	s.Read(1, 64, 0)
	s.CheckIn(0, 64)
	// Only node 1 remains a sharer; node 2's write invalidates one copy.
	s.Write(2, 64, 10)
	if s.Stats.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", s.Stats.Invalidations)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

func TestWastedDirectives(t *testing.T) {
	s := sys(t, 2)
	s.CheckIn(0, 64) // nothing cached
	s.Write(0, 64, 0)
	s.CheckOutX(0, 64, 10) // already exclusive
	s.CheckOutS(0, 64, 20) // already cached
	if s.Stats.WastedDirs != 3 {
		t.Errorf("wasted directives = %d, want 3", s.Stats.WastedDirs)
	}
}

func TestPrefetchOverlapsLatency(t *testing.T) {
	s := sys(t, 2)
	co := coherence.DefaultCosts()
	r := s.Prefetch(0, 64, 0, false)
	if r.Cycles != co.PrefetchIssue {
		t.Fatalf("prefetch issue cost %d", r.Cycles)
	}
	// Access long after arrival: full hit.
	r = s.Read(0, 64, 10_000)
	if r.Kind != trace.Hit || r.Cycles != co.CacheHit {
		t.Errorf("post-arrival read: %+v", r)
	}
	if s.Stats.PrefetchHits != 1 {
		t.Errorf("prefetch hits = %d", s.Stats.PrefetchHits)
	}

	// Access before arrival: partial stall.
	s2 := sys(t, 2)
	s2.Prefetch(0, 64, 0, false)
	lat := co.CleanMiss()
	r = s2.Read(0, 64, lat/2)
	want := lat - lat/2 + co.CacheHit
	if r.Cycles != want {
		t.Errorf("partial stall = %d, want %d", r.Cycles, want)
	}
}

// A write that meets its own shared prefetch cannot be served by it: it
// upgrades the copy the prefetch delivered, a write fault at the upgrade's
// cost with no second data message, exactly as CheckOutX does from the
// same state less the directive's overhead.
func TestPrefetchSharedDoesNotSatisfyWrite(t *testing.T) {
	co := coherence.DefaultCosts()
	prefetched := func() *coherence.System {
		s := sys(t, 2)
		s.Prefetch(0, 64, 0, false)
		return s
	}
	s := prefetched()
	data := s.Stats.DataMsgs
	r := s.Write(0, 64, 10_000)
	if r.Kind != trace.WriteFault || r.Trap || r.Cycles != co.Upgrade() {
		t.Errorf("write after a shared prefetch: %+v, want a write fault at %d cycles", r, co.Upgrade())
	}
	if got := s.Stats.DataMsgs - data; got != 0 {
		t.Errorf("write after a shared prefetch sent %d data messages, want 0", got)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
	x := prefetched()
	rx := x.CheckOutX(0, 64, 10_000)
	rx.Cycles -= co.DirectiveOverhead
	if r != rx {
		t.Errorf("write %+v, check_out_x less its overhead %+v", r, rx)
	}
	if x.Stats.DataMsgs != s.Stats.DataMsgs {
		t.Errorf("data messages: write %d, check_out_x %d", s.Stats.DataMsgs, x.Stats.DataMsgs)
	}
}

func TestPrefetchInvalidatedBeforeUse(t *testing.T) {
	s := sys(t, 2)
	s.Prefetch(0, 64, 0, true)
	// Node 1 steals the block before node 0 consumes the prefetch.
	s.Write(1, 64, 5)
	r := s.Read(0, 64, 10_000)
	if r.Kind != trace.ReadMiss {
		t.Errorf("read after stolen prefetch: %+v", r)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

func TestEvictionNotifiesDirectory(t *testing.T) {
	cfg := dir1sw.DefaultConfig()
	cfg.Nodes = 2
	cfg.CacheSize = 128 // 1 set x 4 ways
	cfg.Assoc = 4
	s := dir1sw.MustNew(cfg)
	// Fill the single set, then one more insert evicts the LRU block.
	for i := 0; i < 5; i++ {
		s.Read(0, uint64(64+32*i), 0)
	}
	if s.Cache(0).Resident() != 4 {
		t.Fatalf("resident = %d", s.Cache(0).Resident())
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
	// The evicted block's directory entry must be Idle again so a writer
	// does not pay an invalidation for a phantom copy.
	s.Write(1, 64, 0)
	if s.Stats.Invalidations != 0 {
		t.Errorf("phantom invalidation after eviction: %d", s.Stats.Invalidations)
	}
}

func TestFlushNode(t *testing.T) {
	s := sys(t, 2)
	s.Read(0, 64, 0)
	s.Write(0, 128, 0)
	s.FlushNode(0)
	if s.Cache(0).Resident() != 0 {
		t.Error("cache not empty after flush")
	}
	if s.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d (dirty line must be written back)", s.Stats.Writebacks)
	}
	// After the flush another node accesses both blocks without traps.
	if r := s.Write(1, 64, 10); r.Trap {
		t.Error("trap after flush")
	}
	if r := s.Write(1, 128, 10); r.Trap {
		t.Error("trap after flush of dirty block")
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

// Property test: random operation sequences never violate coherence, and
// reads/writes always produce sensible kinds.
func TestCoherenceUnderRandomOps(t *testing.T) {
	type op struct {
		Node  uint8
		Addr  uint16
		Which uint8
	}
	f := func(ops []op) bool {
		cfg := dir1sw.DefaultConfig()
		cfg.Nodes = 4
		cfg.CacheSize = 256 // tiny: forces evictions
		cfg.Assoc = 2
		s := dir1sw.MustNew(cfg)
		now := uint64(0)
		for _, o := range ops {
			node := int(o.Node) % 4
			addr := uint64(o.Addr) % 2048
			switch o.Which % 7 {
			case 0, 1:
				s.Read(node, addr, now)
			case 2, 3:
				s.Write(node, addr, now)
			case 4:
				s.CheckOutX(node, addr, now)
			case 5:
				s.CheckIn(node, addr)
			case 6:
				s.Prefetch(node, addr, now, o.Which%2 == 0)
			}
			now += 13
		}
		return s.CheckCoherence() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDirView(t *testing.T) {
	s := sys(t, 3)
	s.Read(1, 64, 0)
	s.Read(2, 64, 0)
	if st, _, sh := s.DirView(2); st != obs.StateShared || len(sh) != 2 {
		t.Errorf("after two reads: state %v sharers %v", st, sh)
	}
	s.Write(0, 64, 10)
	if st, owner, sh := s.DirView(2); st != obs.StateExclusive || owner != 0 || len(sh) != 0 {
		t.Errorf("after write: state %v owner %d sharers %v", st, owner, sh)
	}
}

func TestBadConfig(t *testing.T) {
	cfg := dir1sw.DefaultConfig()
	cfg.Nodes = 0
	if _, err := dir1sw.New(cfg); err == nil {
		t.Error("zero nodes accepted")
	}
	cfg = dir1sw.DefaultConfig()
	cfg.CacheSize = 100
	if _, err := dir1sw.New(cfg); err == nil {
		t.Error("bad cache size accepted")
	}
	if _, err := coherence.New(coherence.Config{Nodes: 2, CacheSize: 1024, Assoc: 2, BlockSize: 32}, nil); err == nil {
		t.Error("nil protocol accepted")
	}
}
