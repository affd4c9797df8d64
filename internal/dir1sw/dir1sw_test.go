package dir1sw

import (
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/dirn"
)

// The protocol-independent machinery's behavioural tests live in
// internal/coherence (driven through this protocol); this file pins what is
// Dir1SW's own — the exact trap costs and the broadcast-on-imprecision
// message accounting — against the full-map baseline, DirₙNB with a pointer
// per node (protocol spec "dirnnb:<nodes>"): the same transitions without
// the traps.

// fullMap builds cfg's machine with the full-map directory instead.
func fullMap(cfg Config) *coherence.System {
	return coherence.MustNew(coherence.Config{
		Nodes:     cfg.Nodes,
		CacheSize: cfg.CacheSize,
		Assoc:     cfg.Assoc,
		BlockSize: cfg.BlockSize,
		Costs:     cfg.Costs,
	}, dirn.NB(cfg.Nodes))
}

func TestExactStallCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CacheSize = 1024
	s := MustNew(cfg)
	co := cfg.Costs

	// Clean read miss.
	if r := s.Read(0, 64, 0); r.Cycles != co.CleanMiss() {
		t.Errorf("read miss = %d, want %d", r.Cycles, co.CleanMiss())
	}
	// Hit.
	if r := s.Read(0, 64, 1); r.Cycles != co.CacheHit {
		t.Errorf("hit = %d", r.Cycles)
	}
	// Sole-sharer upgrade: hardware pointer check, no trap.
	if r := s.Write(0, 64, 2); r.Cycles != co.Upgrade() || r.Trap {
		t.Errorf("sole upgrade = %+v", r)
	}
	// Upgrade with another sharer: trap + broadcast to Nodes-1.
	s2 := MustNew(cfg)
	s2.Read(0, 64, 0)
	s2.Read(1, 64, 0)
	want := co.Trap + co.Upgrade() + uint64(cfg.Nodes-1)*co.InvalMsg
	if r := s2.Write(0, 64, 1); r.Cycles != want || !r.Trap {
		t.Errorf("broadcast upgrade = %+v, want %d cycles", r, want)
	}
	// Steal from a remote exclusive owner: trap + 4 hops + service + memory.
	s3 := MustNew(cfg)
	s3.Write(0, 64, 0)
	want = co.Trap + 4*co.NetHop + co.DirService + co.MemAccess
	if r := s3.Read(1, 64, 1); r.Cycles != want || !r.Trap {
		t.Errorf("remote-exclusive read = %+v, want %d cycles", r, want)
	}
	// Check-in of a clean shared block: directive overhead only.
	s4 := MustNew(cfg)
	s4.Read(0, 64, 0)
	if r := s4.CheckIn(0, 64); r.Cycles != co.DirectiveOverhead {
		t.Errorf("clean check-in = %d", r.Cycles)
	}
	// Check-in of a dirty block adds the local writeback push.
	s5 := MustNew(cfg)
	s5.Write(0, 64, 0)
	if r := s5.CheckIn(0, 64); r.Cycles != co.DirectiveOverhead+co.WritebackLocal {
		t.Errorf("dirty check-in = %d", r.Cycles)
	}
}

func TestBroadcastCountsControlMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.CacheSize = 1024
	s := MustNew(cfg)
	s.Read(0, 64, 0)
	s.Read(1, 64, 0)
	before := s.Stats.CtlMsgs
	s.Write(0, 64, 1)
	// Broadcast: invalidations + acks to every other node, even though only
	// one actually held a copy (Dir1SW's counter does not say who).
	if got := s.Stats.CtlMsgs - before; got != 2*uint64(cfg.Nodes-1) {
		t.Errorf("broadcast control messages = %d, want %d", got, 2*(cfg.Nodes-1))
	}
	if s.Stats.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (only the real sharer)", s.Stats.Invalidations)
	}
}

func TestProtocolNames(t *testing.T) {
	if got := Protocol().Name(); got != "Dir1SW" {
		t.Errorf("Name = %q", got)
	}
	if got := fullMap(DefaultConfig()).Protocol().Name(); got != "Dir32NB" {
		t.Errorf("full-map Name = %q", got)
	}
}

func TestFullMapNeverTraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.CacheSize = 1024
	s := fullMap(cfg)
	// Every conflicting transition that traps under Dir1SW.
	s.Read(1, 64, 0)
	s.Read(2, 64, 0)
	if r := s.Write(0, 64, 1); r.Trap {
		t.Error("full-map write to shared block trapped")
	}
	if r := s.Read(3, 64, 2); r.Trap {
		t.Error("full-map read of remote-exclusive trapped")
	}
	s.Write(4, 96, 0)
	if r := s.Write(5, 96, 1); r.Trap {
		t.Error("full-map write steal trapped")
	}
	if s.Stats.Traps != 0 {
		t.Errorf("traps = %d", s.Stats.Traps)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

func TestFullMapDirectedInvalidations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 16
	cfg.CacheSize = 1024
	s := fullMap(cfg)
	s.Read(1, 64, 0)
	s.Read(2, 64, 0)
	before := s.Stats.CtlMsgs
	s.Write(0, 64, 1)
	// Directed: 2 invalidations + 2 acks, not 2*(N-1) broadcast messages.
	if got := s.Stats.CtlMsgs - before; got != 4 {
		t.Errorf("control messages = %d, want 4 (directed)", got)
	}
	if s.Stats.Invalidations != 2 {
		t.Errorf("invalidations = %d", s.Stats.Invalidations)
	}
}

func TestFullMapUpgradeCheaperThanDir1SW(t *testing.T) {
	run := func(full bool) uint64 {
		cfg := DefaultConfig()
		cfg.Nodes = 32
		cfg.CacheSize = 1024
		s := MustNew(cfg)
		if full {
			s = fullMap(cfg)
		}
		for n := 1; n < 8; n++ {
			s.Read(n, 64, 0)
		}
		r := s.Write(0, 64, 1)
		return r.Cycles
	}
	if fm, d1 := run(true), run(false); fm >= d1 {
		t.Errorf("full-map upgrade (%d) not cheaper than Dir1SW broadcast (%d)", fm, d1)
	}
}
