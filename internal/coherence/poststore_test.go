package coherence_test

import (
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
	"cachier/internal/trace"
)

func postStoreSys(t *testing.T) *coherence.System {
	t.Helper()
	cfg := dir1sw.DefaultConfig()
	cfg.Nodes = 4
	cfg.CacheSize = 1024
	cfg.PostStore = true
	return dir1sw.MustNew(cfg)
}

func TestPostStoreRefillsInvalidatedReaders(t *testing.T) {
	s := postStoreSys(t)
	// Nodes 1..3 read the block; node 0's write invalidates them.
	s.Read(1, 64, 0)
	s.Read(2, 64, 0)
	s.Read(3, 64, 0)
	s.Write(0, 64, 10)
	if s.Stats.Invalidations != 3 {
		t.Fatalf("invalidations = %d", s.Stats.Invalidations)
	}
	// Node 0 checks the dirty block in: post-store pushes fresh read-only
	// copies back to the previous holders.
	s.CheckIn(0, 64)
	if s.Stats.PostStores != 3 {
		t.Fatalf("post-stores = %d, want 3", s.Stats.PostStores)
	}
	for n := 1; n <= 3; n++ {
		if r := s.Read(n, 64, 20); r.Kind != trace.Hit {
			t.Errorf("node %d read after post-store: %v, want hit", n, r.Kind)
		}
	}
	if err := s.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

func TestPostStoreOnlyForDirtyCheckIns(t *testing.T) {
	s := postStoreSys(t)
	s.Read(1, 64, 0)
	s.Write(0, 64, 5) // invalidates node 1
	s.Write(1, 64, 10)
	// Node 1 now owns it dirty; node 0 was invalidated in the steal.
	s.Read(2, 64, 15) // downgrade: node 1's copy becomes shared & clean at dir
	// A shared check-in (not dirty-exclusive) must not post-store.
	s.CheckIn(1, 64)
	if s.Stats.PostStores != 0 {
		t.Errorf("post-stores = %d for a shared check-in", s.Stats.PostStores)
	}
}

func TestPostStoreDisabledByDefault(t *testing.T) {
	cfg := dir1sw.DefaultConfig()
	cfg.Nodes = 4
	cfg.CacheSize = 1024
	s := dir1sw.MustNew(cfg)
	s.Read(1, 64, 0)
	s.Write(0, 64, 10)
	s.CheckIn(0, 64)
	if s.Stats.PostStores != 0 {
		t.Errorf("post-stores = %d with PostStore off", s.Stats.PostStores)
	}
	// The reader misses again, as plain Dir1SW dictates.
	if r := s.Read(1, 64, 20); r.Kind != trace.ReadMiss {
		t.Errorf("read = %v, want miss", r.Kind)
	}
}

func TestPostStoreProducerConsumerSavesMisses(t *testing.T) {
	// Producer writes + checks in each round; consumers re-read. With
	// post-store the consumers' re-reads all hit.
	run := func(postStore bool) (misses uint64) {
		cfg := dir1sw.DefaultConfig()
		cfg.Nodes = 4
		cfg.CacheSize = 1024
		cfg.PostStore = postStore
		s := dir1sw.MustNew(cfg)
		now := uint64(0)
		for round := 0; round < 5; round++ {
			for n := 1; n <= 3; n++ {
				s.Read(n, 64, now)
				now += 10
			}
			s.Write(0, 64, now)
			s.CheckIn(0, 64)
			now += 10
		}
		return s.Stats.ReadMisses
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("post-store did not reduce read misses: %d vs %d", with, without)
	}
}
