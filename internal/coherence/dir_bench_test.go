package coherence_test

import (
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
)

// BenchmarkDirectoryLookup drives a pseudo-random read/write mix over a
// 4 MB shared space (128K blocks), the access pattern whose per-block
// directory lookups the dense slice serves without map hashing.
func BenchmarkDirectoryLookup(b *testing.B) {
	cfg := dir1sw.DefaultConfig()
	cfg.AddrSpace = 1 << 22
	s, err := dir1sw.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		node := int(rng>>33) % cfg.Nodes
		addr := (rng >> 8) % cfg.AddrSpace
		if rng&1 == 0 {
			s.Read(node, addr, uint64(i))
		} else {
			s.Write(node, addr, uint64(i))
		}
	}
}

// BenchmarkBatchedDirectoryLookup measures a hit counted in place off the
// cache's hot key (viewAccess, what a simulator lane does) against the same
// hit through Read/Write, on the pattern the keys exist for: short runs of
// repeat same-block accesses by one node between coherence-state changes,
// the shape a lane's inner loop produces. The first access of each run is a
// miss that keys the line; the rest are hits.
func BenchmarkBatchedDirectoryLookup(b *testing.B) {
	for _, mode := range []struct {
		name string
		view bool
	}{{"plain", false}, {"view", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := dir1sw.DefaultConfig()
			cfg.AddrSpace = 1 << 22
			s, err := dir1sw.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var clock, reads, writes uint64
			limit := ^uint64(0)
			views := make([]*coherence.LaneView, cfg.Nodes)
			for n := range views {
				v, _ := s.LaneView(n, &clock, &limit, &reads, &writes)
				views[n] = &v
			}
			const run = 8 // same-block repeats per pick
			rng := uint64(1)
			var (
				node int
				addr uint64
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%run == 0 {
					rng = rng*6364136223846793005 + 1442695040888963407
					node = int(rng>>33) % cfg.Nodes
					addr = (rng >> 8) % cfg.AddrSpace
				}
				write := rng&1 != 0
				switch {
				case mode.view:
					viewAccess(s, views[node], node, write, addr, uint64(i))
				case write:
					s.Write(node, addr, uint64(i))
				default:
					s.Read(node, addr, uint64(i))
				}
			}
		})
	}
}
