package coherence_test

import (
	"testing"

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

// BenchmarkBatchedDirectoryLookup measures the memoized
// access path (batch.go ReadFast/WriteFast) against the plain per-access
// protocol walk on the pattern it exists for: short runs of repeat
// same-block accesses by one node between coherence-state changes, the
// shape a lane's inner loop produces. The first access of each run takes
// the slow path and arms the memo; the rest are served as pure cache hits
// without touching the directory.
func BenchmarkBatchedDirectoryLookup(b *testing.B) {
	for _, mode := range []struct {
		name string
		fast bool
	}{{"plain", false}, {"memo", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := dir1sw.DefaultConfig()
			cfg.AddrSpace = 1 << 22
			s, err := dir1sw.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if mode.fast {
				s.EnableAccessMemo()
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
				if mode.fast {
					if rng&1 == 0 {
						s.ReadFast(node, addr, uint64(i))
					} else {
						s.WriteFast(node, addr, uint64(i))
					}
				} else {
					if rng&1 == 0 {
						s.Read(node, addr, uint64(i))
					} else {
						s.Write(node, addr, uint64(i))
					}
				}
			}
		})
	}
}
