package coherence_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
	"cachier/internal/dirn"
)

// TestAccessMemoDifferential is the access memo's own differential: two
// systems of one geometry take the same seeded stream of every operation,
// one through ReadFast/WriteFast with the memo on, one through Read/Write
// without it, and must return the same Result for every call, keep the
// same Stats after every call, and both stay coherent. The streams run
// bursts of accesses by one node to the blocks of one set, repeating a
// block as often as not (what the memo serves, and the LRU order it must
// not disturb), between directives, prefetches and whole-node flushes
// (what must invalidate it).
//
// The geometries cover the memo's slot sizing: a slot per set; fewer slots
// than sets because the address space is smaller, with accesses beyond
// that address space so that blocks of one set, and of different sets,
// share a slot; and an unknown address space. Each stream ranges over a
// few sets and more blocks in each than the set has ways, so that hits,
// LRU decisions and evictions all depend on the order lines were touched
// in — the state a wrongly served memo hit would leave stale.
func TestAccessMemoDifferential(t *testing.T) {
	const nodes = 4
	geometries := []struct {
		name             string
		cacheSize, assoc int
		addrSpace        uint64 // laid-out bytes
		sets, perSet     int    // the stream's blocks: b + k*nsets, b < sets, k < perSet
	}{
		{"slot-per-set/4-sets", 256, 2, 16 * 32, 4, 4},
		{"reach-sized/8-slots-32-sets", 2048, 2, 5 * 32, 2, 3},
		{"reach-sized/16-slots-2048-sets", 256 * 1024, 4, 10 * 32, 10, 1},
		{"unknown-address-space/16-sets", 1024, 2, 0, 3, 3},
	}
	protocols := []struct {
		name string
		mk   func() coherence.Protocol
	}{
		{"dir1sw", func() coherence.Protocol { return dir1sw.Protocol(false) }},
		{"dirnnb:1", func() coherence.Protocol { return dirn.NB(1) }},
		{"dirnb:4", func() coherence.Protocol { return dirn.B(4) }},
	}
	for _, g := range geometries {
		for _, p := range protocols {
			t.Run(g.name+"/"+p.name, func(t *testing.T) {
				for seed := int64(0); seed < 40; seed++ {
					mk := func() *coherence.System {
						return coherence.MustNew(coherence.Config{
							Nodes: nodes, CacheSize: g.cacheSize, Assoc: g.assoc, BlockSize: 32,
							Costs: coherence.DefaultCosts(), AddrSpace: g.addrSpace,
						}, p.mk())
					}
					memo, plain := mk(), mk()
					memo.EnableAccessMemo()
					rng := rand.New(rand.NewSource(seed))
					nsets := g.cacheSize / (g.assoc * 32)
					now := uint64(0)
					for step := 0; step < 400; step++ {
						node := rng.Intn(nodes)
						addr := uint64(rng.Intn(g.sets)+nsets*rng.Intn(g.perSet)) * 32
						var got, want coherence.Result
						var op string
						switch k := rng.Intn(16); {
						case k < 10:
							op = "access burst"
							for n := 1 + rng.Intn(8); n > 0 && got == want; n-- {
								if rng.Intn(2) == 0 { // move to another block of the set
									addr = (addr/32%uint64(nsets) + uint64(nsets*rng.Intn(g.perSet))) * 32
								}
								if word := addr + uint64(rng.Intn(4))*8; rng.Intn(4) == 0 {
									got, want = memo.WriteFast(node, word, now), plain.Write(node, word, now)
								} else {
									got, want = memo.ReadFast(node, word, now), plain.Read(node, word, now)
								}
								now += got.Cycles
							}
						case k == 10:
							op = "check_out_x"
							got, want = memo.CheckOutX(node, addr, now), plain.CheckOutX(node, addr, now)
						case k == 11:
							op = "check_out_s"
							got, want = memo.CheckOutS(node, addr, now), plain.CheckOutS(node, addr, now)
						case k == 12 || k == 13:
							op = "check_in"
							got, want = memo.CheckIn(node, addr), plain.CheckIn(node, addr)
						case k == 14:
							op = "prefetch"
							excl := rng.Intn(2) == 0
							got, want = memo.Prefetch(node, addr, now, excl), plain.Prefetch(node, addr, now, excl)
						default:
							op = "flush"
							memo.FlushNode(node)
							plain.FlushNode(node)
						}
						now += uint64(rng.Intn(50))
						at := fmt.Sprintf("seed %d step %d: %s by node %d at %#x", seed, step, op, node, addr)
						if got != want {
							t.Fatalf("%s: with the memo %+v, without %+v", at, got, want)
						}
						if memo.Stats != plain.Stats {
							t.Fatalf("%s: stats diverge\nwith the memo: %+v\nwithout:       %+v", at, memo.Stats, plain.Stats)
						}
						if err := memo.CheckCoherence(); err != nil {
							t.Fatalf("%s: with the memo: %v", at, err)
						}
						if err := plain.CheckCoherence(); err != nil {
							t.Fatalf("%s: without the memo: %v", at, err)
						}
					}
				}
			})
		}
	}
}
