package coherence_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
	"cachier/internal/dirn"
	"cachier/internal/trace"
)

// viewAccess is an access the way a simulator lane with a view makes it
// (interp.LaneVM): a hit the node's hot key vouches for is counted in place,
// with no call into the system; anything else is Read or Write.
func viewAccess(s *coherence.System, v *coherence.LaneView, node int, write bool, addr, now uint64) coherence.Result {
	if before := *v.Clock; v.Hit(write, addr) {
		return coherence.Result{Cycles: *v.Clock - before, Kind: trace.Hit}
	}
	if write {
		return s.Write(node, addr, now)
	}
	return s.Read(node, addr, now)
}

// TestAccessMemoDifferential is the differential of hits counted off the
// caches' hot keys: two systems of one geometry take the same seeded stream
// of every operation, one with its accesses made through lane views
// (viewAccess), one through Read/Write alone, and must return the same
// Result for every call, keep the same Stats after every call, and both
// stay coherent. The streams run bursts of accesses by one node to the
// blocks of one set, repeating a block as often as not (what a key serves,
// and the LRU order serving it must not disturb), between directives,
// prefetches, whole-node flushes and other nodes' accesses (what must
// re-key or clear it).
//
// The geometries cover how the keys are sized: a key per set; fewer keys
// than sets because the address space is smaller, with accesses beyond that
// address space, which grow them; and an unknown address space. Each stream
// ranges over a few sets and more blocks in each than the set has ways, so
// that hits, LRU decisions and evictions all depend on the order lines were
// touched in — the state a wrongly counted hit would leave stale.
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
		{"dir1sw", func() coherence.Protocol { return dir1sw.Protocol() }},
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
					viewed, plain := mk(), mk()
					var clock, sharedReads, sharedWrites, inPlace uint64
					limit := ^uint64(0)
					views := make([]*coherence.LaneView, nodes)
					for n := range views {
						v, ok := viewed.LaneView(n, &clock, &limit, &sharedReads, &sharedWrites)
						if !ok {
							t.Fatal("no lane view on a bare system")
						}
						views[n] = &v
					}
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
								word, write := addr+uint64(rng.Intn(4))*8, rng.Intn(4) == 0
								got = viewAccess(viewed, views[node], node, write, word, now)
								if write {
									want = plain.Write(node, word, now)
								} else {
									want = plain.Read(node, word, now)
								}
								now += got.Cycles
							}
						case k == 10:
							op = "check_out_x"
							got, want = viewed.CheckOutX(node, addr, now), plain.CheckOutX(node, addr, now)
						case k == 11:
							op = "check_out_s"
							got, want = viewed.CheckOutS(node, addr, now), plain.CheckOutS(node, addr, now)
						case k == 12 || k == 13:
							op = "check_in"
							got, want = viewed.CheckIn(node, addr), plain.CheckIn(node, addr)
						case k == 14:
							op = "prefetch"
							excl := rng.Intn(2) == 0
							got, want = viewed.Prefetch(node, addr, now, excl), plain.Prefetch(node, addr, now, excl)
						default:
							op = "flush"
							viewed.FlushNode(node)
							plain.FlushNode(node)
						}
						now += uint64(rng.Intn(50))
						at := fmt.Sprintf("seed %d step %d: %s by node %d at %#x", seed, step, op, node, addr)
						if got != want {
							t.Fatalf("%s: through the view %+v, without %+v", at, got, want)
						}
						if viewed.Stats != plain.Stats {
							t.Fatalf("%s: stats diverge\nthrough the view: %+v\nwithout:          %+v", at, viewed.Stats, plain.Stats)
						}
						if err := viewed.CheckCoherence(); err != nil {
							t.Fatalf("%s: through the view: %v", at, err)
						}
						if err := plain.CheckCoherence(); err != nil {
							t.Fatalf("%s: without the view: %v", at, err)
						}
					}
					for n := 0; n < nodes; n++ {
						inPlace += plain.Cache(n).Hits - viewed.Cache(n).Hits
					}
					if inPlace != sharedReads+sharedWrites || inPlace == 0 {
						t.Fatalf("seed %d: %d hits skipped the caches, the views counted %d reads and %d writes",
							seed, inPlace, sharedReads, sharedWrites)
					}
				}
			})
		}
	}
}
