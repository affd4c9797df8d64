package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Geometry of the differential tests: 64 sets x 2 ways. A reach of 10 blocks
// materialises 16 sets.
const (
	diffSets  = 64
	diffAssoc = 2
	diffBlock = 32
	diffReach = 10
)

func diffPair() (sized, full *Cache) {
	size := diffSets * diffAssoc * diffBlock
	return MustNew(size, diffAssoc, diffBlock, diffReach), MustNew(size, diffAssoc, diffBlock, 0)
}

type flushed struct {
	block uint64
	state State
	dirty bool
}

// step applies one seeded operation to both caches and returns a description
// of the first difference in what they returned, or "".
func step(rng *rand.Rand, sized, full *Cache, blocks uint64) string {
	b := uint64(rng.Int63n(int64(blocks)))
	st := State(1 + rng.Intn(2))
	switch op := rng.Intn(16); {
	case op < 5:
		if x, y := sized.Touch(b), full.Touch(b); x != y {
			return fmt.Sprintf("Touch(%d) = %v, full geometry %v", b, x, y)
		}
	case op < 10:
		xv, xe := sized.Insert(b, st)
		yv, ye := full.Insert(b, st)
		if xv != yv || xe != ye {
			return fmt.Sprintf("Insert(%d, %v) = %+v %v, full geometry %+v %v", b, st, xv, xe, yv, ye)
		}
	case op < 12:
		xs, xd := sized.Invalidate(b)
		ys, yd := full.Invalidate(b)
		if xs != ys || xd != yd {
			return fmt.Sprintf("Invalidate(%d) = %v %v, full geometry %v %v", b, xs, xd, ys, yd)
		}
	case op < 14:
		st = State(rng.Intn(3)) // Invalid too: SetState is how downgrades drop a line
		if x, y := sized.SetState(b, st), full.SetState(b, st); x != y {
			return fmt.Sprintf("SetState(%d, %v) = %v, full geometry %v", b, st, x, y)
		}
	case op < 15:
		if x, y := sized.MarkDirty(b), full.MarkDirty(b); x != y {
			return fmt.Sprintf("MarkDirty(%d) = %v, full geometry %v", b, x, y)
		}
	default:
		if rng.Intn(8) != 0 { // a flush empties the cache; keep it rare
			break
		}
		var xs, ys []flushed
		sized.FlushAll(func(b uint64, s State, d bool) { xs = append(xs, flushed{b, s, d}) })
		full.FlushAll(func(b uint64, s State, d bool) { ys = append(ys, flushed{b, s, d}) })
		if !reflect.DeepEqual(xs, ys) {
			return fmt.Sprintf("FlushAll visited %v, full geometry %v", xs, ys)
		}
	}
	if sized.Lookup(b) != full.Lookup(b) || sized.Dirty(b) != full.Dirty(b) {
		return fmt.Sprintf("Lookup/Dirty(%d) differ", b)
	}
	if sized.Hits != full.Hits || sized.Misses != full.Misses || sized.Evictions != full.Evictions {
		return fmt.Sprintf("counters %d/%d/%d, full geometry %d/%d/%d",
			sized.Hits, sized.Misses, sized.Evictions, full.Hits, full.Misses, full.Evictions)
	}
	if sized.Resident() != full.Resident() {
		return fmt.Sprintf("Resident %d, full geometry %d", sized.Resident(), full.Resident())
	}
	if x, y := sized.Blocks(), full.Blocks(); !reflect.DeepEqual(x, y) {
		return fmt.Sprintf("Blocks %v, full geometry %v", x, y)
	}
	return ""
}

func materialised(c *Cache) int { return len(c.flat) / c.assoc }

// TestReachSizedMatchesFullGeometry: a cache sized for the declared reach
// and one with every set materialised answer every operation identically,
// while the stream stays inside the reach (no growth), when it steps beyond
// it midway (growth in place, under a live MRU shortcut), and when the LRU
// clock wraps on the partly materialised array.
func TestReachSizedMatchesFullGeometry(t *testing.T) {
	const steps = 4000
	cases := []struct {
		name   string
		beyond bool   // second half of the stream draws from 4x the set count
		tick   uint32 // starting LRU clock
	}{
		{name: "inside reach"},
		{name: "beyond reach midway", beyond: true},
		{name: "clock wraps before growth", beyond: true, tick: ^uint32(0) - 500},
		{name: "clock wraps inside reach", tick: ^uint32(0) - 500},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 20; seed++ {
			sized, full := diffPair()
			sized.tick, full.tick = tc.tick, tc.tick
			if got := materialised(sized); got != 16 {
				t.Fatalf("reach %d materialised %d sets, want 16", diffReach, got)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				blocks := uint64(diffReach)
				if tc.beyond && i >= steps/2 {
					blocks = 4 * diffSets
				}
				if i == steps/2 && materialised(sized) != 16 {
					t.Fatalf("%s, seed %d: grew to %d sets inside the reach", tc.name, seed, materialised(sized))
				}
				if diff := step(rng, sized, full, blocks); diff != "" {
					t.Fatalf("%s, seed %d, step %d: %s", tc.name, seed, i, diff)
				}
			}
			want := 16
			if tc.beyond {
				want = diffSets
			}
			if got := materialised(sized); got != want {
				t.Errorf("%s, seed %d: %d sets materialised at the end, want %d", tc.name, seed, got, want)
			}
			if tc.tick != 0 && sized.tick >= tc.tick {
				t.Errorf("%s, seed %d: the LRU clock never wrapped (tick %d)", tc.name, seed, sized.tick)
			}
		}
	}
}

// TestGrowRevalidatesMRU: growth replaces the line array and the hot keys
// under a live key. The key must come across, a probe through it straight
// after growth must answer as before, and a write must land in the new array
// and the new key.
func TestGrowRevalidatesMRU(t *testing.T) {
	sized, full := diffPair()
	keys, mask := sized.Hot()
	before := *keys
	for _, c := range []*Cache{sized, full} {
		c.Insert(3, Exclusive) // set 3's key -> block 3
		c.Touch(40)            // set 40 is beyond the 16 materialised: grows, and a miss leaves the keys alone
		c.Touch(3)
		c.MarkDirty(3)
	}
	if materialised(sized) != diffSets {
		t.Fatalf("block 40 did not grow the array: %d sets", materialised(sized))
	}
	if mask != diffSets-1 || len(*keys) != diffSets || &(*keys)[0] == &before[0] {
		t.Error("Hot's pointer does not see the grown keys")
	}
	if got, want := (*keys)[3], full.hot[3]; got != want || !HotHit(got, 3, true) {
		t.Errorf("set 3's key after growth %#x, full geometry %#x", got, want)
	}
	if !sized.Dirty(3) || sized.Lookup(3) != Exclusive {
		t.Error("line lost across growth")
	}
	if st, dirty := sized.Invalidate(3); st != Exclusive || !dirty {
		t.Errorf("Invalidate(3) after growth = %v %v: the dirty bit was written to the old array", st, dirty)
	}
	if sized.Hits != full.Hits || sized.Misses != full.Misses {
		t.Errorf("counters %d/%d, full geometry %d/%d", sized.Hits, sized.Misses, full.Hits, full.Misses)
	}
}

// TestReachSizing pins how many sets each reach materialises.
func TestReachSizing(t *testing.T) {
	for _, tc := range []struct {
		reach uint64
		sets  int
	}{{0, 2048}, {1, 1}, {2, 2}, {18, 32}, {769, 1024}, {1024, 1024}, {1033, 2048}, {2048, 2048}, {16393, 2048}} {
		c := MustNew(DefaultSize, DefaultAssoc, DefaultBlockSize, tc.reach)
		if got := materialised(c); got != tc.sets {
			t.Errorf("reach %d materialised %d sets, want %d", tc.reach, got, tc.sets)
		}
		if c.Capacity() != DefaultSize {
			t.Errorf("reach %d: capacity %d, want the modelled %d", tc.reach, c.Capacity(), DefaultSize)
		}
	}
}
