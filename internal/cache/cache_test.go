package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Cache {
	t.Helper()
	// 2 sets x 2 ways x 32B blocks = 128 bytes.
	c, err := New(128, 2, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryValidation(t *testing.T) {
	bad := []struct{ size, assoc, block int }{
		{0, 4, 32}, {256, 0, 32}, {256, 4, 0}, {100, 4, 32}, {3 * 32 * 4, 4, 32},
		{DefaultSize, 3, 32}, {DefaultSize, -1, 32}, {24 * 4 * 1024, 4, 24},
		{DefaultSize, 1 << (bits.UintSize - 5), 32}, // assoc*block wraps to 0: refused, not a divide by zero
	}
	for _, g := range bad {
		if _, err := New(g.size, g.assoc, g.block, 0); err == nil {
			t.Errorf("geometry %+v accepted", g)
		}
	}
	c, err := New(DefaultSize, DefaultAssoc, DefaultBlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != DefaultSize {
		t.Errorf("capacity %d", c.Capacity())
	}
}

func TestInsertLookupTouch(t *testing.T) {
	c := small(t)
	if c.Lookup(7) != Invalid {
		t.Error("empty cache claims block present")
	}
	if _, ev := c.Insert(7, Shared); ev {
		t.Error("eviction from empty cache")
	}
	if c.Lookup(7) != Shared {
		t.Error("inserted block not found")
	}
	if st := c.Touch(7); st != Shared {
		t.Errorf("Touch = %v", st)
	}
	if c.Hits != 1 {
		t.Errorf("hits = %d", c.Hits)
	}
	if st := c.Touch(9); st != Invalid {
		t.Errorf("Touch missing block = %v", st)
	}
	if c.Misses != 1 {
		t.Errorf("misses = %d", c.Misses)
	}
}

func TestInsertUpgradesState(t *testing.T) {
	c := small(t)
	c.Insert(4, Shared)
	if _, ev := c.Insert(4, Exclusive); ev {
		t.Error("re-insert evicted")
	}
	if c.Lookup(4) != Exclusive {
		t.Error("state not updated")
	}
	if c.Resident() != 1 {
		t.Errorf("resident = %d", c.Resident())
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t)
	// Blocks 0, 2, 4 all map to set 0 (even block numbers with 2 sets).
	c.Insert(0, Shared)
	c.Insert(2, Shared)
	c.Touch(0) // 2 is now LRU
	v, ev := c.Insert(4, Shared)
	if !ev {
		t.Fatal("no eviction from full set")
	}
	if v.Block != 2 {
		t.Errorf("evicted block %d, want 2", v.Block)
	}
	if c.Lookup(0) != Shared || c.Lookup(4) != Shared || c.Lookup(2) != Invalid {
		t.Error("post-eviction contents wrong")
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	c := small(t)
	c.Insert(0, Exclusive)
	c.MarkDirty(0)
	c.Insert(2, Shared)
	c.Touch(2) // 0 is LRU
	v, ev := c.Insert(4, Shared)
	if !ev || v.Block != 0 || !v.Dirty || v.State != Exclusive {
		t.Errorf("victim = %+v ev=%v", v, ev)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Insert(3, Exclusive)
	c.MarkDirty(3)
	st, dirty := c.Invalidate(3)
	if st != Exclusive || !dirty {
		t.Errorf("Invalidate = %v, %v", st, dirty)
	}
	if c.Resident() != 0 {
		t.Errorf("resident = %d", c.Resident())
	}
	if st, _ := c.Invalidate(3); st != Invalid {
		t.Error("double invalidate found block")
	}
}

func TestSetStateAndDirty(t *testing.T) {
	c := small(t)
	c.Insert(5, Exclusive)
	if !c.SetState(5, Shared) {
		t.Error("SetState missed resident block")
	}
	if c.Lookup(5) != Shared {
		t.Error("downgrade lost")
	}
	if c.SetState(99, Shared) {
		t.Error("SetState on absent block succeeded")
	}
	if c.MarkDirty(99) {
		t.Error("MarkDirty on absent block succeeded")
	}
	if !c.SetState(5, Invalid) {
		t.Error("SetState(Invalid) failed")
	}
	if c.Resident() != 0 {
		t.Error("SetState(Invalid) did not free the line")
	}
}

func TestFlushAll(t *testing.T) {
	c := small(t)
	c.Insert(1, Shared)
	c.Insert(2, Exclusive)
	c.MarkDirty(2)
	var flushed []uint64
	var sawDirty bool
	c.FlushAll(func(b uint64, st State, dirty bool) {
		flushed = append(flushed, b)
		if b == 2 && dirty && st == Exclusive {
			sawDirty = true
		}
	})
	if len(flushed) != 2 || !sawDirty {
		t.Errorf("flushed %v, sawDirty %v", flushed, sawDirty)
	}
	if c.Resident() != 0 {
		t.Errorf("resident after flush = %d", c.Resident())
	}
}

func TestBlocksListsResidents(t *testing.T) {
	c := small(t)
	c.Insert(1, Shared)
	c.Insert(2, Shared)
	got := c.Blocks()
	if len(got) != 2 {
		t.Fatalf("Blocks = %v", got)
	}
	seen := map[uint64]bool{got[0]: true, got[1]: true}
	if !seen[1] || !seen[2] {
		t.Errorf("Blocks = %v", got)
	}
}

// Property: resident count equals number of distinct blocks inserted minus
// evictions and invalidations, and never exceeds capacity/blockSize.
func TestResidencyInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(256, 2, 32, 0) // 4 sets x 2 ways
		live := make(map[uint64]bool)
		for _, op := range ops {
			b := uint64(op % 64)
			switch op % 3 {
			case 0:
				v, ev := c.Insert(b, Shared)
				live[b] = true
				if ev {
					delete(live, v.Block)
				}
			case 1:
				c.Touch(b)
			case 2:
				c.Invalidate(b)
				delete(live, b)
			}
			if c.Resident() != len(live) {
				return false
			}
			if c.Resident() > 8 {
				return false
			}
		}
		// Every live block must be found; no dead block may be found.
		for b := uint64(0); b < 64; b++ {
			if (c.Lookup(b) != Invalid) != live[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert(Invalid) did not panic")
		}
	}()
	small(t).Insert(0, Invalid)
}

// TestMRUShortcut exercises the per-set hot key: hits through it, that it
// follows state and dirtiness, that it is gone after invalidation, after the
// set's MRU moves to another block, and after a flush.
func TestMRUShortcut(t *testing.T) {
	c := small(t)
	key := func(block uint64) uint64 { return c.hot[block&1] }

	c.Insert(4, Exclusive)
	if key(4) != 4<<HotShift|HotExclusive|HotValid {
		t.Fatalf("Insert left key %#x", key(4))
	}
	if st := c.Touch(4); st != Exclusive {
		t.Fatalf("Touch via the key = %v", st)
	}
	if c.Hits != 1 {
		t.Fatalf("Hits = %d after a touch via the key", c.Hits)
	}
	if c.tick != 1 {
		t.Fatalf("a touch via the key stamped the line (tick %d)", c.tick)
	}
	if !c.MarkDirty(4) || !c.Dirty(4) {
		t.Fatal("MarkDirty/Dirty via the key failed")
	}
	if !HotHit(key(4), 4, true) || !HotHit(key(4), 4, false) || HotHit(key(4), 6, false) {
		t.Fatalf("key %#x after MarkDirty", key(4))
	}

	// Invalidate the hot block: the key must not outlive the line.
	c.Invalidate(4)
	if key(4) != 0 || c.Lookup(4) != Invalid || c.Dirty(4) || c.Touch(4) != Invalid {
		t.Fatal("key survived Invalidate")
	}
	if c.Misses != 1 {
		t.Fatalf("Misses = %d", c.Misses)
	}

	// Another block of the same set becomes MRU (blocks 4 and 6 both map to
	// set 0 of a 2-set cache): the key names it, so probing 4 must miss.
	c.Insert(6, Shared)
	if c.Lookup(4) != Invalid {
		t.Fatal("key confused block 6 with block 4")
	}
	if c.Lookup(6) != Shared || HotHit(key(6), 6, true) || !HotHit(key(6), 6, false) {
		t.Fatal("lost block 6")
	}

	// SetState through the key, including downgrade to Invalid.
	c.Touch(6)
	if !c.SetState(6, Exclusive) || c.Lookup(6) != Exclusive || key(6)&HotExclusive == 0 {
		t.Fatal("SetState upgrade of the hot line failed")
	}
	if !c.SetState(6, Invalid) || c.Lookup(6) != Invalid || key(6) != 0 {
		t.Fatal("SetState invalidate of the hot line failed")
	}
	if c.Resident() != 0 {
		t.Fatalf("Resident = %d after invalidating everything", c.Resident())
	}

	// Flush with a key outstanding.
	c.Insert(8, Shared)
	c.FlushAll(nil)
	if key(8) != 0 || c.Lookup(8) != Invalid || c.Touch(8) != Invalid {
		t.Fatal("key survived FlushAll")
	}

	// A scan hit moves the key; an eviction gives it to the new block.
	c2 := small(t)
	c2.Insert(0, Shared) // set 0
	c2.Insert(2, Shared) // set 0 -> set full
	c2.Touch(0)
	if !HotHit(c2.hot[0], 0, false) {
		t.Fatal("a scan hit did not take the key")
	}
	c2.Insert(4, Shared) // evicts block 2 (LRU)
	if v := c2.Lookup(2); v != Invalid {
		t.Fatalf("evicted block still visible: %v", v)
	}
	if !HotHit(c2.hot[0], 4, false) || c2.Lookup(4) != Shared || c2.Touch(4) != Shared {
		t.Fatal("key not naming the newly inserted block after eviction")
	}

	// A block number with bits above what a key can hold is never keyed.
	huge := uint64(1)<<63 | 2
	c2.Insert(huge, Exclusive)
	if c2.hot[0] != 0 || HotHit(c2.hot[0], huge<<HotShift>>HotShift, false) {
		t.Fatalf("key %#x for a block that does not fit one", c2.hot[0])
	}
	if c2.Touch(huge) != Exclusive || c2.Lookup(4) != Shared {
		t.Fatal("unkeyed block lost")
	}
}

// modelLine is a line of the hint-free model.
type modelLine struct {
	block uint64
	state State
	dirty bool
}

// modelCache is a plain per-set LRU list, most recently used first: what a
// Cache must be indistinguishable from, with no hot key, no stamps and no
// reach sizing.
type modelCache struct {
	nsets, assoc            int
	sets                    [][]modelLine
	hits, misses, evictions uint64
}

func (m *modelCache) find(block uint64) (set *[]modelLine, i int) {
	set = &m.sets[block%uint64(m.nsets)]
	for i, ln := range *set {
		if ln.block == block {
			return set, i
		}
	}
	return set, -1
}

func (m *modelCache) front(set *[]modelLine, i int) {
	ln := (*set)[i]
	copy((*set)[1:i+1], (*set)[:i])
	(*set)[0] = ln
}

func (m *modelCache) remove(set *[]modelLine, i int) {
	*set = append((*set)[:i], (*set)[i+1:]...)
}

func (m *modelCache) touch(block uint64) State {
	set, i := m.find(block)
	if i < 0 {
		m.misses++
		return Invalid
	}
	m.hits++
	m.front(set, i)
	return (*set)[0].state
}

func (m *modelCache) insert(block uint64, st State) (Victim, bool) {
	set, i := m.find(block)
	if i >= 0 {
		(*set)[i].state = st
		m.front(set, i)
		return Victim{}, false
	}
	var v Victim
	evicted := len(*set) == m.assoc
	if evicted {
		last := (*set)[m.assoc-1]
		v = Victim{Block: last.block, State: last.state, Dirty: last.dirty}
		*set = (*set)[:m.assoc-1]
		m.evictions++
	}
	*set = append([]modelLine{{block: block, state: st}}, *set...)
	return v, evicted
}

func (m *modelCache) resident() int {
	n := 0
	for _, set := range m.sets {
		n += len(set)
	}
	return n
}

// TestMRUAgainstScan holds the cache, hot keys and all, against the
// hint-free model over seeded operation streams: every return value and
// victim equal, and after every operation every non-zero key names a block
// the model has resident, at the front of its set's LRU list, with exactly
// the key's exclusive and dirty bits. The streams reach beyond the sized
// sets (growth under live keys) and start the LRU clock just short of its
// wrap (renormalize under live keys).
func TestMRUAgainstScan(t *testing.T) {
	const nsets, assoc, reach, steps = 8, 4, 3, 6000
	for seed := int64(1); seed <= 30; seed++ {
		c := MustNew(nsets*assoc*32, assoc, 32, reach)
		c.tick = ^uint32(0) - 700
		m := &modelCache{nsets: nsets, assoc: assoc, sets: make([][]modelLine, nsets)}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < steps; i++ {
			blocks := int64(4 * reach) // several blocks a set, inside the sized sets
			if i >= steps/3 {
				blocks = 6 * nsets
			}
			b := uint64(rng.Int63n(blocks))
			at := fmt.Sprintf("seed %d step %d block %d", seed, i, b)
			switch op := rng.Intn(20); {
			case op < 6:
				if got, want := c.Touch(b), m.touch(b); got != want {
					t.Fatalf("%s: Touch = %v, model %v", at, got, want)
				}
			case op < 11:
				st := State(1 + rng.Intn(2))
				gv, gok := c.Insert(b, st)
				wv, wok := m.insert(b, st)
				if gv != wv || gok != wok {
					t.Fatalf("%s: Insert(%v) = %+v %v, model %+v %v", at, st, gv, gok, wv, wok)
				}
			case op < 13:
				set, j := m.find(b)
				want := j >= 0
				if want {
					(*set)[j].dirty = true
				}
				if got := c.MarkDirty(b); got != want {
					t.Fatalf("%s: MarkDirty = %v, model %v", at, got, want)
				}
			case op < 16:
				st := State(rng.Intn(3))
				set, j := m.find(b)
				want := j >= 0
				if want && st == Invalid {
					m.remove(set, j)
				} else if want {
					(*set)[j].state = st
				}
				if got := c.SetState(b, st); got != want {
					t.Fatalf("%s: SetState(%v) = %v, model %v", at, st, got, want)
				}
			case op < 18:
				set, j := m.find(b)
				var ws State
				var wd bool
				if j >= 0 {
					ws, wd = (*set)[j].state, (*set)[j].dirty
					m.remove(set, j)
				}
				if gs, gd := c.Invalidate(b); gs != ws || gd != wd {
					t.Fatalf("%s: Invalidate = %v %v, model %v %v", at, gs, gd, ws, wd)
				}
			case op < 19:
				// Probe every block of the set, not just b.
				for k := b % nsets; k < uint64(blocks); k += nsets {
					set, j := m.find(k)
					ws, wd := Invalid, false
					if j >= 0 {
						ws, wd = (*set)[j].state, (*set)[j].dirty
					}
					if gs, gd := c.Lookup(k), c.Dirty(k); gs != ws || gd != wd {
						t.Fatalf("%s: Lookup/Dirty(%d) = %v %v, model %v %v", at, k, gs, gd, ws, wd)
					}
				}
			default:
				if rng.Intn(6) != 0 { // a flush empties the cache; keep it rare
					break
				}
				var got, want []modelLine
				c.FlushAll(func(b uint64, s State, d bool) { got = append(got, modelLine{b, s, d}) })
				for s := range m.sets {
					want = append(want, m.sets[s]...)
					m.sets[s] = nil
				}
				byBlock := func(x, y modelLine) int { return cmp.Compare(x.block, y.block) }
				slices.SortFunc(got, byBlock)
				slices.SortFunc(want, byBlock)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: FlushAll visited %v, model %v", at, got, want)
				}
			}
			if c.Hits != m.hits || c.Misses != m.misses || c.Evictions != m.evictions || c.Resident() != m.resident() {
				t.Fatalf("%s: hits/misses/evictions/resident %d/%d/%d/%d, model %d/%d/%d/%d", at,
					c.Hits, c.Misses, c.Evictions, c.Resident(), m.hits, m.misses, m.evictions, m.resident())
			}
			for s, k := range c.hot {
				if k == 0 {
					continue
				}
				set := m.sets[s]
				if k&HotValid == 0 || len(set) == 0 || set[0].block != k>>HotShift || int(k>>HotShift)%nsets != s ||
					(k&HotExclusive != 0) != (set[0].state == Exclusive) || (k&HotDirty != 0) != set[0].dirty {
					t.Fatalf("%s: set %d key %#x, model's list %+v", at, s, k, set)
				}
			}
		}
		if len(c.hot) != nsets {
			t.Errorf("seed %d: the stream never grew the cache (%d sets)", seed, len(c.hot))
		}
		if c.tick >= ^uint32(0)-700 {
			t.Errorf("seed %d: the LRU clock never wrapped (tick %d)", seed, c.tick)
		}
	}
}
