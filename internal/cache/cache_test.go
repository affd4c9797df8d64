package cache

import (
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

// TestMRUShortcut exercises the one-entry MRU position cache: hits through
// it, staleness after invalidation, after the line is reused for another
// block, and after a flush.
func TestMRUShortcut(t *testing.T) {
	c := small(t)

	c.Insert(4, Exclusive)
	if c.mru == nil || c.mru.block != 4 {
		t.Fatal("Insert did not set MRU")
	}
	if st := c.Touch(4); st != Exclusive {
		t.Fatalf("Touch via MRU = %v", st)
	}
	if c.Hits != 1 {
		t.Fatalf("Hits = %d after MRU touch", c.Hits)
	}
	if !c.MarkDirty(4) || !c.Dirty(4) {
		t.Fatal("MarkDirty/Dirty via MRU failed")
	}

	// Invalidate the MRU block: the stale pointer must not report a hit.
	c.Invalidate(4)
	if c.Lookup(4) != Invalid || c.Dirty(4) || c.Touch(4) != Invalid {
		t.Fatal("stale MRU survived Invalidate")
	}
	if c.Misses != 1 {
		t.Fatalf("Misses = %d", c.Misses)
	}

	// Reuse the same line slot for a different block in the same set
	// (blocks 4 and 6 both map to set 0 of a 2-set cache): the MRU pointer
	// now holds block 6, so probing 4 must miss.
	c.Insert(6, Shared)
	if c.Lookup(4) != Invalid {
		t.Fatal("MRU confused block 6 with block 4")
	}
	if c.Lookup(6) != Shared {
		t.Fatal("lost block 6")
	}

	// SetState through the MRU, including downgrade to Invalid.
	c.Touch(6)
	if !c.SetState(6, Exclusive) || c.Lookup(6) != Exclusive {
		t.Fatal("SetState upgrade via MRU failed")
	}
	if !c.SetState(6, Invalid) || c.Lookup(6) != Invalid {
		t.Fatal("SetState invalidate via MRU failed")
	}
	if c.Resident() != 0 {
		t.Fatalf("Resident = %d after invalidating everything", c.Resident())
	}

	// Flush with a valid MRU pointer outstanding.
	c.Insert(8, Shared)
	c.FlushAll(nil)
	if c.Lookup(8) != Invalid || c.Touch(8) != Invalid {
		t.Fatal("stale MRU survived FlushAll")
	}

	// Eviction reuses the victim's slot; MRU must follow the new block.
	c2 := small(t)
	c2.Insert(0, Shared) // set 0
	c2.Insert(2, Shared) // set 0 -> set full
	c2.Touch(0)
	c2.Insert(4, Shared) // evicts block 2 (LRU)
	if v := c2.Lookup(2); v != Invalid {
		t.Fatalf("evicted block still visible: %v", v)
	}
	if c2.Lookup(4) != Shared || c2.Touch(4) != Shared {
		t.Fatal("MRU not tracking newly inserted block after eviction")
	}
}

// TestMRUAgainstScan cross-checks every MRU fast path against a shortcut-free
// reference cache over a pseudo-random operation stream.
func TestMRUAgainstScan(t *testing.T) {
	c := small(t)
	ref := small(t)
	ref.mru = nil // keep the reference honest: clear before every probe
	rng := uint64(1)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	for i := 0; i < 20000; i++ {
		block := next() % 16
		op := next() % 6
		ref.mru = nil
		switch op {
		case 0:
			if got, want := c.Touch(block), ref.Touch(block); got != want {
				t.Fatalf("op %d: Touch(%d) = %v, want %v", i, block, got, want)
			}
		case 1:
			if got, want := c.Lookup(block), ref.Lookup(block); got != want {
				t.Fatalf("op %d: Lookup(%d) = %v, want %v", i, block, got, want)
			}
		case 2:
			st := Shared
			if next()%2 == 0 {
				st = Exclusive
			}
			gv, gok := c.Insert(block, st)
			wv, wok := ref.Insert(block, st)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Insert(%d) = %v,%v want %v,%v", i, block, gv, gok, wv, wok)
			}
		case 3:
			if got, want := c.MarkDirty(block), ref.MarkDirty(block); got != want {
				t.Fatalf("op %d: MarkDirty(%d) = %v, want %v", i, block, got, want)
			}
		case 4:
			gs, gd := c.Invalidate(block)
			ws, wd := ref.Invalidate(block)
			if gs != ws || gd != wd {
				t.Fatalf("op %d: Invalidate(%d) = %v,%v want %v,%v", i, block, gs, gd, ws, wd)
			}
		case 5:
			if got, want := c.Dirty(block), ref.Dirty(block); got != want {
				t.Fatalf("op %d: Dirty(%d) = %v, want %v", i, block, got, want)
			}
		}
		if c.Resident() != ref.Resident() {
			t.Fatalf("op %d: resident %d vs %d", i, c.Resident(), ref.Resident())
		}
	}
}
