// Package cache models a node's finite-capacity, set-associative,
// write-allocate shared-data cache with LRU replacement. The simulated
// machine in the paper's evaluation uses a 256 KB, 4-way set-associative
// cache with 32-byte blocks (Section 6); those are the defaults here.
//
// Lines carry the coherence state assigned by the Dir1SW protocol. The cache
// stores no data — values live in the simulator's global store — it exists
// to decide hits, misses, write faults, and evictions.
package cache

import (
	"fmt"
	"math/bits"
)

// State is the coherence state of a cached block.
type State int

// Coherence states.
const (
	Invalid   State = iota
	Shared          // read-only copy
	Exclusive       // writable copy (may be dirty)
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Shared:
		return "Shared"
	case Exclusive:
		return "Exclusive"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Default geometry, matching the paper's simulated machine.
const (
	DefaultSize      = 256 * 1024
	DefaultAssoc     = 4
	DefaultBlockSize = 32
)

// line is 16 bytes so that a default 4-way set occupies a single real
// 64-byte cache line: the associative scan in Touch/Lookup is memory-bound
// across 32 simulated node caches, and halving the metadata footprint
// halves its miss traffic. use is a 32-bit LRU stamp; renormalize handles
// the (astronomically rare) wraparound without disturbing LRU order.
type line struct {
	block uint64 // block number (addr / blockSize)
	use   uint32 // LRU timestamp
	state uint8  // State, compressed
	dirty bool
}

// Cache is one node's shared-data cache, indexed by block number.
type Cache struct {
	blockSize int
	nsets     int
	assoc     int
	flat      []line // the materialised sets' lines, set-major (see New)
	tick      uint32 // LRU clock
	resident  int    // number of valid lines

	// mru caches the most recently hit or inserted line. Programs show
	// strong block locality (array walks touch the same 32-byte block
	// several times in a row), so checking one pointer before the
	// associative scan removes most probe work. The shortcut is
	// self-validating — it is trusted only when the line still holds the
	// probed block in a valid state — so invalidations, evictions, and
	// flushes need no bookkeeping here. grow, the one place the flat array is
	// reallocated, drops the pointer.
	mru *line

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache with the given total size in bytes, associativity, and
// block size. Size must be divisible by assoc*blockSize and the resulting
// set count must be a power of two.
//
// reach is the number of blocks in the address space (block numbers are below
// it), or 0 when unknown. Those blocks index only the first reach sets, so
// only that many, rounded up to a power of two, are materialised: set-up
// costs what the program can touch, not what the modelled machine holds. The
// set index is block & (nsets-1) regardless, so no hit, miss, victim, or LRU
// stamp depends on reach; a block beyond it grows the array first (grow).
func New(size, assoc, blockSize int, reach uint64) (*Cache, error) {
	if size <= 0 || assoc <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry (size=%d assoc=%d block=%d)", size, assoc, blockSize)
	}
	if size%(assoc*blockSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by assoc*block (%d)", size, assoc*blockSize)
	}
	nsets := size / (assoc * blockSize)
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", nsets)
	}
	have := nsets
	if reach > 0 && reach < uint64(nsets) {
		have = 1 << bits.Len64(reach-1)
	}
	return &Cache{
		blockSize: blockSize,
		nsets:     nsets,
		assoc:     assoc,
		flat:      make([]line, have*assoc),
	}, nil
}

// MustNew is New but panics on error; for configurations known valid.
func MustNew(size, assoc, blockSize int, reach uint64) *Cache {
	c, err := New(size, assoc, blockSize, reach)
	if err != nil {
		panic(err)
	}
	return c
}

// BlockSize returns the block size in bytes.
func (c *Cache) BlockSize() int { return c.blockSize }

// Capacity returns the total capacity in bytes.
func (c *Cache) Capacity() int { return c.nsets * c.assoc * c.blockSize }

// Resident returns the number of valid lines currently cached.
func (c *Cache) Resident() int { return c.resident }

func (c *Cache) set(block uint64) []line {
	i := int(block&uint64(c.nsets-1)) * c.assoc
	if i >= len(c.flat) {
		c.grow()
	}
	return c.flat[i : i+c.assoc : i+c.assoc]
}

// grow materialises every set: the old sets keep their lines and the new ones
// are empty, as in a full-geometry array at this point. mru pointed into the
// old array; without it the next probe just takes the associative scan.
func (c *Cache) grow() {
	full := make([]line, c.nsets*c.assoc)
	copy(full, c.flat)
	c.flat, c.mru = full, nil
}

// bump advances the LRU clock. Just before the 32-bit clock would exhaust,
// renormalize compresses every set's stamps to their within-set rank —
// preserving LRU order exactly — and restarts the clock above them.
func (c *Cache) bump() uint32 {
	if c.tick >= ^uint32(0)-1 {
		c.renormalize()
	}
	c.tick++
	return c.tick
}

// renormalize replaces each line's use stamp with its rank among its set's
// stamps (ranks are unique: every stamp came from a distinct clock value).
// Relative LRU order within each set — the only thing eviction ever
// compares — is untouched.
func (c *Cache) renormalize() {
	a := c.assoc
	for s := 0; s < len(c.flat)/a; s++ {
		set := c.flat[s*a : (s+1)*a]
		for i := range set {
			rank := uint32(0)
			for j := range set {
				if set[j].use < set[i].use {
					rank++
				}
			}
			set[i].use = rank
		}
	}
	c.tick = uint32(c.assoc)
}

// hot reports whether the MRU shortcut currently holds the block.
func (c *Cache) hot(block uint64) bool {
	return c.mru != nil && c.mru.block == block && c.mru.state != uint8(Invalid)
}

// Lookup returns the block's state without touching LRU order. It returns
// Invalid for absent blocks.
func (c *Cache) Lookup(block uint64) State {
	if c.hot(block) {
		return State(c.mru.state)
	}
	set := c.set(block)
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			return State(ln.state)
		}
	}
	return Invalid
}

// Dirty reports whether the block is cached and dirty.
func (c *Cache) Dirty(block uint64) bool {
	if c.hot(block) {
		return c.mru.dirty
	}
	set := c.set(block)
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			return ln.dirty
		}
	}
	return false
}

// Touch marks the block most-recently used and returns its state. Use it for
// accesses that hit.
func (c *Cache) Touch(block uint64) State {
	tick := c.bump()
	if c.hot(block) {
		c.mru.use = tick
		c.Hits++
		return State(c.mru.state)
	}
	set := c.set(block)
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			ln.use = tick
			c.Hits++
			c.mru = ln
			return State(ln.state)
		}
	}
	c.Misses++
	return Invalid
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Block uint64
	State State
	Dirty bool
}

// Insert places a block with the given state, evicting the LRU line of its
// set if necessary. It returns the victim, if any. Inserting a block that is
// already present just updates its state.
func (c *Cache) Insert(block uint64, state State) (Victim, bool) {
	if state == Invalid {
		panic("cache: Insert with Invalid state")
	}
	tick := c.bump()
	set := c.set(block)
	var free, lru = -1, 0
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			ln.state = uint8(state)
			ln.use = tick
			c.mru = ln
			return Victim{}, false
		}
		if ln.state == uint8(Invalid) {
			free = i
		} else if set[i].use < set[lru].use || set[lru].state == uint8(Invalid) {
			lru = i
		}
	}
	if free >= 0 {
		set[free] = line{block: block, state: uint8(state), use: tick}
		c.resident++
		c.mru = &set[free]
		return Victim{}, false
	}
	v := Victim{Block: set[lru].block, State: State(set[lru].state), Dirty: set[lru].dirty}
	set[lru] = line{block: block, state: uint8(state), use: tick}
	c.Evictions++
	c.mru = &set[lru]
	return v, true
}

// SetState updates the state of a resident block (for upgrades and
// downgrades). It reports whether the block was present.
func (c *Cache) SetState(block uint64, state State) bool {
	if c.hot(block) {
		if state == Invalid {
			c.mru.state = uint8(Invalid)
			c.mru.dirty = false
			c.resident--
		} else {
			c.mru.state = uint8(state)
		}
		return true
	}
	set := c.set(block)
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			if state == Invalid {
				ln.state = uint8(Invalid)
				ln.dirty = false
				c.resident--
			} else {
				ln.state = uint8(state)
			}
			return true
		}
	}
	return false
}

// MarkDirty records that the block has been written. It reports whether the
// block was present.
func (c *Cache) MarkDirty(block uint64) bool {
	if c.hot(block) {
		c.mru.dirty = true
		return true
	}
	set := c.set(block)
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			ln.dirty = true
			return true
		}
	}
	return false
}

// Invalidate removes the block, returning its prior state and dirtiness.
func (c *Cache) Invalidate(block uint64) (State, bool) {
	set := c.set(block)
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			st, dirty := State(ln.state), ln.dirty
			*ln = line{}
			c.resident--
			return st, dirty
		}
	}
	return Invalid, false
}

// FlushAll invalidates every line, calling fn (if non-nil) for each valid
// line first. The WWT-style tracer flushes all shared-data caches at every
// barrier (paper Section 3.3). Lines of the same set are visited in way
// order; sets in index order.
func (c *Cache) FlushAll(fn func(block uint64, state State, dirty bool)) {
	for i := range c.flat {
		ln := &c.flat[i]
		if ln.state != uint8(Invalid) {
			if fn != nil {
				fn(ln.block, State(ln.state), ln.dirty)
			}
			*ln = line{}
			c.resident--
		}
	}
}

// ForEach calls fn for every valid line without modifying anything. Lines of
// the same set are visited in way order; sets in index order.
func (c *Cache) ForEach(fn func(block uint64, state State, dirty bool)) {
	for i := range c.flat {
		ln := &c.flat[i]
		if ln.state != uint8(Invalid) {
			fn(ln.block, State(ln.state), ln.dirty)
		}
	}
}

// Blocks returns the block numbers of all valid lines, in unspecified order.
func (c *Cache) Blocks() []uint64 {
	var out []uint64
	for i := range c.flat {
		if c.flat[i].state != uint8(Invalid) {
			out = append(out, c.flat[i].block)
		}
	}
	return out
}
