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

	// hot holds one key per materialised set, naming the set's most recently
	// used line: block<<HotShift | HotDirty | HotExclusive | HotValid, or 0.
	// Array walks touch one block several times in a row, so a compare with
	// the key answers most probes without the associative scan. The key is
	// exact: its block is resident, carries its set's greatest LRU stamp and
	// has exactly the key's state bits. A scan hit in Touch and every Insert
	// (what makes a line most recently used) write it; SetState, MarkDirty,
	// Invalidate and FlushAll (what else changes a line) re-key or clear it.
	// A hit on the key skips the LRU stamp, which nothing can observe: the
	// line already carries its set's greatest (DESIGN.md section 5).
	hot []uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache with the given total size in bytes, associativity, and
// block size, which must pass CheckGeometry.
//
// reach is the number of blocks in the address space (block numbers are below
// it), or 0 when unknown. Those blocks index only the first reach sets, so
// only that many, rounded up to a power of two, are materialised: set-up
// costs what the program can touch, not what the modelled machine holds. The
// set index is block & (nsets-1) regardless, so no hit, miss, victim, or LRU
// stamp depends on reach; a block beyond it grows the array first (grow).
func New(size, assoc, blockSize int, reach uint64) (*Cache, error) {
	if err := CheckGeometry(size, assoc, blockSize); err != nil {
		return nil, err
	}
	nsets := size / (assoc * blockSize)
	have := nsets
	if reach > 0 && reach < uint64(nsets) {
		have = 1 << bits.Len64(reach-1)
	}
	return &Cache{
		blockSize: blockSize,
		nsets:     nsets,
		assoc:     assoc,
		flat:      make([]line, have*assoc),
		hot:       make([]uint64, have),
	}, nil
}

// CheckGeometry reports whether New can build a cache of size bytes in
// assoc-way sets of blockSize-byte blocks: all three positive, the block
// size a valid one (CheckBlockSize), and size a power-of-two number of
// sets. It never multiplies, so no geometry overflows into a false pass;
// a caller can refuse a machine with it before building one.
func CheckGeometry(size, assoc, blockSize int) error {
	if size <= 0 || assoc <= 0 || blockSize <= 0 {
		return fmt.Errorf("cache: non-positive geometry (size=%d assoc=%d block=%d)", size, assoc, blockSize)
	}
	if err := CheckBlockSize(blockSize); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if size%blockSize != 0 || (size/blockSize)%assoc != 0 {
		return fmt.Errorf("cache: size %d is not a whole number of %d-way sets of %d-byte blocks", size, assoc, blockSize)
	}
	if nsets := size / blockSize / assoc; nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", nsets)
	}
	return nil
}

// CheckBlockSize reports whether blockSize can be the machine's block size:
// a positive power of two, which the memory layout aligns regions to and
// the coherence layer finds a block by shifting with.
func CheckBlockSize(blockSize int) error {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		return fmt.Errorf("block size %d is not a positive power of two", blockSize)
	}
	return nil
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

// The bits of a hot key below the block number (see Cache.hot).
const (
	HotValid     uint64 = 1 << 0
	HotExclusive uint64 = 1 << 1
	HotDirty     uint64 = 1 << 2
	HotShift            = 3
)

// HotHit reports whether key names block as a line an access hits with no
// state change: any valid copy for a read, an exclusive dirty one for a
// write.
func HotHit(key, block uint64, write bool) bool {
	need := HotValid
	if write {
		need = HotValid | HotExclusive | HotDirty
	}
	return key>>HotShift == block && key&need == need
}

// Hot exposes the per-set keys, read-only, to the simulator's lanes: a
// pointer to the slice header, which grow replaces, and the mask that turns a
// block number into a set index (one beyond the slice is not materialised).
func (c *Cache) Hot() (keys *[]uint64, setMask uint64) {
	return &c.hot, uint64(c.nsets - 1)
}

// hotKey is the key naming a line: 0 for an invalid one, or one whose block
// number does not fit above the state bits (no laid-out address reaches it).
func hotKey(ln *line) uint64 {
	if ln.state == uint8(Invalid) || ln.block<<HotShift>>HotShift != ln.block {
		return 0
	}
	k := ln.block<<HotShift | HotValid
	if ln.state == uint8(Exclusive) {
		k |= HotExclusive
	}
	if ln.dirty {
		k |= HotDirty
	}
	return k
}

func named(key, block uint64) bool { return HotHit(key, block, false) }

// hotState is the state a valid key carries: Shared, or with the bit Exclusive.
func hotState(key uint64) State { return Shared + State(key&HotExclusive>>1) }

// setIndex returns the block's set number, materialising the set first if
// it is beyond the reach the cache was sized for.
func (c *Cache) setIndex(block uint64) int {
	s := int(block & uint64(c.nsets-1))
	if s >= len(c.hot) {
		c.grow()
	}
	return s
}

// find scans set s for the block's valid line.
func (c *Cache) find(s int, block uint64) *line {
	set := c.flat[s*c.assoc : (s+1)*c.assoc]
	for i := range set {
		if ln := &set[i]; ln.state != uint8(Invalid) && ln.block == block {
			return ln
		}
	}
	return nil
}

// grow materialises every set: the old sets keep their lines and keys and
// the new ones are empty, as in a full-geometry array at this point.
func (c *Cache) grow() {
	full := make([]line, c.nsets*c.assoc)
	copy(full, c.flat)
	hot := make([]uint64, c.nsets)
	copy(hot, c.hot)
	c.flat, c.hot = full, hot
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
	ranks := make([]uint32, a) // a set's ranks are all taken from its old stamps
	for s := 0; s < len(c.flat)/a; s++ {
		set := c.flat[s*a : (s+1)*a]
		for i := range set {
			ranks[i] = 0
			for j := range set {
				if set[j].use < set[i].use {
					ranks[i]++
				}
			}
		}
		for i := range set {
			set[i].use = ranks[i]
		}
	}
	c.tick = uint32(c.assoc)
}

// Lookup returns the block's state without touching LRU order. It returns
// Invalid for absent blocks.
func (c *Cache) Lookup(block uint64) State {
	s := c.setIndex(block)
	if k := c.hot[s]; named(k, block) {
		return hotState(k)
	}
	if ln := c.find(s, block); ln != nil {
		return State(ln.state)
	}
	return Invalid
}

// Dirty reports whether the block is cached and dirty.
func (c *Cache) Dirty(block uint64) bool {
	s := c.setIndex(block)
	if k := c.hot[s]; named(k, block) {
		return k&HotDirty != 0
	}
	ln := c.find(s, block)
	return ln != nil && ln.dirty
}

// Touch marks the block most-recently used and returns its state. Use it for
// accesses that hit.
func (c *Cache) Touch(block uint64) State {
	s := c.setIndex(block)
	if k := c.hot[s]; named(k, block) {
		c.Hits++
		return hotState(k)
	}
	if ln := c.find(s, block); ln != nil {
		ln.use = c.bump()
		c.Hits++
		c.hot[s] = hotKey(ln)
		return State(ln.state)
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
	s := c.setIndex(block)
	set := c.flat[s*c.assoc : (s+1)*c.assoc]
	var free, lru = -1, 0
	for i := range set {
		ln := &set[i]
		if ln.state != uint8(Invalid) && ln.block == block {
			ln.state = uint8(state)
			ln.use = tick
			c.hot[s] = hotKey(ln)
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
		c.hot[s] = hotKey(&set[free])
		return Victim{}, false
	}
	v := Victim{Block: set[lru].block, State: State(set[lru].state), Dirty: set[lru].dirty}
	set[lru] = line{block: block, state: uint8(state), use: tick}
	c.Evictions++
	c.hot[s] = hotKey(&set[lru])
	return v, true
}

// SetState updates the state of a resident block (for upgrades and
// downgrades). It reports whether the block was present.
func (c *Cache) SetState(block uint64, state State) bool {
	s := c.setIndex(block)
	ln := c.find(s, block)
	if ln == nil {
		return false
	}
	ln.state = uint8(state)
	if state == Invalid {
		ln.dirty = false
		c.resident--
	}
	if named(c.hot[s], block) {
		c.hot[s] = hotKey(ln)
	}
	return true
}

// MarkDirty records that the block has been written. It reports whether the
// block was present.
func (c *Cache) MarkDirty(block uint64) bool {
	s := c.setIndex(block)
	k := c.hot[s]
	if named(k, block) && k&HotDirty != 0 {
		return true
	}
	ln := c.find(s, block)
	if ln == nil {
		return false
	}
	ln.dirty = true
	if named(k, block) {
		c.hot[s] = k | HotDirty
	}
	return true
}

// Invalidate removes the block, returning its prior state and dirtiness.
func (c *Cache) Invalidate(block uint64) (State, bool) {
	s := c.setIndex(block)
	ln := c.find(s, block)
	if ln == nil {
		return Invalid, false
	}
	st, dirty := State(ln.state), ln.dirty
	*ln = line{}
	c.resident--
	if named(c.hot[s], block) {
		c.hot[s] = 0
	}
	return st, dirty
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
	clear(c.hot)
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
