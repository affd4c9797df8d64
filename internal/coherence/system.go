package coherence

import (
	"fmt"
	"math/bits"

	"cachier/internal/cache"
	"cachier/internal/obs"
	"cachier/internal/trace"
)

// Entry is one block's directory entry. Every supported protocol shares the
// three-state directory (obs.DirState: Idle / Shared / Exclusive); they
// differ in how and at what cost they move entries between the states.
// Protocol hooks mutate State, Owner, Sharers, and Bcast directly (always
// moving State through System.SetState so transitions are recorded);
// pastHolders belongs to the protocol-independent post-store machinery.
type Entry struct {
	State   obs.DirState
	Owner   int // valid when Exclusive
	Sharers NodeSet

	// Bcast is the broadcast bit a limited-pointer broadcast protocol
	// (DirₙB) sets when its sharing pointers overflow: the sharer set is no
	// longer precise in hardware, so the next write broadcasts. Only
	// meaningful while State == Shared; SetState clears it on any
	// transition out of Shared.
	Bcast bool

	// pastHolders tracks nodes whose copy of the block was invalidated —
	// the KSR-1's "allocated but invalid" set that a post-store refills.
	// Only maintained when the PostStore option is on.
	pastHolders NodeSet
}

// Result reports the outcome of one access or directive.
type Result struct {
	Cycles uint64     // stall cycles charged to the issuing processor
	Kind   trace.Kind // always set: its zero value is trace.ReadMiss
	Trap   bool       // a software trap was taken
}

// Config configures a System. Protocol-specific options (the dirn pointer
// counts) belong to the Protocol value passed to New, not here.
type Config struct {
	Nodes     int
	CacheSize int
	Assoc     int
	BlockSize int
	Costs     Costs

	// PostStore emulates the Kendall Square KSR-1's post-store instruction
	// (paper Section 1): a check-in of a dirty block additionally
	// broadcasts read-only copies to every node that previously had the
	// block and lost it to an invalidation, instead of merely returning the
	// block to Idle. Off by default — Dir1SW has no such operation — and
	// exposed for the ablation study. Only meaningful with protocols whose
	// directory tolerates an unbounded sharer set (Dir1SW); the simulator
	// rejects the combination otherwise.
	PostStore bool

	// AddrSpace is the size in bytes of the laid-out shared address space
	// (memory.Layout.TotalBytes). When non-zero, directory entries for
	// blocks inside it live in a dense slice indexed by block number; only
	// out-of-layout addresses fall back to a map. Zero keeps the map for
	// everything. It is also the reach the caches are sized for (cache.New):
	// each materialises the sets these blocks index, the rest on demand.
	AddrSpace uint64

	// Probe validates the coherence invariants — the generic cache/directory
	// ones plus the protocol's CheckEntry — on every block each public
	// operation touches (see probe.go) and latches the first violation for
	// ProbeError. O(nodes) per access — meant for differential testing, not
	// performance runs.
	Probe bool

	// Recorder receives directory state transitions, trap causes, and
	// per-requester invalidation counts for the observability layer. nil
	// (the default) disables recording at the cost of an untaken branch
	// per event; recording never changes protocol behaviour.
	Recorder *obs.Recorder
}

// pending tracks an in-flight prefetch for one node.
type pending struct {
	arrival uint64
	state   cache.State // state the block will install in
}

// System is the full memory system: one shared-data cache per node plus the
// directory, with the per-transition behaviour supplied by a Protocol. All
// methods are deterministic and must be called from a single goroutine at a
// time (the simulator guarantees this).
type System struct {
	cfg   Config
	proto Protocol

	caches []*cache.Cache
	// blockShift is log2(BlockSize), a power of two (cache.CheckBlockSize),
	// so BlockOf shifts instead of paying a 64-bit divide on every access.
	blockShift uint
	// dense holds directory entries for blocks inside the known shared
	// address space (Config.AddrSpace), indexed by block number; dir is the
	// fallback for everything else. Entries are zero-initialized to Idle and
	// get their sharer sets on first touch.
	dense []Entry
	dir   map[uint64]*Entry
	// inflight[n] maps block -> pending prefetch for node n.
	inflight []map[uint64]pending

	// CheckCoherence scratch, reused across calls (the check runs at every
	// barrier): one view per cached block, stored in flat parallel arrays to
	// keep the aggregation pass allocation-free. View i's sharer and
	// exclusive-holder bitsets live at words [i*w, (i+1)*w) of checkHold and
	// checkExcl, where w = words per NodeSet. Dense-range blocks find their
	// view via checkSlot (value = view index + 1, reset between calls);
	// out-of-layout blocks go through checkIdx.
	checkBlocks []uint64
	checkHold   []uint64
	checkExcl   []uint64
	checkSlot   []int32
	checkIdx    map[uint64]int

	// probeErr latches the first violation the per-access probe found;
	// probeHold and probeExcl are checkBlock's scratch holder sets.
	probeErr             error
	probeHold, probeExcl NodeSet

	// rec is the observability recorder (nil when disabled).
	rec *obs.Recorder

	Stats Stats
}

// maxDenseBlocks bounds the dense directory's size (entries are ~64 bytes);
// a larger configured address space falls back to the map.
const maxDenseBlocks = 1 << 24

// New builds a System running the given protocol.
func New(cfg Config, proto Protocol) (*System, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("coherence: need at least one node, got %d", cfg.Nodes)
	}
	if proto == nil {
		return nil, fmt.Errorf("coherence: nil protocol")
	}
	s := &System{cfg: cfg, proto: proto, dir: make(map[uint64]*Entry), rec: cfg.Recorder,
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockSize)))}
	blocks := cfg.addrBlocks()
	if blocks > 0 && blocks <= maxDenseBlocks {
		s.dense = make([]Entry, blocks)
	}
	if cfg.Probe {
		s.probeHold, s.probeExcl = NewNodeSet(cfg.Nodes), NewNodeSet(cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		c, err := cache.New(cfg.CacheSize, cfg.Assoc, cfg.BlockSize, blocks)
		if err != nil {
			return nil, err
		}
		s.caches = append(s.caches, c)
		s.inflight = append(s.inflight, make(map[uint64]pending))
	}
	return s, nil
}

// addrBlocks is the number of blocks in the laid-out address space, or 0
// when it is not known.
func (c Config) addrBlocks() uint64 {
	if c.AddrSpace == 0 || c.BlockSize <= 0 {
		return 0
	}
	return (c.AddrSpace + uint64(c.BlockSize) - 1) / uint64(c.BlockSize)
}

// MustNew is New but panics on error.
func MustNew(cfg Config, proto Protocol) *System {
	s, err := New(cfg, proto)
	if err != nil {
		panic(err)
	}
	return s
}

// Nodes returns the node count.
func (s *System) Nodes() int { return s.cfg.Nodes }

// BlockSize returns the block size in bytes.
func (s *System) BlockSize() int { return s.cfg.BlockSize }

// Cache exposes a node's cache (protocol hooks, the simulator, and tests).
func (s *System) Cache(node int) *cache.Cache { return s.caches[node] }

// Costs returns the cost model.
func (s *System) Costs() Costs { return s.cfg.Costs }

// Recorder returns the observability recorder; nil (recording disabled) is
// a valid receiver for every obs.Recorder method.
func (s *System) Recorder() *obs.Recorder { return s.rec }

// Protocol returns the protocol the system runs.
func (s *System) Protocol() Protocol { return s.proto }

// BlockOf returns the block number for an address.
func (s *System) BlockOf(addr uint64) uint64 { return addr >> s.blockShift }

func (s *System) entryFor(block uint64) *Entry {
	if block < uint64(len(s.dense)) {
		e := &s.dense[block]
		if e.Sharers.words == nil {
			s.initEntry(e)
		}
		return e
	}
	e := s.dir[block]
	if e == nil {
		e = &Entry{State: obs.StateIdle}
		s.initEntry(e)
		s.dir[block] = e
	}
	return e
}

// initEntry gives a fresh directory entry its sharer sets.
func (s *System) initEntry(e *Entry) {
	e.Sharers = NewNodeSet(s.cfg.Nodes)
	if s.cfg.PostStore {
		e.pastHolders = NewNodeSet(s.cfg.Nodes)
	}
}

// DirView returns the entry's directory view, for tests.
func (s *System) DirView(block uint64) (state obs.DirState, owner int, sharers []int) {
	e := s.entryFor(block)
	return e.State, e.Owner, e.Sharers.Members()
}

// evict reconciles the directory with a cache eviction. Every supported
// protocol requires replacement notification so its sharer accounting stays
// exact.
func (s *System) evict(node int, v cache.Victim) {
	if s.cfg.Probe {
		defer s.probeAfter("evict", v.Block)
	}
	switch s.drop(s.entryFor(v.Block), node) {
	case obs.StateShared:
		s.Stats.CtlMsgs++ // replacement notification
	case obs.StateExclusive:
		if v.Dirty {
			s.Stats.Writebacks++
			s.Stats.DataMsgs++
		} else {
			s.Stats.CtlMsgs++
		}
	}
}

// install puts a block into a node's cache, reconciling any victim.
func (s *System) install(node int, block uint64, st cache.State) {
	if v, evicted := s.caches[node].Insert(block, st); evicted {
		s.evict(node, v)
	}
}

// cancelInflight drops a node's in-flight prefetch of block, if any: another
// node's access invalidated or downgraded the block before the prefetched
// data was consumed.
func (s *System) cancelInflight(node int, block uint64) {
	delete(s.inflight[node], block)
}

// acquire is the access rule behind Read, Write and both check-outs: it
// gives node a copy of block good for a read, or for a write when
// exclusive, at local time now. A copy the cache holds already is a Hit at
// no cost, and held. A prefetch in flight is consumed: its copy is
// installed, and when it serves the access that is a Hit stalled until the
// data arrives. A shared prefetch cannot serve a write; its copy is then
// upgraded in place, like any other shared copy a write meets (paper
// Section 4.1). Whatever is still missing is obtain's.
func (s *System) acquire(node int, block uint64, now uint64, exclusive bool) (r Result, held bool) {
	have := s.caches[node].Touch(block)
	if have == cache.Exclusive || (have == cache.Shared && !exclusive) {
		return Result{Kind: trace.Hit}, true
	}
	if p, ok := s.inflight[node][block]; ok {
		delete(s.inflight[node], block)
		s.install(node, block, p.state)
		if !exclusive || p.state == cache.Exclusive {
			r.Kind = trace.Hit
			if p.arrival > now {
				r.Cycles = p.arrival - now
				s.Stats.PrefetchStalls += r.Cycles
			}
			s.Stats.PrefetchHits++
			return r, false
		}
		have = p.state
	}
	r, arrives := s.obtain(node, block, have, exclusive)
	if arrives != cache.Invalid {
		s.install(node, block, arrives)
	}
	return r, false
}

// obtain gets node the copy of block that acquire or Prefetch still lacks,
// through the protocol: a shared copy (ReadMiss) or an exclusive one
// (WriteMiss), which arrives in the state it returns for the caller to
// place, or an upgrade in place of the Shared copy node has (WriteFault),
// which arrives as cache.Invalid. It counts the request and any trap.
func (s *System) obtain(node int, block uint64, have cache.State, exclusive bool) (r Result, arrives cache.State) {
	e := s.entryFor(block)
	s.Stats.ReqMsgs++
	switch {
	case !exclusive:
		r.Cycles, r.Trap = s.proto.FetchShared(s, e, block, node)
		r.Kind, arrives = trace.ReadMiss, cache.Shared
	case have == cache.Shared:
		r.Cycles, r.Trap = s.proto.Upgrade(s, e, block, node)
		r.Kind = trace.WriteFault
		s.caches[node].SetState(block, cache.Exclusive)
	default:
		r.Cycles, r.Trap = s.proto.FetchExclusive(s, e, block, node)
		r.Kind, arrives = trace.WriteMiss, cache.Exclusive
	}
	if r.Trap {
		s.Stats.Traps++
	}
	return r, arrives
}

// Read performs a shared-data read by node at addr, at local time now.
func (s *System) Read(node int, addr uint64, now uint64) Result {
	s.Stats.Reads++
	block := s.BlockOf(addr)
	if s.cfg.Probe {
		defer s.probeAfter("read", block)
	}
	r, _ := s.acquire(node, block, now, false)
	return s.account(r)
}

// Write performs a shared-data write by node at addr, at local time now.
func (s *System) Write(node int, addr uint64, now uint64) Result {
	s.Stats.Writes++
	block := s.BlockOf(addr)
	if s.cfg.Probe {
		defer s.probeAfter("write", block)
	}
	r, _ := s.acquire(node, block, now, true)
	s.caches[node].MarkDirty(block)
	return s.account(r)
}

// account counts a Read's or Write's outcome and charges a hit its cache
// access. A hit on a line whose state it leaves alone has a twin in
// LaneView.Hit, which a compiled lane tries before it calls Read or Write
// at all: what this counts or charges for a hit must change in both.
func (s *System) account(r Result) Result {
	switch r.Kind {
	case trace.Hit:
		s.Stats.Hits++
		r.Cycles += s.cfg.Costs.CacheHit
	case trace.ReadMiss:
		s.Stats.ReadMisses++
	case trace.WriteMiss:
		s.Stats.WriteMisses++
	case trace.WriteFault:
		s.Stats.WriteFaults++
	}
	return r
}

// LaneView is what the processor running on a node may touch of the
// machine's state without a call, so that the two events that dominate a run,
// a charge of local work and a shared access that hits, cost a few loads and
// one compare. Clock and Limit are the caller's: the node's virtual clock and
// the scheduler's keep-running bound on it, which the holder compares after
// everything it adds to the clock. The rest is Hit's.
type LaneView struct {
	Clock, Limit *uint64

	// The node's cache keys (cache.Cache.Hot) and how to find an address's.
	hot        *[]uint64
	setMask    uint64
	blockShift uint
	hitCost    uint64

	// What a hit counts: Stats', and the caller's per-node references.
	reads, writes, hits   *uint64
	nodeReads, nodeWrites *uint64
}

// LaneView returns node's view; clock, limit and the two counters of the
// node's shared reads and writes are the caller's. There is none under a
// recorder (every access is an event) or the probe (every access is
// checked).
func (s *System) LaneView(node int, clock, limit, nodeReads, nodeWrites *uint64) (LaneView, bool) {
	if s.rec != nil || s.cfg.Probe {
		return LaneView{}, false
	}
	hot, mask := s.caches[node].Hot()
	return LaneView{
		Clock: clock, Limit: limit,
		hot: hot, setMask: mask, blockShift: s.blockShift, hitCost: s.cfg.Costs.CacheHit,
		reads: &s.Stats.Reads, writes: &s.Stats.Writes, hits: &s.Stats.Hits,
		nodeReads: nodeReads, nodeWrites: nodeWrites,
	}, true
}

// Hit is account's hit with the calls taken out (account's comment points
// back here): it reports whether the access to addr hits a line whose state
// it leaves alone (cache.HotHit), and if so does what Read or Write, account
// and their caller do for it and nothing else: Stats.Reads or Writes,
// Stats.Hits, the caller's count of the node's references, and
// Costs.CacheHit onto the clock. Whatever they, sim.Machine.Access
// included, come to count or charge for such a hit belongs here too; the
// differentials' bare third run is what tells.
func (v *LaneView) Hit(write bool, addr uint64) bool {
	block := addr >> v.blockShift
	hot := *v.hot
	set := block & v.setMask
	if set >= uint64(len(hot)) || !cache.HotHit(hot[set], block, write) {
		return false
	}
	if write {
		*v.writes++
		*v.nodeWrites++
	} else {
		*v.reads++
		*v.nodeReads++
	}
	*v.hits++
	*v.Clock += v.hitCost
	return true
}

// CheckOutX explicitly checks out addr's block exclusive: the write miss or
// fault taken early (paper Section 4.1), so that later reads-then-writes
// find the block already writable.
func (s *System) CheckOutX(node int, addr uint64, now uint64) Result {
	s.Stats.CheckOutX++
	block := s.BlockOf(addr)
	if s.cfg.Probe {
		defer s.probeAfter("check_out_x", block)
	}
	return s.checkOut(s.acquire(node, block, now, true))
}

// CheckOutS explicitly checks out addr's block shared. Under Dir1SW this is
// usually redundant (misses perform an implicit check-out), which is why
// Performance CICO omits it (paper Section 4.1); it still exists as a
// directive for Programmer CICO runs.
func (s *System) CheckOutS(node int, addr uint64, now uint64) Result {
	s.Stats.CheckOutS++
	block := s.BlockOf(addr)
	if s.cfg.Probe {
		defer s.probeAfter("check_out_s", block)
	}
	return s.checkOut(s.acquire(node, block, now, false))
}

// checkOut charges a check-out directive its overhead; one whose copy was
// held already is wasted.
func (s *System) checkOut(r Result, held bool) Result {
	if held {
		s.Stats.WastedDirs++
	}
	r.Cycles += s.cfg.Costs.DirectiveOverhead
	return r
}

// CheckIn relinquishes node's copy of addr's block, returning it toward
// Idle so that other nodes' subsequent accesses avoid invalidations and
// traps (the annotation's whole purpose as a directive).
func (s *System) CheckIn(node int, addr uint64) Result {
	s.Stats.CheckIns++
	block := s.BlockOf(addr)
	if s.cfg.Probe {
		defer s.probeAfter("check_in", block)
	}
	c := s.caches[node]
	co := s.cfg.Costs
	st, dirty := c.Invalidate(block)
	if st == cache.Invalid {
		s.Stats.WastedDirs++
		return Result{Cycles: co.DirectiveOverhead, Kind: trace.Hit}
	}
	e := s.entryFor(block)
	cost := co.DirectiveOverhead
	switch s.drop(e, node) {
	case obs.StateShared:
		s.Stats.CtlMsgs++
	case obs.StateExclusive:
		if !dirty {
			s.Stats.CtlMsgs++
			break
		}
		s.Stats.Writebacks++
		s.Stats.DataMsgs++
		cost += co.WritebackLocal
		if s.cfg.PostStore {
			s.postStore(e, block, node)
		}
	}
	return Result{Cycles: cost, Kind: trace.Hit}
}

// postStore pushes read-only copies of a just-checked-in block to every
// node that previously lost it to an invalidation (the KSR-1 semantics:
// refill copies that are "allocated but in the invalid state"). The pushes
// are asynchronous — the issuing processor does not stall — but each data
// message is counted, and recipients become directory sharers.
func (s *System) postStore(e *Entry, block uint64, node int) {
	for _, h := range e.pastHolders.Members() {
		if h == node {
			continue
		}
		// Skip nodes with an in-flight prefetch or a live copy.
		if _, busy := s.inflight[h][block]; busy {
			continue
		}
		if s.caches[h].Lookup(block) != cache.Invalid {
			continue
		}
		s.install(h, block, cache.Shared)
		s.Join(e, h)
		s.Stats.PostStores++
	}
	e.pastHolders.Clear()
}

// Prefetch initiates a non-blocking transfer of addr's block; exclusive
// selects prefetch_x vs prefetch_s. The directory transitions immediately;
// the data arrives at now + miss latency, and a later access stalls only
// for the remaining time. An upgrade carries no data and is immediate.
func (s *System) Prefetch(node int, addr uint64, now uint64, exclusive bool) Result {
	if exclusive {
		s.Stats.PrefetchX++
	} else {
		s.Stats.PrefetchS++
	}
	block := s.BlockOf(addr)
	if s.cfg.Probe {
		defer s.probeAfter("prefetch", block)
	}
	r := Result{Cycles: s.cfg.Costs.PrefetchIssue, Kind: trace.Hit}
	have := s.caches[node].Lookup(block)
	_, busy := s.inflight[node][block]
	if busy || have == cache.Exclusive || (have == cache.Shared && !exclusive) {
		s.Stats.WastedDirs++
		return r
	}
	got, arrives := s.obtain(node, block, have, exclusive)
	if arrives != cache.Invalid {
		s.inflight[node][block] = pending{arrival: now + got.Cycles, state: arrives}
	}
	r.Trap = got.Trap
	return r
}

// FlushNode invalidates every line in a node's cache, writing back dirty
// blocks and reconciling the directory. The WWT-style tracer calls this for
// all nodes at every barrier (paper Section 3.3).
func (s *System) FlushNode(node int) {
	s.caches[node].FlushAll(func(block uint64, st cache.State, dirty bool) {
		if s.drop(s.entryFor(block), node) == obs.StateExclusive && dirty {
			s.Stats.Writebacks++
		}
	})
	// Drop in-flight prefetches too; their directory transitions already
	// happened, so release them as if installed then flushed.
	for block := range s.inflight[node] {
		s.drop(s.entryFor(block), node)
		delete(s.inflight[node], block)
	}
}

// CheckCoherence validates the protocol invariants: at most one exclusive
// copy per block; cache states consistent with the directory; plus whatever
// the protocol's CheckEntry adds (pointer-count bounds, broadcast-bit
// consistency). It returns an error describing the first violation found.
// Tests and the simulator's self-checks call this.
//
// The walk is driven by the caches' resident lines, O(resident) rather than
// O(touched blocks × nodes): a directory entry with no cached copy passes
// the generic invariants vacuously (Idle and Shared place no requirement
// without holders, and an Exclusive entry only constrains copies that
// exist), so only blocks that are actually cached somewhere need
// inspection. Protocol invariants constrain only the entry itself, so an
// uncached block's entry cannot newly violate them either (it last changed
// while probed or cached).
func (s *System) CheckCoherence() error {
	// Reset the slot scratch from the previous call's touched blocks, then
	// rebuild the view list. The reset is O(previously cached blocks).
	for _, b := range s.checkBlocks {
		if b < uint64(len(s.checkSlot)) {
			s.checkSlot[b] = 0
		}
	}
	if len(s.checkSlot) < len(s.dense) {
		s.checkSlot = make([]int32, len(s.dense))
	}
	if len(s.checkIdx) > 0 {
		clear(s.checkIdx)
	}
	w := (len(s.caches) + 63) / 64 // bitset words per view
	blocks := s.checkBlocks[:0]
	hold := s.checkHold[:0]
	excl := s.checkExcl[:0]
	// grow extends a bitset arena by one zeroed view (w words).
	grow := func(a []uint64, n int) []uint64 {
		if n <= cap(a) {
			a = a[:n]
			for j := n - w; j < n; j++ {
				a[j] = 0
			}
			return a
		}
		for j := 0; j < w; j++ {
			a = append(a, 0)
		}
		return a
	}
	addView := func(block uint64) int {
		i := len(blocks)
		blocks = append(blocks, block)
		hold = grow(hold, (i+1)*w)
		excl = grow(excl, (i+1)*w)
		return i
	}
	for n, c := range s.caches {
		wi, bit := n/64, uint64(1)<<(n%64)
		c.ForEach(func(block uint64, st cache.State, _ bool) {
			var i int
			if block < uint64(len(s.checkSlot)) {
				if v := s.checkSlot[block]; v > 0 {
					i = int(v) - 1
				} else {
					i = addView(block)
					s.checkSlot[block] = int32(i) + 1
				}
			} else {
				var ok bool
				if i, ok = s.checkIdx[block]; !ok {
					i = addView(block)
					if s.checkIdx == nil {
						s.checkIdx = make(map[uint64]int)
					}
					s.checkIdx[block] = i
				}
			}
			if st == cache.Exclusive {
				excl[i*w+wi] |= bit
			} else {
				hold[i*w+wi] |= bit
			}
		})
	}
	s.checkBlocks, s.checkHold, s.checkExcl = blocks, hold, excl
	for i, block := range blocks {
		holders := NodeSet{words: hold[i*w : (i+1)*w]}
		exclusive := NodeSet{words: excl[i*w : (i+1)*w]}
		if err := s.verify(block, holders, exclusive); err != nil {
			return fmt.Errorf("block %d: %s: %w", block, s.proto.Name(), err)
		}
	}
	return nil
}
