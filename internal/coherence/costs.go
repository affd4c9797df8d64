// Package coherence holds the protocol-independent half of the simulated
// memory system: one shared-data cache per node, the dense directory slab
// with its per-block entries and sharer bitsets, in-flight prefetch
// tracking, eviction/installation reconciliation, the CICO directive
// surface, the barrier-time coherence checker, the per-access invariant
// probe, and the observability seams. What varies between directory
// protocols — the state-machine transitions a miss/upgrade performs, the
// cycle cost and trap behaviour of each, and any protocol-specific
// invariants — is supplied by a Protocol implementation (see protocol.go),
// built from the directory transitions in transitions.go: internal/dir1sw
// for the paper's Dir1SW, internal/dirn for the hardware DirₙNB/DirₙB
// variants. The full-map directory Dir1SW is measured against is DirₙNB
// with a pointer per node (protocol spec "dirnnb:<nodes>").
package coherence

import "cachier/internal/obs"

// Costs parameterizes the cycle cost model. The defaults are loosely scaled
// to the WWT/Dir1SW publications (single-cycle cache hits, ~100-cycle clean
// remote misses, expensive software traps); the reproduction's experiments
// depend on the relative ordering of these costs, not their absolute values.
type Costs struct {
	CacheHit   uint64 // cost of a cache hit
	NetHop     uint64 // one-way network message latency
	DirService uint64 // directory controller occupancy per request
	MemAccess  uint64 // memory read/write for a block transfer
	Trap       uint64 // software trap entry/exit on the directory node
	InvalMsg   uint64 // per-sharer ack-processing cost added to a trap (invalidations pipeline; this is directory occupancy per ack, not a serialized message)

	DirectiveOverhead uint64 // address generation/issue cost of an explicit CICO directive
	PrefetchIssue     uint64 // issue cost of a non-blocking prefetch
	WritebackLocal    uint64 // local cost of pushing a dirty block out on check-in
}

// DefaultCosts returns the model's default cost parameters.
func DefaultCosts() Costs {
	return Costs{
		CacheHit:          1,
		NetHop:            25,
		DirService:        10,
		MemAccess:         20,
		Trap:              250,
		InvalMsg:          24,
		DirectiveOverhead: 4,
		PrefetchIssue:     3,
		WritebackLocal:    6,
	}
}

// CleanMiss is the latency of a miss serviced entirely in hardware:
// request hop, directory service, memory access, data reply hop.
func (c Costs) CleanMiss() uint64 { return 2*c.NetHop + c.DirService + c.MemAccess }

// Upgrade is the latency of a hardware shared-to-exclusive upgrade
// (request + ack, no data transfer).
func (c Costs) Upgrade() uint64 { return 2*c.NetHop + c.DirService }

// Forward is the latency of a miss the directory forwards to the block's
// exclusive owner: request, forward, data to the requester and the
// directory, directory service, memory access.
func (c Costs) Forward() uint64 { return 4*c.NetHop + c.DirService + c.MemAccess }

// Stats aggregates protocol activity. Message counts let the experiments
// show CICO's traffic reduction as well as its latency reduction.
type Stats struct {
	Reads  uint64 // shared-data read accesses
	Writes uint64 // shared-data write accesses

	Hits        uint64
	ReadMisses  uint64
	WriteMisses uint64
	WriteFaults uint64 // writes that found the block Shared (upgrades)

	Traps         uint64 // software traps taken
	Invalidations uint64 // sharer copies invalidated
	Writebacks    uint64 // dirty blocks written back (evict, flush, check-in, trap)

	ReqMsgs  uint64 // request messages (miss, upgrade, directive)
	DataMsgs uint64 // block-transfer messages
	CtlMsgs  uint64 // invalidations, acks, replacement notifications

	CheckOutX  uint64
	CheckOutS  uint64
	CheckIns   uint64
	PrefetchX  uint64
	PrefetchS  uint64
	WastedDirs uint64 // directives that found nothing to do

	PostStores     uint64 // read-only copies pushed by KSR-1-style post-store check-ins
	PrefetchHits   uint64 // accesses fully covered by an earlier prefetch
	PrefetchStalls uint64 // cycles stalled waiting for in-flight prefetches

	// DirEvents counts directory entry transitions (including same-state
	// ownership handoffs), incremented by System.SetState independent of the
	// observability recorder. The Snapshot consistency checker demands the
	// recorder's transition tallies sum to exactly this.
	DirEvents uint64
}

// TotalMsgs returns all messages sent.
func (s *Stats) TotalMsgs() uint64 { return s.ReqMsgs + s.DataMsgs + s.CtlMsgs }

// Misses returns all misses including write faults.
func (s *Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses + s.WriteFaults }

// Protocol converts the counters to the observability layer's snapshot
// form (obs cannot import coherence without a cycle, so the mirror type
// lives there and the conversion lives here).
func (s *Stats) Protocol() obs.ProtocolStats {
	return obs.ProtocolStats{
		Reads:  s.Reads,
		Writes: s.Writes,

		Hits:        s.Hits,
		ReadMisses:  s.ReadMisses,
		WriteMisses: s.WriteMisses,
		WriteFaults: s.WriteFaults,

		Traps:         s.Traps,
		Invalidations: s.Invalidations,
		Writebacks:    s.Writebacks,

		ReqMsgs:  s.ReqMsgs,
		DataMsgs: s.DataMsgs,
		CtlMsgs:  s.CtlMsgs,

		CheckOutX:  s.CheckOutX,
		CheckOutS:  s.CheckOutS,
		CheckIns:   s.CheckIns,
		PrefetchX:  s.PrefetchX,
		PrefetchS:  s.PrefetchS,
		WastedDirs: s.WastedDirs,

		PostStores:     s.PostStores,
		PrefetchHits:   s.PrefetchHits,
		PrefetchStalls: s.PrefetchStalls,

		DirEvents: s.DirEvents,
	}
}
