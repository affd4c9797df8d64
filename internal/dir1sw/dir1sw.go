// Package dir1sw models the Wisconsin Dir1SW directory cache-coherence
// protocol (Hill et al., "Cooperative Shared Memory: Software and Hardware
// for Scalable Multiprocessors", TOCS 1993), the memory system the paper
// uses to evaluate CICO annotations as directives. It is one Protocol
// implementation over the shared machinery in internal/coherence; the
// DirₙNB/DirₙB hardware variants live in internal/dirn.
//
// Dir1SW keeps one hardware pointer plus a sharer counter per block and
// traps to system software on "complex" transitions. In this model:
//
//   - read miss to an Idle or Shared block: handled in hardware;
//   - write miss/fault when the writer is the only sharer: handled in
//     hardware (pointer check);
//   - write miss/fault with other sharers present: software trap that
//     broadcasts invalidations and collects acknowledgements;
//   - any miss to a block held Exclusive by another node: software trap
//     that retrieves/downgrades the owner's copy.
//
// Each hook is the shared directory transitions of internal/coherence plus
// the trap surcharge; the hardware transitions alone, with a pointer per
// node, are the full-map directory DirₙNB (protocol spec "dirnnb:<nodes>").
//
// CICO annotations act as directives (paper Section 4.1): a miss performs an
// implicit check-out; an explicit check_out_x before a read-then-write
// avoids the later upgrade fault; a check_in returns the block toward Idle
// so the next node's access avoids a trap and invalidations; prefetches
// overlap transfer latency with computation.
package dir1sw

import (
	"cachier/internal/coherence"
	"cachier/internal/obs"
)

// protocol is the Dir1SW transition machine.
type protocol struct{}

// Protocol returns the Dir1SW protocol.
func Protocol() coherence.Protocol { return protocol{} }

func (protocol) Name() string { return "Dir1SW" }

// FetchShared acquires a read-only copy for node; the caller installs it.
// A block held Exclusive by another node traps to downgrade the owner.
func (protocol) FetchShared(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	if e.State != obs.StateExclusive {
		s.Join(e, node)
		return s.Costs().CleanMiss(), false
	}
	cost = s.Downgrade(e, block, node)
	s.Recorder().Trap(obs.TrapDowngrade)
	return s.Costs().Trap + cost, true
}

// Upgrade makes node's shared copy exclusive, invalidating other sharers.
// Dir1SW keeps one pointer plus a counter: when the requester is the sole
// sharer the pointer check succeeds in hardware; otherwise software traps
// and, because the counter does not say who the sharers are, BROADCASTS
// invalidations to every other node (the protocol's key weakness, and the
// reason check-ins pay off).
func (protocol) Upgrade(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	others := s.TakeOwnership(e, block, node)
	return broadcast(s, others, s.Costs().Upgrade(), obs.TrapUpgrade)
}

// FetchExclusive acquires a writable copy for node; the caller installs it.
// Other sharers are invalidated as Upgrade does; a block held Exclusive by
// another node traps to steal it from the owner.
func (protocol) FetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	if e.State == obs.StateExclusive {
		cost = s.Handoff(e, block, node)
		s.Recorder().Trap(obs.TrapSteal)
		return s.Costs().Trap + cost, true
	}
	others := s.TakeOwnership(e, block, node)
	s.Stats.DataMsgs++
	return broadcast(s, others, s.Costs().CleanMiss(), obs.TrapWriteBroadcast)
}

// broadcast finishes a transition that invalidated others copies at the
// hardware cost base: none is the pointer check succeeding in hardware,
// any is a trap that broadcasts, since the counter does not identify the
// sharers.
func broadcast(s *coherence.System, others int, base uint64, cause obs.TrapCause) (cost uint64, trap bool) {
	if others == 0 {
		return base, false
	}
	cost = s.Deliver(others, true)
	s.Recorder().Trap(cause)
	return s.Costs().Trap + base + cost, true
}

// CheckEntry: the model keeps the exact sharer set (the hardware's
// pointer+counter imprecision is charged as trap cost, not modelled as
// state loss), so Dir1SW adds no entry invariants beyond the generic ones.
func (protocol) CheckEntry(s *coherence.System, e *coherence.Entry, block uint64) error {
	return nil
}
