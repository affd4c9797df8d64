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
// CICO annotations act as directives (paper Section 4.1): a miss performs an
// implicit check-out; an explicit check_out_x before a read-then-write
// avoids the later upgrade fault; a check_in returns the block toward Idle
// so the next node's access avoids a trap and invalidations; prefetches
// overlap transfer latency with computation.
package dir1sw

import (
	"cachier/internal/cache"
	"cachier/internal/coherence"
	"cachier/internal/obs"
)

// protocol is the Dir1SW transition machine; fullMap switches it to the
// full-map ablation (see Config.FullMap).
type protocol struct {
	fullMap bool
}

// Protocol returns the Dir1SW protocol, or its full-map ablation.
func Protocol(fullMap bool) coherence.Protocol {
	return protocol{fullMap: fullMap}
}

func (p protocol) Name() string {
	if p.fullMap {
		return "FullMap"
	}
	return "Dir1SW"
}

// FetchShared acquires a read-only copy for node; the caller installs it.
func (p protocol) FetchShared(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	co := s.Costs()
	switch e.State {
	case coherence.Idle:
		s.SetState(e, coherence.Shared)
		e.Sharers.Add(node)
		s.Stats.DataMsgs++
		return co.CleanMiss(), false
	case coherence.Shared:
		e.Sharers.Add(node)
		s.Stats.DataMsgs++
		return co.CleanMiss(), false
	default: // Exclusive by another node: trap, downgrade owner
		owner := e.Owner
		s.CancelInflight(owner, block)
		if s.Cache(owner).Dirty(block) {
			s.Stats.Writebacks++
		}
		s.Cache(owner).SetState(block, cache.Shared)
		s.SetState(e, coherence.Shared)
		e.Sharers.Clear()
		e.Sharers.Add(owner)
		e.Sharers.Add(node)
		s.Stats.CtlMsgs += 2 // downgrade request + ack
		s.Stats.DataMsgs += 2
		if p.fullMap {
			return 4*co.NetHop + co.DirService + co.MemAccess, false
		}
		s.Recorder().Trap(obs.TrapDowngrade)
		return co.Trap + 4*co.NetHop + co.DirService + co.MemAccess, true
	}
}

// Upgrade makes node's shared copy exclusive, invalidating other sharers.
// Dir1SW keeps one pointer plus a counter: when the requester is the sole
// sharer the pointer check succeeds in hardware; otherwise software traps
// and, because the counter does not say who the sharers are, BROADCASTS
// invalidations to every other node (the protocol's key weakness, and the
// reason check-ins pay off).
func (p protocol) Upgrade(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	co := s.Costs()
	others := 0
	for _, sh := range e.Sharers.Members() {
		if sh != node {
			s.CancelInflight(sh, block)
			s.Cache(sh).Invalidate(block)
			s.NoteInvalidated(e, sh)
			s.Stats.Invalidations++
			others++
		}
	}
	s.SetState(e, coherence.Exclusive)
	e.Owner = node
	e.Sharers.Clear()
	s.Recorder().Invalidations(node, uint64(others))
	if others == 0 {
		// Pointer check succeeds: hardware handles the sole-sharer upgrade.
		return co.Upgrade(), false
	}
	if p.fullMap {
		// Full-map directory: directed invalidations in hardware, no trap.
		s.Stats.CtlMsgs += 2 * uint64(others)
		return co.Upgrade() + uint64(others)*co.InvalMsg, false
	}
	bcast := uint64(s.Nodes() - 1)
	s.Stats.CtlMsgs += 2 * bcast // broadcast invalidations + acks
	s.Recorder().Trap(obs.TrapUpgrade)
	return co.Trap + co.Upgrade() + bcast*co.InvalMsg, true
}

// FetchExclusive acquires a writable copy for node; the caller installs it.
func (p protocol) FetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	co := s.Costs()
	switch e.State {
	case coherence.Idle:
		s.SetState(e, coherence.Exclusive)
		e.Owner = node
		s.Stats.DataMsgs++
		return co.CleanMiss(), false
	case coherence.Shared:
		n := 0
		for _, sh := range e.Sharers.Members() {
			if sh != node {
				s.CancelInflight(sh, block)
				s.Cache(sh).Invalidate(block)
				s.NoteInvalidated(e, sh)
				s.Stats.Invalidations++
				n++
			}
		}
		s.SetState(e, coherence.Exclusive)
		e.Owner = node
		e.Sharers.Clear()
		s.Recorder().Invalidations(node, uint64(n))
		s.Stats.DataMsgs++
		if n == 0 {
			return co.CleanMiss(), false
		}
		if p.fullMap {
			s.Stats.CtlMsgs += 2 * uint64(n)
			return co.CleanMiss() + uint64(n)*co.InvalMsg, false
		}
		// Trap + broadcast: the counter does not identify the sharers.
		bcast := uint64(s.Nodes() - 1)
		s.Stats.CtlMsgs += 2 * bcast
		s.Recorder().Trap(obs.TrapWriteBroadcast)
		return co.Trap + co.CleanMiss() + bcast*co.InvalMsg, true
	default: // Exclusive by another node
		owner := e.Owner
		s.CancelInflight(owner, block)
		if s.Cache(owner).Dirty(block) {
			s.Stats.Writebacks++
		}
		s.Cache(owner).Invalidate(block)
		s.NoteInvalidated(e, owner)
		s.Stats.Invalidations++
		// An ownership handoff is a transition even though the state enum
		// is unchanged.
		s.SetState(e, coherence.Exclusive)
		e.Owner = node
		s.Recorder().Invalidations(node, 1)
		s.Stats.CtlMsgs += 2
		s.Stats.DataMsgs += 2
		if p.fullMap {
			// Hardware forwarding: same messages, no software trap.
			return 4*co.NetHop + co.DirService + co.MemAccess, false
		}
		s.Recorder().Trap(obs.TrapSteal)
		return co.Trap + 4*co.NetHop + co.DirService + co.MemAccess, true
	}
}

// CheckEntry: the model keeps the exact sharer set (the hardware's
// pointer+counter imprecision is charged as trap cost, not modelled as
// state loss), so Dir1SW adds no entry invariants beyond the generic ones.
func (p protocol) CheckEntry(s *coherence.System, e *coherence.Entry, block uint64) error {
	return nil
}
