// Package dirn models the limited-pointer hardware directory protocols of
// the Agarwal taxonomy the Dir1SW work positions itself within ("An
// Evaluation of Directory Schemes for Cache Coherence", ISCA 1988): DirₙNB
// and DirₙB, each keeping n sharing pointers per block and handling every
// transition in hardware (no software traps).
//
// The two differ in how they survive pointer overflow — an (n+1)-th sharer
// arriving:
//
//   - DirₙNB (no broadcast) evicts: it invalidates one existing sharer's
//     copy to free a pointer, so the directory always knows every sharer
//     exactly and invalidations are always directed. Wide read sharing
//     thrashes (each new reader kills an old one), but writes never
//     broadcast.
//
//   - DirₙB (broadcast) sets a broadcast bit and stops tracking: reads keep
//     hitting, but the next write must broadcast invalidations to every
//     node, because the directory no longer knows who holds a copy. The bit
//     is sticky while the block stays Shared (the pointers cannot regain
//     precision) and clears when the entry leaves Shared.
//
// Both service exclusive-held blocks by hardware forwarding (downgrade or
// ownership handoff), like Dir1SW's full-map ablation. CICO check-ins still
// help — they shrink the sharer set before a write, avoiding directed
// invalidations, overflow evictions, and broadcasts — which is exactly the
// cross-protocol question the Figure-6 sweep answers.
//
// The model keeps the exact sharer set for both variants (as it does for
// Dir1SW) so invalidations can be delivered; the pointer limit is enforced
// behaviourally (evictions, broadcast bit) and as a checked invariant
// (CheckEntry: sharer count ≤ n for NB, or the broadcast bit set and the
// entry Shared for B).
package dirn

import (
	"fmt"

	"cachier/internal/cache"
	"cachier/internal/coherence"
)

// NB returns the DirₙNB protocol with n sharing pointers. It panics if
// n < 1 (a directory needs at least one pointer).
func NB(n int) coherence.Protocol {
	if n < 1 {
		panic(fmt.Sprintf("dirn: DirnNB needs n >= 1 pointers, got %d", n))
	}
	return nb{n: n}
}

// B returns the DirₙB protocol with n sharing pointers. It panics if n < 1.
func B(n int) coherence.Protocol {
	if n < 1 {
		panic(fmt.Sprintf("dirn: DirnB needs n >= 1 pointers, got %d", n))
	}
	return broadcast{n: n}
}

type nb struct{ n int }

func (p nb) Name() string { return fmt.Sprintf("Dir%dNB", p.n) }

// enforce frees sharing pointers after keep joined the sharer set: while
// more than n nodes share the block, the lowest-numbered sharer other than
// keep loses its copy to a directed hardware invalidation. Returns the
// extra cost charged to the requester.
func (p nb) enforce(s *coherence.System, e *coherence.Entry, block uint64, keep int) (cost uint64) {
	co := s.Costs()
	for e.Sharers.Count() > p.n {
		victim := -1
		for _, m := range e.Sharers.Members() {
			if m != keep {
				victim = m
				break
			}
		}
		if victim < 0 {
			break
		}
		s.CancelInflight(victim, block)
		s.Cache(victim).Invalidate(block)
		s.NoteInvalidated(e, victim)
		e.Sharers.Remove(victim)
		s.Stats.Invalidations++
		s.Stats.CtlMsgs += 2 // directed invalidation + ack
		s.Recorder().Invalidations(keep, 1)
		cost += co.InvalMsg
	}
	return cost
}

func (p nb) FetchShared(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
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
		return co.CleanMiss() + p.enforce(s, e, block, node), false
	default: // Exclusive by another node: hardware forwarding + downgrade
		cost = downgradeOwner(s, e, block, node)
		return cost + p.enforce(s, e, block, node), false
	}
}

func (p nb) Upgrade(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	return directedUpgrade(s, e, block, node), false
}

func (p nb) FetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	return directedFetchExclusive(s, e, block, node), false
}

func (p nb) CheckEntry(s *coherence.System, e *coherence.Entry, block uint64) error {
	if c := e.Sharers.Count(); c > p.n {
		return fmt.Errorf("%d sharers exceed the %d-pointer bound", c, p.n)
	}
	if e.Bcast {
		return fmt.Errorf("broadcast bit set on a no-broadcast directory")
	}
	return nil
}

type broadcast struct{ n int }

func (p broadcast) Name() string { return fmt.Sprintf("Dir%dB", p.n) }

func (p broadcast) FetchShared(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
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
		if e.Sharers.Count() > p.n {
			e.Bcast = true // pointers overflow: stop tracking, mark for broadcast
		}
		return co.CleanMiss(), false
	default: // Exclusive by another node: hardware forwarding + downgrade
		cost = downgradeOwner(s, e, block, node)
		if e.Sharers.Count() > p.n {
			e.Bcast = true
		}
		return cost, false
	}
}

func (p broadcast) Upgrade(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	if !e.Bcast {
		return directedUpgrade(s, e, block, node), false
	}
	// Overflowed: the directory no longer knows the sharers, so hardware
	// broadcasts invalidations to every other node and collects acks.
	co := s.Costs()
	others := invalidateSharers(s, e, block, node)
	s.SetState(e, coherence.Exclusive) // clears the broadcast bit
	e.Owner = node
	e.Sharers.Clear()
	s.Recorder().Invalidations(node, uint64(others))
	bcast := uint64(s.Nodes() - 1)
	s.Stats.CtlMsgs += 2 * bcast
	return co.Upgrade() + bcast*co.InvalMsg, false
}

func (p broadcast) FetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	if e.State != coherence.Shared || !e.Bcast {
		return directedFetchExclusive(s, e, block, node), false
	}
	co := s.Costs()
	others := invalidateSharers(s, e, block, node)
	s.SetState(e, coherence.Exclusive)
	e.Owner = node
	e.Sharers.Clear()
	s.Recorder().Invalidations(node, uint64(others))
	s.Stats.DataMsgs++
	bcast := uint64(s.Nodes() - 1)
	s.Stats.CtlMsgs += 2 * bcast
	return co.CleanMiss() + bcast*co.InvalMsg, false
}

func (p broadcast) CheckEntry(s *coherence.System, e *coherence.Entry, block uint64) error {
	if e.Bcast && e.State != coherence.Shared {
		return fmt.Errorf("broadcast bit set on a %v entry", e.State)
	}
	if !e.Bcast {
		if c := e.Sharers.Count(); c > p.n {
			return fmt.Errorf("%d sharers exceed the %d-pointer bound without the broadcast bit", c, p.n)
		}
	}
	return nil
}

// downgradeOwner services a shared fetch of an Exclusive-held block in
// hardware: forward the request to the owner, write back if dirty,
// downgrade its copy, and register both nodes as sharers. Returns the
// 4-hop forwarding cost.
func downgradeOwner(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64) {
	co := s.Costs()
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
	return 4*co.NetHop + co.DirService + co.MemAccess
}

// invalidateSharers invalidates every sharer's copy except node's,
// returning how many copies were dropped. Message accounting is the
// caller's (directed vs broadcast).
func invalidateSharers(s *coherence.System, e *coherence.Entry, block uint64, node int) (others int) {
	for _, sh := range e.Sharers.Members() {
		if sh != node {
			s.CancelInflight(sh, block)
			s.Cache(sh).Invalidate(block)
			s.NoteInvalidated(e, sh)
			s.Stats.Invalidations++
			others++
		}
	}
	return others
}

// directedUpgrade is the in-pointer-bound write fault both variants share:
// the directory knows every sharer, so invalidations are directed and
// handled in hardware (the same transition Dir1SW's full-map ablation
// performs).
func directedUpgrade(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64) {
	co := s.Costs()
	others := invalidateSharers(s, e, block, node)
	s.SetState(e, coherence.Exclusive)
	e.Owner = node
	e.Sharers.Clear()
	s.Recorder().Invalidations(node, uint64(others))
	if others == 0 {
		return co.Upgrade()
	}
	s.Stats.CtlMsgs += 2 * uint64(others)
	return co.Upgrade() + uint64(others)*co.InvalMsg
}

// directedFetchExclusive is the write-miss path with exact sharer
// knowledge: directed invalidations from Shared, hardware ownership
// handoff from Exclusive.
func directedFetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64) {
	co := s.Costs()
	switch e.State {
	case coherence.Idle:
		s.SetState(e, coherence.Exclusive)
		e.Owner = node
		s.Stats.DataMsgs++
		return co.CleanMiss()
	case coherence.Shared:
		others := invalidateSharers(s, e, block, node)
		s.SetState(e, coherence.Exclusive)
		e.Owner = node
		e.Sharers.Clear()
		s.Recorder().Invalidations(node, uint64(others))
		s.Stats.DataMsgs++
		if others == 0 {
			return co.CleanMiss()
		}
		s.Stats.CtlMsgs += 2 * uint64(others)
		return co.CleanMiss() + uint64(others)*co.InvalMsg
	default: // Exclusive by another node: hardware ownership handoff
		owner := e.Owner
		s.CancelInflight(owner, block)
		if s.Cache(owner).Dirty(block) {
			s.Stats.Writebacks++
		}
		s.Cache(owner).Invalidate(block)
		s.NoteInvalidated(e, owner)
		s.Stats.Invalidations++
		s.SetState(e, coherence.Exclusive)
		e.Owner = node
		s.Recorder().Invalidations(node, 1)
		s.Stats.CtlMsgs += 2
		s.Stats.DataMsgs += 2
		return 4*co.NetHop + co.DirService + co.MemAccess
	}
}
