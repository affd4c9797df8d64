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
// ownership handoff). Each hook is the shared directory transitions of
// internal/coherence plus the variant's pointer enforcement or broadcast
// bit. With a pointer per node (spec "dirnnb:<nodes>") no pointer ever
// overflows and DirₙNB is the full-map directory, the hardware-only
// baseline Dir1SW is measured against. CICO check-ins still help — they
// shrink the sharer set before a write, avoiding directed invalidations,
// overflow evictions, and broadcasts — which is exactly the cross-protocol
// question the Figure-6 sweep answers.
//
// The model keeps the exact sharer set for both variants (as it does for
// Dir1SW) so invalidations can be delivered; the pointer limit is enforced
// behaviourally (evictions, broadcast bit) and as a checked invariant
// (CheckEntry: sharer count ≤ n for NB, or the broadcast bit set and the
// entry Shared for B).
package dirn

import (
	"fmt"

	"cachier/internal/coherence"
	"cachier/internal/obs"
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
	for e.Sharers.Count() > p.n {
		victim := e.Sharers.First()
		if victim == keep {
			victim = e.Sharers.Members()[1]
		}
		s.Invalidate(e, block, victim)
		e.Sharers.Remove(victim)
		s.Recorder().Invalidations(keep, 1)
		cost += s.Deliver(1, false)
	}
	return cost
}

func (p nb) FetchShared(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	return fetchShared(s, e, block, node) + p.enforce(s, e, block, node), false
}

func (p nb) Upgrade(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	return upgrade(s, e, block, node, false), false
}

func (p nb) FetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	return fetchExclusive(s, e, block, node, false), false
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

// FetchShared sets the broadcast bit when the new sharer overflows the
// pointers: the directory stops tracking, and the next write broadcasts.
func (p broadcast) FetchShared(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	cost = fetchShared(s, e, block, node)
	if e.Sharers.Count() > p.n {
		e.Bcast = true
	}
	return cost, false
}

func (p broadcast) Upgrade(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	return upgrade(s, e, block, node, e.Bcast), false
}

func (p broadcast) FetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64, trap bool) {
	return fetchExclusive(s, e, block, node, e.Bcast), false
}

func (p broadcast) CheckEntry(s *coherence.System, e *coherence.Entry, block uint64) error {
	if e.Bcast && e.State != obs.StateShared {
		return fmt.Errorf("broadcast bit set on a %v entry", e.State)
	}
	if !e.Bcast {
		if c := e.Sharers.Count(); c > p.n {
			return fmt.Errorf("%d sharers exceed the %d-pointer bound without the broadcast bit", c, p.n)
		}
	}
	return nil
}

// fetchShared is the read miss both variants handle in hardware: node joins
// an Idle or Shared block, or the owner of an Exclusive one is downgraded.
func fetchShared(s *coherence.System, e *coherence.Entry, block uint64, node int) (cost uint64) {
	if e.State == obs.StateExclusive {
		return s.Downgrade(e, block, node)
	}
	s.Join(e, node)
	return s.Costs().CleanMiss()
}

// upgrade is the write fault both variants handle in hardware: the other
// sharers are invalidated, directed while the pointers know them and
// broadcast once a DirₙB entry has overflowed (the bit clears as the entry
// turns Exclusive).
func upgrade(s *coherence.System, e *coherence.Entry, block uint64, node int, bcast bool) (cost uint64) {
	others := s.TakeOwnership(e, block, node)
	return s.Costs().Upgrade() + s.Deliver(others, bcast)
}

// fetchExclusive is the write miss: an Exclusive block's ownership is handed
// off, and an Idle or Shared block's other copies invalidated as upgrade
// does.
func fetchExclusive(s *coherence.System, e *coherence.Entry, block uint64, node int, bcast bool) (cost uint64) {
	if e.State == obs.StateExclusive {
		return s.Handoff(e, block, node)
	}
	others := s.TakeOwnership(e, block, node)
	s.Stats.DataMsgs++
	return s.Costs().CleanMiss() + s.Deliver(others, bcast)
}
