package coherence

import (
	"math/bits"

	"cachier/internal/cache"
	"cachier/internal/obs"
)

// The directory transitions every protocol is built from. A Protocol hook
// picks the transitions a miss or upgrade performs and adds what is its own
// (Dir1SW's trap surcharge and broadcast, DirₙNB's pointer enforcement,
// DirₙB's broadcast bit); the System's own evictions, check-ins and flushes
// use drop. Each transition keeps Stats, the recorder and the caches in step
// with the entry it moves, and changes other nodes' lines through
// cache.Cache's methods, which keep the hot keys exact: a lane counting hits
// off one never sees a stale line.

// SetState moves a directory entry to a new state, recording the
// transition. Exclusive-to-exclusive ownership handoffs are recorded too
// (callers invoke it even when the state enum is unchanged but the owner
// moves). Leaving Shared drops any broadcast bit: the sharer set is empty
// or precisely one owner again.
func (s *System) SetState(e *Entry, to obs.DirState) {
	s.rec.DirTransition(e.State, to)
	s.Stats.DirEvents++
	e.State = to
	if to != obs.StateShared {
		e.Bcast = false
	}
}

// Join adds node to an Idle or Shared block's sharers, with the data reply.
func (s *System) Join(e *Entry, node int) {
	if e.State == obs.StateIdle {
		s.SetState(e, obs.StateShared)
	}
	e.Sharers.Add(node)
	s.Stats.DataMsgs++
}

// Downgrade services a shared fetch of a block another node holds
// Exclusive: the request is forwarded to the owner, whose copy is written
// back if dirty and downgraded, and owner and node become the sharers.
// Returns the forwarding latency (Costs.Forward).
func (s *System) Downgrade(e *Entry, block uint64, node int) uint64 {
	owner := e.Owner
	s.cancelInflight(owner, block)
	if s.caches[owner].Dirty(block) {
		s.Stats.Writebacks++
	}
	s.caches[owner].SetState(block, cache.Shared)
	s.SetState(e, obs.StateShared)
	e.Sharers.Clear()
	e.Sharers.Add(owner)
	e.Sharers.Add(node)
	s.Stats.CtlMsgs += 2 // downgrade request + ack
	s.Stats.DataMsgs += 2
	return s.cfg.Costs.Forward()
}

// Handoff services an exclusive fetch of a block another node holds
// Exclusive: the owner's copy is invalidated (written back if dirty) and
// node becomes the owner. An ownership handoff is a transition even though
// the state enum is unchanged. Returns the forwarding latency.
func (s *System) Handoff(e *Entry, block uint64, node int) uint64 {
	if s.Invalidate(e, block, e.Owner) {
		s.Stats.Writebacks++
	}
	s.SetState(e, obs.StateExclusive)
	e.Owner = node
	s.rec.Invalidations(node, 1)
	s.Stats.CtlMsgs += 2
	s.Stats.DataMsgs += 2
	return s.cfg.Costs.Forward()
}

// TakeOwnership invalidates every copy of an Idle or Shared block but
// node's and makes node its exclusive owner, returning how many copies were
// invalidated. The messages that carried the invalidations are Deliver's.
func (s *System) TakeOwnership(e *Entry, block uint64, node int) (others int) {
	for wi, w := range e.Sharers.words {
		for ; w != 0; w &= w - 1 {
			if sh := wi*64 + bits.TrailingZeros64(w); sh != node {
				s.Invalidate(e, block, sh)
				others++
			}
		}
	}
	s.SetState(e, obs.StateExclusive)
	e.Owner = node
	e.Sharers.Clear()
	s.rec.Invalidations(node, uint64(others))
	return others
}

// Deliver sends the invalidations of a transition that dropped others
// copies, each with its acknowledgement: directed to the copies a precise
// directory knows, or broadcast to every other node when it does not.
// Returns the ack-processing cost charged to the requester.
func (s *System) Deliver(others int, broadcast bool) uint64 {
	n := uint64(others)
	if broadcast {
		n = uint64(s.cfg.Nodes - 1)
	}
	s.Stats.CtlMsgs += 2 * n
	return n * s.cfg.Costs.InvalMsg
}

// Invalidate drops node's copy of block, and any prefetch of it in flight,
// and counts the invalidation; the caller removes node from the entry and
// records the invalidation against the requester. It reports whether the
// copy was dirty.
func (s *System) Invalidate(e *Entry, block uint64, node int) (dirty bool) {
	s.cancelInflight(node, block)
	_, dirty = s.caches[node].Invalidate(block)
	if s.cfg.PostStore {
		e.pastHolders.Add(node) // post-store's "allocated but invalid" set
	}
	s.Stats.Invalidations++
	return dirty
}

// drop removes node's copy from the directory: a sharer leaves (the last
// one returns the block to Idle), or the owner returns the block to Idle.
// It reports what the entry held the block as, Shared or Exclusive, or Idle
// when node was not the owner of an Idle or Exclusive block; the messages
// are the caller's, whose cache has already let the line go.
func (s *System) drop(e *Entry, node int) obs.DirState {
	switch e.State {
	case obs.StateShared:
		e.Sharers.Remove(node)
		if e.Sharers.Count() == 0 {
			s.SetState(e, obs.StateIdle)
		}
		return obs.StateShared
	case obs.StateExclusive:
		if e.Owner == node {
			s.SetState(e, obs.StateIdle)
			return obs.StateExclusive
		}
	}
	return obs.StateIdle
}
