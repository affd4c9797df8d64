package coherence

import (
	"fmt"
	"math/bits"

	"cachier/internal/cache"
	"cachier/internal/obs"
)

// The per-access invariant probe (Config.Probe) re-validates the coherence
// invariants on every block a public operation touches — the accessed block
// and any eviction victim — rather than waiting for the barrier-time
// CheckCoherence sweep. A violation is latched in probeErr with the
// operation that exposed it, so a differential harness can pin the fault to
// the access that introduced it instead of the barrier that noticed it.
//
// The generic pass checks the cache→directory direction only: every cached
// copy must be justified by the directory (at most one exclusive copy
// anywhere, no shared copy alongside an exclusive one, shared holders
// contained in the sharer set, an exclusive copy only in the registered
// owner). The converse — every directory registration has a cached copy —
// is deliberately NOT asserted: an in-flight prefetch legitimately
// registers the requester in the directory before any data reaches its
// cache, and a just-fetched block is registered between the directory
// transition and the install. The protocol's own CheckEntry invariants
// (pointer-count bound for DirₙNB, broadcast-bit consistency for DirₙB)
// run after the generic pass.

// ProbeError returns the first invariant violation the per-access probe
// observed, or nil. The error is latched: once set it persists for the life
// of the System.
func (s *System) ProbeError() error { return s.probeErr }

// probeAfter validates block's invariants after op completes; only called on
// paths where cfg.Probe is known true or cheap to test.
func (s *System) probeAfter(op string, block uint64) {
	if !s.cfg.Probe || s.probeErr != nil {
		return
	}
	if err := s.checkBlock(block); err != nil {
		s.probeErr = fmt.Errorf("coherence probe (%s): after %s of block %d: %w", s.proto.Name(), op, block, err)
	}
}

// checkBlock gathers block's copies into the probe's scratch sets, one
// Lookup per cache, and verifies them.
func (s *System) checkBlock(block uint64) error {
	s.probeHold.Clear()
	s.probeExcl.Clear()
	for n, c := range s.caches {
		switch c.Lookup(block) {
		case cache.Exclusive:
			s.probeExcl.Add(n)
		case cache.Shared:
			s.probeHold.Add(n)
		}
	}
	return s.verify(block, s.probeHold, s.probeExcl)
}

// verify checks the copies of block that holders (Shared) and exclusive
// (Exclusive) name against its directory entry — the generic invariants
// above — and then the entry against the protocol's CheckEntry. Both the
// probe and CheckCoherence call it.
func (s *System) verify(block uint64, holders, exclusive NodeSet) error {
	ne, nh := exclusive.Count(), holders.Count()
	if ne > 1 {
		return fmt.Errorf("exclusive in %d caches", ne)
	}
	if ne == 1 && nh > 0 {
		return fmt.Errorf("exclusive in node %d but shared in %v", exclusive.Sole(), holders.Members())
	}
	e := s.entryFor(block)
	switch e.State {
	case obs.StateIdle:
		if ne+nh > 0 {
			return fmt.Errorf("idle in directory but cached by %v/%v", holders.Members(), exclusive.Members())
		}
	case obs.StateShared:
		if ne > 0 {
			return fmt.Errorf("shared in directory but exclusive in node %d", exclusive.Sole())
		}
		for i, w := range holders.words {
			if missing := w &^ e.Sharers.words[i]; missing != 0 {
				return fmt.Errorf("cached shared by node %d missing from sharer set", i*64+bits.TrailingZeros64(missing))
			}
		}
	case obs.StateExclusive:
		if ne == 1 && exclusive.Sole() != e.Owner {
			return fmt.Errorf("owned by %d per directory but exclusive in %d", e.Owner, exclusive.Sole())
		}
		if nh > 0 {
			return fmt.Errorf("exclusive in directory but shared in %v", holders.Members())
		}
	}
	return s.proto.CheckEntry(s, e, block)
}
