package core

// Conflicts holds one epoch's data races and false sharing (the DRFS and FS
// predicates of Section 4.1).
type Conflicts struct {
	// Race marks addresses involved in a potential data race: two or more
	// processors accessed the address within the epoch and at least one
	// access was a write. (The trace keeps no ordering within an epoch, so
	// any such pattern is a potential race.)
	Race AddrSet

	// FalseShare marks addresses involved in false sharing: two or more
	// processors accessed different addresses of the same cache block, and
	// the block was written. The write requirement is an interpretation
	// choice — read-only co-residency causes no coherence traffic under
	// Dir1SW, and treating it as false sharing would pin nearly every
	// shared read to its reference site.
	FalseShare AddrSet
}

// cursor returns the DRFS predicate — the address is in a data race or in
// false sharing — for queries in ascending address order.
func (c *Conflicts) cursor() drfsCursor {
	return drfsCursor{race: cursor{s: c.Race}, fs: cursor{s: c.FalseShare}}
}

type drfsCursor struct{ race, fs cursor }

func (d *drfsCursor) has(a uint64) bool { return d.race.has(a) || d.fs.has(a) }

// FindConflicts computes the epoch's conflicts for the given block size in
// one walk over the epoch's address-sorted touch table.
func FindConflicts(es *EpochSets, blockSize int) *Conflicts {
	c := &Conflicts{}
	t := &es.Touched
	bs := uint64(blockSize)
	for lo := 0; lo < len(t.Addrs); {
		// [lo, hi) are the touched addresses of one block.
		block := t.Addrs[lo] / bs
		hi := lo
		written, mixed := false, false
		for ; hi < len(t.Addrs) && t.Addrs[hi]/bs == block; hi++ {
			written = written || t.Written[hi]
			mixed = mixed || !t.Nodes[hi].Equal(t.Nodes[lo])
			// Data races: same address, >= 2 nodes, >= 1 write.
			if t.Written[hi] && t.Nodes[hi].Multi() {
				c.Race = append(c.Race, t.Addrs[hi])
			}
		}
		// False sharing: a pair of distinct addresses in a written block
		// exhibits it when some node touches one and a different node touches
		// the other, unless both touch both (same-address contention alone is
		// a race, not false sharing). For the nonempty toucher sets trace
		// processing produces that reduces to the two sets differing: a node
		// in one set but not the other pairs with any member of the other.
		// And once any two sets in the block differ, every address has a
		// partner whose set differs from its own, so the whole block is in.
		if written && mixed {
			c.FalseShare = append(c.FalseShare, t.Addrs[lo:hi]...)
		}
		lo = hi
	}
	return c
}

// FindAllConflicts runs conflict detection over every epoch.
func FindAllConflicts(epochs []*EpochSets, blockSize int) []*Conflicts {
	out := make([]*Conflicts, len(epochs))
	for i, es := range epochs {
		out[i] = FindConflicts(es, blockSize)
	}
	return out
}
