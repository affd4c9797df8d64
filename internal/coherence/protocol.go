package coherence

import (
	"fmt"
	"strconv"
	"strings"
)

// Protocol is a directory cache-coherence protocol's state machine: the
// transitions, cycle costs, trap decisions, and message accounting of the
// three operations whose behaviour differs between directory organizations.
// Everything else — hits, installs, evictions, check-ins, prefetch
// bookkeeping, flushes — is protocol-independent and lives in System.
//
// Hooks receive the System (for costs, stats, the recorder, and the shared
// directory transitions of transitions.go) and the block's directory
// Entry, already allocated. A hook is those transitions plus what is the
// protocol's own: its trap surcharges, pointer limits and broadcasts. Each
// hook must leave the entry in the state its return implies; the caller
// installs the cache line, classifies the access, and counts Traps from the
// returned trap flag. A hook that calls System.Invalidate itself must
// mirror it with a Recorder.Invalidations call (the snapshot consistency
// checker crosses the two); the other transitions do so on their own.
type Protocol interface {
	// Name identifies the protocol in results, snapshots, and goldens
	// (e.g. "Dir1SW", "Dir4NB").
	Name() string

	// FetchShared acquires a read-only copy of block for node; the caller
	// installs it Shared.
	FetchShared(s *System, e *Entry, block uint64, node int) (cost uint64, trap bool)

	// FetchExclusive acquires a writable copy of block for node (the block
	// is not in node's cache); the caller installs it Exclusive.
	FetchExclusive(s *System, e *Entry, block uint64, node int) (cost uint64, trap bool)

	// Upgrade makes node's Shared copy of block Exclusive, invalidating any
	// other sharers; the caller flips the cache line.
	Upgrade(s *System, e *Entry, block uint64, node int) (cost uint64, trap bool)

	// CheckEntry validates protocol-specific invariants on a directory entry
	// (e.g. a pointer-count bound, broadcast-bit consistency). It is called
	// by the per-access probe and the barrier-time CheckCoherence sweep; the
	// generic cache/directory invariants have already been checked. Return
	// nil when the protocol adds no constraints.
	CheckEntry(s *System, e *Entry, block uint64) error
}

// Protocol spec names accepted by ParseSpec (case-insensitive).
const (
	SpecDir1SW = "dir1sw" // Dir1SW: one pointer + counter, software traps
	SpecDirnNB = "dirnnb" // DirₙNB: n pointers, invalidate-on-overflow, no broadcast
	SpecDirnB  = "dirnb"  // DirₙB: n pointers, broadcast bit on overflow
)

// defaultPointers is the pointer count a dirnnb/dirnb spec gets when the
// ":n" suffix is omitted.
const defaultPointers = 4

// Spec is a parsed protocol selector.
type Spec struct {
	Name string // SpecDir1SW, SpecDirnNB, or SpecDirnB
	N    int    // sharing-pointer count; meaningful for the dirn variants
}

// ParseSpec parses a protocol spec string: "dir1sw" (also the meaning of
// ""), "dirnnb[:n]", or "dirnb[:n]" with n ≥ 1 sharing pointers (default
// 4). Specs are case-insensitive.
func ParseSpec(spec string) (Spec, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	if s == "" {
		return Spec{Name: SpecDir1SW}, nil
	}
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case SpecDir1SW:
		if hasArg {
			return Spec{}, fmt.Errorf("coherence: protocol %q takes no parameter", name)
		}
		return Spec{Name: SpecDir1SW}, nil
	case SpecDirnNB, SpecDirnB:
		n := defaultPointers
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return Spec{}, fmt.Errorf("coherence: protocol %q needs a pointer count ≥ 1, got %q", name, arg)
			}
			n = v
		}
		return Spec{Name: name, N: n}, nil
	}
	return Spec{}, fmt.Errorf("coherence: unknown protocol %q (want dir1sw, dirnnb[:n], or dirnb[:n])", spec)
}

// String renders the spec in canonical form, parseable by ParseSpec.
func (sp Spec) String() string {
	if sp.Name == SpecDir1SW || sp.Name == "" {
		return SpecDir1SW
	}
	return fmt.Sprintf("%s:%d", sp.Name, sp.N)
}
