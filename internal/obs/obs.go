// Package obs is the simulator's observability layer: a structured metrics
// and event recorder threaded through the whole stack (sim, dir1sw, interp,
// the CICO directive path) that turns end-of-run cycle totals into
// per-node, per-epoch data a test can pin.
//
// The design constraint is the measured path: the Figure 6 harness doubles
// as the repository's wall-clock benchmark, so recording must cost nothing
// when it is off. A nil *Recorder IS the disabled recorder — every method
// nil-checks its receiver and returns immediately, which the compiler
// inlines to a test-and-branch at the call site. Enabling a recorder never
// changes simulated results either: the recorder only observes, and the
// conformance harness re-runs programs with a recorder attached and demands
// bit-identical cycles and protocol statistics.
//
// Data collected, by layer:
//
//   - sim: per-node, per-epoch access outcomes (hits, misses by type,
//     upgrades), directory traps, invalidations, miss-stall and
//     barrier-stall cycles, per-epoch working sets (distinct cache blocks
//     touched), scheduler handoffs, and work cycles charged;
//   - dir1sw: directory state-transition counts and trap causes;
//   - interp/VM: dispatched ops (see Context.CountOps);
//   - CICO directives: check-out/check-in/prefetch events with block
//     counts, both in aggregate and per labelled shared variable.
//
// Snapshot() folds all of it into a deterministic, sorted, JSON-stable
// stats tree (snapshot.go); EnableTimeline() additionally records a
// per-node epoch/barrier timeline exportable as Chrome-trace/Perfetto JSON
// (timeline.go).
package obs

import (
	"sort"

	"cachier/internal/parc"
	"cachier/internal/trace"
)

// nDirKinds is the number of CICO directive kinds, parc.AnnKind's values.
const nDirKinds = parc.AnnPrefetchS + 1

// TrapCause classifies why the directory trapped to software. Dir1SW's
// whole case rests on which of these the annotations remove, so the causes
// are first-class observables.
type TrapCause uint8

// Trap causes.
const (
	// TrapUpgrade: a write (or check_out_x) found other sharers and had to
	// broadcast invalidations because the counter cannot name them.
	TrapUpgrade TrapCause = iota
	// TrapWriteBroadcast: a write miss to a Shared block with other
	// sharers; same broadcast, entered through the miss path.
	TrapWriteBroadcast
	// TrapDowngrade: a read miss to a block held Exclusive elsewhere; the
	// owner's copy is retrieved and downgraded in software.
	TrapDowngrade
	// TrapSteal: a write miss to a block held Exclusive elsewhere; the
	// owner's copy is retrieved and invalidated in software.
	TrapSteal
	nTrapCauses
)

func (c TrapCause) String() string {
	switch c {
	case TrapUpgrade:
		return "upgrade-broadcast"
	case TrapWriteBroadcast:
		return "write-broadcast"
	case TrapDowngrade:
		return "exclusive-downgrade"
	case TrapSteal:
		return "exclusive-steal"
	}
	return "trap?"
}

// DirState is a directory entry's state: the coherence protocols move
// entries between these three, and the recorder counts the transitions.
type DirState uint8

// Directory states.
const (
	StateIdle DirState = iota
	StateShared
	StateExclusive
	nDirStates
)

func (s DirState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateShared:
		return "shared"
	case StateExclusive:
		return "exclusive"
	}
	return "state?"
}

// nodeEpoch accumulates one node's activity within the current epoch.
type nodeEpoch struct {
	access   [trace.NumKinds]uint64
	traps    uint64
	invals   uint64
	stall    uint64 // cycles lost to misses, faults, and prefetch waits
	dirOps   uint64 // directive executions
	dirBlks  uint64 // blocks those directives covered
	workSet  map[uint64]struct{}
	barStall uint64 // set when the epoch closes
}

// Recorder collects metrics and (optionally) timeline events for one
// simulation run. A nil *Recorder is the disabled recorder: every method is
// safe to call on it and does nothing. A Recorder belongs to a single run
// and, like the simulator's Machine, is not safe for concurrent use across
// runs.
type Recorder struct {
	nodes     int
	blockSize uint64

	epoch  int
	cur    []nodeEpoch  // per-node accumulators for the current epoch
	epochs []EpochStats // finished epochs

	dirTrans [nDirStates][nDirStates]uint64
	traps    [nTrapCauses]uint64
	dirAgg   [nDirKinds]DirectiveStats
	vars     map[string]*VarStats

	handoffs uint64 // scheduler context switches
	workCyc  uint64 // local-computation cycles charged via Work
	ops      []uint64

	nodeDone []bool

	timeline bool
	tl       [][]TimelineEvent // per-node event streams, chronological
}

// New builds an enabled Recorder for a machine with the given node count
// and cache block size.
func New(nodes, blockSize int) *Recorder {
	if nodes <= 0 {
		nodes = 1
	}
	if blockSize <= 0 {
		blockSize = 1
	}
	r := &Recorder{
		nodes:     nodes,
		blockSize: uint64(blockSize),
		cur:       make([]nodeEpoch, nodes),
		vars:      make(map[string]*VarStats),
		ops:       make([]uint64, nodes),
		nodeDone:  make([]bool, nodes),
	}
	for i := range r.cur {
		r.cur[i].workSet = make(map[uint64]struct{})
	}
	return r
}

// Enabled reports whether recording is on; the nil receiver is the
// disabled recorder.
func (r *Recorder) Enabled() bool { return r != nil }

// EnableTimeline turns on per-node timeline event collection. Must be
// called before the run starts (it opens each node's first epoch span).
func (r *Recorder) EnableTimeline() {
	if r == nil || r.timeline {
		return
	}
	r.timeline = true
	r.tl = make([][]TimelineEvent, r.nodes)
	for n := 0; n < r.nodes; n++ {
		r.tl[n] = append(r.tl[n], TimelineEvent{Name: epochName(0), Phase: "B", TS: 0, TID: n})
	}
}

// Access records one shared-data access by node: its outcome, the cache
// block it touched, the stall cycles it cost, whether it trapped, and the
// node's clock after the access completed.
func (r *Recorder) Access(node int, kind trace.Kind, block uint64, cycles uint64, trap bool, now uint64) {
	if r == nil {
		return
	}
	ne := &r.cur[node]
	ne.access[kind]++
	ne.workSet[block] = struct{}{}
	if kind != trace.Hit {
		ne.stall += cycles
	}
	if trap {
		r.trapAt(node, now)
	}
}

// trapAt counts a per-node trap and, with the timeline on, drops an
// instant on the node's track.
func (r *Recorder) trapAt(node int, now uint64) {
	r.cur[node].traps++
	if r.timeline {
		r.tl[node] = append(r.tl[node], TimelineEvent{Name: "trap", Phase: "i", TS: now, TID: node, Scope: "t"})
	}
}

// Directive records one CICO directive execution by node covering the
// given number of cache blocks, ending at the node's clock now.
func (r *Recorder) Directive(node int, kind parc.AnnKind, blocks uint64, now uint64) {
	if r == nil {
		return
	}
	ne := &r.cur[node]
	ne.dirOps++
	ne.dirBlks += blocks
	r.dirAgg[kind].Events++
	r.dirAgg[kind].Blocks += blocks
	if r.timeline {
		r.tl[node] = append(r.tl[node], TimelineEvent{Name: kind.String(), Phase: "i", TS: now, TID: node, Scope: "t"})
	}
}

// DirectiveTrap records that a directive's block operation trapped, at the
// node's clock now.
func (r *Recorder) DirectiveTrap(node int, now uint64) {
	if r == nil {
		return
	}
	r.trapAt(node, now)
}

// VarDirective attributes a directive's blocks to a labelled shared
// variable (the simulator resolves the address to a region name).
func (r *Recorder) VarDirective(name string, kind parc.AnnKind, blocks uint64) {
	if r == nil {
		return
	}
	v := r.vars[name]
	if v == nil {
		v = &VarStats{Name: name}
		r.vars[name] = v
	}
	switch kind {
	case parc.AnnCheckOutX:
		v.CheckOutX += blocks
	case parc.AnnCheckOutS:
		v.CheckOutS += blocks
	case parc.AnnCheckIn:
		v.CheckIns += blocks
	case parc.AnnPrefetchX:
		v.PrefetchX += blocks
	case parc.AnnPrefetchS:
		v.PrefetchS += blocks
	}
}

// DirTransition records a directory entry state change (dir1sw calls this
// at every transition, including exclusive-to-exclusive ownership
// handoffs).
func (r *Recorder) DirTransition(from, to DirState) {
	if r == nil {
		return
	}
	r.dirTrans[from][to]++
}

// Trap records a software trap's cause (dir1sw calls this at the trap
// site; the per-node count comes from Access/DirectiveTrap).
func (r *Recorder) Trap(cause TrapCause) {
	if r == nil {
		return
	}
	r.traps[cause]++
}

// Invalidations records n sharer copies invalidated on behalf of the
// requesting node.
func (r *Recorder) Invalidations(node int, n uint64) {
	if r == nil {
		return
	}
	r.cur[node].invals += n
}

// Handoff records one scheduler context switch.
func (r *Recorder) Handoff() {
	if r == nil {
		return
	}
	r.handoffs++
}

// Work records local-computation cycles charged to a node.
func (r *Recorder) Work(node int, cycles uint64) {
	if r == nil {
		return
	}
	r.workCyc += cycles
}

// NodeDone closes a node's timeline when its program finishes at the given
// clock; later barriers and Finish leave the node alone.
func (r *Recorder) NodeDone(node int, now uint64) {
	if r == nil || r.nodeDone[node] {
		return
	}
	r.nodeDone[node] = true
	if r.timeline {
		r.tl[node] = append(r.tl[node], TimelineEvent{Name: epochName(r.epoch), Phase: "E", TS: now, TID: node})
	}
}

// BarrierEnd closes the current epoch at a global barrier: arrivals holds
// each node's arrival clock (its current clock, for nodes that already
// finished), release the synchronized clock every participant leaves with,
// and barrierPC the barrier statement's ID.
func (r *Recorder) BarrierEnd(barrierPC int, arrivals []uint64, release uint64) {
	if r == nil {
		return
	}
	r.closeEpoch(barrierPC, arrivals, release, false)
}

// Finish closes the final (partial) epoch at program completion; clocks
// holds each node's completion clock. Like the trace format, the final
// epoch carries barrier PC -1.
func (r *Recorder) Finish(clocks []uint64) {
	if r == nil {
		return
	}
	var max uint64
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	r.closeEpoch(-1, clocks, max, true)
}

func (r *Recorder) closeEpoch(barrierPC int, arrivals []uint64, release uint64, final bool) {
	ep := EpochStats{
		Index:     r.epoch,
		BarrierPC: barrierPC,
		Release:   release,
		Nodes:     make([]NodeEpochStats, r.nodes),
	}
	for n := range r.cur {
		ne := &r.cur[n]
		stall := uint64(0)
		if !final && !r.nodeDone[n] && release > arrivals[n] {
			stall = release - arrivals[n]
		}
		ne.barStall = stall
		ws := uint64(len(ne.workSet))
		ep.Nodes[n] = NodeEpochStats{
			Hits:            ne.access[trace.Hit],
			ReadMisses:      ne.access[trace.ReadMiss],
			WriteMisses:     ne.access[trace.WriteMiss],
			WriteFaults:     ne.access[trace.WriteFault],
			Traps:           ne.traps,
			Invalidations:   ne.invals,
			StallCycles:     ne.stall,
			BarrierStall:    stall,
			DirectiveOps:    ne.dirOps,
			DirectiveBlocks: ne.dirBlks,
			WorkingSet:      ws,
		}
		ep.WorkingSet.Observe(ws)
		if r.timeline && !r.nodeDone[n] {
			tl := r.tl[n]
			tl = append(tl,
				TimelineEvent{Name: epochName(r.epoch), Phase: "E", TS: arrivals[n], TID: n})
			if !final {
				tl = append(tl,
					TimelineEvent{Name: barrierName(r.epoch), Phase: "B", TS: arrivals[n], TID: n},
					TimelineEvent{Name: barrierName(r.epoch), Phase: "E", TS: release, TID: n},
					TimelineEvent{Name: epochName(r.epoch + 1), Phase: "B", TS: release, TID: n})
			}
			r.tl[n] = tl
		}
		// Reset for the next epoch; the map is reused to stay allocation-
		// light across epochs.
		ne.access = [trace.NumKinds]uint64{}
		ne.traps, ne.invals, ne.stall = 0, 0, 0
		ne.dirOps, ne.dirBlks, ne.barStall = 0, 0, 0
		clear(ne.workSet)
	}
	r.epochs = append(r.epochs, ep)
	r.epoch++
}

// SetOps records a node's dispatched-op count (the simulator folds each
// interpreter context's counter in at completion).
func (r *Recorder) SetOps(node int, ops uint64) {
	if r == nil {
		return
	}
	r.ops[node] = ops
}

// Var returns the per-variable directive tally recorded for a labelled
// shared variable; the zero VarStats if the variable saw no directives.
func (r *Recorder) Var(name string) VarStats {
	if r == nil {
		return VarStats{Name: name}
	}
	if v := r.vars[name]; v != nil {
		return *v
	}
	return VarStats{Name: name}
}

// sortedVars returns the per-variable tallies ordered by name.
func (r *Recorder) sortedVars() []VarStats {
	out := make([]VarStats, 0, len(r.vars))
	for _, v := range r.vars {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
