// Package sim is the reproduction's Wisconsin Wind Tunnel: an
// execution-driven simulator that runs a ParC program on P simulated
// processors over the Dir1SW memory system. Like WWT it uses virtual
// prototyping — local computation is charged to a node's virtual clock
// without detailed simulation, and only shared-memory events are modelled in
// detail (paper Section 3.2).
//
// Scheduling is deterministic: exactly one processor executes at a time, and
// control passes to the runnable processor with the smallest virtual clock
// (ties broken by processor ID) whenever the running processor gets more
// than one scheduling quantum ahead. Identical inputs therefore produce
// identical traces, statistics, and execution times.
//
// Internally the runnable set is a min-heap keyed by (clock, processor ID),
// and the running processor batches cycles — local work and plain cache
// hits — against a cached quantum limit, touching the scheduler only when
// the quantum is exceeded or a protocol-visible event (miss, directive,
// barrier, lock, print) forces a scheduling decision. Both are pure
// optimizations: the schedule, and therefore every simulated result, is
// bit-identical to the original linear-scan scheduler's.
//
// One loop (sched.go) executes the schedule by resuming processors as
// lanes. The production engine, "lanes", runs each processor's compiled
// bytecode on a resumable VM, which charges local work and counts cache hits
// in place through a view of its node's state (LaneView, sched.go). The
// reference engine runs the tree-walking interpreter instead, as the lanes
// the oracle also drives (interp.TreeLane), every event a Machine call;
// only Config.TreeWalk selects it. The conformance harness holds the two
// bit-identical on every result. A third kind of lane executes no ParC at
// all: Replay (events.go) drives the same machine from ready-made event
// streams, which is how the static annotator gets its trace.
//
// In trace mode the simulator additionally flushes every node's shared-data
// cache at each barrier and records all misses, producing the paper's
// Figure 3 trace for Cachier; CICO annotations are ignored so the trace
// reflects the unannotated program.
package sim

import (
	"errors"
	"fmt"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
	"cachier/internal/dirn"
	"cachier/internal/interp"
	"cachier/internal/memory"
	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/trace"
)

// Mode selects the simulator's purpose.
type Mode int

// Simulation modes.
const (
	// ModePerf runs the program with CICO statements executed as Dir1SW
	// directives and reports execution time and protocol statistics.
	ModePerf Mode = iota
	// ModeTrace runs the (unannotated) program with barrier cache flushes
	// and records the miss trace for Cachier; CICO statements are ignored.
	ModeTrace
)

// Config configures a simulation run.
type Config struct {
	Nodes     int
	CacheSize int
	Assoc     int
	BlockSize int
	Costs     coherence.Costs
	Mode      Mode

	// Quantum is how many cycles the running processor may get ahead of the
	// minimum runnable clock before yielding; WWT used the network latency.
	Quantum uint64

	// LockAcquire is the cost of an uncontended lock acquire or release;
	// LockTransfer is the extra handoff cost to a waiting node.
	LockAcquire  uint64
	LockTransfer uint64

	// IgnoreDirectives disables CICO statements (used for the unannotated
	// baseline and implied by ModeTrace).
	IgnoreDirectives bool

	// DisablePrefetch ignores prefetch_x/prefetch_s while still honouring
	// check-out/check-in, enabling the paper's with/without-prefetch
	// comparison on the same source.
	DisablePrefetch bool

	// SelfCheck validates the protocol's coherence invariants at every
	// barrier (single writer, directory/cache agreement); a violation
	// aborts the run. Cheap relative to simulation; on by default.
	SelfCheck bool

	// PostStore enables the KSR-1-style post-store semantics for check-ins
	// of dirty blocks (see coherence.Config.PostStore).
	PostStore bool

	// Protocol selects the coherence protocol by spec string (see
	// coherence.ParseSpec): "dir1sw" (the default for ""), "dirnnb[:n]"
	// (n-pointer, broadcast-free), or "dirnb[:n]" (n-pointer, broadcast on
	// overflow); "dirnnb:<nodes>" is the full-map hardware directory.
	// PostStore is Dir1SW-specific and rejects any other protocol.
	Protocol string

	// Probe enables the per-access invariant probe
	// (coherence.Config.Probe): every access and directive re-validates the
	// coherence invariants on the blocks it touched, and the first
	// violation fails the run at the next barrier (or at completion).
	// O(nodes) per access — for conformance testing, not performance runs.
	Probe bool

	// Recorder, when non-nil, receives the run's structured metrics (see
	// internal/obs): per-node per-epoch access and trap counts, directory
	// transitions, directive tallies, and optionally a timeline (call
	// EnableTimeline before Run). Recording never changes simulated
	// results; nil disables it at the cost of a branch per event.
	Recorder *obs.Recorder

	// TreeWalk runs the program on the reference engine: the tree-walking
	// interpreter, as lanes of the same scheduler (interp.TreeLane, the lane
	// the oracle drives too) with no lane view. The reference and the production
	// engine are maintained to produce identical Machine call sequences and
	// therefore identical results; the conformance harness runs both and
	// compares every surface, and this switch is how it (or a suspicious
	// user) pins the reference path.
	TreeWalk bool

	// CycleBudget bounds the run's simulated time in node-cycles; 0 is
	// unbounded. It is enforced as a per-node clock bound of CycleBudget /
	// Nodes: the run ends with ErrCycleBudget as soon as the scheduler meets
	// a processor whose clock is past it, so a program that never terminates
	// costs a bounded amount of host time instead of the caller's thread.
	CycleBudget uint64

	// Parallel is ignored. It selected an engine that no longer exists and
	// stays only because benchmark/fig6.go, which a PR outside the
	// benchmark archetype may not edit, assigns it; the next benchmark PR
	// removes the assignment and this field.
	Parallel int

	// Lanes is ignored, for the same reason as Parallel: benchmark/fig6.go
	// assigns it. The engine it selected is the only production engine now.
	// The next benchmark PR removes the assignment and this field.
	Lanes bool
}

// DefaultConfig is the paper's machine: 32 nodes, 256 KB 4-way caches,
// 32-byte blocks.
func DefaultConfig() Config {
	return Config{
		Nodes:        32,
		CacheSize:    256 * 1024,
		Assoc:        4,
		BlockSize:    32,
		Costs:        coherence.DefaultCosts(),
		Quantum:      100,
		LockAcquire:  60,
		LockTransfer: 40,
		SelfCheck:    true,
	}
}

// barrierBase and barrierPerNode model barrier synchronization cost: all
// nodes leave a barrier at max(arrival) + barrierBase +
// barrierPerNode*log2(Nodes) cycles.
const (
	barrierBase    = 80
	barrierPerNode = 10
)

// ErrCycleBudget is the error of a run that Config.CycleBudget cut short.
var ErrCycleBudget = errors.New("sim: cycle budget exceeded")

// MaxOutputBytes bounds what one run may print, counted over the lines of
// Result.Output. Programs arrive from outside (cachierd, the CLIs), and a
// print in an endless loop would otherwise grow the output until the host
// runs out of memory long before any cycle budget ends the run. The largest
// output of any checked-in program or corpus seed is 87 376 bytes (parcgen
// seed 787 on 1 024 nodes, cachierd's widest machine); 1 MB is 12 times that.
const MaxOutputBytes = 1 << 20

// ErrOutputLimit is the error of a run that printed more than
// MaxOutputBytes; the run halts at the print that crossed the bound.
var ErrOutputLimit = errors.New("sim: output limit exceeded")

// MaxBarriers and MaxBarrierArrivals bound the barrier episodes one run may
// complete: at most MaxBarriers, and at most MaxBarrierArrivals / Nodes, so
// that episodes times nodes stays bounded too. Every episode adds state that
// lives until the run ends (trace epochs, the recorder's epoch and per-node
// records), so a barrier in an endless loop would otherwise exhaust the
// host's memory long before a cycle budget ends the run. At these bounds an
// endless barrier loop under a recorder (no timeline) peaked under 150 MB of
// heap on every machine from 1 to 1 024 nodes. The most any checked-in
// program completes is 19 (Ocean at paper scale, on 32 nodes); the most any
// corpus seed completes is 5.
const (
	MaxBarriers        = 1 << 16
	MaxBarrierArrivals = 1 << 20
)

// ErrBarrierLimit is the error of a run that reached a barrier after
// completing as many episodes as MaxBarriers and MaxBarrierArrivals allow;
// the run halts there, with the episode unreleased.
var ErrBarrierLimit = errors.New("sim: barrier limit exceeded")

// Result reports a completed simulation.
type Result struct {
	// Engine names the execution engine that produced the result: "lanes",
	// the production engine (compiled bytecode stepped as resumable lanes),
	// or "reference", the tree-walking interpreter, only when Config.TreeWalk
	// asks for it. A Replay reports "events".
	Engine string

	// Protocol is the coherence protocol's display name ("Dir1SW",
	// "Dir4NB", "Dir4B", ...).
	Protocol string

	Cycles     uint64   // execution time: max node completion clock
	NodeCycles []uint64 // per-node completion clocks
	Stats      coherence.Stats
	Trace      *trace.Trace // non-nil in ModeTrace
	Output     []string     // print statements, in schedule order
	Layout     *memory.Layout
	Store      *interp.Store // nil from Replay, which executes no program

	// Sharing-degree inputs (paper Section 6 discussion): shared vs private
	// array references per node.
	SharedReads  []uint64
	SharedWrites []uint64
	Barriers     int // completed global barriers

	// AccessCalls is the shared references that reached Machine.Access, the
	// rest being hits a lane counted through its view: what make profile
	// attributes host time with.
	AccessCalls uint64

	privReads  uint64 // private-array loads, summed over nodes
	privWrites uint64 // private-array stores, summed over nodes

	// Snapshot is the run's structured stats tree, non-nil iff a Recorder
	// was configured. Per-variable directive tallies (Section 5's
	// restructuring comparison counts check-outs of the result matrix
	// specifically) live in Snapshot.Vars / Recorder.Var.
	Snapshot *obs.Snapshot
}

// SharingDegree returns the fraction of (array) loads and stores that
// touched shared data, aggregated over nodes.
func (r *Result) SharingDegree() (loads, stores float64) {
	var sr, sw uint64
	for i := range r.SharedReads {
		sr += r.SharedReads[i]
		sw += r.SharedWrites[i]
	}
	// Private array accesses are counted by the interpreter contexts and
	// folded in by Run.
	// The two ratios are independent: a program with no stores still has a
	// well-defined load-sharing degree, and vice versa.
	tl := sr + r.privReads
	ts := sw + r.privWrites
	if tl > 0 {
		loads = float64(sr) / float64(tl)
	}
	if ts > 0 {
		stores = float64(sw) / float64(ts)
	}
	return loads, stores
}

type procStatus int

const (
	statusReady procStatus = iota
	statusBarrier
	statusLock
	statusDone
)

type proc struct {
	id      int
	clock   uint64
	status  procStatus
	arrival uint64 // clock when the proc last blocked at a barrier
}

type lockState struct {
	held    bool
	owner   int
	waiters []int // FIFO
}

// lane is one processor's interpreter as the scheduler drives it. Resume
// runs it until the machine schedules another processor (or the run halts)
// and reports whether its program has ended; Err is that ending's error.
// Kill ends a lane from outside its program: it never executes another
// statement, and its next Resume reports it done with a nil Err.
// *interp.LaneVM is the production implementation, *interp.TreeLane the
// reference one, and eventLane (events.go) replays a ready-made stream.
type lane interface {
	Resume() interp.LaneStatus
	Kill()
	Err() error
}

// Machine implements interp.Machine and owns all simulation state.
//
// Single-owner invariant: a Machine belongs to exactly one Run call, and
// within a run exactly one flow of control is active: the scheduler loop
// (sched.go) or the lane it resumed. No field is locked. Concurrent
// simulations (e.g. the parallel bench harness) must each call Run and get
// their own Machine — sharing one across goroutines, or calling
// interp.Machine methods from outside the run's own lanes, is a data race.
type Machine struct {
	cfg    Config
	prog   *parc.Program
	layout *memory.Layout
	store  *interp.Store
	sys    *coherence.System

	procs            []*proc
	ctxs             []*interp.Context
	lanes            []lane
	waiting          int // procs blocked at the barrier
	pendingBarrierPC int // barrier statement the current waiters sit at
	done             int
	locks            map[int64]*lockState

	// Scheduler state (sched.go). cur is the running processor; ready holds
	// the parked runnable ones, except those the last barrier released,
	// which sit in the epoch bucket; limit caches the smallest parked
	// runnable clock + Quantum (MaxUint64 when nothing is parked) so the
	// running processor's keep-running test is a single compare. The cache
	// is refreshed after every heap or bucket mutation. clockBound is the
	// cycle budget's per-node share (MaxUint64 when unbounded), which limit
	// never exceeds. halt ends the run.
	cur         *proc
	ready       readyHeap
	bucket      coherence.NodeSet
	bucketClock uint64
	bucketLen   int
	limit       uint64
	clockBound  uint64
	halt        bool

	builder     *trace.Builder
	barriers    int
	outputs     []string
	outputBytes int // summed length of outputs, bounded by MaxOutputBytes
	runErr      error

	accessCalls uint64 // see Result

	sharedReads  []uint64
	sharedWrites []uint64
	rec          *obs.Recorder // nil when recording is disabled
	blockSz      uint64        // cache block size, for block-number computation
}

// Engine names reported in Result.Engine.
const (
	engineLanes     = "lanes"
	engineReference = "reference"
	engineEvents    = "events" // Replay
)

// Run simulates prog under cfg.
func Run(prog *parc.Program, cfg Config) (*Result, error) {
	m, err := newMachine(prog, cfg)
	if err != nil {
		return nil, err
	}
	m.store = interp.NewStoreFor(m.layout)
	m.ctxs = make([]*interp.Context, cfg.Nodes)
	if cfg.TreeWalk {
		for i := range m.procs {
			m.ctxs[i] = m.newContext(i, m)
			m.lanes[i] = m.ctxs[i].NewTreeLane(m)
		}
		return m.finish(engineReference)
	}
	if err := m.compiledLanes(); err != nil {
		return nil, err
	}
	return m.finish(engineLanes)
}

// finish runs the attached lanes to completion and assembles the Result.
func (m *Machine) finish(engine string) (*Result, error) {
	m.run()
	res, err := m.buildResult()
	if res != nil {
		res.Engine = engine
	}
	return res, err
}

// newMachine normalises cfg and builds the simulation state every engine
// shares: layout, memory system, and processors. The lanes that execute the
// program are attached by the caller (Run: compiled or tree lanes, with the
// store and contexts interpreters need; Replay: event lanes).
func newMachine(prog *parc.Program, cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sim: need at least one node")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 1
	}
	if cfg.Mode == ModeTrace {
		cfg.IgnoreDirectives = true
	}
	layout, err := memory.New(prog, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	proto, err := protocolFor(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := coherence.New(coherence.Config{
		Nodes:     cfg.Nodes,
		CacheSize: cfg.CacheSize,
		Assoc:     cfg.Assoc,
		BlockSize: cfg.BlockSize,
		Costs:     cfg.Costs,
		PostStore: cfg.PostStore,
		AddrSpace: layout.TotalBytes(),
		Probe:     cfg.Probe,
		Recorder:  cfg.Recorder,
	}, proto)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:          cfg,
		prog:         prog,
		layout:       layout,
		sys:          sys,
		lanes:        make([]lane, cfg.Nodes),
		locks:        make(map[int64]*lockState),
		bucket:       coherence.NewNodeSet(cfg.Nodes),
		sharedReads:  make([]uint64, cfg.Nodes),
		sharedWrites: make([]uint64, cfg.Nodes),
		rec:          cfg.Recorder,
		blockSz:      uint64(cfg.BlockSize),
		clockBound:   ^uint64(0),
	}
	if cfg.CycleBudget > 0 {
		m.clockBound = cfg.CycleBudget / uint64(cfg.Nodes)
	}
	if cfg.Mode == ModeTrace {
		m.builder = trace.NewBuilder(cfg.Nodes, cfg.BlockSize, layout.Labels())
	}
	for i := 0; i < cfg.Nodes; i++ {
		m.procs = append(m.procs, &proc{id: i})
	}
	return m, nil
}

// newContext builds node's interpreter context; mach is the machine its
// program calls into.
func (m *Machine) newContext(node int, mach interp.Machine) *interp.Context {
	ctx := interp.NewContext(m.prog, m.store, mach, node, m.cfg.Nodes)
	ctx.CountOps(m.rec != nil)
	return ctx
}

// compiledLanes attaches the production lanes: every processor's compiled
// program on a resumable interp.LaneVM. It fails when the compiler refused
// the program; that is a property of the program, so node 0's context
// already says so.
func (m *Machine) compiledLanes() error {
	for i := range m.procs {
		ctx := m.newContext(i, m)
		lv, err := ctx.NewLaneVM(m)
		if err != nil {
			return err
		}
		m.ctxs[i], m.lanes[i] = ctx, lv
	}
	return nil
}

// protocolFor resolves Config.Protocol (plus the Dir1SW-specific PostStore
// switch) into a coherence.Protocol.
func protocolFor(cfg Config) (coherence.Protocol, error) {
	spec, err := coherence.ParseSpec(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if spec.Name != coherence.SpecDir1SW && cfg.PostStore {
		return nil, fmt.Errorf("sim: PostStore refills past holders behind the pointer directory and is only modelled for Dir1SW, not %q", spec)
	}
	switch spec.Name {
	case coherence.SpecDirnNB:
		return dirn.NB(spec.N), nil
	case coherence.SpecDirnB:
		return dirn.B(spec.N), nil
	default:
		return dir1sw.Protocol(), nil
	}
}

// buildResult is the run epilogue: surface run errors, validate the
// protocol probe, and assemble the Result (stats, snapshot, trace).
func (m *Machine) buildResult() (*Result, error) {
	cfg := m.cfg
	sys := m.sys
	if m.runErr != nil {
		return nil, m.runErr
	}
	if err := sys.ProbeError(); err != nil {
		return nil, fmt.Errorf("sim: invariant violation: %w", err)
	}

	res := &Result{
		Protocol:     sys.Protocol().Name(),
		NodeCycles:   make([]uint64, cfg.Nodes),
		Stats:        sys.Stats,
		Output:       m.outputs,
		Layout:       m.layout,
		Store:        m.store,
		SharedReads:  m.sharedReads,
		SharedWrites: m.sharedWrites,
		Barriers:     m.barriers,
		AccessCalls:  m.accessCalls,
	}
	for i, p := range m.procs {
		res.NodeCycles[i] = p.clock
		if p.clock > res.Cycles {
			res.Cycles = p.clock
		}
	}
	// What only an interpreter counts: private-array accesses and dispatched
	// ops. An event run has no contexts and reports none.
	for i, ctx := range m.ctxs {
		pr, pw := ctx.PrivateAccesses()
		res.privReads += pr
		res.privWrites += pw
		m.rec.SetOps(i, ctx.OpsDispatched())
	}
	if m.rec != nil {
		m.rec.Finish(res.NodeCycles)
		res.Snapshot = m.rec.Snapshot(res.Cycles, res.NodeCycles, m.barriers, sys.Stats.Protocol())
		res.Snapshot.ProtocolName = res.Protocol
	}
	if m.builder != nil {
		vts := make([]uint64, cfg.Nodes)
		for i, p := range m.procs {
			vts[i] = p.clock
		}
		m.builder.EndEpoch(-1, vts, true)
		res.Trace = m.builder.Trace() // each epoch in Miss.Compare order
	}
	return res, nil
}

// --- interp.Machine implementation ---

// Access implements interp.Machine.
func (m *Machine) Access(node int, write bool, addr uint64, pc int) {
	p := m.procs[node]
	m.accessCalls++
	// What this does for a hit (the node's reference count, the hit's cycles
	// onto the clock, yield's compare) coherence.LaneView.Hit and the lane do
	// without the call; keep them in step.
	var r coherence.Result
	if write {
		m.sharedWrites[node]++
		r = m.sys.Write(node, addr, p.clock)
	} else {
		m.sharedReads[node]++
		r = m.sys.Read(node, addr, p.clock)
	}
	p.clock += r.Cycles
	if m.builder != nil && r.Kind != trace.Hit {
		m.builder.AddMiss(r.Kind, addr, pc, node)
	}
	if m.rec != nil {
		m.rec.Access(node, r.Kind, addr/m.blockSz, r.Cycles, r.Trap, p.clock)
	}
	m.yield(p)
}

// Directive implements interp.Machine: CICO statements become Dir1SW
// directives, applied per cache block of the target ranges.
func (m *Machine) Directive(node int, kind parc.AnnKind, ranges []interp.AddrRange, pc int) {
	p := m.procs[node]
	if m.cfg.IgnoreDirectives {
		m.yield(p)
		return
	}
	if m.cfg.DisablePrefetch && (kind == parc.AnnPrefetchX || kind == parc.AnnPrefetchS) {
		m.yield(p)
		return
	}
	bs := m.blockSz
	for _, ar := range ranges {
		blocks := ar.Hi/bs - ar.Lo/bs + 1
		for b := ar.Lo / bs; b <= ar.Hi/bs; b++ {
			addr := b * bs
			var r coherence.Result
			switch kind {
			case parc.AnnCheckOutX:
				r = m.sys.CheckOutX(node, addr, p.clock)
			case parc.AnnCheckOutS:
				r = m.sys.CheckOutS(node, addr, p.clock)
			case parc.AnnCheckIn:
				r = m.sys.CheckIn(node, addr)
			case parc.AnnPrefetchX:
				r = m.sys.Prefetch(node, addr, p.clock, true)
			case parc.AnnPrefetchS:
				r = m.sys.Prefetch(node, addr, p.clock, false)
			}
			p.clock += r.Cycles
			if m.rec != nil && r.Trap {
				m.rec.DirectiveTrap(node, p.clock)
			}
		}
		if m.rec != nil {
			m.rec.Directive(node, kind, blocks, p.clock)
			if reg, _, ok := m.layout.Resolve(ar.Lo); ok {
				m.rec.VarDirective(reg.Name, kind, blocks)
			}
		}
	}
	m.yield(p)
}

// Barrier implements interp.Machine.
func (m *Machine) Barrier(node int, pc int) {
	p := m.procs[node]
	p.status = statusBarrier
	p.arrival = p.clock
	m.waiting++
	m.pendingBarrierPC = pc
	if m.waiting == m.activeProcs() {
		m.releaseBarrier(pc, p.id)
	}
	m.yield(p)
}

// activeProcs counts processors still participating in barriers.
func (m *Machine) activeProcs() int { return len(m.procs) - m.done }

// releaseBarrier completes a global barrier: synchronizes clocks, flushes
// caches and closes the trace epoch in trace mode. Released processors
// enter the scheduler's epoch bucket, except the active one (identified by
// its processor ID), whose fate the subsequent yield decides. An episode
// past the barrier bound halts the run with ErrBarrierLimit instead.
func (m *Machine) releaseBarrier(pc int, active int) {
	if m.barriers >= min(MaxBarriers, MaxBarrierArrivals/len(m.procs)) {
		if m.runErr == nil {
			m.runErr = ErrBarrierLimit
		}
		m.halt = true
		return
	}
	var maxClock uint64
	for _, q := range m.procs {
		if q.status == statusBarrier && q.arrival > maxClock {
			maxClock = q.arrival
		}
	}
	release := maxClock + barrierBase + barrierPerNode*log2(len(m.procs))
	if m.rec != nil {
		arrivals := make([]uint64, len(m.procs))
		for i, q := range m.procs {
			if q.status == statusBarrier {
				arrivals[i] = q.arrival
			} else {
				arrivals[i] = q.clock // already finished
			}
		}
		m.rec.BarrierEnd(pc, arrivals, release)
	}
	if m.builder != nil {
		vts := make([]uint64, len(m.procs))
		for i, q := range m.procs {
			vts[i] = q.arrival
		}
		m.builder.EndEpoch(pc, vts, false)
		for i := range m.procs {
			m.sys.FlushNode(i)
		}
	}
	for _, q := range m.procs {
		if q.status == statusBarrier {
			q.status = statusReady
			q.clock = release
			// One shared clock and a node-set instead of per-proc heap
			// pushes. The bucket is empty here: a barrier only releases
			// when every non-done processor is parked at it, and a
			// bucketed processor cannot have reached the barrier without
			// first being scheduled out of the bucket.
			if q.id != active {
				m.bucket.Add(q.id)
				m.bucketLen++
				m.bucketClock = release
			}
		}
	}
	m.refreshLimit()
	m.waiting = 0
	m.barriers++
	if m.cfg.SelfCheck && m.runErr == nil {
		if err := m.sys.CheckCoherence(); err != nil {
			m.runErr = fmt.Errorf("sim: coherence violation at barrier %d: %w", m.barriers, err)
		}
	}
	if m.runErr == nil {
		if err := m.sys.ProbeError(); err != nil {
			m.runErr = fmt.Errorf("sim: invariant violation by barrier %d: %w", m.barriers, err)
		}
	}
}

func log2(n int) uint64 {
	var l uint64
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Lock implements interp.Machine.
func (m *Machine) Lock(node int, id int64, pc int) {
	p := m.procs[node]
	ls := m.locks[id]
	if ls == nil {
		ls = &lockState{}
		m.locks[id] = ls
	}
	if !ls.held {
		ls.held = true
		ls.owner = node
		p.clock += m.cfg.LockAcquire
		m.yield(p)
		return
	}
	ls.waiters = append(ls.waiters, node)
	p.status = statusLock
	m.yield(p)
}

// Unlock implements interp.Machine: release the lock and hand it to the
// head waiter. A release of a lock the node does not hold is a machine
// fault: it is recorded as the run's error and the processor is retired on
// the spot, its lane killed so it never executes another statement.
func (m *Machine) Unlock(node int, id int64, pc int) {
	p := m.procs[node]
	ls := m.locks[id]
	if ls == nil || !ls.held || ls.owner != node {
		if m.runErr == nil {
			m.runErr = fmt.Errorf("sim: node %d unlocked lock %d it does not hold", node, id)
		}
		m.lanes[node].Kill()
		m.finishProc(p, nil)
		return
	}
	p.clock += m.cfg.LockAcquire
	if len(ls.waiters) > 0 {
		w := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.owner = w
		q := m.procs[w]
		q.status = statusReady
		if t := p.clock + m.cfg.LockTransfer; t > q.clock {
			q.clock = t
		}
		m.ready.push(q)
		m.refreshLimit()
	} else {
		ls.held = false
	}
	m.yield(p)
}

// Work implements interp.Machine.
func (m *Machine) Work(node int, cycles uint64) {
	p := m.procs[node]
	p.clock += cycles
	m.rec.Work(node, cycles)
	m.yield(p)
}

// Print implements interp.Machine. A line that takes the run's output past
// MaxOutputBytes halts the run with ErrOutputLimit instead.
func (m *Machine) Print(node int, text string) {
	line := fmt.Sprintf("node %d: %s", node, text)
	if m.outputBytes += len(line); m.outputBytes > MaxOutputBytes {
		if m.runErr == nil {
			m.runErr = ErrOutputLimit
		}
		m.halt = true
		return
	}
	m.outputs = append(m.outputs, line)
	m.yield(m.procs[node])
}
