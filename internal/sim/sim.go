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
	Costs     dir1sw.Costs
	Mode      Mode

	// Quantum is how many cycles the running processor may get ahead of the
	// minimum runnable clock before yielding; WWT used the network latency.
	Quantum uint64

	// BarrierBase and BarrierPerNode model barrier synchronization cost:
	// all nodes leave the barrier at max(arrival) + BarrierBase +
	// BarrierPerNode*log2(Nodes).
	BarrierBase    uint64
	BarrierPerNode uint64

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
	// of dirty blocks (see dir1sw.Config.PostStore).
	PostStore bool

	// FullMap swaps Dir1SW for a full-map hardware directory (see
	// dir1sw.Protocol); used by the protocol-sensitivity ablation. Only
	// meaningful with the Dir1SW protocol.
	FullMap bool

	// Protocol selects the coherence protocol by spec string (see
	// coherence.ParseSpec): "dir1sw" (the default for ""), "dirnnb[:n]"
	// (n-pointer, broadcast-free), or "dirnb[:n]" (n-pointer, broadcast on
	// overflow). FullMap and PostStore are Dir1SW-specific and reject any
	// other protocol.
	Protocol string

	// Probe enables the Dir1SW per-access invariant probe
	// (dir1sw.Config.Probe): every access and directive re-validates the
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

	// TreeWalk forces the interpreter's tree-walking reference
	// implementation instead of the bytecode VM. The two are maintained to
	// produce identical Machine call sequences; the conformance harness
	// runs both and compares, and this switch is how it (or a suspicious
	// user) pins the reference path.
	TreeWalk bool

	// Parallel selects the epoch-parallel engine (see parallel.go): node
	// interpreters run speculatively on real goroutines and their protocol
	// events are committed by a single merge goroutine in the exact order
	// the sequential scheduler produces, so every simulated result — cycles,
	// stats, output, Snapshot, timeline — is bit-identical to Parallel == 0.
	// The value caps how many node interpreters execute concurrently;
	// ParallelAuto uses GOMAXPROCS. 0 (the default) runs sequentially. A
	// speculation conflict (a racy program whose cross-node data flow is not
	// lock- or barrier-ordered) falls back to one sequential re-run.
	Parallel int

	// Lanes selects the lane-batched engine (see lanes.go): all node
	// interpreters step as resumable lanes of one goroutine (SoA frame
	// banks, an execution mask, and an epoch bucket for barrier releases
	// instead of heap churn), and the memory system batches same-block
	// access runs (coherence batch.go). Scheduling decisions, and therefore
	// every simulated result — cycles, per-node cycles, stats, memory
	// image, output, Snapshot, timeline — are bit-identical to the
	// sequential engine's. A program the lane stepper cannot run (tree-walk
	// forced, or a function that did not compile) falls back to one
	// sequential run. When combined with Parallel, the epoch producers use
	// the lane interpreter in run-to-completion mode.
	Lanes bool
}

// ParallelAuto sizes Config.Parallel to runtime.GOMAXPROCS(0).
const ParallelAuto = -1

// DefaultConfig is the paper's machine: 32 nodes, 256 KB 4-way caches,
// 32-byte blocks.
func DefaultConfig() Config {
	return Config{
		Nodes:          32,
		CacheSize:      256 * 1024,
		Assoc:          4,
		BlockSize:      32,
		Costs:          dir1sw.DefaultCosts(),
		Quantum:        100,
		BarrierBase:    80,
		BarrierPerNode: 10,
		LockAcquire:    60,
		LockTransfer:   40,
		SelfCheck:      true,
	}
}

// Result reports a completed simulation.
type Result struct {
	// Engine names the execution engine that produced the result:
	// "sequential", "parallel", or "sequential (conflict fallback)" when a
	// Parallel run hit a speculation conflict and was re-run sequentially.
	Engine string

	// Protocol is the coherence protocol's display name ("Dir1SW",
	// "FullMap", "Dir4NB", "Dir4B", ...).
	Protocol string

	Cycles     uint64   // execution time: max node completion clock
	NodeCycles []uint64 // per-node completion clocks
	Stats      dir1sw.Stats
	Trace      *trace.Trace // non-nil in ModeTrace
	Output     []string     // print statements, in schedule order
	Layout     *memory.Layout
	Store      *interp.Store

	// Sharing-degree inputs (paper Section 6 discussion): shared vs private
	// array references per node.
	SharedReads  []uint64
	SharedWrites []uint64
	Barriers     int // completed global barriers

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
	resume  chan resumeMsg
	arrival uint64 // clock when the proc last blocked at a barrier
}

type resumeMsg struct {
	abort bool
}

var (
	errAborted = errors.New("sim: aborted")
	// errProcFault unwinds a processor whose program committed a machine
	// fault (e.g. unlocking a lock it does not hold); the fault is recorded
	// in runErr at the raise site and the processor terminates cleanly.
	errProcFault = errors.New("sim: processor fault")
)

type lockState struct {
	held    bool
	owner   int
	waiters []int // FIFO
}

// Machine implements interp.Machine and owns all simulation state.
//
// Single-owner invariant: a Machine belongs to exactly one Run call. Within
// a run, the proc goroutines and the coordinator hand execution off through
// channels so that at most one of them is ever active; all mutations happen
// inside that single active goroutine, which is why no field is locked.
// Concurrent simulations (e.g. the parallel bench harness) must each call
// Run and get their own Machine — sharing one across goroutines, or calling
// interp.Machine methods from outside the run's own proc goroutines, is a
// data race.
type Machine struct {
	cfg    Config
	prog   *parc.Program
	layout *memory.Layout
	store  *interp.Store
	sys    *dir1sw.System

	procs            []*proc
	waiting          int // procs blocked at the barrier
	pendingBarrierPC int // barrier statement the current waiters sit at
	done             int
	locks            map[int64]*lockState
	wake             chan struct{} // coordinator wakeup

	// ready holds the parked runnable processors; limit caches
	// ready.min().clock + Quantum (MaxUint64 when the heap is empty) so the
	// running processor's keep-running test is a single compare. The cache is
	// refreshed after every heap mutation.
	ready readyHeap
	limit uint64

	builder  *trace.Builder
	barriers int
	outputs  []string
	runErr   error

	sharedReads  []uint64
	sharedWrites []uint64
	rec          *obs.Recorder // nil when recording is disabled
	blockSz      uint64        // cache block size, for block-number computation

	// par is non-nil when this machine is driven by the epoch-parallel
	// committer (parallel.go) instead of per-processor goroutines; the
	// scheduler seam in yieldSwitch consults it instead of parking.
	par *parEngine

	// lanes is non-nil when this machine is driven by the lane-batched
	// engine (lanes.go): every processor is a resumable lane of one
	// goroutine, context switches retarget which lane Resume steps next,
	// and shared accesses resolve through the memory system's batched path.
	lanes *laneEngine

	added struct {
		privReads  uint64
		privWrites uint64
	}
}

// Run simulates prog under cfg.
func Run(prog *parc.Program, cfg Config) (*Result, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sim: need at least one node")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 1
	}
	if cfg.Mode == ModeTrace {
		cfg.IgnoreDirectives = true
	}
	if cfg.Parallel != 0 && cfg.Nodes > 1 {
		res, err, ok := runParallel(prog, cfg)
		if ok {
			return res, err
		}
		// Speculation conflict: the program's cross-node data flow is not
		// ordered by barriers or locks, so the epoch logs cannot commit.
		// Re-run sequentially — the authoritative semantics — after wiping
		// anything the discarded attempt fed the recorder.
		if cfg.Recorder != nil {
			cfg.Recorder.Reset()
		}
		res, err = runSequential(prog, cfg)
		if res != nil {
			res.Engine = engineSeqFallback
		}
		return res, err
	}
	if cfg.Lanes {
		res, err, ok := runLanes(prog, cfg)
		if ok {
			return res, err
		}
		// The lane stepper refused the program (tree-walk forced, or a
		// function fell back to the tree-walking interpreter). Re-run on
		// the sequential engine after wiping anything the abandoned
		// attempt fed the recorder.
		if cfg.Recorder != nil {
			cfg.Recorder.Reset()
		}
		res, err = runSequential(prog, cfg)
		if res != nil {
			res.Engine = engineLanesFallback
		}
		return res, err
	}
	return runSequential(prog, cfg)
}

// Engine names reported in Result.Engine.
const (
	engineSequential    = "sequential"
	engineParallel      = "parallel"
	engineLanes         = "lanes"
	engineSeqFallback   = "sequential (conflict fallback)"
	engineLanesFallback = "sequential (lanes fallback)"
)

// runSequential is the original engine: one goroutine per simulated
// processor, exactly one unparked at a time.
func runSequential(prog *parc.Program, cfg Config) (*Result, error) {
	m, ctxs, err := newMachine(prog, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		go m.runProc(ctxs[i], m.procs[i])
	}

	// Start processor 0 and wait for the machine to finish or fail. All
	// other processors begin parked and runnable at clock 0.
	for i := 1; i < cfg.Nodes; i++ {
		m.ready.push(m.procs[i])
	}
	m.refreshLimit()
	m.procs[0].resume <- resumeMsg{}
	<-m.wake

	// Unblock any still-parked goroutines so they exit.
	for _, p := range m.procs {
		if p.status != statusDone {
			p.resume <- resumeMsg{abort: true}
		}
	}
	res, err := m.buildResult(ctxs)
	if res != nil {
		res.Engine = engineSequential
	}
	return res, err
}

// newMachine builds the simulation state shared by both engines: layout,
// store, memory system, processors, and one interpreter context per node.
func newMachine(prog *parc.Program, cfg Config) (*Machine, []*interp.Context, error) {
	layout, err := memory.New(prog, cfg.BlockSize)
	if err != nil {
		return nil, nil, err
	}
	proto, err := protocolFor(cfg)
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}
	m := &Machine{
		cfg:          cfg,
		prog:         prog,
		layout:       layout,
		store:        interp.NewStoreFor(layout),
		sys:          sys,
		locks:        make(map[int64]*lockState),
		wake:         make(chan struct{}, 1),
		sharedReads:  make([]uint64, cfg.Nodes),
		sharedWrites: make([]uint64, cfg.Nodes),
		rec:          cfg.Recorder,
		blockSz:      uint64(cfg.BlockSize),
	}
	if cfg.Mode == ModeTrace {
		m.builder = trace.NewBuilder(cfg.Nodes, cfg.BlockSize, layout.Labels())
	}
	for i := 0; i < cfg.Nodes; i++ {
		m.procs = append(m.procs, &proc{id: i, resume: make(chan resumeMsg)})
	}

	ctxs := make([]*interp.Context, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		ctxs[i] = interp.NewContext(prog, m.store, m, i, cfg.Nodes)
		if cfg.TreeWalk {
			ctxs[i].UseTreeWalker()
		}
		ctxs[i].CountOps(cfg.Recorder != nil)
	}
	return m, ctxs, nil
}

// protocolFor resolves Config.Protocol (plus the Dir1SW-specific FullMap
// and PostStore switches) into a coherence.Protocol.
func protocolFor(cfg Config) (coherence.Protocol, error) {
	spec, err := coherence.ParseSpec(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if spec.Name != coherence.SpecDir1SW {
		if cfg.FullMap {
			return nil, fmt.Errorf("sim: FullMap is a Dir1SW ablation; protocol %q already has hardware pointers", spec)
		}
		if cfg.PostStore {
			return nil, fmt.Errorf("sim: PostStore refills past holders behind the pointer directory and is only modelled for Dir1SW, not %q", spec)
		}
	}
	switch spec.Name {
	case coherence.SpecDirnNB:
		return dirn.NB(spec.N), nil
	case coherence.SpecDirnB:
		return dirn.B(spec.N), nil
	default:
		return dir1sw.Protocol(cfg.FullMap), nil
	}
}

// buildResult is the shared run epilogue: surface run errors, validate the
// protocol probe, and assemble the Result (stats, snapshot, trace).
func (m *Machine) buildResult(ctxs []*interp.Context) (*Result, error) {
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
		privReads:    m.added.privReads,
		privWrites:   m.added.privWrites,
	}
	for i, p := range m.procs {
		res.NodeCycles[i] = p.clock
		if p.clock > res.Cycles {
			res.Cycles = p.clock
		}
	}
	if m.rec != nil {
		m.rec.Finish(res.NodeCycles)
		for i, ctx := range ctxs {
			m.rec.SetOps(i, ctx.OpsDispatched())
		}
		res.Snapshot = m.rec.Snapshot(res.Cycles, res.NodeCycles, m.barriers, sys.Stats.Protocol())
		res.Snapshot.ProtocolName = res.Protocol
	}
	if m.builder != nil {
		vts := make([]uint64, cfg.Nodes)
		for i, p := range m.procs {
			vts[i] = p.clock
		}
		m.builder.EndEpoch(-1, vts, true)
		tr := m.builder.Trace()
		tr.SortMisses()
		res.Trace = tr
	}
	return res, nil
}

// runProc is each processor's goroutine body.
func (m *Machine) runProc(ctx *interp.Context, p *proc) {
	if msg := <-p.resume; msg.abort {
		return
	}
	err := m.runInterp(ctx)
	if errors.Is(err, errAborted) {
		return // coordinator shut us down mid-run; touch nothing
	}
	pr, pw := ctx.PrivateAccesses()
	m.finishProc(p, err, pr, pw)
}

// finishProc retires a completed (or faulted) processor: folds its private
// access counters into the machine, records completion, surfaces its error,
// releases a barrier it was the last straggler for, and yields its place in
// the schedule. Both engines terminate processors through this path.
func (m *Machine) finishProc(p *proc, err error, privReads, privWrites uint64) {
	m.added.privReads += privReads
	m.added.privWrites += privWrites
	p.status = statusDone
	if m.lanes != nil {
		m.lanes.mask.Remove(p.id)
	}
	m.rec.NodeDone(p.id, p.clock)
	m.done++
	if err != nil && m.runErr == nil && !errors.Is(err, errProcFault) {
		m.runErr = err
	}
	// A finishing processor may be the last thing a barrier was waiting on.
	if m.waiting > 0 && m.waiting == m.activeProcs() {
		m.releaseBarrier(m.pendingBarrierPC, p.id)
	}
	m.yield(p)
}

// runInterp executes the processor's program, converting the machine's
// control panics (abort, processor fault) back into errors.
func (m *Machine) runInterp(ctx *interp.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && (errors.Is(e, errAborted) || errors.Is(e, errProcFault)) {
				err = e
				return
			}
			panic(r)
		}
	}()
	return ctx.Run()
}

// park blocks the calling proc until resumed, aborting via panic if the
// coordinator is shutting down.
func (m *Machine) park(p *proc) {
	if msg := <-p.resume; msg.abort {
		panic(errAborted)
	}
}

// yield hands control to the runnable processor with the smallest clock. If
// the caller remains the best choice (within the quantum) it simply returns.
// When nothing is runnable it wakes the coordinator (completion or
// deadlock).
//
// The fast path is the cycle batch that lets plain cache hits and local Work
// stay on the running goroutine: while the caller's clock is within the
// cached limit (smallest parked runnable clock + quantum) no scheduler state
// is touched at all — the accumulated cycles are only reconciled against the
// heap when the quantum is exceeded or the caller blocks. The decision
// points and their outcomes are identical to the original O(P) scan: the
// scan kept the caller running iff its clock was within one quantum of the
// smallest runnable clock, which is exactly what limit encodes.
func (m *Machine) yield(p *proc) {
	if p.status == statusReady && p.clock <= m.limit {
		return // keep running
	}
	m.yieldSwitch(p)
}

// refreshLimit recomputes the running processor's keep-running bound after a
// heap mutation. On the lane engine the barrier-release bucket also holds
// runnable processors, so the bound covers it too.
func (m *Machine) refreshLimit() {
	lo := ^uint64(0)
	if m.ready.len() > 0 {
		lo = m.ready.min().clock
	}
	if m.lanes != nil && m.lanes.bucketLen > 0 && m.lanes.bucketClock < lo {
		lo = m.lanes.bucketClock
	}
	if lo == ^uint64(0) {
		m.limit = lo
	} else {
		m.limit = lo + m.cfg.Quantum
	}
}

// yieldSwitch is yield's slow path: hand off to the heap minimum, or wake
// the coordinator when nothing is runnable.
func (m *Machine) yieldSwitch(p *proc) {
	if m.lanes != nil {
		m.lanes.laneSwitch(p)
		return
	}
	if m.ready.len() == 0 {
		// Nothing else is runnable, and the caller cannot continue (a
		// runnable caller would have taken the fast path, since an empty
		// heap leaves the limit unbounded): the program completed, or every
		// remaining node is blocked (deadlock).
		if m.done < len(m.procs) && m.runErr == nil {
			m.runErr = fmt.Errorf("sim: deadlock: %d of %d nodes blocked (barrier waiters: %d)",
				len(m.procs)-m.done, len(m.procs), m.waiting)
		}
		if m.par != nil {
			m.par.halt = true
			return
		}
		m.wake <- struct{}{}
		if p.status != statusDone {
			m.park(p) // blocks until the coordinator aborts us
		}
		return
	}
	q := m.ready.min()
	m.rec.Handoff()
	if p.status == statusReady {
		// The common handoff: the caller stays runnable, so it takes the
		// popped minimum's slot directly (one sift-down instead of
		// pop+push), and the new limit is read off the root without the
		// empty-heap test refreshLimit would repeat.
		m.ready.replaceMin(p)
		m.limit = m.ready.min().clock + m.cfg.Quantum
	} else {
		m.ready.pop()
		m.refreshLimit()
	}
	if m.par != nil {
		// Epoch-parallel commit: the single committer goroutine drives every
		// processor, so a context switch is just retargeting which event
		// stream it consumes next — no parking, no channel handoff.
		m.par.cur = q
		return
	}
	// Decide our own fate BEFORE waking the next processor: after the send,
	// the woken chain runs concurrently with us and may mutate our status
	// (a barrier release flipping us back to ready), so reading it past the
	// handoff would race. A done processor never changes status again.
	amDone := p.status == statusDone
	q.resume <- resumeMsg{}
	if amDone {
		return
	}
	m.park(p)
}

// --- interp.Machine implementation ---

// Access implements interp.Machine.
func (m *Machine) Access(node int, write bool, addr uint64, pc int) {
	p := m.procs[node]
	var r dir1sw.Result
	if write {
		m.sharedWrites[node]++
		if m.lanes != nil {
			r = m.sys.WriteFast(node, addr, p.clock)
		} else {
			r = m.sys.Write(node, addr, p.clock)
		}
	} else {
		m.sharedReads[node]++
		if m.lanes != nil {
			r = m.sys.ReadFast(node, addr, p.clock)
		} else {
			r = m.sys.Read(node, addr, p.clock)
		}
	}
	p.clock += r.Cycles
	if m.builder != nil && r.Kind != dir1sw.Hit {
		m.builder.AddMiss(missKind(r.Kind), addr, pc, node)
	}
	if m.rec != nil {
		m.rec.Access(node, obsAccessKind(r.Kind), addr/m.blockSz, r.Cycles, r.Trap, p.clock)
	}
	m.yield(p)
}

func obsAccessKind(k dir1sw.AccessKind) obs.AccessKind {
	switch k {
	case dir1sw.Hit:
		return obs.Hit
	case dir1sw.ReadMiss:
		return obs.ReadMiss
	case dir1sw.WriteMiss:
		return obs.WriteMiss
	default:
		return obs.WriteFault
	}
}

func missKind(k dir1sw.AccessKind) trace.Kind {
	switch k {
	case dir1sw.ReadMiss:
		return trace.ReadMiss
	case dir1sw.WriteMiss:
		return trace.WriteMiss
	default:
		return trace.WriteFault
	}
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
			var r dir1sw.Result
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
			dk := obsDirKind(kind)
			m.rec.Directive(node, dk, blocks, p.clock)
			if reg, _, ok := m.layout.Resolve(ar.Lo); ok {
				m.rec.VarDirective(reg.Name, dk, blocks)
			}
		}
	}
	m.yield(p)
}

func obsDirKind(kind parc.AnnKind) obs.DirKind {
	switch kind {
	case parc.AnnCheckOutX:
		return obs.DirCheckOutX
	case parc.AnnCheckOutS:
		return obs.DirCheckOutS
	case parc.AnnCheckIn:
		return obs.DirCheckIn
	case parc.AnnPrefetchX:
		return obs.DirPrefetchX
	default:
		return obs.DirPrefetchS
	}
}

// Barrier implements interp.Machine.
func (m *Machine) Barrier(node int, pc int) {
	p := m.procs[node]
	p.status = statusBarrier
	p.arrival = p.clock
	if m.lanes != nil {
		m.lanes.mask.Remove(node)
	}
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
// caches and closes the trace epoch in trace mode. Released processors are
// returned to the ready heap, except the active one (identified by its
// processor ID), whose fate the subsequent yield decides.
func (m *Machine) releaseBarrier(pc int, active int) {
	var maxClock uint64
	for _, q := range m.procs {
		if q.status == statusBarrier && q.arrival > maxClock {
			maxClock = q.arrival
		}
	}
	release := maxClock + m.cfg.BarrierBase + m.cfg.BarrierPerNode*log2(len(m.procs))
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
			if m.lanes != nil {
				// Lane engine: released lanes enter the epoch bucket —
				// one shared clock and a node-set instead of per-proc heap
				// pushes. The bucket is empty here: a barrier only releases
				// when every non-done processor is parked at it, and a
				// bucketed lane cannot have reached the barrier without
				// first being scheduled out of the bucket.
				m.lanes.mask.Add(q.id)
				if q.id != active {
					m.lanes.bucket.Add(q.id)
					m.lanes.bucketLen++
					m.lanes.bucketClock = release
				}
			} else if q.id != active {
				m.ready.push(q)
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
	if m.par != nil {
		// Epoch boundary on the parallel engine: every live producer is
		// blocked on its barrier ack, so this is the one quiescent point
		// where the epoch-start shadow image can absorb the epoch's
		// committed writes before the producers speculate onward.
		m.par.epochRoll()
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
	if m.lanes != nil {
		m.lanes.mask.Remove(node)
	}
	m.yield(p)
}

// Unlock implements interp.Machine.
func (m *Machine) Unlock(node int, id int64, pc int) {
	if err := m.unlockCore(node, id); err != nil {
		if m.lanes != nil {
			// Lane engine: no goroutine to unwind. Mark the lane's stepper
			// done so it never dispatches again and retire the processor —
			// the same terminal state the sequential panic path reaches.
			m.lanes.kill(node)
			return
		}
		// Terminate this processor: unwind its interpreter so it cannot
		// keep executing concurrently with whoever is scheduled next.
		panic(err)
	}
}

// unlockCore releases a lock and hands it to the head waiter. A release of a
// lock the node does not hold is a machine fault: it is recorded in runErr
// and errProcFault is returned so the caller can terminate the processor —
// by panic on the sequential engine, by killing the producer on the parallel
// one.
func (m *Machine) unlockCore(node int, id int64) error {
	p := m.procs[node]
	ls := m.locks[id]
	if ls == nil || !ls.held || ls.owner != node {
		if m.runErr == nil {
			m.runErr = fmt.Errorf("sim: node %d unlocked lock %d it does not hold", node, id)
		}
		return errProcFault
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
		if m.lanes != nil {
			m.lanes.mask.Add(w)
		}
		m.ready.push(q)
		m.refreshLimit()
	} else {
		ls.held = false
	}
	m.yield(p)
	return nil
}

// Work implements interp.Machine.
func (m *Machine) Work(node int, cycles uint64) {
	p := m.procs[node]
	p.clock += cycles
	m.rec.Work(node, cycles)
	m.yield(p)
}

// Print implements interp.Machine.
func (m *Machine) Print(node int, text string) {
	m.outputs = append(m.outputs, fmt.Sprintf("node %d: %s", node, text))
	m.yield(m.procs[node])
}
