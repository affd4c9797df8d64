package staticanno

// The coherent replay: a faithful re-implementation of the simulator's
// sequential scheduler (internal/sim) driven by inferred event streams
// instead of live interpreters. An isolated per-node cache replay gets the
// misses on privately-owned blocks right but is blind to cross-node
// interference on falsely-shared blocks — a partition boundary block that
// ping-pongs between two writers produces extra write misses, flips a
// write fault into a write miss (the other node's invalidation lands
// between the read and the write), and turns silent Exclusive hits into
// write faults (a remote read downgraded the copy). Those events are real:
// the paper's trace-driven Cachier sees them and places pinned annotations
// at the boundary. So the static pipeline replays all nodes' streams
// through the real coherence protocol under the simulator's own scheduling
// rule — run the lowest-clock processor, keep it running while it is
// within one quantum of the lowest parked runnable clock, switch on every
// memory-system call — and charges the simulator's protocol access, lock,
// and barrier costs.
//
// Local compute is charged too: the inference mode mirrors the VM's
// per-statement work accounting, flushing pending units to the stream at
// the VM's own 512-cycle boundary, so the replay advances each clock by
// the same amounts between the same memory events. With protocol costs,
// lock and barrier costs, and local work all reproduced, an exact
// inference replays the simulator's schedule cycle for cycle.

import (
	"fmt"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
	"cachier/internal/memory"
	"cachier/internal/trace"
	"cachier/internal/vet"
)

// Scheduling constants, mirroring sim.DefaultConfig. The conformance
// harness asserts placement equality against simulations run with these
// values.
const (
	quantum        = 100
	barrierBase    = 80
	barrierPerNode = 10
	lockAcquire    = 60
	lockTransfer   = 40
)

type rOp int

const (
	rAccess rOp = iota
	rLock
	rUnlock
	rPrint
	rWork
	rBarrier
)

// rEvent is one scheduler event: a widened access reaches the scheduler as
// one event per element address.
type rEvent struct {
	op     rOp
	write  bool
	addr   uint64
	pc     int
	lockID int64
	work   uint64 // local cycles, for rWork
}

type rStatus int

const (
	rReady rStatus = iota
	rAtBarrier
	rAtLock
	rDone
)

type rProc struct {
	id      int
	clock   uint64
	status  rStatus
	arrival uint64 // clock when the proc last blocked at a barrier

	// The pull cursor over the node's inferred epochs: the next event is
	// epochs[ep].Events[ev], after the element addresses still owed by the
	// access the cursor last read.
	epochs []vet.InferEpoch
	ep, ev int
	addrs  []uint64
	acc    *vet.InferAccess // the access addrs belongs to
}

// next pulls the processor's next event: the remaining element addresses of
// a widened access one by one, then the epoch's events in order, then the
// barrier that closes the epoch. ok is false at the end of the program.
func (p *rProc) next(layout *memory.Layout) (ev rEvent, ok bool, err error) {
	for {
		if len(p.addrs) > 0 {
			addr := p.addrs[0]
			p.addrs = p.addrs[1:]
			return rEvent{op: rAccess, write: p.acc.Write, addr: addr, pc: p.acc.Stmt}, true, nil
		}
		if p.ep >= len(p.epochs) {
			return rEvent{}, false, nil
		}
		ep := &p.epochs[p.ep]
		if p.ev >= len(ep.Events) {
			p.ep++
			p.ev = 0
			if ep.BarrierID >= 0 {
				return rEvent{op: rBarrier, pc: ep.BarrierID}, true, nil
			}
			continue
		}
		e := &ep.Events[p.ev]
		p.ev++
		switch e.Op {
		case vet.OpAccess:
			region := layout.Region(e.Access.Var)
			if region == nil {
				return rEvent{}, false, fmt.Errorf("staticanno: access to unknown shared variable %q", e.Access.Var)
			}
			if p.addrs, err = elementAddrs(region, e.Access.Dims); err != nil {
				return rEvent{}, false, err
			}
			p.acc = &e.Access
		case vet.OpLock:
			return rEvent{op: rLock, lockID: e.Lock, pc: e.Stmt}, true, nil
		case vet.OpUnlock:
			return rEvent{op: rUnlock, lockID: e.Lock, pc: e.Stmt}, true, nil
		case vet.OpPrint:
			return rEvent{op: rPrint, pc: e.Stmt}, true, nil
		case vet.OpWork:
			return rEvent{op: rWork, work: e.Work, pc: e.Stmt}, true, nil
		}
	}
}

type rLockState struct {
	held    bool
	owner   int
	waiters []int // FIFO
}

// replayer owns one coherent replay: the protocol state, the processor
// streams, and the simulator's ready-heap scheduler.
type replayer struct {
	sys    *coherence.System
	layout *memory.Layout
	b      *trace.Builder
	procs  []*rProc
	ready  []*rProc // min-heap by (clock, id); excludes the running proc
	limit  uint64
	locks  map[int64]*rLockState

	waiting          int
	pendingBarrierPC int
	done             int
}

// replay runs every node's inferred event stream to completion and returns
// the synthesized trace.
func replay(cfg Config, layout *memory.Layout, sum *vet.Summary) (*trace.Trace, error) {
	sys, err := coherence.New(coherence.Config{
		Nodes:     cfg.Nodes,
		CacheSize: cfg.CacheSize,
		Assoc:     cfg.Assoc,
		BlockSize: cfg.BlockSize,
		Costs:     coherence.DefaultCosts(),
		AddrSpace: layout.TotalBytes(),
	}, dir1sw.Protocol(false))
	if err != nil {
		return nil, err
	}
	r := &replayer{
		sys:    sys,
		layout: layout,
		b:      trace.NewBuilder(cfg.Nodes, cfg.BlockSize, layout.Labels()),
		locks:  make(map[int64]*rLockState),
	}
	for i := 0; i < cfg.Nodes; i++ {
		r.procs = append(r.procs, &rProc{id: i, epochs: sum.Nodes[i].Epochs})
	}
	// Processor 0 runs first; all others start parked and runnable at
	// clock 0, exactly as the simulator launches.
	for _, p := range r.procs[1:] {
		r.heapPush(p)
	}
	r.refreshLimit()
	if err := r.run(r.procs[0]); err != nil {
		return nil, err
	}
	// Program end: close the final epoch with each node's completion clock
	// as its virtual time, as the simulator's epilogue does.
	vts := make([]uint64, len(r.procs))
	for i, p := range r.procs {
		vts[i] = p.clock
	}
	r.b.EndEpoch(-1, vts, true)
	tr := r.b.Trace()
	tr.SortMisses()
	return tr, nil
}

// run is the scheduler loop: execute the current processor's next event,
// then yield exactly as the simulator would after the corresponding
// machine call.
func (r *replayer) run(cur *rProc) error {
	for cur != nil {
		ev, ok, err := cur.next(r.layout)
		if err != nil {
			return err
		}
		if !ok {
			// This processor's program ended. It may be the last thing a
			// barrier was waiting on.
			cur.status = rDone
			r.done++
			if r.waiting > 0 && r.waiting == r.active() {
				r.releaseBarrier(r.pendingBarrierPC, cur.id)
			}
			cur = r.yield(cur)
			continue
		}
		switch ev.op {
		case rAccess:
			var res coherence.Result
			if ev.write {
				res = r.sys.Write(cur.id, ev.addr, cur.clock)
			} else {
				res = r.sys.Read(cur.id, ev.addr, cur.clock)
			}
			cur.clock += res.Cycles
			if res.Kind != coherence.Hit {
				r.b.AddMiss(replayMissKind(res.Kind), ev.addr, ev.pc, cur.id)
			}
		case rBarrier:
			cur.status = rAtBarrier
			cur.arrival = cur.clock
			r.waiting++
			r.pendingBarrierPC = ev.pc
			if r.waiting == r.active() {
				r.releaseBarrier(ev.pc, cur.id)
			}
		case rLock:
			ls := r.locks[ev.lockID]
			if ls == nil {
				ls = &rLockState{}
				r.locks[ev.lockID] = ls
			}
			if !ls.held {
				ls.held = true
				ls.owner = cur.id
				cur.clock += lockAcquire
			} else {
				ls.waiters = append(ls.waiters, cur.id)
				cur.status = rAtLock
			}
		case rUnlock:
			ls := r.locks[ev.lockID]
			if ls == nil || !ls.held || ls.owner != cur.id {
				return fmt.Errorf("staticanno: node %d unlocks lock %d it does not hold", cur.id, ev.lockID)
			}
			cur.clock += lockAcquire
			if len(ls.waiters) > 0 {
				w := ls.waiters[0]
				ls.waiters = ls.waiters[1:]
				ls.owner = w
				q := r.procs[w]
				q.status = rReady
				if t := cur.clock + lockTransfer; t > q.clock {
					q.clock = t
				}
				r.heapPush(q)
				r.refreshLimit()
			} else {
				ls.held = false
			}
		case rPrint:
			// Costs nothing; it is only a context-switch point.
		case rWork:
			cur.clock += ev.work
		}
		cur = r.yield(cur)
	}
	if r.done < len(r.procs) {
		return fmt.Errorf("staticanno: replay deadlock: %d of %d nodes blocked (barrier waiters: %d)",
			len(r.procs)-r.done, len(r.procs), r.waiting)
	}
	return nil
}

func (r *replayer) active() int { return len(r.procs) - r.done }

// releaseBarrier mirrors the simulator: synchronize clocks to the release
// time, close the trace epoch, and flush every cache so each epoch's
// misses start cold.
func (r *replayer) releaseBarrier(pc int, active int) {
	var maxClock uint64
	for _, q := range r.procs {
		if q.status == rAtBarrier && q.arrival > maxClock {
			maxClock = q.arrival
		}
	}
	release := maxClock + barrierBase + barrierPerNode*log2(len(r.procs))
	vts := make([]uint64, len(r.procs))
	for i, q := range r.procs {
		vts[i] = q.arrival
	}
	r.b.EndEpoch(pc, vts, false)
	for i := range r.procs {
		r.sys.FlushNode(i)
	}
	for _, q := range r.procs {
		if q.status == rAtBarrier {
			q.status = rReady
			q.clock = release
			if q.id != active {
				r.heapPush(q)
			}
		}
	}
	r.refreshLimit()
	r.waiting = 0
}

// yield returns the processor to run next: the caller while it is runnable
// within the quantum of the lowest parked clock, otherwise the heap
// minimum. nil means nothing is runnable (completion or deadlock).
func (r *replayer) yield(p *rProc) *rProc {
	if p.status == rReady && p.clock <= r.limit {
		return p
	}
	if len(r.ready) == 0 {
		return nil
	}
	q := r.heapMin()
	if p.status == rReady {
		r.heapReplaceMin(p)
		r.limit = r.heapMin().clock + quantum
	} else {
		r.heapPop()
		r.refreshLimit()
	}
	return q
}

// refreshLimit recomputes the keep-running bound after a heap mutation.
func (r *replayer) refreshLimit() {
	if len(r.ready) == 0 {
		r.limit = ^uint64(0)
		return
	}
	r.limit = r.heapMin().clock + quantum
}

func replayMissKind(k coherence.AccessKind) trace.Kind {
	switch k {
	case coherence.ReadMiss:
		return trace.ReadMiss
	case coherence.WriteMiss:
		return trace.WriteMiss
	default:
		return trace.WriteFault
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

// --- min-heap of parked runnable processors, ordered by (clock, id) ---
// The id tie-break keeps the schedule deterministic and identical to the
// simulator's: among equal clocks the lowest processor ID runs first.

func rLess(a, b *rProc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

func (r *replayer) heapMin() *rProc { return r.ready[0] }

func (r *replayer) heapPush(p *rProc) {
	r.ready = append(r.ready, p)
	i := len(r.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !rLess(r.ready[i], r.ready[parent]) {
			break
		}
		r.ready[i], r.ready[parent] = r.ready[parent], r.ready[i]
		i = parent
	}
}

func (r *replayer) heapPop() *rProc {
	top := r.ready[0]
	last := len(r.ready) - 1
	r.ready[0] = r.ready[last]
	r.ready[last] = nil
	r.ready = r.ready[:last]
	r.heapSiftDown()
	return top
}

func (r *replayer) heapReplaceMin(p *rProc) {
	r.ready[0] = p
	r.heapSiftDown()
}

func (r *replayer) heapSiftDown() {
	n := len(r.ready)
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < n && rLess(r.ready[l], r.ready[smallest]) {
			smallest = l
		}
		if rt < n && rLess(r.ready[rt], r.ready[smallest]) {
			smallest = rt
		}
		if smallest == i {
			break
		}
		r.ready[i], r.ready[smallest] = r.ready[smallest], r.ready[i]
		i = smallest
	}
}
