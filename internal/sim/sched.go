package sim

import (
	"fmt"

	"cachier/internal/coherence"
	"cachier/internal/interp"
)

// The scheduler. All P simulated processors are lanes of one loop: each has
// a resumable interpreter (the lane interface), and a context switch just
// retargets which lane the loop resumes next — no runtime scheduler is
// involved in the schedule. Runnable processors wait in two structures:
//
//   - ready, the (clock, pid) min-heap, for the irregular minority: lock
//     wakeups and quantum overruns.
//
//   - the epoch bucket, for barrier releases: a release makes every waiter
//     runnable *at the same clock*, so instead of P-1 heap pushes the
//     released processors enter one NodeSet tagged with the shared release
//     clock and are popped in processor-ID order — exactly the (clock, pid)
//     order the heap would have produced, without the churn.
//
// The decision is always min-(clock, pid) across heap and bucket, under
// the quantum limit.

// run drives the machine to completion: processor 0 runs first, everyone
// else starts parked and runnable at clock 0.
func (m *Machine) run() {
	for i := 1; i < len(m.procs); i++ {
		m.ready.push(m.procs[i])
	}
	m.refreshLimit()
	m.cur = m.procs[0]
	for !m.halt {
		p := m.cur
		if l := m.lanes[p.id]; l.Resume() == interp.LaneDone && p.status != statusDone {
			m.finishProc(p, l.Err())
		}
	}
	// A run that ended in deadlock or on an error leaves lanes suspended
	// mid-program. A compiled lane is just dropped, but a reference lane is
	// a parked goroutine: kill it and resume it once so that it unwinds.
	for _, l := range m.lanes {
		l.Kill()
		l.Resume()
	}
}

// LaneRunning implements interp.LaneYielder: a lane keeps executing only
// while it is the current one and the run has not halted.
func (m *Machine) LaneRunning(node int) bool {
	return !m.halt && m.cur.id == node
}

// LaneSwitch implements interp.LaneYielder: the scheduling decision for a
// lane that has run its clock past the limit through its view.
func (m *Machine) LaneSwitch(node int) { m.yieldSwitch(m.procs[node]) }

// LaneView implements interp.LaneYielder. The view lets the lane do what
// Work and a hit in Access do, minus the calls: add to the clock, count, and
// make yield's compare against limit. The memory system says when there is
// one (not under a recorder or the probe) and keeps what a hit counts.
func (m *Machine) LaneView(node int) (coherence.LaneView, bool) {
	return m.sys.LaneView(node, &m.procs[node].clock, &m.limit,
		&m.sharedReads[node], &m.sharedWrites[node])
}

// finishProc retires a completed, faulted or killed processor: records
// completion, surfaces its error, releases a barrier it was the last
// straggler for, and yields its place in the schedule.
func (m *Machine) finishProc(p *proc, err error) {
	p.status = statusDone
	m.rec.NodeDone(p.id, p.clock)
	m.done++
	if err != nil && m.runErr == nil {
		m.runErr = err
	}
	// A finishing processor may be the last thing a barrier was waiting on.
	if m.waiting > 0 && m.waiting == m.activeProcs() {
		m.releaseBarrier(m.pendingBarrierPC, p.id)
	}
	m.yield(p)
}

// yield hands control to the runnable processor with the smallest clock. If
// the caller remains the best choice (within the quantum) it simply returns.
//
// The fast path is the cycle batch that lets plain cache hits and local Work
// stay on the running lane: while the caller's clock is within the cached
// limit (smallest parked runnable clock + quantum) no scheduler state is
// touched at all — the accumulated cycles are only reconciled against the
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

// refreshLimit recomputes the running processor's keep-running bound after
// a heap or bucket mutation. The bound never passes the cycle budget's
// per-node clock bound, so a processor that runs past its share takes the
// slow path, where the run ends.
func (m *Machine) refreshLimit() {
	lo := ^uint64(0)
	if m.ready.len() > 0 {
		lo = m.ready.min().clock
	}
	if m.bucketLen > 0 && m.bucketClock < lo {
		lo = m.bucketClock
	}
	if lo != ^uint64(0) {
		lo += m.cfg.Quantum
	}
	m.limit = min(lo, m.clockBound)
}

// yieldSwitch is yield's slow path: make the runnable processor with the
// smallest (clock, processor ID) across the heap and the epoch bucket
// current — bucketed processors would have sat in the heap at exactly
// (bucketClock, id) — or halt the run when nothing is runnable, or when the
// caller has run past the cycle budget's clock bound.
func (m *Machine) yieldSwitch(p *proc) {
	if p.clock > m.clockBound {
		if m.runErr == nil {
			m.runErr = ErrCycleBudget
		}
		m.halt = true
		return
	}
	if m.ready.len() == 0 && m.bucketLen == 0 {
		// Nothing else is runnable, and the caller cannot continue (a
		// runnable caller would have taken the fast path, since nothing
		// parked leaves the limit at the clock bound): the program
		// completed, or every remaining node is blocked (deadlock).
		if m.done < len(m.procs) && m.runErr == nil {
			m.runErr = fmt.Errorf("sim: deadlock: %d of %d nodes blocked (barrier waiters: %d)",
				len(m.procs)-m.done, len(m.procs), m.waiting)
		}
		m.halt = true
		return
	}
	m.rec.Handoff()
	useBucket := m.bucketLen > 0
	if useBucket && m.ready.len() > 0 {
		if hm := m.ready.min(); hm.clock < m.bucketClock ||
			(hm.clock == m.bucketClock && hm.id < m.bucket.First()) {
			useBucket = false
		}
	}
	if useBucket {
		id := m.bucket.First()
		m.bucket.Remove(id)
		m.bucketLen--
		if p.status == statusReady {
			m.ready.push(p)
		}
		m.refreshLimit()
		m.cur = m.procs[id]
		return
	}
	q := m.procs[m.ready.min().id]
	if p.status == statusReady {
		// The common handoff: the caller stays runnable, so it takes the
		// popped minimum's slot directly (one sift-down instead of
		// pop+push).
		m.ready.replaceMin(p)
	} else {
		m.ready.pop()
	}
	m.refreshLimit()
	m.cur = q
}

// readyHeap is a binary min-heap of parked, runnable processors ordered by
// (clock, id). The id tie-break keeps scheduling deterministic: among equal
// clocks the lowest processor ID runs first, exactly as the original linear
// scan over procs in ID order chose it.
//
// The heap holds every statusReady processor EXCEPT the one currently
// executing. Processors enter the heap when they park while still runnable
// (quantum exhausted) or when a barrier release or lock handoff makes them
// runnable again, and leave only via pop. Blocked processors (barrier, lock)
// are never in the heap, and a processor's clock never changes while it is
// parked, which is what lets an entry carry its key instead of pointing at
// the processor: a sift compares neighbouring words, not two procs each.
type readyHeap struct {
	ks []readyKey
}

// readyKey is a parked processor's place in the order: its clock as it
// parked, and its ID.
type readyKey struct {
	clock uint64
	id    int
}

func keyOf(p *proc) readyKey { return readyKey{p.clock, p.id} }

func (a readyKey) less(b readyKey) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

func (h *readyHeap) len() int { return len(h.ks) }

// min returns the key of the runnable processor that must run next; the heap
// must be non-empty.
func (h *readyHeap) min() readyKey { return h.ks[0] }

func (h *readyHeap) push(p *proc) {
	h.ks = append(h.ks, keyOf(p))
	i := len(h.ks) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ks[i].less(h.ks[parent]) {
			break
		}
		h.ks[i], h.ks[parent] = h.ks[parent], h.ks[i]
		i = parent
	}
}

func (h *readyHeap) pop() {
	last := len(h.ks) - 1
	h.ks[0] = h.ks[last]
	h.ks = h.ks[:last]
	h.siftDown()
}

// replaceMin swaps p in for the current minimum and restores heap order with
// a single sift-down, replacing the pop-then-push pair on the scheduler's
// handoff path. The caller must have read min() first; the popped order is
// unaffected because (clock, id) is a strict total order, so which array
// layout the heap happens to hold never changes which processor pops next.
func (h *readyHeap) replaceMin(p *proc) {
	h.ks[0] = keyOf(p)
	h.siftDown()
}

// siftDown restores heap order after the root was replaced.
func (h *readyHeap) siftDown() {
	ks := h.ks
	n := len(ks)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && ks[l].less(ks[smallest]) {
			smallest = l
		}
		if r < n && ks[r].less(ks[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		ks[i], ks[smallest] = ks[smallest], ks[i]
		i = smallest
	}
}
