package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cachier/internal/interp"
	"cachier/internal/obs"
	"cachier/internal/parc"
)

// The scheduler's tests. Their names say Lanes because they were written
// when the lane scheduler was one engine of three; it is the scheduler now.

// runHost runs src on the production engine or on the reference engine,
// 8 nodes unless mutate says otherwise, with a recorder and timeline
// attached unless bare, and checks that the run left no goroutine behind.
func runHost(t *testing.T, src string, reference, bare bool, mutate func(*Config)) (*Result, *obs.Recorder, error) {
	t.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.TreeWalk = reference
	if mutate != nil {
		mutate(&cfg)
	}
	if !bare {
		cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
		cfg.Recorder.EnableTimeline()
	}
	before := runtime.NumGoroutine()
	res, err := Run(prog, cfg)
	waitGoroutines(t, before)
	return res, cfg.Recorder, err
}

// checkBothHosts runs src under the scheduler's two lane hosts — compiled
// lanes stepped in the scheduler's own loop, and tree-walking interpreters
// parked on goroutines (interp.TreeLane) — and asserts the runs bit-identical
// on every observable surface, each reporting the engine it was asked for.
// The recorder that makes the surfaces observable also takes the compiled
// lanes' view away (LaneView), so a third run, production with no recorder,
// is held to the recorded one on everything a bare run reports. It returns
// the shared outcome: the production result, or the error all runs ended
// with.
func checkBothHosts(t *testing.T, src string, mutate func(*Config)) (*Result, error) {
	t.Helper()
	prod, prodRec, prodErr := runHost(t, src, false, false, mutate)
	ref, refRec, refErr := runHost(t, src, true, false, mutate)
	bare, _, bareErr := runHost(t, src, false, true, mutate)

	for _, o := range []struct {
		name string
		err  error
	}{{"reference", refErr}, {"bare production", bareErr}} {
		if (prodErr == nil) != (o.err == nil) {
			t.Fatalf("error divergence: production %v, %s %v", prodErr, o.name, o.err)
		}
		if prodErr != nil && prodErr.Error() != o.err.Error() {
			t.Fatalf("error text divergence:\nproduction: %v\n%s: %v", prodErr, o.name, o.err)
		}
	}
	if prodErr != nil {
		return nil, prodErr
	}
	if prod.Engine != engineLanes || ref.Engine != engineReference || bare.Engine != engineLanes {
		t.Fatalf("runs report engines %q, %q and %q, want %q, %q and %q",
			prod.Engine, ref.Engine, bare.Engine, engineLanes, engineReference, engineLanes)
	}
	for _, o := range []struct {
		name string
		res  *Result
	}{{"reference", ref}, {"bare production", bare}} {
		got := o.res
		if prod.Cycles != got.Cycles {
			t.Errorf("cycles: production %d, %s %d", prod.Cycles, o.name, got.Cycles)
		}
		if !reflect.DeepEqual(prod.NodeCycles, got.NodeCycles) {
			t.Errorf("node cycles diverge:\nproduction: %v\n%s: %v", prod.NodeCycles, o.name, got.NodeCycles)
		}
		if prod.Stats != got.Stats {
			t.Errorf("stats diverge:\nproduction: %+v\n%s: %+v", prod.Stats, o.name, got.Stats)
		}
		if !reflect.DeepEqual(prod.Output, got.Output) {
			t.Errorf("output diverges:\nproduction: %q\n%s: %q", prod.Output, o.name, got.Output)
		}
		if prod.Barriers != got.Barriers {
			t.Errorf("barriers: production %d, %s %d", prod.Barriers, o.name, got.Barriers)
		}
		if !reflect.DeepEqual(prod.SharedReads, got.SharedReads) || !reflect.DeepEqual(prod.SharedWrites, got.SharedWrites) {
			t.Errorf("sharing counters diverge from %s", o.name)
		}
		pl, ps := prod.SharingDegree()
		rl, rs := got.SharingDegree()
		if pl != rl || ps != rs {
			t.Errorf("sharing degree diverges: production (%g, %g), %s (%g, %g)", pl, ps, o.name, rl, rs)
		}
		if !reflect.DeepEqual(prod.Store.Words(), got.Store.Words()) {
			t.Errorf("shared memory diverges from %s", o.name)
		}
		if !reflect.DeepEqual(prod.Trace, got.Trace) {
			t.Errorf("miss traces diverge from %s", o.name)
		}
	}
	// Dispatched ops are the one count the hosts do not share: bytecode
	// instructions on one, statements on the other.
	for _, snap := range []*obs.Snapshot{prod.Snapshot, ref.Snapshot} {
		snap.Interp.Ops = 0
		for i := range snap.PerNode {
			snap.PerNode[i].Ops = 0
		}
	}
	prodSnap, err := prod.Snapshot.MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal production snapshot: %v", err)
	}
	refSnap, err := ref.Snapshot.MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal reference snapshot: %v", err)
	}
	if !bytes.Equal(prodSnap, refSnap) {
		t.Errorf("snapshots diverge:\nproduction:\n%s\nreference:\n%s", prodSnap, refSnap)
	}
	var prodTL, refTL bytes.Buffer
	if err := prodRec.Timeline("t").WriteJSON(&prodTL); err != nil {
		t.Fatalf("production timeline: %v", err)
	}
	if err := refRec.Timeline("t").WriteJSON(&refTL); err != nil {
		t.Fatalf("reference timeline: %v", err)
	}
	if !bytes.Equal(prodTL.Bytes(), refTL.Bytes()) {
		t.Errorf("timelines diverge")
	}
	return prod, nil
}

// TestLanesMaskedLockParkUnpark exercises parking around lock traps: every
// lane contends for one lock, so each acquisition parks the losers (no
// stepping while parked) and the release unparks exactly one waiter in FIFO
// order. The prints inside the critical section pin the handoff order: each
// entrant must see the count its predecessor left.
func TestLanesMaskedLockParkUnpark(t *testing.T) {
	res, err := checkBothHosts(t, `
shared int turn[1];
func main() {
    var spin int = 0;
    for i = 0 to pid() * 7 { spin += i; }
    lock(3);
    print("enter %d", turn[0]);
    turn[0] += 1;
    unlock(3);
    barrier;
    if (pid() == 0) { print("total %d", turn[0]); }
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 9 || res.Output[8] != "node 0: total 8" {
		t.Fatalf("output = %q, want 8 entries then node 0's total 8", res.Output)
	}
	for i, line := range res.Output[:8] {
		if want := fmt.Sprintf(" %d", i); !strings.HasPrefix(line, "node ") || !strings.HasSuffix(line, want) {
			t.Errorf("entry %d printed %q, want turn%s", i, line, want)
		}
	}
}

// TestLanesBarrierQuiescenceOrder exercises the epoch bucket: lanes arrive
// at the barrier at staggered clocks (different work before it), the last
// arrival releases everyone at one clock, and the released lanes must then
// step in pid order behind the lane that released them (node 3, the last
// to arrive, keeps running) — observable as the print order after the
// barrier.
func TestLanesBarrierQuiescenceOrder(t *testing.T) {
	res, err := checkBothHosts(t, `
shared int v[8];
func main() {
    var spin int = 0;
    for i = 0 to ((pid() + 4) % 8) * 11 { spin += i; }
    v[pid()] = spin + pid();
    barrier;
    print("after");
    barrier;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range res.Output {
		order = append(order, strings.TrimSuffix(strings.TrimPrefix(line, "node "), ": after"))
	}
	if want := "3 0 1 2 4 5 6 7"; strings.Join(order, " ") != want {
		t.Fatalf("nodes printed in order %q after the barrier, want %q", strings.Join(order, " "), want)
	}
}

// TestLanesUnlockFault: unlocking an unheld lock is a machine fault; the
// scheduler kills the lane in place — a compiled lane stops dispatching, a
// reference lane's goroutine unwinds — and the run reports the fault.
func TestLanesUnlockFault(t *testing.T) {
	_, err := checkBothHosts(t, `
shared int v[8];
func main() {
    v[pid()] = pid();
    if (pid() == 3) {
        unlock(9);
    }
    v[pid()] = v[pid()] + 1;
}
`, nil)
	if want := "sim: node 3 unlocked lock 9 it does not hold"; err == nil || err.Error() != want {
		t.Fatalf("run error = %v, want %q", err, want)
	}
}

// TestLanesDeadlock: a processor exits holding a lock the others want; the
// scheduler must detect the empty heap and bucket with lanes still waiting.
func TestLanesDeadlock(t *testing.T) {
	_, err := checkBothHosts(t, `
func main() {
    if (pid() == 0) {
        lock(1);
    }
    if (pid() != 0) {
        lock(1);
        unlock(1);
    }
}
`, nil)
	if want := "sim: deadlock: 7 of 8 nodes blocked (barrier waiters: 0)"; err == nil || err.Error() != want {
		t.Fatalf("run error = %v, want %q", err, want)
	}
}

// TestCycleBudget: a program that never terminates ends with the typed
// budget error on both hosts, on one node (nothing else is ever runnable,
// so only the budget bounds the keep-running limit) and on four; the same
// budget leaves a program that fits untouched, and no budget means none.
func TestCycleBudget(t *testing.T) {
	for _, src := range []string{
		`func main() { var i int = 0; while (1) { i = i + 1; } }`,
		`func main() { while (1) { } }`,
		`func main() { if (pid() == 0) { while (1) { } } barrier; }`,
	} {
		for _, nodes := range []int{1, 4} {
			_, err := checkBothHosts(t, src, func(cfg *Config) {
				cfg.Nodes = nodes
				cfg.CycleBudget = 1 << 16
			})
			if !errors.Is(err, ErrCycleBudget) {
				t.Errorf("%d nodes, %s: run error = %v, want ErrCycleBudget", nodes, src, err)
			}
		}
	}
	const fits = `
shared int v[8];
func main() {
    for i = 0 to 63 { v[pid()] += i; }
    barrier;
    print("v %d", v[pid()]);
}
`
	free, err := checkBothHosts(t, fits, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := checkBothHosts(t, fits, func(cfg *Config) { cfg.CycleBudget = uint64(cfg.Nodes) * (free.Cycles + 1) })
	if err != nil {
		t.Fatalf("budget of the run's own length: %v", err)
	}
	if bounded.Cycles != free.Cycles || !reflect.DeepEqual(bounded.Output, free.Output) {
		t.Errorf("a budget that is not exceeded changed the run: %d cycles, was %d", bounded.Cycles, free.Cycles)
	}
	if _, err := checkBothHosts(t, fits, func(cfg *Config) { cfg.CycleBudget = uint64(cfg.Nodes) * (free.Cycles - 1) }); !errors.Is(err, ErrCycleBudget) {
		t.Errorf("budget one cycle short: run error = %v, want ErrCycleBudget", err)
	}
}

// TestBarrierLimit: a barrier in an endless loop ends with the typed
// barrier error on both hosts, on one node (bounded by MaxBarriers) and on
// 1 024 (bounded by MaxBarrierArrivals), long before a cycle budget would
// end it. On one node a loop of exactly MaxBarriers barriers still runs to
// completion, and one more does not. The runs are bare: a recorder's
// timeline of a million arrivals would cost more than the bound saves.
func TestBarrierLimit(t *testing.T) {
	run := func(src string, nodes int) (*Result, error) {
		width := func(cfg *Config) { cfg.Nodes = nodes }
		res, _, err := runHost(t, src, false, true, width)
		_, _, refErr := runHost(t, src, true, true, width)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%d nodes: production error %v, reference %v", nodes, err, refErr)
		}
		return res, err
	}
	for _, nodes := range []int{1, 1024} {
		if _, err := run(`func main() { while (1) { barrier; } }`, nodes); !errors.Is(err, ErrBarrierLimit) {
			t.Errorf("%d nodes: run error = %v, want ErrBarrierLimit", nodes, err)
		}
	}
	loop := func(n int) string { return fmt.Sprintf(`func main() { for i = 1 to %d { barrier; } }`, n) }
	if res, err := run(loop(MaxBarriers), 1); err != nil || res.Barriers != MaxBarriers {
		t.Errorf("%d barriers: %v, want a completed run", MaxBarriers, err)
	}
	if _, err := run(loop(MaxBarriers+1), 1); !errors.Is(err, ErrBarrierLimit) {
		t.Errorf("%d barriers: run error = %v, want ErrBarrierLimit", MaxBarriers+1, err)
	}
}

// TestLanesSingleNode: one lane — the degenerate machine, where the first
// yield that cannot continue ends the run.
func TestLanesSingleNode(t *testing.T) {
	res, err := checkBothHosts(t, `
shared int v[1];
func main() {
    for i = 0 to 63 { v[0] += i; }
    print("v %d", v[0]);
}
`, func(cfg *Config) { cfg.Nodes = 1 })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"node 0: v 2016"}; !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

// TestOutputLimit: a program that prints forever ends with the typed output
// error on both hosts, having kept no more than the bound.
func TestOutputLimit(t *testing.T) {
	_, err := checkBothHosts(t, `func main() { while (1) { print("x"); } }`, func(cfg *Config) { cfg.Nodes = 4 })
	if !errors.Is(err, ErrOutputLimit) {
		t.Fatalf("run error = %v, want ErrOutputLimit", err)
	}
}

// TestUncheckedProgramRefused: a node added to the AST after Check — here a
// loop whose counter the checker never gave a slot — is not run at all: the
// production engine's compiler refuses the program and Run returns that
// refusal, naming the counter, instead of running it on the reference.
func TestUncheckedProgramRefused(t *testing.T) {
	prog, err := parc.Parse(`
const N = 4;
shared int v[8];
func main() {
    v[pid()] = pid() * 2 + N;
    barrier;
    if (pid() == 0) { print("v3 %d", v[3]); }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	main := prog.FuncMap["main"]
	main.Body.Stmts = append(main.Body.Stmts, &parc.ForStmt{
		Var: "N", From: &parc.IntLit{Value: 0}, To: &parc.IntLit{Value: 1}, Body: &parc.Block{},
	})
	cfg := DefaultConfig()
	cfg.Nodes = 8
	res, err := Run(prog, cfg)
	if res != nil || err == nil || !strings.Contains(err.Error(), `loop counter "N"`) {
		t.Fatalf("Run = %v, %v; want no result and an error naming the loop counter", res, err)
	}
}

// TestLanesLockContentionFIFO pins the waiter queue order specifically: the
// lock handoff must be first-come-first-served by simulated arrival, not by
// pid or by lane stepping order. Arrival clocks grow with (pid*13)%29, in
// steps well over the scheduling quantum, so the slots must fill in that
// order.
func TestLanesLockContentionFIFO(t *testing.T) {
	res, err := checkBothHosts(t, `
shared int order[9];
func main() {
    var spin int = 0;
    for i = 0 to ((pid() * 13) % 29) * 40 { spin += i; }
    lock(5);
    order[8] += 1;
    order[order[8] - 1] = pid();
    print("slot %d %d", order[8] - 1, pid());
    unlock(5);
    barrier;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// pid:            0  1   2   3   4  5   6  7
	// (pid*13)%29:    0  13  26  10  23 7   20 4
	var got []string
	for _, line := range res.Output {
		got = append(got, line[strings.LastIndex(line, " ")+1:])
	}
	if want := "0 7 5 3 1 6 4 2"; strings.Join(got, " ") != want {
		t.Fatalf("acquisition order by pid = %q, want %q\n%q", strings.Join(got, " "), want, res.Output)
	}
}

// TestSchedulerAgainstSortedModel checks the scheduler's two queues and its
// cached limit against the rule they implement, with no interpreter in the
// way: the test plays the lanes of a bare Machine, making random Machine
// calls as whichever processor is current — work that overruns the quantum
// (the caller is pushed on the heap), barriers (the last arrival fills the
// epoch bucket at one clock), contended locks (a blocked caller; the
// release pushes the waiter on the heap), program ends — and after every
// call recomputes from the processors' own status and clocks what the
// decision must have been: the caller keeps running iff it is runnable and
// within one quantum of the smallest parked runnable (clock, id); otherwise
// that smallest one runs; and the limit is the smallest (clock, id) still
// parked plus the quantum. The model is a sorted slice; it knows nothing
// of heaps, buckets or caching.
func TestSchedulerAgainstSortedModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Nodes = 1 + rng.Intn(9)
		cfg.Quantum = uint64(1 + rng.Intn(120))
		if seed%2 == 1 {
			// Free locks wake a waiter at its releaser's clock: ties in
			// the heap, ordered by processor ID alone.
			cfg.LockAcquire, cfg.LockTransfer = 0, 0
		}
		m, err := newMachine(parc.MustParse(`func main() { }`), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(m.procs); i++ {
			m.ready.push(m.procs[i])
		}
		m.refreshLimit()
		m.cur = m.procs[0]

		steps := make([]int, cfg.Nodes) // calls left before each processor ends
		for i := range steps {
			steps[i] = rng.Intn(60)
		}
		holds := make([]int64, cfg.Nodes) // the lock each processor holds, or -1
		for i := range holds {
			holds[i] = -1
		}
		for n := 0; !m.halt; n++ {
			p := m.cur
			var what string
			switch r := rng.Intn(10); {
			case holds[p.id] >= 0 && r < 5:
				// At most one lock at a time and none across a barrier or
				// the program's end, so that no sequence deadlocks.
				what = "unlock"
				m.Unlock(p.id, holds[p.id], 0)
				holds[p.id] = -1
			case steps[p.id] == 0 && holds[p.id] < 0:
				what = "end"
				m.finishProc(p, nil)
			case r >= 7 && holds[p.id] < 0:
				what = "lock"
				id := int64(rng.Intn(2))
				holds[p.id] = id // acquired now, or by the time p runs again
				m.Lock(p.id, id, 0)
			case r >= 5 && holds[p.id] < 0:
				what = "barrier"
				m.Barrier(p.id, 0)
			default:
				what = "work"
				m.Work(p.id, uint64(rng.Intn(3))*uint64(rng.Intn(int(cfg.Quantum)+2)))
			}
			if steps[p.id] > 0 {
				steps[p.id]--
			}

			var parked []*proc
			for _, q := range m.procs {
				if q != p && q.status == statusReady {
					parked = append(parked, q)
				}
			}
			byClock := func() {
				sort.Slice(parked, func(i, j int) bool { return keyOf(parked[i]).less(keyOf(parked[j])) })
			}
			byClock()
			want := p
			if p.status != statusReady || (len(parked) > 0 && p.clock > parked[0].clock+cfg.Quantum) {
				if len(parked) == 0 {
					want = nil
				} else {
					want, parked = parked[0], parked[1:]
					if p.status == statusReady {
						parked = append(parked, p)
						byClock()
					}
				}
			}
			if want == nil {
				if !m.halt {
					t.Fatalf("seed %d call %d (%s by %d): nothing is runnable but the run did not halt", seed, n, what, p.id)
				}
				break
			}
			wantLimit := ^uint64(0)
			if len(parked) > 0 {
				wantLimit = parked[0].clock + cfg.Quantum
			}
			if m.halt || m.cur != want || m.limit != wantLimit {
				t.Fatalf("seed %d call %d (%s by %d): halt %v, current %d, limit %d; the model runs %d with limit %d",
					seed, n, what, p.id, m.halt, m.cur.id, m.limit, want.id, wantLimit)
			}
		}
		if m.runErr != nil || m.done != cfg.Nodes {
			t.Fatalf("seed %d: run ended with %d of %d processors done: %v", seed, m.done, cfg.Nodes, m.runErr)
		}
	}
}

// rereadSource has every node read one word of its own block 10 000 times
// between two barriers: after the first read, every access is a hit on the
// most recently used line of its set.
const rereadSource = `
shared int v[32];
func main() {
    var acc int = 0;
    v[pid() * 4] = pid();
    barrier;
    for i = 1 to 10000 { acc += v[pid() * 4]; }
    barrier;
    v[pid() * 4 + 1] = acc;
}
`

// TestHitsStayInTheLane pins, independently of the host's speed, that a
// compiled lane counts a hit on its set's hot line without calling into the
// machine: the memory system's hit counter advances for every re-read while
// the caches' own Touch counters, which only a call can reach, stay where
// the few first touches left them. Under a recorder the lanes have no view
// and every hit reaches Touch, with the same cycles and stats.
func TestHitsStayInTheLane(t *testing.T) {
	const nodes, reads = 8, 10000
	run := func(rec *obs.Recorder) (*Machine, *Result) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Nodes = nodes
		cfg.Recorder = rec
		m, err := newMachine(parc.MustParse(rereadSource), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.store = interp.NewStoreFor(m.layout)
		m.ctxs = make([]*interp.Context, cfg.Nodes)
		if err := m.compiledLanes(); err != nil {
			t.Fatal(err)
		}
		res, err := m.finish(engineLanes)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	touched := func(m *Machine) (hits uint64) {
		for n := 0; n < nodes; n++ {
			hits += m.sys.Cache(n).Hits
		}
		return hits
	}

	bare, bareRes := run(nil)
	if bareRes.Stats.Hits < nodes*reads {
		t.Fatalf("%d hits, want at least %d", bareRes.Stats.Hits, nodes*reads)
	}
	if got := touched(bare); got > 4*nodes {
		t.Errorf("%d hits reached a cache's Touch, want a handful per node: hits are not staying in the lane", got)
	}

	recorded, recRes := run(obs.New(nodes, DefaultConfig().BlockSize))
	if got := touched(recorded); got < nodes*reads {
		t.Errorf("under a recorder %d hits reached Touch, want all %d: the lanes kept their view", got, nodes*reads)
	}
	if recRes.Cycles != bareRes.Cycles || !reflect.DeepEqual(recRes.NodeCycles, bareRes.NodeCycles) {
		t.Errorf("cycles: %d with a recorder, %d without", recRes.Cycles, bareRes.Cycles)
	}
	if recRes.Stats != bareRes.Stats {
		t.Errorf("stats diverge:\nrecorded: %+v\nbare:     %+v", recRes.Stats, bareRes.Stats)
	}
	if !reflect.DeepEqual(recRes.SharedReads, bareRes.SharedReads) || !reflect.DeepEqual(recRes.SharedWrites, bareRes.SharedWrites) {
		t.Errorf("per-node shared reference counts diverge")
	}
}
