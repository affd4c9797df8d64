package interp

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"cachier/internal/memory"
	"cachier/internal/parc"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// want: a TreeLane must take its goroutine with it however it ends. An
// exiting goroutine is counted until it is gone, hence the wait.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the lane, want %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// laneRunning is a yielder that never parks its lane (true) or parks it
// after every Machine call (false).
type laneRunning bool

func (y laneRunning) LaneRunning(int) bool { return bool(y) }

// treeContext builds node 0 of 1 of src over a fresh store.
func treeContext(t *testing.T, src string, m Machine) *Context {
	t.Helper()
	prog := parc.MustParse(src)
	if err := parc.Check(prog); err != nil {
		t.Fatal(err)
	}
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	return NewContext(prog, NewStoreFor(layout), m, 0, 1)
}

const treeLaneSrc = `
shared int a[4];
func main() {
    a[0] = 1;
    barrier;
    a[1] = a[0] + 1;
    print("a %d", a[1]);
}`

// TestTreeLaneStepped: a lane parked after every Machine call issues the
// same calls as the tree-walker run straight through, and resumes once per
// call.
func TestTreeLaneStepped(t *testing.T) {
	before := runtime.NumGoroutine()
	want := &mockMachine{}
	if err := treeContext(t, treeLaneSrc, want).runTree(); err != nil {
		t.Fatal(err)
	}
	got := &mockMachine{}
	l := treeContext(t, treeLaneSrc, got).NewTreeLane(laneRunning(false))
	resumes := 1
	for l.Resume() != LaneDone {
		resumes++
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stepped lane's calls %+v, want %+v", got, want)
	}
	if calls := len(want.accesses) + len(want.barriers) + len(want.works) + len(want.printed); resumes != calls+1 {
		t.Errorf("%d resumes for %d Machine calls, want one more than the calls", resumes, calls)
	}
	waitGoroutines(t, before)
}

// panicMachine panics with its own value at the barrier.
type panicMachine struct{ mockMachine }

func (*panicMachine) Barrier(int, int) { panic("machine fault") }

// TestTreeLanePanicReachesResume: a panic in a Machine call is not the
// lane's own unwinding, so Resume raises it in its caller, and the lane's
// goroutine is gone.
func TestTreeLanePanicReachesResume(t *testing.T) {
	before := runtime.NumGoroutine()
	l := treeContext(t, treeLaneSrc, &panicMachine{}).NewTreeLane(laneRunning(true))
	func() {
		defer func() {
			if r := recover(); r != "machine fault" {
				t.Fatalf("Resume's caller recovered %v, want the machine's panic", r)
			}
		}()
		l.Resume()
		t.Fatal("Resume returned")
	}()
	if st := l.Resume(); st != LaneDone {
		t.Fatalf("Resume after the panic = %v, want LaneDone", st)
	}
	waitGoroutines(t, before)
}

// killMachine kills its lane from inside the barrier call, as the simulator
// does to a processor that faults in a Machine call.
type killMachine struct {
	mockMachine
	l *TreeLane
}

func (m *killMachine) Barrier(node, pc int) {
	m.mockMachine.Barrier(node, pc)
	m.l.Kill()
}

// TestTreeLaneKill: however a lane is killed, its next Resume reports it
// done with no error, it executes no further statement, and it leaves no
// goroutine behind.
func TestTreeLaneKill(t *testing.T) {
	t.Run("before first Resume", func(t *testing.T) {
		before := runtime.NumGoroutine()
		m := &mockMachine{}
		l := treeContext(t, treeLaneSrc, m).NewTreeLane(laneRunning(true))
		l.Kill()
		if st := l.Resume(); st != LaneDone || l.Err() != nil {
			t.Fatalf("Resume = %v, Err = %v, want LaneDone and nil", st, l.Err())
		}
		if !reflect.DeepEqual(m, &mockMachine{}) {
			t.Fatalf("a lane killed before it ran made calls: %+v", m)
		}
		waitGoroutines(t, before)
	})
	t.Run("while parked", func(t *testing.T) {
		before := runtime.NumGoroutine()
		m := &mockMachine{}
		l := treeContext(t, treeLaneSrc, m).NewTreeLane(laneRunning(false))
		if st := l.Resume(); st != LaneSuspended {
			t.Fatalf("first Resume = %v, want LaneSuspended", st)
		}
		calls := len(m.works) + len(m.accesses)
		l.Kill()
		if st := l.Resume(); st != LaneDone || l.Err() != nil {
			t.Fatalf("Resume = %v, Err = %v, want LaneDone and nil", st, l.Err())
		}
		if len(m.works)+len(m.accesses) != calls {
			t.Fatal("a killed lane made another call")
		}
		waitGoroutines(t, before)
	})
	t.Run("inside a Machine call", func(t *testing.T) {
		before := runtime.NumGoroutine()
		m := &killMachine{}
		m.l = treeContext(t, treeLaneSrc, m).NewTreeLane(laneRunning(true))
		if st := m.l.Resume(); st != LaneDone || m.l.Err() != nil {
			t.Fatalf("Resume = %v, Err = %v, want LaneDone and nil", st, m.l.Err())
		}
		if len(m.barriers) != 1 || len(m.accesses) != 1 || len(m.printed) != 0 {
			t.Fatalf("the lane ran on past its kill: %d barriers, %d accesses, %d prints",
				len(m.barriers), len(m.accesses), len(m.printed))
		}
		waitGoroutines(t, before)
	})
}
