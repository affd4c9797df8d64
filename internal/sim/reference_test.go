package sim

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// More programs through the two-host differential (checkBothHosts), each
// picked for a path the scheduler tests do not reach. Their names date from
// the engine they were first written against; "Parallel" means nothing now.

func TestParallelEquivalenceBarrierProgram(t *testing.T) {
	if _, err := checkBothHosts(t, `
shared float a[32][32];
shared float b[32][32];
shared float c[32][32];
func main() {
    for i = pid() to 31 step nprocs() {
        for j = 0 to 31 {
            a[i][j] = i + j;
            b[i][j] = i - j;
        }
    }
    barrier;
    for i = pid() to 31 step nprocs() {
        for j = 0 to 31 {
            var acc float = 0.0;
            for k = 0 to 31 {
                acc += a[i][k] * b[k][j];
            }
            c[i][j] = acc;
        }
    }
    barrier;
    if (pid() == 0) {
        print("trace %g", c[1][1]);
    }
}
`, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParallelEquivalenceLocks(t *testing.T) {
	res, err := checkBothHosts(t, `
shared int sum[1];
shared int hist[64];
func main() {
    for i = pid() to 63 step nprocs() {
        hist[i] = i * i;
    }
    barrier;
    var local int = 0;
    for i = pid() to 63 step nprocs() {
        local += hist[i];
    }
    lock(1);
    sum[0] += local;
    unlock(1);
    barrier;
    if (pid() == 0) {
        print("sum %d", sum[0]);
    }
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "node 0: sum 85344"; len(res.Output) != 1 || res.Output[0] != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

// A lock held across a barrier, released in the next epoch.
func TestParallelEquivalenceLockAcrossBarrier(t *testing.T) {
	if _, err := checkBothHosts(t, `
shared int v[8];
func main() {
    if (pid() == 0) {
        lock(7);
        v[0] = 41;
    }
    barrier;
    v[pid()] = v[0] + pid();
    if (pid() == 0) {
        unlock(7);
    }
    barrier;
}
`, nil); err != nil {
		t.Fatal(err)
	}
}

// A cross-node read/write race with no ordering. The corpus programs are
// race-free by construction, so only a program like this one can see a
// shared load or store land on the wrong side of the context switch its
// Access call caused: the compiled lane defers the data touch to its next
// Resume, the tree-walker performs it when its goroutine is woken, and the
// two must be the same point in the schedule.
func TestParallelConflictFallback(t *testing.T) {
	if _, err := checkBothHosts(t, `
shared int flag[8];
func main() {
    var r int = 0;
    for i = 0 to 4000 {
        r = r + i;
    }
    flag[pid()] = r + pid();
    if (pid() > 0) {
        r = flag[pid() - 1];
    }
    flag[pid()] = r;
    barrier;
}
`, nil); err != nil {
		t.Fatal(err)
	}
}

// The faulting processor is killed while the others wait at a barrier only
// it had yet to reach: retiring it must release them, and the run still
// ends with the fault.
func TestParallelEquivalenceUnlockFault(t *testing.T) {
	_, err := checkBothHosts(t, `
shared int v[8];
func main() {
    var spin int = 0;
    if (pid() == 3) {
        for i = 0 to 400 { spin += i; }
        unlock(9);
    }
    barrier;
    v[pid()] = pid() + spin;
}
`, nil)
	if want := "sim: node 3 unlocked lock 9 it does not hold"; err == nil || err.Error() != want {
		t.Fatalf("run error = %v, want %q", err, want)
	}
}

// A deadlock with barrier waiters: node 0 sits at the barrier holding the
// lock node 1 is queued on, so the barrier can never fill.
func TestParallelEquivalenceDeadlock(t *testing.T) {
	_, err := checkBothHosts(t, `
func main() {
    if (pid() == 0) {
        lock(1);
    }
    if (pid() == 1) {
        lock(1);
        unlock(1);
    }
    barrier;
}
`, nil)
	if want := "sim: deadlock: 8 of 8 nodes blocked (barrier waiters: 7)"; err == nil || err.Error() != want {
		t.Fatalf("run error = %v, want %q", err, want)
	}
}

// TestTypedProgramsBothHosts runs the programs interp's
// TestTypedVMMatchesTreeWalker aims at the typed registers (mixed min/max,
// conversions, division by zero, NaN) on both hosts; each either completes
// on both or fails on both with the same error.
func TestTypedProgramsBothHosts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "typed", "*.parc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no typed programs found (%v)", err)
	}
	for _, path := range files {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".parc"), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkBothHosts(t, string(src), nil)
		})
	}
}

// Float accumulation and a print from every node.
func TestParallelEquivalenceTreeWalker(t *testing.T) {
	if _, err := checkBothHosts(t, `
shared float a[16][16];
func main() {
    for i = pid() to 15 step nprocs() {
        for j = 0 to 15 {
            a[i][j] = i * j;
        }
    }
    barrier;
    var acc float = 0.0;
    for i = 0 to 15 {
        acc += a[i][pid() % 16];
    }
    print("acc %g", acc);
}
`, nil); err != nil {
		t.Fatal(err)
	}
}

// Trace mode: barrier cache flushes under the lanes' cache keys, and the
// miss trace as the compared surface.
func TestParallelEquivalenceTraceMode(t *testing.T) {
	res, err := checkBothHosts(t, `
shared float a[32][8];
func main() {
    for i = pid() to 31 step nprocs() {
        for j = 0 to 7 {
            a[i][j] = i + j;
        }
    }
    barrier;
    var acc float = 0.0;
    for i = 0 to 31 {
        acc += a[i][pid() % 8];
    }
    barrier;
}
`, func(cfg *Config) { cfg.Mode = ModeTrace })
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Epochs) != 3 {
		t.Fatalf("trace = %+v, want 3 epochs", res.Trace)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want: a reference run must take its lanes' goroutines with it however it
// ends. An exiting goroutine is counted until it is gone, hence the wait.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the run, want %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
