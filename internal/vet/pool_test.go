package vet_test

import (
	"fmt"
	"sync"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/sim"
	"cachier/internal/vet"
)

// poolPrograms is parcgen seeds 0–63 and the five Figure 6 training sources.
func poolPrograms(t *testing.T) []*parc.Program {
	t.Helper()
	var progs []*parc.Program
	for seed := int64(0); seed < 64; seed++ {
		progs = append(progs, parc.MustParse(parcgen.Generate(seed)))
	}
	for _, b := range bench.All() {
		prog, err := parc.Parse(b.Source(b.Train))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// vetBytes is everything one program's vet passes produce, as text: the
// Analyze report and, unless analyzeOnly, a digest of every event a Cursor
// reads off each node of its Summary, with Exact and Notes. The summary is
// released after.
func vetBytes(prog *parc.Program, analyzeOnly bool) string {
	const nprocs = 4
	out := vet.Analyze(prog, vet.Options{Nprocs: nprocs}).String()
	if analyzeOnly {
		return out
	}
	layout, err := memory.New(prog, 32)
	if err != nil {
		return out + "layout: " + err.Error()
	}
	sum, err := vet.Summarize(prog, vet.Options{Nprocs: nprocs})
	if err != nil {
		return out + "summarize: " + err.Error()
	}
	defer sum.Release()
	h := uint64(14695981039346656037) // FNV-1a over the events' fields
	fold := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for node := range nprocs {
		c := sum.Cursor(node)
		for {
			ev, err := c.Next(layout)
			if err != nil {
				return out + "cursor: " + err.Error()
			}
			if ev == nil {
				break
			}
			fold(uint64(ev.Op))
			fold(uint64(ev.PC))
			fold(uint64(ev.Lock))
			fold(ev.Cycles)
			fold(ev.Addr)
			if ev.Write {
				fold(1)
			}
		}
	}
	return fmt.Sprintf("%s%016x exact=%v notes=%q", out, h, sum.Exact, sum.Notes)
}

// TestStreamsConcurrent runs vet passes from 8 goroutines over programs of
// very different sizes, so pooled stream storage changes hands between
// passes of other programs all the time, and the Figure 6 sources' streams
// pass the pooling limit. Every result must be byte-equal to the serial
// run's: no pass may read or keep another pass's events. Each corpus
// program is vetted 8 times and each Figure 6 source once. Barnes's and
// Tomcatv's inferences take seconds, and tens under the race detector,
// which therefore runs only Analyze on them.
func TestStreamsConcurrent(t *testing.T) {
	progs := poolPrograms(t)
	analyzeOnly := make([]bool, len(progs))
	for i, b := range bench.All() {
		analyzeOnly[len(progs)-len(bench.All())+i] = raceEnabled && (b.Name == "Barnes" || b.Name == "Tomcatv")
	}
	want := make([]string, len(progs))
	for i, prog := range progs {
		want[i] = vetBytes(prog, analyzeOnly[i])
	}
	const workers = 8
	corpus := len(progs) - len(bench.All())
	var order []int // 8 rounds of the corpus, a Figure 6 source after each of the first 5
	for round := range workers {
		for i := range corpus {
			order = append(order, i)
		}
		if corpus+round < len(progs) {
			order = append(order, corpus+round)
		}
	}
	work := make(chan int, len(order))
	for _, i := range order {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	errs := make(chan string, len(order))
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if got := vetBytes(progs[i], analyzeOnly[i]); got != want[i] {
					errs <- fmt.Sprintf("program %d: result differs from the serial run's:\n got %.300s\nwant %.300s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReleasedSummaryFailsFast: once a Summary's streams are handed back,
// a new or an open Cursor panics and CheckBarrierStructure fails, instead of
// reading whatever pass reuses the storage.
func TestReleasedSummaryFailsFast(t *testing.T) {
	prog := parc.MustParse(parcgen.Generate(1))
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := vet.Summarize(prog, vet.Options{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := sum.Cursor(0)
	if ev, err := c.Next(layout); ev == nil || err != nil {
		t.Fatalf("node 0's first event is %v, err %v", ev, err)
	}
	sum.Release()
	sum.Release() // does nothing
	vet.Analyze(prog, vet.Options{Nprocs: 2})
	for name, read := range map[string]func(){
		"Cursor": func() { sum.Cursor(0) },
		"Next":   func() { c.Next(layout) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released Summary did not panic", name)
				}
			}()
			read()
		}()
	}
	if err := sum.CheckBarrierStructure(); err == nil {
		t.Error("CheckBarrierStructure on a released Summary found no error")
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestNestedSubscriptSets: an access whose subscript reads another shared
// array keeps its own element sets, though the inner access's sets are
// recorded while the outer's are being built.
func TestNestedSubscriptSets(t *testing.T) {
	prog := parc.MustParse(`
const N = 4;
shared int B[N] label "B";
shared float A[N][N] label "A";
func main() {
    A[pid()][B[pid()]] = 1.0;
}`)
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := vet.Summarize(prog, vet.Options{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sum.Release()
	var got []string
	for _, ev := range inferredEvents(t, layout, sum, 1) {
		if ev.Op == sim.EvAccess {
			r, ix, ok := layout.Resolve(ev.Addr)
			if !ok {
				t.Fatalf("access of %#x outside every region", ev.Addr)
			}
			got = append(got, fmt.Sprint(r.Name, ix))
		}
	}
	// B[1] is read, then the row A[1] is written wherever B[1] points.
	want := "[B[1] A[1 0] A[1 1] A[1 2] A[1 3]]"
	if fmt.Sprint(got) != want {
		t.Errorf("node 1's accesses are %v, want %s", got, want)
	}
}
