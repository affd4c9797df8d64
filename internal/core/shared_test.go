package core_test

import (
	"sync"
	"testing"

	"cachier/internal/analysis"
	"cachier/internal/bench"
	"cachier/internal/core"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/trace"
	"cachier/internal/vet"
)

// TestAnnotateSharedProgram: annotation only reads the checked program, so
// any number of goroutines may annotate one program at once, in every style,
// and each gets the output a lone call gets; afterwards the program still
// prints as it did. Barnes's placement relocates guarded check-outs and
// generates loops, and MatMul's flags races, so every kind of generated
// statement is spliced. The goroutines annotate a copy parsed afresh while
// vet reads the same copy, so they share its one analysis.Info from whichever
// call builds it: nothing writes to an Info after it is built. make race runs
// this under the race detector.
func TestAnnotateSharedProgram(t *testing.T) {
	const goroutines = 4
	styles := []core.Options{
		{Style: core.StylePerformance},
		{Style: core.StylePerformance, Prefetch: true},
		{Style: core.StyleProgrammer},
	}
	for _, b := range []*bench.Benchmark{bench.Barnes(), bench.MatMul()} {
		prog := parc.MustParse(b.Source(b.Train))
		printed := parc.Print(prog)
		cfg := sim.DefaultConfig()
		cfg.Nodes = b.Nodes
		cfg.Mode = sim.ModeTrace
		traced, err := sim.Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces := []*trace.Trace{traced.Trace}
		want := make([]string, len(styles))
		for i, opts := range styles {
			res, err := core.AnnotateMulti(prog, traces, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Annotations == 0 {
				t.Fatalf("%s, style %d: nothing inserted", b.Name, i)
			}
			want[i] = res.Source
		}
		fresh := parc.MustParse(b.Source(b.Train))
		builds := analysis.Builds()
		got := make([][]string, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			vet.Analyze(fresh, vet.Options{Nprocs: b.Nodes})
		}()
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, opts := range styles {
					res, err := core.AnnotateMulti(fresh, traces, opts)
					if err != nil {
						errs[g] = err
						return
					}
					got[g] = append(got[g], res.Source)
				}
			}()
		}
		wg.Wait()
		if n := analysis.Builds() - builds; n != 1 {
			t.Errorf("%s: %d goroutines built %d Infos for one program, want 1", b.Name, goroutines+1, n)
		}
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("%s, goroutine %d: %v", b.Name, g, errs[g])
			}
			for i := range styles {
				if got[g][i] != want[i] {
					t.Errorf("%s, goroutine %d, style %d: output differs from the sequential call", b.Name, g, i)
				}
			}
		}
		if after := parc.Print(fresh); after != printed {
			t.Errorf("%s: annotating changed the program; it prints as:\n%s", b.Name, after)
		}
	}
}
