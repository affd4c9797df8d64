// Package bench contains the reproduction's benchmark suite: ParC ports of
// the five programs evaluated in the paper's Section 6 (Barnes, Ocean, Mp3d,
// Matrix Multiply, Tomcatv), hand-annotated variants reproducing the
// specific mistakes the paper attributes to hand annotation, the Jacobi
// program of Section 2.1, and the harness that regenerates Figure 6.
//
// The SPLASH originals are C programs on real inputs; these ports are
// scaled-down synthetic equivalents that preserve each program's sharing
// character (see DESIGN.md): Matrix Multiply's block race on the result
// matrix, Ocean's high-degree boundary sharing, Mp3d's dynamic indirect
// cell updates, Barnes' pointer-chasing over a shared tree with mostly
// private computation, and Tomcatv's compute-dominated profile.
package bench

import (
	"fmt"
	"strings"
)

// Params sizes a benchmark instance. Fields are interpreted per benchmark;
// Seed varies the synthetic input (the paper annotates with one data set
// and measures with another, Section 6).
type Params struct {
	N     int   // problem size (matrix dim, grid dim, particles, bodies)
	P     int   // partition factor where relevant (e.g. sqrt of workers)
	Steps int   // time steps / iterations
	Seed  int64 // input data seed
}

// Benchmark describes one target program.
type Benchmark struct {
	Name string
	// Nodes is the simulated machine size the benchmark expects.
	Nodes int
	// Source generates the unannotated ParC program.
	Source func(p Params) string
	// Hand generates the hand-annotated variant, including the flaws the
	// paper reports for the hand versions (Section 6).
	Hand func(p Params) string
	// Train and Test are the annotation-time and measurement-time inputs.
	Train Params
	Test  Params

	// BigTrain and BigTest are near-paper-scale inputs (cmd/fig6 -big);
	// they take minutes rather than seconds to simulate.
	BigTrain Params
	BigTest  Params

	// PaperTrain and PaperTest are the paper-scale inputs (cmd/fig6
	// -paper): the Section 6 problem sizes — 256x256 Matrix Multiply,
	// 1024-body Barnes, 1024x1024 Tomcatv — at full cost. Expect minutes
	// per benchmark on the pure-Go simulator.
	PaperTrain Params
	PaperTest  Params

	// Parallel and Lanes are ignored. They selected simulator engines that
	// no longer exist as a choice (see sim.Config.Parallel) and stay only
	// because benchmark/fig6.go, which a PR outside the benchmark archetype
	// may not edit, reads them; the next benchmark PR removes that read
	// and these fields.
	Parallel int
	Lanes    bool

	// Racy marks benchmarks whose ParC ports genuinely race (the paper
	// runs them anyway; Section 3.1's epoch model tolerates them). The
	// static race detector is expected to flag exactly these.
	Racy bool

	// Protocol is the coherence protocol spec every run of this benchmark
	// uses (sim.Config.Protocol); "" is Dir1SW, the paper's machine.
	Protocol string
}

// WithProtocol returns a copy of the benchmark that simulates under the
// given coherence protocol spec (see coherence.ParseSpec).
func (b *Benchmark) WithProtocol(spec string) *Benchmark {
	c := *b
	c.Protocol = spec
	return &c
}

// UseBig switches the benchmark to its near-paper-scale inputs.
func (b *Benchmark) UseBig() {
	b.Train, b.Test = b.BigTrain, b.BigTest
}

// UsePaper switches the benchmark to its paper-scale inputs.
func (b *Benchmark) UsePaper() {
	b.Train, b.Test = b.PaperTrain, b.PaperTest
}

// All returns the Figure 6 benchmark suite in the paper's presentation
// order.
func All() []*Benchmark {
	return []*Benchmark{
		Barnes(),
		Ocean(),
		Mp3d(),
		MatMul(),
		Tomcatv(),
	}
}

// ByName finds a benchmark by (case-insensitive) name.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// replaceMarker substitutes a structural marker (like a loop body slot) in
// a template; the marker must be present.
func replaceMarker(src, marker, with string) string {
	if !strings.Contains(src, marker) {
		panic("bench: missing marker " + marker)
	}
	return strings.Replace(src, marker, with, 1)
}

// replaceOnce replaces the first occurrence of old, panicking if absent;
// hand-annotated variants are built by patching the unannotated source so
// the two can never drift apart structurally.
func replaceOnce(src, old, with string) string {
	if !strings.Contains(src, old) {
		panic("bench: missing patch site " + old)
	}
	return strings.Replace(src, old, with, 1)
}

// subst renders a source template, replacing @NAME@ markers with values.
// Benchmarks keep their ParC sources readable as near-literal programs.
func subst(template string, vals map[string]any) string {
	out := template
	for k, v := range vals {
		out = strings.ReplaceAll(out, "@"+k+"@", fmt.Sprint(v))
	}
	if i := strings.Index(out, "@"); i >= 0 {
		end := i + 20
		if end > len(out) {
			end = len(out)
		}
		panic("bench: unreplaced template marker near: " + out[i:end])
	}
	return out
}
