package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/trace"
)

// The golden tables below freeze the simulator's observable results — cycle
// counts, sharing degrees, and trace encodings — as produced by the original
// straight-line implementation (linear-scan scheduler, map directory,
// sequential harness). The optimized simulator must reproduce them
// bit-for-bit: performance work is only allowed to change how fast the
// answer arrives, never the answer.

var goldenFig6 = []struct {
	Benchmark                      string
	None, Hand, Cachier, CachierPF uint64
	ShLoads, ShStores              string
}{
	{Benchmark: "Barnes", None: 1566278, Hand: 1530430, Cachier: 1048152, CachierPF: 1047192, ShLoads: "0.869623", ShStores: "0.190066"},
	{Benchmark: "Ocean", None: 331882, Hand: 331955, Cachier: 261081, CachierPF: 261081, ShLoads: "1.000000", ShStores: "1.000000"},
	{Benchmark: "Mp3d", None: 349387, Hand: 391877, Cachier: 285670, CachierPF: 279640, ShLoads: "1.000000", ShStores: "1.000000"},
	{Benchmark: "MatrixMultiply", None: 1925355, Hand: 853754, Cachier: 848099, CachierPF: 873354, ShLoads: "1.000000", ShStores: "1.000000"},
	{Benchmark: "Tomcatv", None: 3002574, Hand: 2976854, Cachier: 2565938, CachierPF: 2362428, ShLoads: "0.857143", ShStores: "0.429940"},
}

var goldenTraces = []struct {
	Benchmark   string
	TraceCycles uint64
	Epochs      int
	TraceHash   uint64
}{
	{Benchmark: "Barnes", TraceCycles: 878402, Epochs: 8, TraceHash: 0x538959d0d951608c},
	{Benchmark: "Ocean", TraceCycles: 272724, Epochs: 8, TraceHash: 0x5b12d8ea8e6f3c0},
	{Benchmark: "Mp3d", TraceCycles: 322148, Epochs: 5, TraceHash: 0x588be1eaeaf77c16},
	{Benchmark: "MatrixMultiply", TraceCycles: 2178471, Epochs: 3, TraceHash: 0x8052ce3c1bea3204},
	{Benchmark: "Tomcatv", TraceCycles: 2318414, Epochs: 6, TraceHash: 0xe16c53812b1bc487},
}

// TestFigure6Golden runs the full (parallel) harness and checks every cycle
// count and sharing degree against the frozen sequential-implementation
// results. It is the cycles-exact gate; the benchmark's own table of the
// same 20 cells (benchmark/expected/fig6_cycles.json) must say what this one
// says, so that neither can be refreshed alone.
func TestFigure6Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	data, err := os.ReadFile("../../benchmark/expected/fig6_cycles.json")
	if err != nil {
		t.Fatal(err)
	}
	var expected map[string]map[Variant]uint64
	if err := json.Unmarshal(data, &expected); err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]map[Variant]uint64)
	for _, g := range goldenFig6 {
		golden[g.Benchmark] = map[Variant]uint64{
			VariantNone: g.None, VariantHand: g.Hand, VariantCachier: g.Cachier, VariantCachierPrefetch: g.CachierPF,
		}
	}
	if !reflect.DeepEqual(expected, golden) {
		t.Errorf("benchmark/expected/fig6_cycles.json and goldenFig6 disagree:\n%v\n%v", expected, golden)
	}

	rows, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(goldenFig6) {
		t.Fatalf("Figure6 returned %d rows, want %d", len(rows), len(goldenFig6))
	}
	for i, want := range goldenFig6 {
		r := rows[i]
		if r.Benchmark != want.Benchmark {
			t.Fatalf("row %d is %s, want %s (order must be stable)", i, r.Benchmark, want.Benchmark)
		}
		for _, v := range Variants() {
			if got := golden[want.Benchmark][v]; r.Cycles[v] != got {
				t.Errorf("%s/%s: %d cycles, golden %d", r.Benchmark, v, r.Cycles[v], got)
			}
		}
		if l := fmt.Sprintf("%.6f", r.SharingLoads); l != want.ShLoads {
			t.Errorf("%s: sharing loads %s, golden %s", r.Benchmark, l, want.ShLoads)
		}
		if s := fmt.Sprintf("%.6f", r.SharingStores); s != want.ShStores {
			t.Errorf("%s: sharing stores %s, golden %s", r.Benchmark, s, want.ShStores)
		}
	}
}

// TestTraceDeterminism traces every benchmark twice and requires the runs to
// agree with each other — byte-identical trace encodings, equal cycle
// counts — and with the frozen goldens.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, want := range goldenTraces {
		b, err := ByName(want.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machineConfig(b.Nodes)
		cfg.Mode = sim.ModeTrace
		prog, err := parc.Parse(b.Source(b.Train))
		if err != nil {
			t.Fatal(err)
		}

		type run struct {
			cycles uint64
			epochs int
			enc    []byte
		}
		var runs [2]run
		for i := range runs {
			res, err := sim.Run(prog, cfg)
			if err != nil {
				t.Fatalf("%s run %d: %v", b.Name, i, err)
			}
			var buf bytes.Buffer
			if err := trace.Write(&buf, res.Trace); err != nil {
				t.Fatal(err)
			}
			runs[i] = run{cycles: res.Cycles, epochs: len(res.Trace.Epochs), enc: buf.Bytes()}
		}
		if runs[0].cycles != runs[1].cycles {
			t.Errorf("%s: cycle counts differ between runs: %d vs %d", b.Name, runs[0].cycles, runs[1].cycles)
		}
		if !bytes.Equal(runs[0].enc, runs[1].enc) {
			t.Errorf("%s: trace encodings differ between runs", b.Name)
		}
		if runs[0].cycles != want.TraceCycles {
			t.Errorf("%s: %d trace cycles, golden %d", b.Name, runs[0].cycles, want.TraceCycles)
		}
		if runs[0].epochs != want.Epochs {
			t.Errorf("%s: %d epochs, golden %d", b.Name, runs[0].epochs, want.Epochs)
		}
		h := fnv.New64a()
		h.Write(runs[0].enc)
		if got := h.Sum64(); got != want.TraceHash {
			t.Errorf("%s: trace hash %#x, golden %#x", b.Name, got, want.TraceHash)
		}
	}
}
