package vet_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/vet"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRaceReportsGolden pins vet's full report text, byte for byte, on the
// programs that reach the race finder's corner cases: the race demo, every
// Figure 6 port's training and hand-annotated sources at 4 and 32 nodes,
// and a synthetic program (testdata/races_many.parc) whose findings run
// past maxFindings across more than ten epochs, so the report shows both
// the finder's name@epoch bucket order and where it truncates. parcgen
// programs vet clean, so the corpus cannot reach any of this.
func TestRaceReportsGolden(t *testing.T) {
	type vetCase struct {
		name, file, src string
		nodes           int
	}
	var cases []vetCase
	for _, f := range []string{"../../examples/parc/race_demo.parc", "testdata/races_many.parc", "testdata/races_mixed.parc"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{4, 32} {
			cases = append(cases, vetCase{filepath.Base(f), filepath.Base(f), string(src), n})
		}
	}
	for _, b := range bench.All() {
		for _, n := range []int{4, 32} {
			cases = append(cases,
				vetCase{b.Name + " train", b.Name + ".parc", b.Source(b.Train), n},
				vetCase{b.Name + " hand", b.Name + "_hand.parc", b.Hand(b.Train), n})
		}
	}
	var out strings.Builder
	for _, c := range cases {
		rep, err := vet.AnalyzeSource(c.file, c.src, vet.Options{Nprocs: c.nodes})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&out, "== %s, %d nodes: %d findings ==\n%s", c.name, c.nodes, len(rep.Findings), rep)
	}
	golden := filepath.Join("testdata", "races.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}
