package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestGolden pins what make staticdiff prints, byte for byte: the table for
// the two checked-in examples, then the table for every Figure 6 port at its
// own geometry. Inference, the replay, placement and the printer all feed
// these rows, so a change to any of them that moves an answer shows here.
// Run with -update to rewrite testdata/staticdiff.golden.
func TestGolden(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "staticdiff.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Run from the Makefile's working directory, so rows name the same paths.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	var out strings.Builder
	for _, args := range [][]string{
		{"examples/parc/jacobi_wholefit.parc", "examples/parc/race_demo.parc"},
		{"-bench", "all"},
	} {
		if code := run(args, &out); code != 0 {
			t.Fatalf("staticdiff %s: exit %d\n%s", strings.Join(args, " "), code, out.String())
		}
	}
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
	if out.String() != string(want) {
		t.Errorf("staticdiff output changed (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestExamples runs the differential over the checked-in ParC sources; both
// must be exact with byte-identical placement in every style (race_demo
// races, but the replay reproduces the simulator's deterministic schedule).
func TestExamples(t *testing.T) {
	var out strings.Builder
	code := run([]string{
		"../../examples/parc/jacobi_wholefit.parc",
		"../../examples/parc/race_demo.parc",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if !strings.Contains(line, "true") || !strings.Contains(line, "3/3") {
			t.Errorf("expected exact 3/3 row, got: %s", line)
		}
	}
}

// TestBenchPort runs one inexact Figure 6 port end to end: Mp3d widens, so
// placement divergence is allowed, but the covering guarantee must hold and
// the command must exit zero.
func TestBenchPort(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-bench", "Mp3d"}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "Mp3d") || !strings.Contains(out.String(), "false") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

// TestBadUsage covers the error paths.
func TestBadUsage(t *testing.T) {
	var out strings.Builder
	if code := run(nil, &out); code != 2 {
		t.Errorf("no inputs: exit %d, want 2", code)
	}
	if code := run([]string{"no-such-file.parc"}, &out); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	if code := run([]string{"-bench", "NoSuchBench"}, &out); code != 2 {
		t.Errorf("unknown bench: exit %d, want 2", code)
	}
}
