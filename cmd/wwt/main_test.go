package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

var jacobi = filepath.Join("..", "..", "examples", "parc", "jacobi_wholefit.parc")

// TestFullMapIsDirnNB: the full-map baseline is a pointer per sharer,
// selected by protocol spec; the run names it and takes no trap.
func TestFullMapIsDirnNB(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-nodes", "4", "-protocol", "dirnnb:32", "-stats", jacobi}, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	for _, want := range []string{"(7 barriers, Dir32NB)", "; 0 traps\n", "engine: lanes\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestFullMapFlagIsGone: the retired -fullmap switch is a flag error, so a
// script that still passes it fails instead of silently measuring Dir1SW.
func TestFullMapFlagIsGone(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-nodes", "4", "-fullmap", jacobi}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "-fullmap") {
		t.Fatalf("err = %v, want a flag error naming -fullmap", err)
	}
	if out.Len() != 0 {
		t.Errorf("a flag error ran the program:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "Usage of wwt") {
		t.Errorf("stderr lacks the usage:\n%s", errb.String())
	}
}
