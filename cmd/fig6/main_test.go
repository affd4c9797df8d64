package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestInterruptWritesTruncatedJSON: a cancelled run must still leave a
// valid -json file behind, marked with the truncation sentinel, and exit
// with an error.
func TestInterruptWritesTruncatedJSON(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jsonPath := filepath.Join(t.TempDir(), "fig6.json")
	var out, errb bytes.Buffer
	err := run(ctx, []string{"-bench", "MatrixMultiply", "-json", jsonPath}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("truncated JSON not written: %v", err)
	}
	var rows []jsonRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("truncated output is not a valid []jsonRow: %v\n%s", err, data)
	}
	last := rows[len(rows)-1]
	if last.Benchmark != "__truncated__" || last.Variant != "interrupted" {
		t.Fatalf("last row = %+v, want the truncation sentinel", last)
	}
}

// TestInterruptMidSuite: a signal arriving while the suite is already
// running (not just before it starts) must be honoured at the post-suite
// boundary — the rows measured so far are flushed with the sentinel and
// the run errors instead of silently completing. The cancel fires 10ms in;
// the smallest suite takes well over 100ms, so the margin is wide.
func TestInterruptMidSuite(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	jsonPath := filepath.Join(t.TempDir(), "fig6.json")
	var out, errb bytes.Buffer
	err := run(ctx, []string{"-bench", "MatrixMultiply", "-json", jsonPath}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("truncated JSON not written: %v", err)
	}
	var rows []jsonRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("truncated output is not a valid []jsonRow: %v\n%s", err, data)
	}
	if last := rows[len(rows)-1]; last.Benchmark != "__truncated__" {
		t.Fatalf("last row = %+v, want the truncation sentinel", last)
	}
}

// TestInterruptWithoutJSON: cancellation without -json still errors but
// writes nothing.
func TestInterruptWithoutJSON(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	err := run(ctx, []string{"-bench", "MatrixMultiply"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
}

// TestRunSingleBenchmark is the happy-path smoke: the smallest benchmark
// completes, prints the Figure 6 table, and writes complete JSON with no
// sentinel.
func TestRunSingleBenchmark(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "fig6.json")
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-bench", "MatrixMultiply", "-json", jsonPath}, &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, &errb)
	}
	if !strings.Contains(out.String(), "Figure 6") || !strings.Contains(out.String(), "MatrixMultiply") {
		t.Fatalf("missing table output:\n%s", &out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []jsonRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no JSON rows")
	}
	for _, r := range rows {
		if r.Benchmark == "__truncated__" {
			t.Fatal("complete run carries the truncation sentinel")
		}
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-bogus"},
		{"-bench", "NoSuchBenchmark"},
		{"-protosweep", "-statsjson", "stats.json"},
		{"-protosweep", "-protocol", "dirnnb"},
	} {
		if err := run(context.Background(), args, &buf, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
