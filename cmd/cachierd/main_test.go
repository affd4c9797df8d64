package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cachier/internal/parcgen"
	"cachier/internal/serve"
)

// lockedBuffer is the daemon's output, which a test reads while the daemon
// writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon in a goroutine on an ephemeral port and
// returns its base URL, the cancel that triggers drain, and a channel with
// run's error.
func startDaemon(t *testing.T, extra ...string) (base string, stop context.CancelFunc, done chan error, out *lockedBuffer) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	out = &lockedBuffer{}
	done = make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	go func() { done <- run(ctx, args, out, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && len(data) > 0 {
			base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never wrote its address file; output:\n%s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, cancel, done, out
}

// TestDaemonLifecycle boots the daemon, serves one real request, and shuts
// it down gracefully, checking the response matches the library result and
// the metrics dump lands.
func TestDaemonLifecycle(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "metrics.json")
	base, stop, done, out := startDaemon(t, "-metrics-dump", dump)

	req := &serve.VetRequest{Source: parcgen.Generate(5), Nodes: 4}
	want, err := serve.EvalVet(req)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := serve.MarshalResponse(want)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/vet", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got.Bytes(), wantBytes) {
		t.Fatalf("daemon response diverges from library result")
	}

	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", out)
	}

	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("metrics dump: %v", err)
	}
	var snap map[string]uint64
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics dump is not JSON: %v", err)
	}
	if snap[`requests_total{endpoint="vet",code="200"}`] != 1 {
		t.Fatalf("metrics dump missing the served request: %v", snap)
	}
	for _, want := range []string{"listening on", "draining", "stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("daemon output missing %q:\n%s", want, out)
		}
	}
}

func TestDaemonBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}, new(bytes.Buffer), new(bytes.Buffer)); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), []string{"stray"}, new(bytes.Buffer), new(bytes.Buffer)); err == nil {
		t.Fatal("stray argument accepted")
	}
	if err := run(context.Background(), []string{"-addr", "999.999.999.999:0"}, new(bytes.Buffer), new(bytes.Buffer)); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestDaemonDrainRefusesNewWork checks the daemon's healthz flips to 503
// during shutdown (the drain is externally observable, not just internal).
func TestDaemonDrainRefusesNewWork(t *testing.T) {
	base, stop, done, out := startDaemon(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}
	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", out)
	}
	// The listener is closed after drain; the port must refuse connections.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// TestDaemonDebugListener: -debug-addr serves net/http/pprof on a listener
// of its own, the API listener answers 404 for the same path, and the debug
// listener closes when the drain begins.
func TestDaemonDebugListener(t *testing.T) {
	base, stop, done, out := startDaemon(t, "-debug-addr", "127.0.0.1:0")
	const prefix = "cachierd: debug listening on "
	var debug string
	for _, line := range strings.Split(out.String(), "\n") {
		if addr, ok := strings.CutPrefix(line, prefix); ok {
			debug = "http://" + addr
		}
	}
	if debug == "" {
		stop()
		t.Fatalf("daemon printed no debug address; output:\n%s", out)
	}
	for _, c := range []struct {
		url  string
		want int
	}{
		{debug + "/debug/pprof/", http.StatusOK},
		{debug + "/debug/pprof/cmdline", http.StatusOK},
		{base + "/debug/pprof/", http.StatusNotFound},
		{debug + "/healthz", http.StatusNotFound},
	} {
		resp, err := http.Get(c.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", out)
	}
	if _, err := http.Get(debug + "/debug/pprof/"); err == nil {
		t.Fatal("debug listener still serving after shutdown")
	}
}
