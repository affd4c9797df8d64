// Command cachierload replays the conformance corpus against a live
// cachierd and cross-checks every HTTP response byte-for-byte against the
// in-process library result (serve.Eval* + serve.MarshalResponse). It is
// the serving layer's differential test: any divergence is a bug, and exits
// nonzero. How fast cachierd answers is measured by benchmark/, not here.
//
// Usage:
//
//	cachierload -addr host:port [-seeds 200] [-nodes 4] [-concurrency 8] [-static]
//	cachierload -boot path/to/cachierd [...]
//
// The harness builds one request per class (vet, annotate, static,
// simulate) for each corpus seed plus the Jacobi worked example, computes
// the expected bytes in process, then replays everything twice: a cold pass
// (every response must be a miss/flight and byte-identical to the library)
// and a cached pass (must be hits, still byte-identical — the cache must
// never change a body). Snapshot GETs are cross-checked the same way.
//
// -boot spawns the given cachierd binary on an ephemeral port, runs the
// load, then SIGTERMs it and requires a clean exit — covering graceful
// drain end to end. SIGINT stops the replay and exits nonzero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"cachier/internal/bench"
	"cachier/internal/parcgen"
	"cachier/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cachierload:", err)
		os.Exit(1)
	}
}

// request is one replayable unit: the endpoint, the marshaled body, the
// expected response bytes, and any snapshots the response must publish.
type request struct {
	class string // "vet", "annotate", "static", "simulate"
	name  string // program label, for divergence reports
	body  []byte
	want  []byte
	snaps map[string][]byte // expected GET /v1/snapshot/{id} bodies
}

// tally counts one replay pass's outcomes.
type tally struct {
	requests, divergences, hits int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cachierload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "server address (host:port); required unless -boot")
		boot        = fs.String("boot", "", "spawn this cachierd binary on an ephemeral port and tear it down after")
		seeds       = fs.Int("seeds", 200, "number of conformance corpus seeds to replay")
		nodes       = fs.Int("nodes", 4, "simulated machine size for corpus programs")
		concurrency = fs.Int("concurrency", 8, "concurrent in-flight requests")
		static      = fs.Bool("static", true, "include the /v1/static class")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if (*addr == "") == (*boot == "") {
		return errors.New("exactly one of -addr and -boot is required")
	}
	if *seeds < 1 || *concurrency < 1 {
		return errors.New("-seeds and -concurrency must be positive")
	}

	base := "http://" + *addr
	var daemon *exec.Cmd
	if *boot != "" {
		var err error
		daemon, base, err = bootDaemon(ctx, *boot, stderr)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "cachierload: building %d-seed request set (nodes=%d, static=%v)\n", *seeds, *nodes, *static)
	reqs, err := buildRequests(ctx, *seeds, *nodes, *static)
	var cold, cached tally
	if err == nil {
		fmt.Fprintf(stdout, "cachierload: cold pass (%d requests, concurrency %d)\n", len(reqs), *concurrency)
		cold, err = replay(ctx, base, reqs, *concurrency, "cold", stderr)
	}
	if err == nil {
		fmt.Fprintf(stdout, "cachierload: cached pass\n")
		cached, err = replay(ctx, base, reqs, *concurrency, "cached", stderr)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	interrupted := err != nil
	divergences := cold.divergences + cached.divergences
	hitRate := 0.0
	if cached.requests > 0 {
		hitRate = float64(cached.hits) / float64(cached.requests)
	}
	fmt.Fprintf(stdout, "cachierload: %d+%d requests, %d divergences, hit rate %.3f\n",
		cold.requests, cached.requests, divergences, hitRate)

	if daemon != nil {
		if err := stopDaemon(daemon); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "cachierload: daemon drained cleanly")
	}

	switch {
	case interrupted:
		return errors.New("interrupted")
	case divergences > 0:
		return fmt.Errorf("%d divergences between HTTP responses and library results", divergences)
	case cached.hits < cached.requests:
		return fmt.Errorf("only %d/%d cached-pass responses were cache hits", cached.hits, cached.requests)
	}
	return nil
}

// buildRequests computes the full request set and its expected bytes in
// process — the library side of the differential.
func buildRequests(ctx context.Context, seeds, nodes int, static bool) ([]*request, error) {
	programs := make([]struct{ name, src string }, 0, seeds+1)
	for s := 1; s <= seeds; s++ {
		programs = append(programs, struct{ name, src string }{fmt.Sprintf("seed%d", s), parcgen.Generate(int64(s))})
	}
	programs = append(programs, struct{ name, src string }{"jacobi", bench.JacobiUnannotated(bench.JacobiParams)})

	var reqs []*request
	for _, p := range programs {
		if err := ctx.Err(); err != nil {
			return reqs, err
		}
		machine := serve.MachineSpec{Nodes: nodes}
		annReq := &serve.AnnotateRequest{Source: p.src, Prefetch: true, Machine: machine}
		vetReq := &serve.VetRequest{Source: p.src, Nodes: nodes}
		simReq := &serve.SimulateRequest{Source: p.src, Configs: []serve.MachineSpec{machine}}

		add := func(class string, in, out any, snaps map[string][]byte, err error) error {
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.name, class, err)
			}
			body, err := json.Marshal(in)
			if err != nil {
				return err
			}
			want, err := serve.MarshalResponse(out)
			if err != nil {
				return err
			}
			reqs = append(reqs, &request{class: class, name: p.name, body: body, want: want, snaps: snaps})
			return nil
		}

		vr, err := serve.EvalVet(vetReq)
		if err := add("vet", vetReq, vr, nil, err); err != nil {
			return nil, err
		}
		ar, err := serve.EvalAnnotate(annReq)
		if err := add("annotate", annReq, ar, nil, err); err != nil {
			return nil, err
		}
		if static {
			sr, err := serve.EvalStatic(annReq)
			if err := add("static", annReq, sr, nil, err); err != nil {
				return nil, err
			}
		}
		mr, snaps, err := serve.EvalSimulate(simReq)
		if err := add("simulate", simReq, mr, snaps, err); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// replay sends every request once at the given concurrency, checking bytes
// and cache status. pass is "cold" (miss/flight expected) or "cached" (hit
// expected).
func replay(ctx context.Context, base string, reqs []*request, concurrency int, pass string, stderr io.Writer) (tally, error) {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		tickets = make(chan struct{}, concurrency)
		t       tally
	)
	client := &http.Client{Timeout: 5 * time.Minute}
	for _, r := range reqs {
		if err := ctx.Err(); err != nil {
			wg.Wait()
			return t, err
		}
		tickets <- struct{}{}
		wg.Add(1)
		go func(r *request) {
			defer wg.Done()
			defer func() { <-tickets }()
			hit, err := sendOne(ctx, client, base, r, pass)
			mu.Lock()
			defer mu.Unlock()
			t.requests++
			if err != nil {
				t.divergences++
				fmt.Fprintf(stderr, "cachierload: DIVERGENCE %s/%s (%s): %v\n", r.name, r.class, pass, err)
			} else if hit {
				t.hits++
			}
		}(r)
	}
	wg.Wait()
	return t, ctx.Err()
}

// sendOne posts one request and cross-checks status, cache header, body
// bytes, and (cold pass) the referenced snapshots.
func sendOne(ctx context.Context, client *http.Client, base string, r *request, pass string) (hit bool, err error) {
	url := base + "/v1/" + r.class
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(r.body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, r.want) {
		return false, fmt.Errorf("response bytes diverge from library result (%d vs %d bytes)", len(body), len(r.want))
	}
	status := resp.Header.Get("X-Cachier-Cache")
	hit = status == "hit"
	if pass == "cached" && !hit {
		return false, fmt.Errorf("cached-pass response was %q, want hit", status)
	}
	if pass == "cold" {
		for id, want := range r.snaps {
			sresp, err := client.Get(base + "/v1/snapshot/" + id)
			if err != nil {
				return false, err
			}
			sbody, err := io.ReadAll(sresp.Body)
			sresp.Body.Close()
			if err != nil {
				return false, err
			}
			if sresp.StatusCode != http.StatusOK {
				return false, fmt.Errorf("snapshot %s: status %d", id, sresp.StatusCode)
			}
			if !bytes.Equal(sbody, want) {
				return false, fmt.Errorf("snapshot %s diverges from library bytes", id)
			}
		}
	}
	return hit, nil
}

// bootDaemon spawns a cachierd on an ephemeral port and waits for its
// address file.
func bootDaemon(ctx context.Context, bin string, stderr io.Writer) (*exec.Cmd, string, error) {
	dir, err := os.MkdirTemp("", "cachierload")
	if err != nil {
		return nil, "", err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, "http://" + strings.TrimSpace(string(data)), nil
		}
		if err := ctx.Err(); err != nil {
			cmd.Process.Kill()
			return nil, "", err
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			return nil, "", errors.New("booted daemon never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopDaemon SIGTERMs the daemon and requires a clean (drained) exit.
func stopDaemon(cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		return errors.New("daemon did not exit within 60s of SIGTERM")
	}
}
