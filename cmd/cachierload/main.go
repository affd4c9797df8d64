// Command cachierload replays the conformance corpus against a live
// cachierd and cross-checks every HTTP response byte-for-byte against the
// in-process library result (serve.Eval* + serve.MarshalResponse). It is
// both the serving layer's differential test — any divergence is a bug, and
// exits nonzero — and its load benchmark.
//
// Usage:
//
//	cachierload -addr host:port [-seeds 200] [-nodes 4] [-concurrency 8]
//	            [-qps 0] [-static] [-min-speedup 0] [-json BENCH_serve.json]
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
// drain end to end. -json writes latency percentiles (exact, from sorted
// samples), throughput, hit rate, and the cold/hit p50 speedup; -min-speedup
// makes the speedup a hard floor. SIGINT truncates the run but still writes
// the report with "truncated": true.
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
	"sort"
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

// classStats aggregates one request class's outcomes. The unexported sample
// slices accumulate raw latencies; percentiles are computed once a pass
// completes.
type classStats struct {
	Requests    int           `json:"requests"`
	Divergences int           `json:"divergences"`
	ColdUS      latencyReport `json:"cold_us"`
	CachedUS    latencyReport `json:"cached_us"`

	coldSamples   []int64
	cachedSamples []int64
}

type latencyReport struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
}

// report is BENCH_serve.json.
type report struct {
	Addr              string                 `json:"addr"`
	Seeds             int                    `json:"seeds"`
	Programs          int                    `json:"programs"`
	Concurrency       int                    `json:"concurrency"`
	RequestsCold      int                    `json:"requests_cold"`
	RequestsCached    int                    `json:"requests_cached"`
	Divergences       int                    `json:"divergences"`
	HitRate           float64                `json:"hit_rate"`
	ColdUS            latencyReport          `json:"cold_us"`
	CachedUS          latencyReport          `json:"cached_us"`
	ColdHitSpeedupP50 float64                `json:"cold_hit_speedup_p50"`
	ThroughputRPS     float64                `json:"throughput_rps"`
	WallSeconds       float64                `json:"wall_seconds"`
	Classes           map[string]*classStats `json:"classes"`
	Truncated         bool                   `json:"truncated"`
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
		qps         = fs.Float64("qps", 0, "request rate limit (0 = unlimited)")
		static      = fs.Bool("static", true, "include the /v1/static class")
		minSpeedup  = fs.Float64("min-speedup", 0, "fail unless cached p50 is at least this many times faster than cold")
		jsonPath    = fs.String("json", "", "write the benchmark report to this file")
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
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	truncated := errors.Is(err, context.Canceled)

	rep := &report{
		Addr:        base,
		Seeds:       *seeds,
		Programs:    *seeds + 1,
		Concurrency: *concurrency,
		Classes:     map[string]*classStats{},
		Truncated:   truncated,
	}
	start := time.Now()
	var coldUS, cachedUS []int64
	hits := 0
	if !truncated {
		fmt.Fprintf(stdout, "cachierload: cold pass (%d requests, concurrency %d)\n", len(reqs), *concurrency)
		coldUS, _, err = replay(ctx, base, reqs, *concurrency, *qps, "cold", rep, stderr)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				return err
			}
			rep.Truncated = true
		}
		rep.RequestsCold = len(coldUS)
	}
	if !rep.Truncated {
		fmt.Fprintf(stdout, "cachierload: cached pass\n")
		cachedUS, hits, err = replay(ctx, base, reqs, *concurrency, *qps, "cached", rep, stderr)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				return err
			}
			rep.Truncated = true
		}
		rep.RequestsCached = len(cachedUS)
	}
	wall := time.Since(start)

	rep.ColdUS = percentiles(coldUS)
	rep.CachedUS = percentiles(cachedUS)
	for _, cs := range rep.Classes {
		rep.Divergences += cs.Divergences
	}
	if rep.RequestsCached > 0 {
		rep.HitRate = float64(hits) / float64(rep.RequestsCached)
	}
	if rep.CachedUS.P50 > 0 {
		rep.ColdHitSpeedupP50 = float64(rep.ColdUS.P50) / float64(rep.CachedUS.P50)
	}
	rep.WallSeconds = wall.Seconds()
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.RequestsCold+rep.RequestsCached) / wall.Seconds()
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "cachierload: %d+%d requests, %d divergences, hit rate %.3f, cold p50 %dus, cached p50 %dus (%.1fx), %.1f req/s\n",
		rep.RequestsCold, rep.RequestsCached, rep.Divergences, rep.HitRate,
		rep.ColdUS.P50, rep.CachedUS.P50, rep.ColdHitSpeedupP50, rep.ThroughputRPS)

	if daemon != nil {
		if err := stopDaemon(daemon); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "cachierload: daemon drained cleanly")
	}

	switch {
	case rep.Truncated:
		return errors.New("interrupted (report truncated)")
	case rep.Divergences > 0:
		return fmt.Errorf("%d divergences between HTTP responses and library results", rep.Divergences)
	case *minSpeedup > 0 && rep.ColdHitSpeedupP50 < *minSpeedup:
		return fmt.Errorf("cached p50 speedup %.1fx below the %.1fx floor", rep.ColdHitSpeedupP50, *minSpeedup)
	case rep.RequestsCached > 0 && hits < rep.RequestsCached:
		return fmt.Errorf("only %d/%d cached-pass responses were cache hits", hits, rep.RequestsCached)
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

// replay sends every request once at the given concurrency and rate,
// checking bytes and cache status. pass is "cold" (miss/flight expected) or
// "cached" (hit expected; hit count is returned).
func replay(ctx context.Context, base string, reqs []*request, concurrency int, qps float64, pass string, rep *report, stderr io.Writer) (latencies []int64, hits int, err error) {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		tickets = make(chan struct{}, concurrency)
	)
	var limiter <-chan time.Time
	if qps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / qps))
		defer t.Stop()
		limiter = t.C
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	for _, r := range reqs {
		if err := ctx.Err(); err != nil {
			wg.Wait()
			return latencies, hits, err
		}
		if limiter != nil {
			select {
			case <-limiter:
			case <-ctx.Done():
				wg.Wait()
				return latencies, hits, ctx.Err()
			}
		}
		tickets <- struct{}{}
		wg.Add(1)
		go func(r *request) {
			defer wg.Done()
			defer func() { <-tickets }()
			us, hit, derr := sendOne(ctx, client, base, r, pass)
			mu.Lock()
			defer mu.Unlock()
			cs := rep.Classes[r.class]
			if cs == nil {
				cs = &classStats{}
				rep.Classes[r.class] = cs
			}
			if pass == "cold" {
				cs.Requests++
			}
			if derr != nil {
				cs.Divergences++
				fmt.Fprintf(stderr, "cachierload: DIVERGENCE %s/%s (%s): %v\n", r.name, r.class, pass, derr)
				return
			}
			latencies = append(latencies, us)
			if hit {
				hits++
			}
			if pass == "cold" {
				cs.coldSamples = append(cs.coldSamples, us)
			} else {
				cs.cachedSamples = append(cs.cachedSamples, us)
			}
		}(r)
	}
	wg.Wait()

	for _, cs := range rep.Classes {
		if pass == "cold" {
			cs.ColdUS = percentiles(cs.coldSamples)
		} else {
			cs.CachedUS = percentiles(cs.cachedSamples)
		}
	}
	return latencies, hits, ctx.Err()
}

// sendOne posts one request and cross-checks status, cache header, body
// bytes, and (cold pass) the referenced snapshots.
func sendOne(ctx context.Context, client *http.Client, base string, r *request, pass string) (us int64, hit bool, err error) {
	url := base + "/v1/" + r.class
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(r.body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	us = time.Since(start).Microseconds()
	if err != nil {
		return 0, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, r.want) {
		return 0, false, fmt.Errorf("response bytes diverge from library result (%d vs %d bytes)", len(body), len(r.want))
	}
	status := resp.Header.Get("X-Cachier-Cache")
	hit = status == "hit"
	if pass == "cached" && !hit {
		return 0, false, fmt.Errorf("cached-pass response was %q, want hit", status)
	}
	if pass == "cold" {
		for id, want := range r.snaps {
			sresp, err := client.Get(base + "/v1/snapshot/" + id)
			if err != nil {
				return 0, false, err
			}
			sbody, err := io.ReadAll(sresp.Body)
			sresp.Body.Close()
			if err != nil {
				return 0, false, err
			}
			if sresp.StatusCode != http.StatusOK {
				return 0, false, fmt.Errorf("snapshot %s: status %d", id, sresp.StatusCode)
			}
			if !bytes.Equal(sbody, want) {
				return 0, false, fmt.Errorf("snapshot %s diverges from library bytes", id)
			}
		}
	}
	return us, hit, nil
}

// percentiles computes exact p50/p95/p99 from the sample set (nearest-rank
// on the sorted samples).
func percentiles(us []int64) latencyReport {
	if len(us) == 0 {
		return latencyReport{}
	}
	s := append([]int64(nil), us...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) int64 {
		i := int(q*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return latencyReport{P50: rank(0.50), P95: rank(0.95), P99: rank(0.99)}
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
