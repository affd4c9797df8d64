package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"cachier/internal/bench"
	"cachier/internal/core"
	"cachier/internal/dir1sw"
	"cachier/internal/interp"
	"cachier/internal/memory"
	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/serve"
	"cachier/internal/sim"
	"cachier/internal/staticanno"
	"cachier/internal/trace"
	"cachier/internal/vet"
)

// probeResult is what the layer probes measured: the per-layer metrics that
// do not depend on the workload, the mean time of each library phase (from
// which the serve workloads' shares are modelled), and the probes' spans.
type probeResult struct {
	ledger
	phaseMean map[string]float64 // span name -> mean ns
	spans     []span

	// spanCostNS is what recording one span costs: a begin and an end.
	spanCostNS float64

	// Everything parc.Parse was timed on, fig6 sources and corpus alike.
	parsedBytes int
	parseTime   time.Duration
}

// runProbes times every layer from outside, around its public functions.
// None of it depends on which workload is being traced; only the corpus
// sample depends on the seed.
func runProbes(seed int64, sizes serveSizes, ports []*bench.Benchmark) (*probeResult, error) {
	p := &probeResult{ledger: make(ledger), phaseMean: make(map[string]float64)}
	expected, err := loadFig6Expected()
	if err != nil {
		return nil, err
	}
	rec := newSpanRecorder("probe.fig6")
	st, err := fig6Staged(ports, expected, rec)
	if err != nil {
		return nil, err
	}
	p.spans = appendSpans(p.spans, rec.spans)
	p.fig6Stages(st)
	if err := p.traceCodec(st.traces); err != nil {
		return nil, err
	}
	if err := p.corpus(seed, sizes); err != nil {
		return nil, err
	}
	if err := p.interp(); err != nil {
		return nil, err
	}
	if err := p.coherence(seed); err != nil {
		return nil, err
	}
	if err := p.recorderOverhead(ports[len(ports)-1]); err != nil {
		return nil, err
	}
	p.spanCost()
	return p, nil
}

// spanCost times the benchmark's own span recorder: as many spans as the
// longest traced pass records, begun and ended back to back.
func (p *probeResult) spanCost() {
	const n = 1 << 15
	rec := newSpanRecorder("calibration")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.end(rec.begin("serve.handler", -1, i))
	}
	p.spanCostNS = float64(time.Since(t0).Nanoseconds()) / n
}

// fig6Stages turns one staged regeneration into the sim, trace, and core
// metrics that describe the long 32-node runs.
func (p *probeResult) fig6Stages(st stagedResult) {
	cells := len(st.traces) * len(bench.Variants())
	p.parsedBytes += st.sourceBytes
	p.parseTime += st.parse
	p.set("sim.run_trace_ms", ms(st.traceRun), len(st.traces))
	p.set("sim.run_measure_ms", ms(st.measure), cells)
	p.set("sim.mcycles_per_s", float64(st.cycles)/st.measure.Seconds()/1e6, cells)
	p.set("sim.maccess_per_s", float64(st.accesses)/(st.traceRun+st.measure).Seconds()/1e6, cells+len(st.traces))
	p.set("sim.cycles_total", float64(st.cycles), cells)
	p.set("trace.records_total", float64(st.records), len(st.traces))
	p.set("trace.records_per_s", float64(st.records)/st.traceRun.Seconds(), len(st.traces))
	p.set("core.annotate_ms", ms(st.annotate), 2*len(st.traces))
	p.set("core.records_per_s", 2*float64(st.records)/st.annotate.Seconds(), 2*len(st.traces))
	p.set("core.directives_total", float64(st.directives), 2*len(st.traces))
}

// traceCodec round-trips the training traces through the text format.
func (p *probeResult) traceCodec(traces []*trace.Trace) error {
	var (
		buf     bytes.Buffer
		encoded int
		elapsed time.Duration
	)
	for _, tr := range traces {
		buf.Reset()
		t0 := time.Now()
		if err := trace.Write(&buf, tr); err != nil {
			return fmt.Errorf("trace codec: %w", err)
		}
		encoded += buf.Len()
		if _, err := trace.Read(&buf); err != nil {
			return fmt.Errorf("trace codec: %w", err)
		}
		elapsed += time.Since(t0)
	}
	p.set("trace.codec_mb_per_s", float64(encoded)/1e6/elapsed.Seconds(), len(traces))
	return nil
}

// corpusProbe takes a seeded sample of corpus programs through the library
// path phase by phase, the way the server's pipeline calls it, and through a
// fresh server's handler. The difference is the serve layer's own cost.
type corpusProbe struct {
	rec      *spanRecorder
	machine  sim.Config // the 4-node machine of every serve request
	traceCfg sim.Config
	opts     core.Options
	inferCfg staticanno.Config

	srv *serve.Server
	c   *client

	parseUS, printUS, staticUS, marshalNS []float64
	// overheadNS is, per program, the handler's time on its four requests
	// less the library's on the same work, per request.
	overheadNS []float64
	exact      int
	hot        []request // the first requests sent, for the loopback probe
}

func (p *probeResult) corpus(seed int64, sizes serveSizes) error {
	machine := sim.DefaultConfig()
	machine.Nodes = corpusNodes
	cp := &corpusProbe{
		rec:      newSpanRecorder("probe.corpus"),
		machine:  machine,
		traceCfg: machine,
		opts:     core.DefaultOptions(),
		inferCfg: staticanno.Config{Nodes: corpusNodes, CacheSize: machine.CacheSize, Assoc: machine.Assoc, BlockSize: machine.BlockSize},
		srv:      serve.New(serve.DefaultConfig()),
		c:        newClient(),
	}
	cp.traceCfg.Mode = sim.ModeTrace
	cp.opts.CacheSize = machine.CacheSize

	all := genCorpus(seed, sizes.programs)
	sample := traceSample(seed, sizes)
	for op, i := range sample {
		src := all[i]
		// parc on its own: one parse and one print of the submitted text.
		t0 := time.Now()
		prog, err := parc.Parse(src)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("corpus program %d: %w", op, err)
		}
		parc.Print(prog)
		t2 := time.Now()
		cp.parseUS = append(cp.parseUS, us(t1.Sub(t0)))
		cp.printUS = append(cp.printUS, us(t2.Sub(t1)))
		p.parsedBytes += len(src)
		p.parseTime += t1.Sub(t0)

		// Library and handler take turns going first, so that neither
		// always finds the program's text warm in the CPU's caches, and a
		// drifting host slows both alike.
		sides := [2]func(int, string) (time.Duration, error){cp.library, cp.handler}
		var took [2]time.Duration
		for _, side := range [2]int{op % 2, 1 - op%2} {
			if took[side], err = sides[side](op, src); err != nil {
				return err
			}
		}
		cp.overheadNS = append(cp.overheadNS, float64(took[1]-took[0])/numEndpoints)
	}
	p.spans = appendSpans(p.spans, cp.rec.spans)

	durations := make(map[string][]float64) // span name -> ns
	for _, s := range cp.rec.spans {
		durations[s.Name] = append(durations[s.Name], float64(s.EndNS-s.StartNS))
	}
	for name, ds := range durations {
		p.phaseMean[name] = mean(ds)
	}
	n := len(sample)
	smallRuns := append(append([]float64(nil), durations["sim.run_trace"]...), durations["sim.run_measure"]...)
	p.set("parc.parse_us", median(cp.parseUS), n)
	p.set("parc.print_us", median(cp.printUS), n)
	p.set("parc.parse_mb_per_s", float64(p.parsedBytes)/1e6/p.parseTime.Seconds(), n)
	p.set("serve.canonical_us", median(durations["parc.canonical"])/1e3, n)
	p.set("vet.analyze_us", median(durations["vet.analyze"])/1e3, n)
	p.set("sim.small_run_us", median(smallRuns)/1e3, len(smallRuns))
	p.set("core.annotate_us", median(durations["core.annotate"])/1e3, len(durations["core.annotate"]))
	p.set("staticanno.annotate_us", median(cp.staticUS), n)
	p.set("staticanno.exact_ratio", ratio(float64(cp.exact), float64(n)), n)
	p.set("serve.marshal_us", median(cp.marshalNS)/1e3, len(cp.marshalNS))
	p.set("serve.overhead_us", median(cp.overheadNS)/1e3, n)

	return p.loopback(cp.srv, cp.hot)
}

// library makes the calls the server's pipeline makes for the four
// endpoints of one program, in request order, each under its own span, and
// returns how long they took.
func (cp *corpusProbe) library(op int, src string) (time.Duration, error) {
	rec := cp.rec
	root := rec.begin("benchmark.program", -1, op)
	var failure error // the first one; it skips the phases after it
	phase := func(name string, fn func() error) {
		if failure != nil {
			return
		}
		id := rec.begin(name, root, op)
		if err := fn(); err != nil {
			failure = fmt.Errorf("corpus program %d: %s: %w", op, name, err)
		}
		rec.end(id)
	}
	var (
		pi       *serve.ProgramInfo
		fresh    *parc.Program
		traced   *sim.Result
		inferred *staticanno.Result
		measured *sim.Result
	)
	// Every executing phase parses itself a private copy of the program.
	freshProg := func() (err error) {
		fresh, err = pi.FreshProg()
		return err
	}
	// Canonicalisation is two parses, two checks, a print and a hash; all
	// but the hash is parc's work, so the span is named for parc.
	phase("parc.canonical", func() (err error) {
		pi, err = serve.CanonicalProgram(src)
		return err
	})
	phase("vet.analyze", func() error {
		vet.Analyze(pi.Prog, vet.Options{Nprocs: corpusNodes})
		return nil
	})
	phase("parc.fresh", freshProg)
	phase("sim.run_trace", func() (err error) {
		traced, err = sim.Run(fresh, cp.traceCfg)
		return err
	})
	phase("core.annotate", func() error {
		_, err := core.Annotate(pi.Canonical, traced.Trace, cp.opts)
		return err
	})
	staticStart := time.Now()
	phase("parc.fresh", freshProg)
	phase("staticanno.infer", func() (err error) {
		inferred, err = staticanno.Infer(fresh, cp.inferCfg)
		return err
	})
	phase("core.annotate", func() error {
		_, err := core.Annotate(pi.Canonical, inferred.Trace, cp.opts)
		return err
	})
	cp.staticUS = append(cp.staticUS, us(time.Since(staticStart)))
	phase("parc.fresh", freshProg)
	phase("sim.run_measure", func() (err error) {
		cfg := cp.machine
		cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
		measured, err = sim.Run(fresh, cfg)
		return err
	})
	phase("serve.snapshot", func() error {
		_, err := measured.Snapshot.MarshalIndentJSON()
		return err
	})
	rec.end(root)
	if failure != nil {
		return 0, failure
	}
	if inferred.Exact {
		cp.exact++
	}
	return time.Duration(rec.spans[root].EndNS - rec.spans[root].StartNS), nil
}

// handler sends the program's four requests, cold, and times
// serve.MarshalResponse on the very responses the server sent. It returns
// the handler's time less the marshalling, which is library work too.
func (cp *corpusProbe) handler(op int, src string) (time.Duration, error) {
	var took time.Duration
	for ep := 0; ep < numEndpoints; ep++ {
		r := request{key: op*numEndpoints + ep, body: requestBody(src, ep)}
		if len(cp.hot) < 64 {
			cp.hot = append(cp.hot, r)
		}
		took += cp.c.do(cp.srv.Handler(), &r, nil, 0)
		if cp.c.w.code != http.StatusOK || cp.c.w.header.Get("X-Cachier-Cache") != "miss" {
			return 0, fmt.Errorf("corpus probe: program %d %s: status %d", op, endpoints[ep].path, cp.c.w.code)
		}
		resp := endpoints[ep].response()
		if err := json.Unmarshal(cp.c.w.body, resp); err != nil {
			return 0, fmt.Errorf("corpus probe: program %d %s: decoding the response: %w", op, endpoints[ep].path, err)
		}
		t0 := time.Now()
		again, err := serve.MarshalResponse(resp)
		d := time.Since(t0)
		if err != nil || !bytes.Equal(again, cp.c.w.body) {
			return 0, fmt.Errorf("corpus probe: program %d %s: the response does not survive a marshal round trip", op, endpoints[ep].path)
		}
		cp.marshalNS = append(cp.marshalNS, float64(d))
		took -= d
	}
	return took, nil
}

// loopback sends already-cached requests over a real 127.0.0.1 socket from
// one client and reports how much the socket adds to the handler's own
// time. The socket is net/http and the kernel, measured here once as a
// layer; every workload drives the handler directly.
func (p *probeResult) loopback(srv *serve.Server, hot []request) error {
	const repeats = 32
	c := newClient()
	handler := make([]time.Duration, 0, repeats*len(hot))
	for i := 0; i < repeats; i++ {
		for j := range hot {
			handler = append(handler, c.do(srv.Handler(), &hot[j], nil, 0))
			if c.w.code != http.StatusOK || c.w.header.Get("X-Cachier-Cache") != "hit" {
				return fmt.Errorf("loopback probe: handler status %d, cache %q", c.w.code, c.w.header.Get("X-Cachier-Cache"))
			}
		}
	}
	slices.Sort(handler)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// No loopback interface to measure; say so instead of inventing it.
		fmt.Fprintf(os.Stderr, "benchmark: loopback probe skipped: %v\n", err)
		p.set("http.loopback_overhead_us", 0, 0)
		return nil
	}
	server := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()
	httpClient := &http.Client{Timeout: 10 * time.Second}
	defer func() {
		httpClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		server.Shutdown(ctx)
		<-served
	}()

	base := "http://" + ln.Addr().String()
	socket := make([]time.Duration, 0, cap(handler))
	for i := 0; i < repeats; i++ {
		for _, r := range hot {
			t0 := time.Now()
			resp, err := httpClient.Post(base+endpoints[r.key%numEndpoints].path, "application/json", bytes.NewReader(r.body))
			if err != nil {
				return fmt.Errorf("loopback probe: %w", err)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			socket = append(socket, time.Since(t0))
			if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cachier-Cache") != "hit" {
				return fmt.Errorf("loopback probe: status %d, cache %q, err %v", resp.StatusCode, resp.Header.Get("X-Cachier-Cache"), err)
			}
		}
	}
	slices.Sort(socket)
	p.set("http.loopback_overhead_us", us(percentile(socket, 50)-percentile(handler, 50)), len(socket))
	return nil
}

// interpKernel is compute-bound on one node: private work dominates, so it
// measures instruction dispatch, not the machine behind it.
const interpKernel = `
shared float out[4];
func kernel(n int) float {
    var acc float = 0.0;
    for i = 1 to n {
        var x float = float(i);
        acc += x * x / (x + 1.0);
        if i % 3 == 0 { acc -= 1.0; }
    }
    return acc;
}
func main() {
    var t float = 0.0;
    for r = 0 to 499 { t += kernel(200); }
    out[pid()] = t;
}
`

// nopMachine is an interp.Machine that models nothing.
type nopMachine struct{}

func (nopMachine) Access(int, bool, uint64, int)                        {}
func (nopMachine) Directive(int, parc.AnnKind, []interp.AddrRange, int) {}
func (nopMachine) Barrier(int, int)                                     {}
func (nopMachine) Lock(int, int64, int)                                 {}
func (nopMachine) Unlock(int, int64, int)                               {}
func (nopMachine) Work(int, uint64)                                     {}
func (nopMachine) Print(int, string)                                    {}

// interp runs the kernel on the default interpreter engine and reports
// dispatched ops per host second.
func (p *probeResult) interp() error {
	prog, err := parc.Parse(interpKernel)
	if err != nil {
		return fmt.Errorf("interp probe: %w", err)
	}
	if err := parc.Check(prog); err != nil {
		return fmt.Errorf("interp probe: %w", err)
	}
	layout, err := memory.New(prog, 32)
	if err != nil {
		return fmt.Errorf("interp probe: %w", err)
	}
	const runs = 5
	var rates []float64
	for i := 0; i < runs; i++ {
		ctx := interp.NewContext(prog, interp.NewStore(layout.TotalBytes()), nopMachine{}, 0, 1)
		ctx.CountOps(true)
		t0 := time.Now()
		if err := ctx.Run(); err != nil {
			return fmt.Errorf("interp probe: %w", err)
		}
		rates = append(rates, float64(ctx.OpsDispatched())/time.Since(t0).Seconds()/1e6)
	}
	p.set("interp.mops_per_s", median(rates), runs)
	return nil
}

// coherence drives the paper's 32-node Dir1SW memory system directly with
// two seeded streams over a 4 MB shared space: random blocks (the
// BenchmarkDirectoryLookup pattern) and short runs on one block (what a
// node's inner loop produces).
func (p *probeResult) coherence(seed int64) error {
	cfg := dir1sw.DefaultConfig()
	cfg.AddrSpace = 1 << 22
	sys, err := dir1sw.New(cfg)
	if err != nil {
		return fmt.Errorf("coherence probe: %w", err)
	}
	const (
		accesses = 1 << 20 // per stream
		run      = 8       // same-block repeats in the second stream
	)
	rng := uint64(seed)*2654435761 + 1
	var (
		node int
		addr uint64
	)
	t0 := time.Now()
	for i := 0; i < 2*accesses; i++ {
		if i < accesses || i%run == 0 {
			rng = rng*6364136223846793005 + 1442695040888963407
			node = int(rng>>33) % cfg.Nodes
			addr = (rng >> 8) % cfg.AddrSpace
		}
		if rng&1 == 0 {
			sys.Read(node, addr, uint64(i))
		} else {
			sys.Write(node, addr, uint64(i))
		}
	}
	elapsed := time.Since(t0)
	total := sys.Stats.Reads + sys.Stats.Writes
	p.set("coherence.ns_per_access", float64(elapsed.Nanoseconds())/float64(total), int(total))
	p.set("coherence.miss_ratio", float64(total-sys.Stats.Hits)/float64(total), int(total))
	return nil
}

// recorderOverhead runs one Figure 6 cell with and without an obs.Recorder.
// The recorder is off on every measured path; this guards the rule that
// observability costs nothing unless asked for.
func (p *probeResult) recorderOverhead(b *bench.Benchmark) error {
	src := b.Source(b.Test)
	cell := func(observed bool) (time.Duration, error) {
		prog, err := parc.Parse(src)
		if err != nil {
			return 0, err
		}
		cfg := fig6Machine(b)
		if observed {
			cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
		}
		t0 := time.Now()
		_, err = sim.Run(prog, cfg)
		return time.Since(t0), err
	}
	const pairs = 3
	var plain, observed []float64
	for i := 0; i < pairs; i++ {
		for _, on := range []bool{false, true} {
			d, err := cell(on)
			if err != nil {
				return fmt.Errorf("recorder probe: %s: %w", b.Name, err)
			}
			if on {
				observed = append(observed, float64(d))
			} else {
				plain = append(plain, float64(d))
			}
		}
	}
	p.set("obs.recorder_overhead_ratio", median(observed)/median(plain), pairs)
	return nil
}
