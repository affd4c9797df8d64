// Command benchmark is the repo's one benchmark: the Figure 6 regeneration
// and three cachierd traffic mixes, measured end to end, plus a per-layer
// ledger timed from outside around the layers' public functions. See
// README.md in this directory.
//
// Usage (from this directory, or through run.sh from the repo root):
//
//	benchmark [-workload all|fig6|serve_cold|serve_hot|serve_churn]
//	          [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-spans FILE]
//	benchmark -compare BASE.json CHANGE.json
//
// Without -trace, the end-to-end rounds run first, tracing off, and the
// traced run after them. -trace 0 runs only the rounds and -trace 1 only the
// traced run (after one round, for its counts). When one workload is selected, the last line of standard
// output is one JSON object with the run's result and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's inputs. The flags fill the first group; the
// rest is fixed outside tests, which shrink it.
type options struct {
	workload string
	seed     int64
	seconds  float64
	endToEnd bool // run and report the end-to-end rounds
	traced   bool // run and report the traced run

	sizes     serveSizes
	fig6      *fig6Workload
	minRounds int
	// Set-up is repeated per workload, and setup_s is the median: at least
	// setupMin times, then until it has taken setupSeconds, at most
	// setupMax times.
	setupMin, setupMax int
	setupSeconds       float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "all", "workload to run: all, fig6, serve_cold, serve_hot, serve_churn")
		seed      = fs.Int64("seed", 1, "selects the generated programs and the request draws")
		seconds   = fs.Float64("seconds", 20, "how long to measure each workload's rounds")
		trace     = fs.Int("trace", -1, "0: end-to-end rounds only; 1: traced run only; default both")
		out       = fs.String("out", "", "write the JSON report to this file")
		spansPath = fs.String("spans", "", "write the traced run's spans to this file")
		cmp       = fs.Bool("compare", false, "compare two reports: -compare BASE.json CHANGE.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}

	opts := options{
		workload: *workload, seed: *seed, seconds: *seconds,
		endToEnd: *trace != 1, traced: *trace != 0,
		sizes: defaultSizes, fig6: newFig6Workload(), minRounds: 3,
		setupMin: 3, setupMax: 25, setupSeconds: 3,
	}
	rep, spans, err := measure(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.print(stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *spansPath != "" {
		data, err := json.Marshal(spans)
		if err == nil {
			err = os.WriteFile(*spansPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	failed := 0
	for _, w := range rep.Workloads {
		failed += w.Failed
	}
	if len(rep.Workloads) == 1 {
		fmt.Fprintln(stdout, resultLine(rep.Workloads[0]))
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d ops failed their correctness check\n", failed)
		return 1
	}
	return 0
}

// runCompare is -compare BASE CHANGE: 0 when nothing regressed, failed, or
// differs, 1 when something did, 2 when the reports cannot be read.
func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
		return 2
	}
	var reports [2]*report
	for i, path := range paths {
		var err error
		if reports[i], err = readReport(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if compare(reports[0], reports[1], stdout) > 0 {
		return 1
	}
	return 0
}

// resultLine is the one-workload result: whether every output was correct,
// ops attempted and failed, and every metric measured, as one JSON object.
func resultLine(w workloadReport) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, m := range append(append([]metricReport(nil), w.EndToEnd...), w.PerLayer...) {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

// running is one workload's progress through a measurement.
type running struct {
	workload
	setups []float64 // seconds
	rounds []roundStats
	spent  time.Duration // on rounds, preparation included
}

// measure runs the selected workloads and returns the report and the spans
// of the traced run.
func measure(opts options, progress io.Writer) (*report, []span, error) {
	clients := runtime.GOMAXPROCS(0)
	all := []workload{opts.fig6}
	for _, w := range newServeWorkloads(opts.seed, opts.sizes, clients) {
		all = append(all, w)
	}
	var selected []*running
	for _, w := range all {
		if name, _, _, _ := w.info(); opts.workload == "all" || opts.workload == name {
			selected = append(selected, &running{workload: w})
		}
	}
	if len(selected) == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", opts.workload)
	}

	// The traced run alone needs one set-up, and one round for its counts.
	budget := time.Duration(opts.seconds * float64(time.Second))
	if !opts.endToEnd {
		budget, opts.minRounds, opts.setupMin, opts.setupMax = 0, 1, 1, 1
	}

	// Set-up is everything before the first timed op. It is timed several
	// times over, more often the shorter it is, because one sample of it is
	// all a run would otherwise have.
	for _, r := range selected {
		var spent float64
		for i := 0; i < opts.setupMax && (i < opts.setupMin || spent < opts.setupSeconds); i++ {
			start := time.Now()
			if err := r.setup(); err != nil {
				return nil, nil, err
			}
			r.setups = append(r.setups, time.Since(start).Seconds())
			spent += r.setups[i]
		}
	}

	// The workloads' rounds interleave, so that slow drift of the host
	// lands on all of them alike. A workload stops when its next round
	// would overrun its seconds.
	for active := true; active; {
		active = false
		for _, r := range selected {
			n := len(r.rounds)
			if n >= opts.minRounds && r.spent+r.spent/time.Duration(max(n, 1)) > budget {
				continue
			}
			start := time.Now()
			r.rounds = append(r.rounds, r.round())
			r.spent += time.Since(start)
			active = true
		}
	}

	rep := newReport(opts.seed, opts.seconds)
	for _, r := range selected {
		name, why, ops, clients := r.info()
		wr := workloadReport{Name: name, Why: why, OpsPerRound: ops, Clients: clients, Rounds: len(r.rounds)}
		for _, rs := range r.rounds {
			wr.Attempted += rs.ops
			wr.Failed += rs.failed
		}
		wr.Failed += r.verify()
		wr.FailedRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
		if opts.endToEnd {
			wr.EndToEnd = endToEndMetrics(r)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if !opts.traced {
		return rep, nil, nil
	}

	fmt.Fprintln(progress, "benchmark: traced run")
	probe, err := runProbes(opts.seed, opts.sizes, opts.fig6.ports)
	if err != nil {
		return nil, nil, err
	}
	spans := probe.spans
	for i, r := range selected {
		layer, wspans, err := perLayerMetrics(r, probe)
		if err != nil {
			return nil, nil, err
		}
		rep.Workloads[i].PerLayer = layer
		spans = appendSpans(spans, wspans)
	}
	return rep, spans, nil
}

// endToEndMetrics computes each end-to-end metric per round and summarises
// the rounds.
func endToEndMetrics(r *running) []metricReport {
	perRound := map[string]func(roundStats) float64{
		"op_p50_ms":     func(rs roundStats) float64 { return ms(rs.p50) },
		"op_p95_ms":     func(rs roundStats) float64 { return ms(rs.p95) },
		"ops_per_s":     func(rs roundStats) float64 { return float64(rs.ops) / rs.wall.Seconds() },
		"cpu_ms_per_op": func(rs roundStats) float64 { return ms(rs.cpu) / float64(rs.ops) },
	}
	_, _, ops, _ := r.info()
	var out []metricReport
	for _, spec := range endToEnd {
		if spec.Name == "setup_s" {
			out = append(out, summarise(spec, r.setups, 1))
			continue
		}
		values := make([]float64, len(r.rounds))
		for i, rs := range r.rounds {
			values[i] = perRound[spec.Name](rs)
		}
		out = append(out, summarise(spec, values, ops))
	}
	return out
}

// perLayerMetrics runs the workload's traced pass and assembles its
// per-layer metrics: the probes' numbers, which are the same for every
// workload, and the workload's own shares, counts, and runtime costs.
func perLayerMetrics(r *running, probe *probeResult) ([]metricReport, []span, error) {
	name, _, _, _ := r.info()
	rec := newSpanRecorder(name)
	pass, err := r.tracePass(rec)
	if err != nil {
		return nil, nil, err
	}
	byLayer, opTime := r.layerTimes(rec.spans, pass, probe)

	l := maps.Clone(probe.ledger)
	for _, layer := range []string{"parc", "sim", "core", "vet", "staticanno", "serve"} {
		l.set(layer+".share", ratio(byLayer[layer], opTime), pass.ops)
	}
	// Tracing overhead is computed, not measured as the difference of two
	// passes: on the host this was defined on, two passes of identical work
	// differ by several percent either way, far more than the spans cost.
	// The traced time is what the root spans cover; the untraced time is
	// that less what recording the pass's spans cost.
	recording := float64(len(rec.spans)) * probe.spanCostNS
	l.set("trace_overhead_ratio", opTime/(opTime-recording), len(rec.spans))

	// Counts and runtime costs come from the timed rounds, where all the
	// clients ran.
	var (
		counts                       serveCounts
		executions                   uint64
		ops                          int
		allocBytes, allocs, pauseSum float64
	)
	for _, rs := range r.rounds {
		ops += rs.ops
		counts.requests += rs.counts.requests
		counts.hits += rs.counts.hits
		counts.rejected += rs.counts.rejected
		counts.shared += rs.counts.shared
		executions += rs.counts.executionsTotal()
		allocBytes += float64(rs.allocBytes)
		allocs += float64(rs.allocs)
		pauseSum += ms(rs.gcPause)
	}
	requests := float64(counts.requests)
	l.set("serve.hit_ratio", ratio(float64(counts.hits), requests), counts.requests)
	l.set("serve.executions_per_req", ratio(float64(executions), requests), counts.requests)
	l.set("serve.flight_shared_ratio", ratio(float64(counts.shared), requests), counts.requests)
	l.set("serve.rejected_ratio", ratio(float64(counts.rejected), requests), counts.requests)
	l.set("alloc_mb_per_op", allocBytes/1e6/float64(ops), ops)
	l.set("allocs_per_op", allocs/float64(ops), ops)
	l.set("gc_pause_ms_per_op", pauseSum/float64(ops), ops)
	l.set("peak_rss_mb", peakRSSMB(), 1)

	out := make([]metricReport, 0, len(perLayer))
	for _, spec := range perLayer {
		m, ok := l[spec.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: per-layer metric %s was not measured", name, spec.Name)
		}
		out = append(out, metricReport{
			Name: spec.Name, Unit: spec.Unit, Better: spec.Better, Exact: spec.Exact,
			Value: m.value, Samples: m.samples,
		})
	}
	return out, rec.spans, nil
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB is the process's peak resident set so far, 0 where the kernel
// does not say.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := vmHWM.FindSubmatch(status)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64) // the pattern admits digits only
	return kb / 1e3
}
