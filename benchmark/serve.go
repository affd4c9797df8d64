package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachier/internal/parcgen"
	"cachier/internal/serve"
)

// The four request classes, in the order a corpus program is sent through
// them. A request key is program*numEndpoints + endpoint.
const (
	epVet = iota
	epAnnotate
	epStatic
	epSimulate
	numEndpoints
)

// endpoint is one request class: where it is posted, what is posted for a
// program, what comes back, and the uncached in-process library call that
// must produce the same response.
type endpoint struct {
	path     string
	request  func(src string) any
	response func() any // empty, to decode a response body into
	eval     func(src string) (any, error)
}

func vetRequest(src string) *serve.VetRequest {
	return &serve.VetRequest{Source: src, Nodes: corpusNodes}
}

func annotateRequest(src string) *serve.AnnotateRequest {
	return &serve.AnnotateRequest{Source: src, Machine: serve.MachineSpec{Nodes: corpusNodes}}
}

func simulateRequest(src string) *serve.SimulateRequest {
	return &serve.SimulateRequest{Source: src, Configs: []serve.MachineSpec{{Nodes: corpusNodes}}}
}

var endpoints = [numEndpoints]endpoint{
	epVet: {
		path:     "/v1/vet",
		request:  func(src string) any { return vetRequest(src) },
		response: func() any { return new(serve.VetResponse) },
		eval:     func(src string) (any, error) { return serve.EvalVet(vetRequest(src)) },
	},
	epAnnotate: {
		path:     "/v1/annotate",
		request:  func(src string) any { return annotateRequest(src) },
		response: func() any { return new(serve.AnnotateResponse) },
		eval:     func(src string) (any, error) { return serve.EvalAnnotate(annotateRequest(src)) },
	},
	epStatic: {
		path:     "/v1/static",
		request:  func(src string) any { return annotateRequest(src) },
		response: func() any { return new(serve.AnnotateResponse) },
		eval:     func(src string) (any, error) { return serve.EvalStatic(annotateRequest(src)) },
	},
	epSimulate: {
		path:     "/v1/simulate",
		request:  func(src string) any { return simulateRequest(src) },
		response: func() any { return new(serve.SimulateResponse) },
		eval: func(src string) (any, error) {
			resp, _, err := serve.EvalSimulate(simulateRequest(src))
			return resp, err
		},
	},
}

// corpusNodes is the simulated machine size of every serve request: parcgen
// partitions its programs for four nodes.
const corpusNodes = 4

// serveSizes are the operation counts of the serve workloads. defaultSizes
// is what the benchmark measures; tests shrink them.
type serveSizes struct {
	programs      int // corpus size of serve_cold and serve_churn
	hotPrograms   int // programs warmed into serve_hot's caches
	hotRequests   int // requests per serve_hot round
	churnRequests int // requests per serve_churn round
	traceSample   int // programs of the traced pass and the corpus probes
}

// 1500 programs are three times the default program cache (512 entries);
// 400 programs x 4 endpoints fit the default response cache (2048 entries).
var defaultSizes = serveSizes{
	programs:      1500,
	hotPrograms:   400,
	hotRequests:   200_000,
	churnRequests: 12_000,
	traceSample:   200,
}

// genCorpus returns n distinct parcgen programs chosen by seed.
func genCorpus(seed int64, n int) []string {
	corpus := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for s := seed * 1_000_003; len(corpus) < n; s++ {
		src := parcgen.Generate(s)
		if !seen[src] {
			seen[src] = true
			corpus = append(corpus, src)
		}
	}
	return corpus
}

// traceSample picks the corpus programs that the traced serve_cold pass
// and the corpus probes both take, so that the probes' phase times are times
// of the very programs the pass sends.
func traceSample(seed int64, sizes serveSizes) []int {
	n := min(sizes.traceSample, sizes.programs)
	return rand.New(rand.NewSource(seed)).Perm(sizes.programs)[:n]
}

// formatVariant returns src with trailing blank lines and spaces: a
// different text, so the server's raw-source program cache misses, but the
// same canonical program, so its content hash and every cache keyed on it
// hit.
func formatVariant(src string, rng *rand.Rand) string {
	return src + strings.Repeat("\n", 1+rng.Intn(8)) + strings.Repeat(" ", 1+rng.Intn(8))
}

// requestBody marshals the request for one endpoint of one program.
func requestBody(src string, ep int) []byte {
	body, err := json.Marshal(endpoints[ep].request(src))
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return body
}

// libraryResponse computes the bytes the server must answer for one
// endpoint of one program, through the uncached in-process library path.
func libraryResponse(src string, ep int) ([]byte, error) {
	resp, err := endpoints[ep].eval(src)
	if err != nil {
		return nil, err
	}
	return serve.MarshalResponse(resp)
}

// request is one op of a serve workload.
type request struct {
	key  int
	body []byte
}

// responseWriter is the minimal in-memory http.ResponseWriter the serve
// workloads hand to the handler, so that no socket is in the measurement.
type responseWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *responseWriter) Header() http.Header  { return w.header }
func (w *responseWriter) WriteHeader(code int) { w.code = code }
func (w *responseWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *responseWriter) reset() {
	clear(w.header)
	w.code = http.StatusOK
	w.body = w.body[:0]
}

// serveCounts are the outcomes of a batch of requests, from the response
// headers and the server's own counters.
type serveCounts struct {
	requests   int
	hits       int
	rejected   int               // 429 responses
	shared     uint64            // singleflight_shared_total delta
	executions map[string]uint64 // pipeline_executions_total delta, by phase
	progMisses uint64            // program cache misses: canonicalisations run
}

func (c serveCounts) executionsTotal() uint64 {
	var n uint64
	for _, v := range c.executions {
		n += v
	}
	return n
}

// client is one closed-loop caller: it owns its requests and response
// writer, because the mux writes routing state into the request it serves.
type client struct {
	reqs   [numEndpoints]*http.Request
	rd     *bytes.Reader
	w      responseWriter
	counts serveCounts
	failed int
	got    map[int][]byte // first response body per sampled key
}

func newClient() *client {
	c := &client{rd: bytes.NewReader(nil), got: make(map[int][]byte)}
	c.w.header = make(http.Header)
	for ep, e := range endpoints {
		req, err := http.NewRequest(http.MethodPost, "http://cachierd"+e.path, nil)
		if err != nil {
			panic(err) // constant URLs
		}
		req.Body = io.NopCloser(c.rd)
		c.reqs[ep] = req
	}
	return c
}

// do sends one request to the handler, as op number op, and returns how
// long the call took. Recording the op's span, when rec is not nil, happens
// inside the timed window, so a traced op's time includes it. The response
// stays in c.w until the next call.
func (c *client) do(h http.Handler, r *request, rec *spanRecorder, op int) time.Duration {
	c.rd.Reset(r.body)
	c.w.reset()
	t0 := time.Now()
	id := rec.begin("serve.handler", -1, op)
	h.ServeHTTP(&c.w, c.reqs[r.key%numEndpoints])
	rec.end(id)
	return time.Since(t0)
}

// serveWorkload is serve_cold, serve_hot, or serve_churn: the same driver
// over a different request list, server lifetime, and predicted cache
// disposition.
type serveWorkload struct {
	name    string
	why     string
	seed    int64
	sizes   serveSizes
	clients int

	fresh bool              // a new server every round, else one warmed in set-up
	want  func(string) bool // predicted X-Cachier-Cache of every response

	corpus   []string
	bodies   [][]byte  // per key, for the programs the workload sends unmodified
	reqs     []request // one round
	traceOps []request // the single-goroutine passes of the traced run
	sampled  []bool    // per key: byte-compare responses to the library result
	first    map[int][]byte
	srv      *serve.Server
	lat      []time.Duration
}

func anyDisposition(d string) bool { return d == "hit" || d == "miss" || d == "flight" }

func newServeWorkloads(seed int64, sizes serveSizes, clients int) []*serveWorkload {
	return []*serveWorkload{
		{
			name: "serve_cold", seed: seed, sizes: sizes, clients: clients, fresh: true,
			why:  "every program is new, so every layer runs, on thousands of tiny programs: per-run set-up outweighs interpretation",
			want: func(d string) bool { return d == "miss" || d == "flight" },
		},
		{
			name: "serve_hot", seed: seed, sizes: sizes, clients: clients,
			why:  "every response is cached, so only the serve layer runs; the bypass workload for every simulator change",
			want: func(d string) bool { return d == "hit" },
		},
		{
			name: "serve_churn", seed: seed, sizes: sizes, clients: clients, fresh: true,
			why:  "Zipf traffic over 3x the program cache with formatting variants: puts, evictions and phase reuse beside gets",
			want: anyDisposition,
		},
	}
}

func (w *serveWorkload) info() (name, why string, opsPerRound, clients int) {
	return w.name, w.why, len(w.reqs), w.clients
}

func (w *serveWorkload) body(key int) []byte {
	if w.bodies[key] == nil {
		w.bodies[key] = requestBody(w.corpus[key/numEndpoints], key%numEndpoints)
	}
	return w.bodies[key]
}

// setup generates the programs and the request list from the seed and
// builds the server; serve_hot also warms it.
func (w *serveWorkload) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	programs := w.sizes.programs
	if w.name == "serve_hot" {
		programs = w.sizes.hotPrograms
	}
	w.corpus = genCorpus(w.seed, programs)
	keys := programs * numEndpoints
	w.bodies = make([][]byte, keys)
	w.sampled = make([]bool, keys)
	for k := range w.sampled {
		w.sampled[k] = rng.Intn(16) == 0
	}
	w.first = make(map[int][]byte)
	w.srv = serve.New(serve.DefaultConfig())

	switch w.name {
	case "serve_cold":
		w.reqs = make([]request, keys)
		for k := range w.reqs {
			w.reqs[k] = request{key: k, body: w.body(k)}
		}
		// The traced pass sends a seeded sample of whole programs.
		w.traceOps = nil
		for _, p := range traceSample(w.seed, w.sizes) {
			w.traceOps = append(w.traceOps, w.reqs[p*numEndpoints:(p+1)*numEndpoints]...)
		}
	case "serve_hot":
		warm := make([]request, keys)
		for k := range warm {
			warm[k] = request{key: k, body: w.body(k)}
		}
		w.lat = make([]time.Duration, keys)
		if _, failed := w.drive(warm, w.clients, nil, anyDisposition); failed > 0 {
			return fmt.Errorf("%s: %d of %d warming requests failed", w.name, failed, keys)
		}
		w.reqs = make([]request, w.sizes.hotRequests)
		for i := range w.reqs {
			k := rng.Intn(keys)
			w.reqs[i] = request{key: k, body: warm[k].body}
		}
		w.traceOps = w.reqs[:min(len(w.reqs), 20*keys)]
	case "serve_churn":
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(programs-1))
		w.reqs = make([]request, w.sizes.churnRequests)
		for i := range w.reqs {
			p, ep := int(zipf.Uint64()), rng.Intn(numEndpoints)
			k := p*numEndpoints + ep
			if rng.Intn(4) == 0 {
				w.reqs[i] = request{key: k, body: requestBody(formatVariant(w.corpus[p], rng), ep)}
			} else {
				w.reqs[i] = request{key: k, body: w.body(k)}
			}
		}
		w.traceOps = w.reqs[:min(len(w.reqs), 40*w.sizes.traceSample)]
	}
	w.lat = make([]time.Duration, len(w.reqs))
	return nil
}

// round sends one round's requests from w.clients closed-loop clients.
func (w *serveWorkload) round() roundStats {
	if w.fresh {
		w.srv = serve.New(serve.DefaultConfig())
	}
	var (
		counts serveCounts
		failed int
	)
	rs := timed(w.lat, func() { counts, failed = w.drive(w.reqs, w.clients, nil, w.want) })
	rs.failed, rs.counts = failed, counts
	return rs
}

// tracePass sends the traced run's requests from one goroutine, with a span
// around every handler call.
func (w *serveWorkload) tracePass(rec *spanRecorder) (passStats, error) {
	if w.fresh {
		w.srv = serve.New(serve.DefaultConfig())
	}
	counts, failed := w.drive(w.traceOps, 1, rec, w.want)
	if failed > 0 {
		return passStats{}, fmt.Errorf("%s: %d of %d traced requests failed", w.name, failed, len(w.traceOps))
	}
	return passStats{ops: len(w.traceOps), counts: counts}, nil
}

// drive runs reqs against the server's handler, closed loop, and returns
// what came back and how many responses were not 200 with the predicted
// disposition. Op i's latency lands in w.lat[i]. rec must be nil unless
// clients is 1.
func (w *serveWorkload) drive(reqs []request, clients int, rec *spanRecorder, want func(string) bool) (serveCounts, int) {
	h := w.srv.Handler()
	before := w.srv.Metrics().Snapshot()
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient()
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				w.lat[i] = c.do(h, r, rec, i)
				c.check(r.key, want, w.sampled[r.key])
			}
		}(c)
	}
	wg.Wait()

	after := w.srv.Metrics().Snapshot()
	counts := serveCounts{executions: make(map[string]uint64)}
	for _, phase := range []string{"vet", "trace", "static", "annotate", "simulate"} {
		name := fmt.Sprintf("pipeline_executions_total{phase=%q}", phase)
		counts.executions[phase] = after[name] - before[name]
	}
	counts.shared = after["singleflight_shared_total"] - before["singleflight_shared_total"]
	counts.progMisses = after[`cache_misses_total{cache="program"}`] - before[`cache_misses_total{cache="program"}`]
	failed := 0
	for _, c := range cs {
		counts.requests += c.counts.requests
		counts.hits += c.counts.hits
		counts.rejected += c.counts.rejected
		failed += c.failed
		// One key always answers the same bytes, whichever client asked
		// and whether or not the answer came from a cache.
		for k, body := range c.got {
			if first, ok := w.first[k]; !ok {
				w.first[k] = body
			} else if !bytes.Equal(first, body) {
				failed++
			}
		}
	}
	return counts, failed
}

// check judges the response the client has just received.
func (c *client) check(key int, want func(string) bool, sampled bool) {
	c.counts.requests++
	disposition := ""
	if v := c.w.header["X-Cachier-Cache"]; len(v) > 0 {
		disposition = v[0]
	}
	if c.w.code == http.StatusTooManyRequests {
		c.counts.rejected++
	}
	if c.w.code != http.StatusOK || !want(disposition) {
		c.failed++
		return
	}
	if disposition == "hit" {
		c.counts.hits++
	}
	if !sampled {
		return
	}
	if first, ok := c.got[key]; !ok {
		c.got[key] = bytes.Clone(c.w.body)
	} else if !bytes.Equal(first, c.w.body) {
		c.failed++
	}
}

// layerTimes models the split of the traced pass's handler time: the
// handler cannot be opened from outside, so each pipeline phase the server
// counted is charged the mean time the corpus probes measured for the same
// call on the library path, and the serve layer keeps the rest.
func (w *serveWorkload) layerTimes(spans []span, pass passStats, probe *probeResult) (map[string]float64, float64) {
	_, opTime := layerSelfTimes(spans)
	mean, ran := probe.phaseMean, pass.counts.executions
	byLayer := map[string]float64{
		"parc": float64(pass.counts.progMisses)*mean["parc.canonical"] +
			float64(ran["trace"]+ran["static"]+ran["simulate"])*mean["parc.fresh"],
		"vet":        float64(ran["vet"]) * mean["vet.analyze"],
		"sim":        float64(ran["trace"])*mean["sim.run_trace"] + float64(ran["simulate"])*mean["sim.run_measure"],
		"core":       float64(ran["annotate"]) * mean["core.annotate"],
		"staticanno": float64(ran["static"]) * mean["staticanno.infer"],
	}
	rest := float64(opTime)
	for _, ns := range byLayer {
		rest -= ns
	}
	byLayer["serve"] = rest
	return byLayer, float64(opTime)
}

// verify byte-compares the sampled responses to the library path's result.
// It runs after the timed rounds, so the comparison costs the measurement
// nothing.
func (w *serveWorkload) verify() (failed int) {
	for k, got := range w.first {
		want, err := libraryResponse(w.corpus[k/numEndpoints], k%numEndpoints)
		if err != nil || !bytes.Equal(got, want) {
			failed++
		}
	}
	return failed
}
