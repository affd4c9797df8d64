package cachier

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the experiment index):
//
//	BenchmarkFig6/<name>          — Figure 6 bars: normalized execution time
//	                                 per variant for each of the five
//	                                 benchmarks (E1)
//	BenchmarkJacobiCost/...       — Section 2.1 check-out counts (E2)
//	BenchmarkRestructure          — Section 5 check-out counts and speedup (E4)
//	BenchmarkInputSensitivity     — Section 4.5 train-vs-test input delta (E5)
//	BenchmarkTrapCostSweep        — ablation: CICO's value vs Dir1SW trap cost
//	BenchmarkProgrammerVsPerformance — ablation: Programmer CICO run as
//	                                 directives vs Performance CICO (Sec. 4.1)
//	BenchmarkFullMapBaseline      — ablation: the same annotations under a
//	                                 full-map hardware directory
//	                                 (protocol dirnnb:<nodes>)
//	BenchmarkPostStore            — extension: KSR-1 post-store check-ins
//	BenchmarkSmallRun, BenchmarkColdRequest — cachierd's cold path: one run
//	                                 of a 4-node corpus program, and one new
//	                                 program through all four endpoints
//	                                 (B/op and allocs/op are the point)
//	BenchmarkColdCorpus           — cachierd's cold path over 300 corpus
//	                                 programs, each new to one server: time,
//	                                 bytes and annotations per program, and
//	                                 the profile to attribute them
//	BenchmarkHotRequest           — cachierd's cached path: one repeated
//	                                 request per endpoint, answered by the
//	                                 body index
//	BenchmarkVetAnalyze           — vet.Analyze on 4-node corpus programs,
//	                                 the static layer of a cold request
//	BenchmarkParse, BenchmarkPrint — the ParC front end and printer on 200
//	                                 corpus programs, the text every cachierd
//	                                 request starts and ends with
//	BenchmarkProgramKey           — cachierd's program-cache key (the
//	                                 token digest) against a raw sha256 and
//	                                 the Parse a hit on it skips
//	BenchmarkInfer                — static inference (/v1/static without
//	                                 the annotation) on 200 corpus programs
//	                                 and on Barnes at 32 nodes
//
// Custom metrics (reported via b.ReportMetric, suffix explains the unit):
// normalized execution times, measured check-out counts, and percentage
// deltas. Wall-clock ns/op measures the simulator itself.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/cico"
	"cachier/internal/coherence"
	"cachier/internal/core"
	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/serve"
	"cachier/internal/sim"
	"cachier/internal/staticanno"
	"cachier/internal/vet"
)

// BenchmarkFig6 regenerates Figure 6 (experiment E1): each sub-benchmark
// traces, annotates, and measures one program, reporting the normalized
// execution times of the hand-annotated and Cachier-annotated versions.
func BenchmarkFig6(b *testing.B) {
	for _, bm := range bench.All() {
		b.Run(bm.Name, func(b *testing.B) {
			var row *bench.Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = bench.RunBenchmark(bm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Normalized(bench.VariantHand), "hand/none")
			b.ReportMetric(row.Normalized(bench.VariantCachier), "cachier/none")
			b.ReportMetric(row.Normalized(bench.VariantCachierPrefetch), "cachier+pf/none")
			b.ReportMetric(100*row.SharingLoads, "%shared-loads")
			// Where the simulator's host time goes (make profile reads these):
			// the row's shared references, and how many of them the lanes
			// could not count in place.
			b.ReportMetric(float64(row.SharedAccesses), "shared-accesses")
			b.ReportMetric(float64(row.AccessCalls), "Machine.Access-calls")
		})
	}
}

// BenchmarkJacobiCost regenerates the Section 2.1 cost-model numbers (E2):
// measured check-outs must equal the closed forms exactly.
func BenchmarkJacobiCost(b *testing.B) {
	p := bench.JacobiParams
	cases := []struct {
		name    string
		src     string
		formula int64
	}{
		{"WholeFit", bench.JacobiWholeFit(p),
			cico.JacobiWholeMatrixCheckouts(int64(p.N), int64(p.P), int64(p.Steps), 4)},
		{"RowFit", bench.JacobiRowFit(p),
			cico.JacobiColumnCheckouts(int64(p.N), int64(p.P), int64(p.Steps), 4)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Nodes = p.P * p.P
			var got uint64
			for i := 0; i < b.N; i++ {
				cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
				_, err := sim.Run(parc.MustParse(c.src), cfg)
				if err != nil {
					b.Fatal(err)
				}
				got = cfg.Recorder.Var("U").CheckOuts()
			}
			if int64(got) != c.formula {
				b.Fatalf("measured %d check-outs, formula %d", got, c.formula)
			}
			b.ReportMetric(float64(got), "checkouts")
			b.ReportMetric(float64(c.formula), "formula")
		})
	}
}

// BenchmarkRestructure regenerates the Section 5 comparison (E4): the
// annotated original's N^3 racy check-outs of C versus the restructured
// program's N^2*P/2.
func BenchmarkRestructure(b *testing.B) {
	bm := bench.MatMul()
	cfg := sim.DefaultConfig()
	cfg.Nodes = bm.Nodes
	var orig, restr *sim.Result
	for i := 0; i < b.N; i++ {
		row, err := bench.RunBenchmark(bm)
		if err != nil {
			b.Fatal(err)
		}
		origCfg := cfg
		origCfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
		res, err := sim.Run(parc.MustParse(row.AnnotatedSource), origCfg)
		if err != nil {
			b.Fatal(err)
		}
		orig = res
		restrCfg := cfg
		restrCfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
		restr, err = sim.Run(parc.MustParse(bench.RestructuredMatMul(bm.Train)), restrCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(orig.Snapshot.VarByName("C").CheckOuts()), "orig-C-checkouts")
	b.ReportMetric(float64(restr.Snapshot.VarByName("C").CheckOuts()), "restr-C-checkouts")
	b.ReportMetric(float64(restr.Cycles)/float64(orig.Cycles), "restr/orig-cycles")
}

// BenchmarkInputSensitivity regenerates the Section 4.5 measurement (E5):
// the cost of annotating with a training input and measuring on a test
// input, for the dynamic Barnes benchmark.
func BenchmarkInputSensitivity(b *testing.B) {
	bm := bench.Barnes()
	cfg := sim.DefaultConfig()
	cfg.Nodes = bm.Nodes
	traceCfg := cfg
	traceCfg.Mode = sim.ModeTrace

	annotateWith := func(train bench.Params) string {
		src := bm.Source(train)
		tr, err := sim.Run(parc.MustParse(src), traceCfg)
		if err != nil {
			b.Fatal(err)
		}
		ann, err := core.Annotate(src, tr.Trace, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		return ann.Source
	}
	var diff float64
	for i := 0; i < b.N; i++ {
		crossSrc := annotateWith(bm.Train)
		sameSrc := annotateWith(bm.Test)
		// Both measured on the test input.
		cross, err := sim.Run(parc.MustParse(replaceSeed(crossSrc, bm.Train.Seed, bm.Test.Seed)), cfg)
		if err != nil {
			b.Fatal(err)
		}
		same, err := sim.Run(parc.MustParse(sameSrc), cfg)
		if err != nil {
			b.Fatal(err)
		}
		diff = 100 * math.Abs(float64(cross.Cycles)-float64(same.Cycles)) / float64(same.Cycles)
	}
	b.ReportMetric(diff, "%cross-input-delta")
}

func replaceSeed(src string, from, to int64) string {
	old := fmt.Sprintf("const SEED = %d;", from)
	nw := fmt.Sprintf("const SEED = %d;", to)
	out := ""
	for len(src) > 0 {
		i := 0
		for ; i+len(old) <= len(src); i++ {
			if src[i:i+len(old)] == old {
				return out + src[:i] + nw + src[i+len(old):]
			}
		}
		break
	}
	return src
}

// BenchmarkTrapCostSweep is the DESIGN.md ablation: how the value of CICO
// annotations scales with the Dir1SW software-trap cost. The annotations'
// whole purpose is trap avoidance, so the normalized time should fall as
// traps get more expensive.
func BenchmarkTrapCostSweep(b *testing.B) {
	bm := bench.Mp3d()
	for _, scale := range []float64{0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("trap-x%g", scale), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Nodes = bm.Nodes
			cfg.Costs.Trap = uint64(float64(coherence.DefaultCosts().Trap) * scale)
			traceCfg := cfg
			traceCfg.Mode = sim.ModeTrace
			var ratio float64
			for i := 0; i < b.N; i++ {
				src := bm.Source(bm.Train)
				tr, err := sim.Run(parc.MustParse(src), traceCfg)
				if err != nil {
					b.Fatal(err)
				}
				ann, err := core.Annotate(src, tr.Trace, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				base, err := sim.Run(parc.MustParse(src), cfg)
				if err != nil {
					b.Fatal(err)
				}
				annotated, err := sim.Run(parc.MustParse(ann.Source), cfg)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(annotated.Cycles) / float64(base.Cycles)
			}
			b.ReportMetric(ratio, "cachier/none")
		})
	}
}

// BenchmarkProgrammerVsPerformance is the Section 4.1 ablation: running
// Programmer CICO annotations as directives pays for the explicit
// check_out_s that Dir1SW already performs implicitly; Performance CICO
// omits them.
func BenchmarkProgrammerVsPerformance(b *testing.B) {
	bm := bench.MatMul()
	cfg := sim.DefaultConfig()
	cfg.Nodes = bm.Nodes
	traceCfg := cfg
	traceCfg.Mode = sim.ModeTrace
	var prg, perf uint64
	for i := 0; i < b.N; i++ {
		src := bm.Source(bm.Train)
		tr, err := sim.Run(parc.MustParse(src), traceCfg)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Style = core.StyleProgrammer
		annP, err := core.Annotate(src, tr.Trace, opts)
		if err != nil {
			b.Fatal(err)
		}
		opts.Style = core.StylePerformance
		annF, err := core.Annotate(src, tr.Trace, opts)
		if err != nil {
			b.Fatal(err)
		}
		resP, err := sim.Run(parc.MustParse(annP.Source), cfg)
		if err != nil {
			b.Fatal(err)
		}
		resF, err := sim.Run(parc.MustParse(annF.Source), cfg)
		if err != nil {
			b.Fatal(err)
		}
		prg, perf = resP.Cycles, resF.Cycles
	}
	b.ReportMetric(float64(prg), "programmer-cycles")
	b.ReportMetric(float64(perf), "performance-cycles")
	b.ReportMetric(float64(prg)/float64(perf), "programmer/performance")
}

// BenchmarkPostStore is an extension ablation: the paper's introduction
// notes the KSR-1's post-store instruction is "similar, though not
// identical, to a check-in". Running the Cachier-annotated Ocean with
// post-store semantics pushes checked-in boundary rows straight back to
// their readers. The result illustrates the "not identical": read misses
// drop, but on Ocean's migratory write pattern total cycles get WORSE —
// every pushed copy is re-invalidated (with a trap broadcast) when the
// owner rewrites the row next sweep. Post-store pays off only for
// write-once/read-many handoffs (see the dir1sw unit tests), which is why
// Dir1SW's check-in returns blocks to Idle instead.
func BenchmarkPostStore(b *testing.B) {
	bm := bench.Ocean()
	traceCfg := sim.DefaultConfig()
	traceCfg.Nodes = bm.Nodes
	traceCfg.Mode = sim.ModeTrace
	src := bm.Source(bm.Train)
	tr, err := sim.Run(parc.MustParse(src), traceCfg)
	if err != nil {
		b.Fatal(err)
	}
	ann, err := core.Annotate(src, tr.Trace, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var plain, ksr *sim.Result
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Nodes = bm.Nodes
		plain, err = sim.Run(parc.MustParse(ann.Source), cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.PostStore = true
		ksr, err = sim.Run(parc.MustParse(ann.Source), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plain.Stats.ReadMisses), "dir1sw-read-misses")
	b.ReportMetric(float64(ksr.Stats.ReadMisses), "poststore-read-misses")
	b.ReportMetric(float64(ksr.Cycles)/float64(plain.Cycles), "poststore/dir1sw-cycles")
}

// BenchmarkSimulator measures the substrate itself: simulated cycles per
// wall-clock second on the matrix multiply.
func BenchmarkSimulator(b *testing.B) {
	bm := bench.MatMul()
	cfg := sim.DefaultConfig()
	cfg.Nodes = bm.Nodes
	prog := parc.MustParse(bm.Source(bm.Train))
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "simulated-cycles")
}

// BenchmarkSmallRun is the other use of the simulator: one run of a 4-node
// corpus program, where building the machine outweighs interpreting. B/op is
// what a cachierd trace or simulate phase allocates.
func BenchmarkSmallRun(b *testing.B) {
	prog := parc.MustParse(parcgen.Generate(7))
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVetAnalyze vets a slice of the parcgen corpus at 4 nodes, the
// programs cachierd's /v1/vet sees: the race finder and the annotation lint
// on many small programs. One op is one Analyze; B/op is what a cold vet
// request allocates in the analysis itself.
func BenchmarkVetAnalyze(b *testing.B) {
	var progs []*parc.Program
	for seed := int64(0); seed < 16; seed++ {
		progs = append(progs, parc.MustParse(parcgen.Generate(seed)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vet.Analyze(progs[i%len(progs)], vet.Options{Nprocs: 4})
	}
}

// corpusSlice is the parcgen corpus programs with seeds 0-199 and their
// total size in bytes.
func corpusSlice() (srcs []string, bytes int64) {
	for seed := int64(0); seed < 200; seed++ {
		srcs = append(srcs, parcgen.Generate(seed))
		bytes += int64(len(srcs[seed]))
	}
	return srcs, bytes
}

// BenchmarkParse parses and checks 200 corpus programs per op; MB/s is
// source text per second and us/program the mean time of one Parse.
func BenchmarkParse(b *testing.B) {
	srcs, size := corpusSlice()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := parc.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(srcs)), "us/program")
}

// BenchmarkProgramKey prices cachierd's program-cache key against what a
// hit saves, per corpus program: the token digest the key is, the sha256 of
// the raw text it replaced, and the Parse it lets a formatting variant skip.
func BenchmarkProgramKey(b *testing.B) {
	srcs, size := corpusSlice()
	for _, c := range []struct {
		name string
		key  func(string) error
	}{
		{"digest", func(src string) error { _, err := parc.Digest(src); return err }},
		{"sha256", func(src string) error { sha256.Sum256([]byte(src)); return nil }},
		{"parse", func(src string) error { _, err := parc.Parse(src); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					if err := c.key(src); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(srcs)), "us/program")
		})
	}
}

// TestProgramKeyAllocs is the host-independent gate on the program key's
// cost: the digest hashes token spans through a stack buffer and builds no
// Token, so a corpus program's key takes at most one allocation.
func TestProgramKeyAllocs(t *testing.T) {
	srcs, _ := corpusSlice()
	for seed, src := range srcs {
		if n := testing.AllocsPerRun(5, func() { parc.Digest(src) }); n > 1 {
			t.Errorf("Digest of corpus seed %d: %.0f allocations, budget 1", seed, n)
		}
	}
}

// printSink keeps BenchmarkPrint's results live.
var printSink string

// BenchmarkPrint prints the same 200 checked programs per op; MB/s is
// printed text per second.
func BenchmarkPrint(b *testing.B) {
	srcs, _ := corpusSlice()
	var progs []*parc.Program
	var size int64
	for _, src := range srcs {
		progs = append(progs, parc.MustParse(src))
		size += int64(len(parc.Print(progs[len(progs)-1])))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			printSink = parc.Print(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(progs)), "us/program")
}

// BenchmarkInfer runs static inference (vet's abstract interpreter in
// inference mode, then the coherent replay) the way /v1/static does: one op
// of "corpus" is the 200-program corpus slice at 4 nodes, one op of "Barnes"
// the Figure 6 port that costs inference most, at 32 nodes.
func BenchmarkInfer(b *testing.B) {
	srcs, _ := corpusSlice()
	var corpus []*parc.Program
	for _, src := range srcs {
		corpus = append(corpus, parc.MustParse(src))
	}
	barnes := bench.Barnes()
	for _, c := range []struct {
		name  string
		progs []*parc.Program
		nodes int
	}{
		{"corpus", corpus, 4},
		{barnes.Name, []*parc.Program{parc.MustParse(barnes.Source(barnes.Train))}, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := staticanno.DefaultConfig()
			cfg.Nodes = c.nodes
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, prog := range c.progs {
					if _, err := staticanno.Infer(prog, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// endpointRequest is one POST request body and the path it goes to.
type endpointRequest struct {
	path string
	body []byte
}

// endpointRequests marshals src as one 4-node request to each of vet,
// annotate, static and simulate.
func endpointRequests(b *testing.B, src string) [4]endpointRequest {
	machine := serve.MachineSpec{Nodes: 4}
	var reqs [4]endpointRequest
	for i, r := range []struct {
		path string
		req  any
	}{
		{"/v1/vet", &serve.VetRequest{Source: src, Nodes: 4}},
		{"/v1/annotate", &serve.AnnotateRequest{Source: src, Machine: machine}},
		{"/v1/static", &serve.AnnotateRequest{Source: src, Machine: machine}},
		{"/v1/simulate", &serve.SimulateRequest{Source: src, Configs: []serve.MachineSpec{machine}}},
	} {
		body, err := json.Marshal(r.req)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = endpointRequest{r.path, body}
	}
	return reqs
}

// BenchmarkColdRequest sends one program nobody has sent before to vet,
// annotate, static and simulate on a fresh server: every layer runs once and
// no cache helps. One op is the four requests.
func BenchmarkColdRequest(b *testing.B) {
	reqs := endpointRequests(b, parcgen.Generate(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := serve.New(serve.DefaultConfig()).Handler()
		for _, r := range reqs {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
			if w.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", r.path, w.Code, w.Body)
			}
		}
	}
}

// BenchmarkColdCorpus sends parcgen seeds 0–299, each once, to the four
// endpoints of one fresh in-process server: the serve_cold shape, in which
// every program is new, without HTTP or a load generator. One op is the
// whole corpus; it reports µs and bytes per program, and annotate
// executions per program (1 when /v1/static shares /v1/annotate's
// annotation, 2 when it cannot). The cold path's profile is
//
//	go test -run '^$' -bench ColdCorpus -cpuprofile cpu.prof .
func BenchmarkColdCorpus(b *testing.B) {
	const programs = 300
	corpus := make([][4]endpointRequest, programs)
	for i := range corpus {
		corpus[i] = endpointRequests(b, parcgen.Generate(int64(i)))
	}
	var before, after runtime.MemStats
	var annotates uint64
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := serve.New(serve.DefaultConfig())
		h := s.Handler()
		for _, reqs := range corpus {
			for _, r := range reqs {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
				if w.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", r.path, w.Code, w.Body)
				}
			}
		}
		annotates += s.Metrics().Snapshot()[`pipeline_executions_total{phase="annotate"}`]
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * programs)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "µs/program")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/program")
	b.ReportMetric(float64(annotates)/n, "annotate-execs/program")
}

// reusedWriter is an http.ResponseWriter a closed-loop client keeps across
// its requests.
type reusedWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *reusedWriter) Header() http.Header  { return w.header }
func (w *reusedWriter) WriteHeader(code int) { w.code = code }
func (w *reusedWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// BenchmarkHotRequest repeats one request on each endpoint of a server the
// request has warmed, through one reused *http.Request and response writer:
// every op is a body-index hit, so this is the serve layer alone. One op is
// one request; B/op and allocs/op are what a hit costs.
func BenchmarkHotRequest(b *testing.B) {
	h := serve.New(serve.DefaultConfig()).Handler()
	for _, r := range endpointRequests(b, parcgen.Generate(7)) {
		b.Run(strings.TrimPrefix(r.path, "/v1/"), func(b *testing.B) {
			rd := bytes.NewReader(nil)
			req := httptest.NewRequest(http.MethodPost, r.path, nil)
			req.Body = io.NopCloser(rd)
			w := &reusedWriter{header: make(http.Header)}
			send := func() {
				rd.Reset(r.body)
				clear(w.header)
				w.body = w.body[:0]
				h.ServeHTTP(w, req)
			}
			send()
			if w.code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", r.path, w.code, w.body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
			b.StopTimer()
			if got := w.header.Get("X-Cachier-Cache"); got != "hit" {
				b.Fatalf("%s: a repeated request was a %q, want a hit", r.path, got)
			}
		})
	}
}

// BenchmarkAnnotate measures Cachier's own speed (trace processing through
// unparse) the way the benchmark module's core rows do: each Figure 6
// training trace annotated twice, without and with prefetch. records/s is
// trace records consumed per second (core.records_per_s in the ledger);
// B/op and allocs/op are one port's two passes.
func BenchmarkAnnotate(b *testing.B) {
	for _, bm := range bench.All() {
		b.Run(bm.Name, func(b *testing.B) {
			traceCfg := sim.DefaultConfig()
			traceCfg.Nodes = bm.Nodes
			traceCfg.Mode = sim.ModeTrace
			src := bm.Source(bm.Train)
			tr, err := sim.Run(parc.MustParse(src), traceCfg)
			if err != nil {
				b.Fatal(err)
			}
			records := 0
			for _, e := range tr.Trace.Epochs {
				records += len(e.Misses)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, prefetch := range []bool{false, true} {
					opts := core.DefaultOptions()
					opts.Prefetch = prefetch
					if _, err := core.Annotate(src, tr.Trace, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(2*records*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkFullMapBaseline is the protocol-sensitivity ablation: under a
// full-map hardware directory (the Dir_N class Dir1SW was designed as a
// cheap alternative to; DirₙNB with a pointer per node, protocol
// "dirnnb:<nodes>") no transition traps to software and invalidations are
// directed, so the unannotated baseline is much faster and CICO
// annotations have far less left to save. The annotations' value is a
// property of Dir1SW's hardware/software split, exactly as the cooperative
// shared memory work argues.
func BenchmarkFullMapBaseline(b *testing.B) {
	bm := bench.MatMul()
	traceCfg := sim.DefaultConfig()
	traceCfg.Nodes = bm.Nodes
	traceCfg.Mode = sim.ModeTrace
	src := bm.Source(bm.Train)
	tr, err := sim.Run(parc.MustParse(src), traceCfg)
	if err != nil {
		b.Fatal(err)
	}
	ann, err := core.Annotate(src, tr.Trace, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ratio := func(protocol string) float64 {
		cfg := sim.DefaultConfig()
		cfg.Nodes = bm.Nodes
		cfg.Protocol = protocol
		base, err := sim.Run(parc.MustParse(src), cfg)
		if err != nil {
			b.Fatal(err)
		}
		annotated, err := sim.Run(parc.MustParse(ann.Source), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return float64(annotated.Cycles) / float64(base.Cycles)
	}
	var dir1swRatio, fullMapRatio float64
	for i := 0; i < b.N; i++ {
		dir1swRatio = ratio("dir1sw")
		fullMapRatio = ratio(fmt.Sprintf("dirnnb:%d", bm.Nodes))
	}
	b.ReportMetric(dir1swRatio, "cachier/none-dir1sw")
	b.ReportMetric(fullMapRatio, "cachier/none-fullmap")
}
