package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"cachier/internal/analysis"
	"cachier/internal/bench"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSeed is the fixed corpus seed the API goldens pin; testNodes is the
// conformance harness's machine size (generated programs partition by 4).
const (
	goldenSeed = 7
	testNodes  = 4
)

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch (re-run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// jacobiSource is the unannotated Jacobi worked example on its default
// 4-node instance.
func jacobiSource() string {
	return bench.JacobiUnannotated(bench.JacobiParams)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one JSON request and returns the status, headers, and body.
func post(t *testing.T, url string, req any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestGoldenEndpoints pins one golden response per endpoint for the fixed
// corpus seed and for the Jacobi example, and checks the full serving
// contract on each: the HTTP body must equal the in-process library result
// byte for byte, and an immediately repeated request must be a cache hit
// with an identical body.
func TestGoldenEndpoints(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	sources := []struct {
		name string
		src  string
	}{
		{"seed7", parcgen.Generate(goldenSeed)},
		{"jacobi", jacobiSource()},
	}
	for _, sc := range sources {
		machine := MachineSpec{Nodes: testNodes}
		annReq := &AnnotateRequest{Source: sc.src, Prefetch: true, Machine: machine}
		simReq := &SimulateRequest{Source: sc.src, Configs: []MachineSpec{
			{Nodes: testNodes},
			{Nodes: testNodes, Protocol: "dirnnb:4"},
		}}
		vetReq := &VetRequest{Source: sc.src, Nodes: testNodes}

		wantAnn, err := EvalAnnotate(annReq)
		if err != nil {
			t.Fatalf("%s: EvalAnnotate: %v", sc.name, err)
		}
		wantStatic, err := EvalStatic(annReq)
		if err != nil {
			t.Fatalf("%s: EvalStatic: %v", sc.name, err)
		}
		wantVet, err := EvalVet(vetReq)
		if err != nil {
			t.Fatalf("%s: EvalVet: %v", sc.name, err)
		}
		wantSim, wantSnaps, err := EvalSimulate(simReq)
		if err != nil {
			t.Fatalf("%s: EvalSimulate: %v", sc.name, err)
		}

		cases := []struct {
			endpoint string
			req      any
			want     any
		}{
			{"annotate", annReq, wantAnn},
			{"static", annReq, wantStatic},
			{"vet", vetReq, wantVet},
			{"simulate", simReq, wantSim},
		}
		for _, c := range cases {
			t.Run(c.endpoint+"_"+sc.name, func(t *testing.T) {
				wantBytes, err := MarshalResponse(c.want)
				if err != nil {
					t.Fatal(err)
				}
				url := ts.URL + "/v1/" + c.endpoint
				code, hdr, body := post(t, url, c.req)
				if code != http.StatusOK {
					t.Fatalf("status %d: %s", code, body)
				}
				if !bytes.Equal(body, wantBytes) {
					t.Fatalf("HTTP body diverges from library result\n--- http ---\n%s\n--- library ---\n%s", body, wantBytes)
				}
				if got := hdr.Get("X-Cachier-Cache"); got != "miss" && got != "flight" {
					t.Fatalf("cold response cache status %q", got)
				}
				checkGolden(t, fmt.Sprintf("%s_%s.golden.json", c.endpoint, sc.name), body)

				// Cached repeat: byte-identical body, hit status.
				code2, hdr2, body2 := post(t, url, c.req)
				if code2 != http.StatusOK {
					t.Fatalf("repeat status %d", code2)
				}
				if hdr2.Get("X-Cachier-Cache") != "hit" {
					t.Fatalf("repeat cache status %q, want hit", hdr2.Get("X-Cachier-Cache"))
				}
				if !bytes.Equal(body, body2) {
					t.Fatalf("cached response differs from cold response")
				}
			})
		}

		// Every snapshot the simulate response references must be served
		// byte-identically to the library's snapshot bytes. The golden holds
		// the bodies one after another, in config order.
		t.Run("snapshot_"+sc.name, func(t *testing.T) {
			var all []byte
			for _, r := range wantSim.Results {
				code, body := get(t, ts.URL+"/v1/snapshot/"+r.SnapshotID)
				if code != http.StatusOK {
					t.Fatalf("snapshot %s: status %d: %s", r.SnapshotID, code, body)
				}
				if !bytes.Equal(body, wantSnaps[r.SnapshotID]) {
					t.Fatalf("snapshot %s diverges from library bytes", r.SnapshotID)
				}
				all = append(all, body...)
			}
			checkGolden(t, "snapshot_"+sc.name+".golden.json", all)
		})
	}
}

// TestFormattingInvariantCache: the program cache keys on the digest of the
// source's token stream, so a copy of a cached program that differs only in
// whitespace and comments hits it through all four endpoints, runs no
// canonicalisation, and answers the bytes Eval* gives that copy. A
// malformed copy is never served from the cache: its 400 quotes its own
// line:col.
func TestFormattingInvariantCache(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	src := parcgen.Generate(3)
	for _, c := range coldRequests(src) {
		postAs(t, ts.URL+c.path, c.req, "miss")
	}
	reindented := regexp.MustCompile(`(?m)^[ \t]*`).ReplaceAllString(src, "\t  ")
	for name, variant := range map[string]string{
		"trailing blank lines and spaces": src + "\n\n\n" + "     ",
		"comments":                        "// a formatting-only rewrite\n\n" + src + "\n/* trailing comment */\n",
		"line comments":                   reformat(src),
		"reindented":                      reindented,
		"CRLF":                            strings.ReplaceAll(src, "\n", "\r\n"),
		"1 MiB comment pad":               "/*" + strings.Repeat("padding ", 1<<17) + "*/\n" + src,
	} {
		if variant == src {
			t.Fatalf("%s: the variant is the source itself", name)
		}
		var want [][]byte
		for _, c := range coldRequests(variant) {
			want = append(want, evalBytes(t, c.path, c.req))
		}
		parses := parc.Parses()
		hits, misses := s.metrics.Counter(s.eval.programs.hits), s.metrics.Counter(s.eval.programs.misses)
		for i, c := range coldRequests(variant) {
			if body := postAs(t, ts.URL+c.path, c.req, "hit"); !bytes.Equal(body, want[i]) {
				t.Fatalf("%s %s: the answer is not Eval's on the variant\n--- http ---\n%s\n--- library ---\n%s", name, c.path, body, want[i])
			}
		}
		if got := parc.Parses() - parses; got != 0 {
			t.Errorf("%s: the variant was parsed %d times, want 0", name, got)
		}
		if h, m := s.metrics.Counter(s.eval.programs.hits)-hits, s.metrics.Counter(s.eval.programs.misses)-misses; h != 4 || m != 0 {
			t.Errorf("%s: %d program-cache hits and %d misses, want 4 and 0", name, h, m)
		}
	}
	if n := s.eval.programs.len(); n != 1 {
		t.Errorf("the program cache holds %d entries for one program, want 1", n)
	}

	// Copies of one malformed program, one the lexer rejects: each 400
	// quotes its own text.
	for bad, msg := range map[string]string{
		"func main() { x = ; }":                   "1:19: expected expression",
		"\n\nfunc main() {\n  x = ;\n}":           "4:7: expected expression",
		"func main() {\n  x = ; /* unclosed\n}\n": "2:9: unterminated block comment",
	} {
		code, _, body := post(t, ts.URL+"/v1/vet", &VetRequest{Source: bad, Nodes: testNodes})
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte(msg)) {
			t.Errorf("%q: status %d, body %s, want a 400 with %q", bad, code, body, msg)
		}
	}
}

// evalBytes is the library's answer to a request to path.
func evalBytes(t *testing.T, path string, req any) []byte {
	t.Helper()
	var resp any
	var err error
	switch path {
	case "/v1/vet":
		resp, err = EvalVet(req.(*VetRequest))
	case "/v1/annotate":
		resp, err = EvalAnnotate(req.(*AnnotateRequest))
	case "/v1/static":
		resp, err = EvalStatic(req.(*AnnotateRequest))
	case "/v1/simulate":
		resp, _, err = EvalSimulate(req.(*SimulateRequest))
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// One machine may have 2^24 cache lines in all: the paper's machine and a
// 1024-node machine of default caches are inside the bound, a 1024-node
// machine of 512 KB caches is not.
func TestMachineLineBound(t *testing.T) {
	for _, c := range []struct {
		m  MachineSpec
		ok bool
	}{
		{MachineSpec{}, true},
		{MachineSpec{Nodes: 1024}, true},
		{MachineSpec{Nodes: 1024, CacheSize: 1 << 19}, true},
		{MachineSpec{Nodes: 1024, CacheSize: 1 << 20}, false},
	} {
		if _, err := c.m.resolved(); (err == nil) != c.ok {
			t.Errorf("%+v: resolved error %v, want accepted %v", c.m, err, c.ok)
		}
	}
}

// TestErrorResponses covers the 4xx surface: malformed JSON, programs the
// front end rejects, bad machine specs, unknown snapshots.
func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	checkErr := func(name string, code, wantCode int, body []byte) {
		t.Helper()
		if code != wantCode {
			t.Fatalf("%s: status %d, want %d (%s)", name, code, wantCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("%s: body is not an error response: %s", name, body)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/annotate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	checkErr("malformed body", resp.StatusCode, 400, data)

	code, _, body := post(t, ts.URL+"/v1/annotate", &AnnotateRequest{Source: "func main() { nope"})
	checkErr("parse error", code, 400, body)

	code, _, body = post(t, ts.URL+"/v1/annotate", &AnnotateRequest{Source: parcgen.Generate(1), Style: "bogus"})
	checkErr("bad style", code, 400, body)

	code, _, body = post(t, ts.URL+"/v1/simulate", &SimulateRequest{
		Source:  parcgen.Generate(1),
		Configs: []MachineSpec{{Nodes: testNodes, Protocol: "dir9000"}},
	})
	checkErr("bad protocol", code, 400, body)

	// Geometries the caches or the memory layout cannot build are the
	// client's error on every endpoint, refused before a worker runs them;
	// the huge associativity wraps assoc*block_size to zero, and the
	// 1024 caches of one 2^20-way set would take about 16 GB.
	for name, machine := range map[string]MachineSpec{
		"huge assoc":     {Nodes: testNodes, Assoc: 1 << (bits.UintSize - 5)},
		"assoc 3":        {Nodes: testNodes, Assoc: 3},
		"negative assoc": {Nodes: testNodes, Assoc: -1},
		"block size 24":  {Nodes: testNodes, BlockSize: 24},
		"2^30 lines":     {Nodes: 1024, CacheSize: 1 << 25, Assoc: 1 << 20},
	} {
		src := parcgen.Generate(1)
		code, _, body = post(t, ts.URL+"/v1/simulate", &SimulateRequest{Source: src, Configs: []MachineSpec{machine}})
		checkErr(name+", simulate", code, 400, body)
		code, _, body = post(t, ts.URL+"/v1/annotate", &AnnotateRequest{Source: src, Machine: machine})
		checkErr(name+", annotate", code, 400, body)
		code, _, body = post(t, ts.URL+"/v1/static", &AnnotateRequest{Source: src, Machine: machine})
		checkErr(name+", static", code, 400, body)
	}

	// Array sizes the machine cannot hold: refused by the checker, never
	// allocated (see parc.MaxArrayBytes).
	for name, src := range map[string]string{
		"huge shared array":   "shared float A[4000000000];\nfunc main() { A[0] = 1.0; }",
		"huge private array":  "func main() {\n    var big float[4000000000];\n}",
		"overflowing product": "shared int A[4294967296][4294967296];\nfunc main() { A[0][0] = 1; }",
	} {
		code, _, body = post(t, ts.URL+"/v1/simulate", &SimulateRequest{Source: src})
		checkErr(name+", simulate", code, 400, body)
		code, _, body = post(t, ts.URL+"/v1/static", &AnnotateRequest{Source: src})
		checkErr(name+", static", code, 400, body)
	}

	// A constant whose value leaves int64 is refused by the checker, not
	// folded to a wrapped size.
	code, _, body = post(t, ts.URL+"/v1/annotate", &AnnotateRequest{
		Source: "const N = 4611686018427387904 * 4 + 8;\nshared int A[N];\nfunc main() { A[pid() % N] = 1; }",
	})
	checkErr("overflowing constant, annotate", code, 400, body)

	// A program that faults when run is the submitter's error on every
	// endpoint that runs it, whichever simulation (measuring or tracing)
	// met the fault.
	for name, src := range map[string]string{
		"division by zero":       "shared int A[4];\nfunc main() { var z int = 0; A[pid() % 4] = 1 / z; }",
		"subscript out of range": "shared int A[4];\nfunc main() { var i int = 4; A[i] = 1; }",
		"deadlock":               "func main() { if (pid() == 0) { lock(1); } if (pid() != 0) { lock(1); unlock(1); } }",
	} {
		machine := MachineSpec{Nodes: testNodes}
		code, _, body = post(t, ts.URL+"/v1/simulate", &SimulateRequest{Source: src, Configs: []MachineSpec{machine}})
		checkErr(name+", simulate", code, 422, body)
		code, _, body = post(t, ts.URL+"/v1/annotate", &AnnotateRequest{Source: src, Machine: machine})
		checkErr(name+", annotate", code, 422, body)
	}

	// A fault of the machine itself is met by static inference's replay of
	// the program too, and is the submitter's error there as well.
	for name, src := range map[string]string{
		"self-deadlock":   "func main() { lock(1); lock(1); }",
		"unlock fault":    "func main() { unlock(3); }",
		"layout overflow": "shared float A[20000000];\nshared float B[20000000];\nfunc main() { A[0] = 1.0; B[0] = 1.0; }",
	} {
		machine := MachineSpec{Nodes: testNodes}
		code, _, body = post(t, ts.URL+"/v1/simulate", &SimulateRequest{Source: src, Configs: []MachineSpec{machine}})
		checkErr(name+", simulate", code, 422, body)
		code, _, body = post(t, ts.URL+"/v1/annotate", &AnnotateRequest{Source: src, Machine: machine})
		checkErr(name+", annotate", code, 422, body)
		code, _, body = post(t, ts.URL+"/v1/static", &AnnotateRequest{Source: src, Machine: machine})
		checkErr(name+", static", code, 422, body)
	}

	code, body = get(t, ts.URL+"/v1/snapshot/deadbeef")
	checkErr("unknown snapshot", code, 404, body)
}

// TestSpinningProgramIsBounded: a program that never terminates is answered
// with a 422 naming the cycle budget, well inside the request deadline, on
// both endpoints that simulate; nothing about it is cached, so a repeat
// simulates again; and the server drains afterwards, which it cannot while
// a worker is still spinning. Only node 0 spins, on a machine wide enough
// that its share of the budget is a fraction of a second of host time.
func TestSpinningProgramIsBounded(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	const src = "func main() { var i int = 0; if (pid() == 0) { while (1) { i = i + 1; } } }"
	machine := MachineSpec{Nodes: 256}
	for round := 1; round <= 2; round++ {
		code, _, body := post(t, ts.URL+"/v1/simulate", &SimulateRequest{Source: src, Configs: []MachineSpec{machine}})
		if code != 422 || !bytes.Contains(body, []byte("cycle budget exceeded")) {
			t.Fatalf("simulate, round %d: status %d %s, want a 422 naming the cycle budget", round, code, body)
		}
		code, _, body = post(t, ts.URL+"/v1/annotate", &AnnotateRequest{Source: src, Machine: machine})
		if code != 422 || !bytes.Contains(body, []byte("cycle budget exceeded")) {
			t.Fatalf("annotate, round %d: status %d %s, want a 422 naming the cycle budget", round, code, body)
		}
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`pipeline_executions_total{phase="simulate"} 2`,
		`pipeline_executions_total{phase="trace"} 2`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %q (a budget error must not be cached):\n%s", want, metrics)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after budget errors: %v", err)
	}
}

// TestEndlessPrintIsBounded: a program that prints forever on the default
// machine is answered with a 422 naming the output limit well within a
// second (ten under the race detector), instead of growing the server's
// heap until the cycle budget ends it. The request allocates under 64 MB
// in all (about 16 MB, 23 MB under the race detector), a bound that holds
// whatever else the host runs; without sim.MaxOutputBytes it allocated
// gigabytes.
func TestEndlessPrintIsBounded(t *testing.T) {
	body, err := json.Marshal(&SimulateRequest{Source: `func main() { while (1) { print("x"); } }`})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rec := httptest.NewRecorder()
	New(DefaultConfig()).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if limit := wallLimit(); elapsed > limit {
		t.Errorf("answered after %v, want within %v", elapsed, limit)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("the request allocated %d MB, want under 64", alloc>>20)
	}
	if rec.Code != 422 || !strings.Contains(rec.Body.String(), "output limit exceeded") {
		t.Fatalf("status %d %s, want a 422 naming the output limit", rec.Code, rec.Body)
	}
}

// wallLimit is the wall-clock bound of one bounded request: a second, ten
// under the race detector.
func wallLimit() time.Duration {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		return 10 * time.Second
	}
	return time.Second
}

// TestEndlessBarrierIsBounded: a program that does nothing but pass barriers
// is answered with a 422 naming the barrier limit within a second, by both
// endpoints that simulate, on one node and on 1 024 (ten seconds under the
// race detector, which slows the wide machine's sim.MaxBarrierArrivals
// arrivals that much). Each request allocates under 256 MB in all, so the heap it
// adds cannot pass that. Without the bound every episode's state lived
// until the cycle budget ended the run: about 50 GB on one node.
func TestEndlessBarrierIsBounded(t *testing.T) {
	const src = `func main() { while (1) { barrier; } }`
	limit := wallLimit()
	h := New(DefaultConfig()).Handler()
	for _, nodes := range []int{1, 1024} {
		machine := MachineSpec{Nodes: nodes}
		for _, c := range []struct {
			path string
			req  any
		}{
			{"/v1/simulate", &SimulateRequest{Source: src, Configs: []MachineSpec{machine}}},
			{"/v1/annotate", &AnnotateRequest{Source: src, Machine: machine}},
		} {
			body, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", c.path, bytes.NewReader(body)))
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if rec.Code != 422 || !strings.Contains(rec.Body.String(), "barrier limit exceeded") {
				t.Fatalf("%s, %d nodes: status %d %s, want a 422 naming the barrier limit", c.path, nodes, rec.Code, rec.Body)
			}
			if elapsed > limit {
				t.Errorf("%s, %d nodes: answered after %v, want within %v", c.path, nodes, elapsed, limit)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<20 {
				t.Errorf("%s, %d nodes: the request allocated %d MB, want under 256", c.path, nodes, alloc>>20)
			}
		}
	}
}

// TestHealthzAndMetrics covers the operational endpoints, including the
// draining flip and the caches' sizes and evictions. The caches hold one
// entry each (the response cache and the body index four): one cold request
// per endpoint fills them, a second program's vet request evicts from the
// three caches it writes, and its repeat is answered by the body index.
func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	for _, c := range coldRequests(parcgen.Generate(2)) {
		if code, _, body := post(t, ts.URL+c.path, c.req); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, code, body)
		}
	}
	post(t, ts.URL+"/v1/vet", &VetRequest{Source: parcgen.Generate(3), Nodes: testNodes})
	post(t, ts.URL+"/v1/vet", &VetRequest{Source: parcgen.Generate(3), Nodes: testNodes})
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`requests_total{endpoint="vet",code="200"} 3`,
		`pipeline_executions_total{phase="vet"} 2`,
		"queue_depth 0",
		`cache_entries{cache="response"} 4`,
		`cache_entries{cache="index"} 4`,
		`cache_hits_total{cache="index"} 1`,
		`cache_misses_total{cache="index"} 5`,
		`cache_evictions_total{cache="index"} 1`,
		`cache_entries{cache="program"} 1`,
		`cache_entries{cache="trace"} 1`,
		`cache_entries{cache="inference"} 1`,
		`cache_entries{cache="annotation"} 1`,
		`cache_entries{cache="simulate"} 1`,
		`cache_evictions_total{cache="response"} 1`,
		`cache_evictions_total{cache="program"} 1`,
		`cache_evictions_total{cache="trace"} 0`,
		`cache_evictions_total{cache="inference"} 0`,
		`cache_evictions_total{cache="annotation"} 0`,
		`cache_evictions_total{cache="simulate"} 0`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("draining healthz: %d %s", code, body)
	}
}

// TestAnnotatedOutputReparses checks the round trip that annotation does not
// check at run time, since it returns its text unparsed: on parcgen seeds
// 0–199 and every Figure 6 training source, the text /v1/annotate and
// /v1/static return in each style parses, and its print is a parse–print
// fixpoint. (The returned text is not itself one: Print drops the comments
// that mark conflicts.)
func TestAnnotatedOutputReparses(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One goroutine: the race detector would only multiply its 20 s.
		t.Skip("annotates 205 programs six ways")
	}
	type source struct {
		name  string
		src   string
		nodes int
	}
	var sources []source
	for seed := int64(0); seed < 200; seed++ {
		sources = append(sources, source{fmt.Sprintf("seed %d", seed), parcgen.Generate(seed), testNodes})
	}
	for _, b := range bench.All() {
		sources = append(sources, source{b.Name, b.Source(b.Train), b.Nodes})
	}
	styles := []struct {
		style    string
		prefetch bool
	}{{"performance", false}, {"performance", true}, {"programmer", false}}
	evals := []struct {
		path string
		eval func(*AnnotateRequest) (*AnnotateResponse, error)
	}{{"/v1/annotate", EvalAnnotate}, {"/v1/static", EvalStatic}}
	for _, sc := range sources {
		for _, st := range styles {
			req := &AnnotateRequest{Source: sc.src, Style: st.style, Prefetch: st.prefetch, Machine: MachineSpec{Nodes: sc.nodes}}
			for _, e := range evals {
				resp, err := e.eval(req)
				if err != nil {
					t.Fatalf("%s %s %s prefetch=%v: %v", sc.name, e.path, st.style, st.prefetch, err)
				}
				prog, err := parc.Parse(resp.Annotated)
				if err != nil {
					t.Fatalf("%s %s %s prefetch=%v: annotated text does not parse: %v\n%s",
						sc.name, e.path, st.style, st.prefetch, err, resp.Annotated)
				}
				printed := parc.Print(prog)
				again, err := parc.Parse(printed)
				if err != nil || parc.Print(again) != printed {
					t.Fatalf("%s %s %s prefetch=%v: the annotated program's print is not a parse–print fixpoint (%v)\n%s",
						sc.name, e.path, st.style, st.prefetch, err, printed)
				}
			}
		}
	}
}

// TestColdProgramParses pins the front-end, analysis and annotation work of
// one new program sent to all four endpoints: two parses to canonicalise it
// (the submitted text, then the canonical text the cached AST is built
// from), one build of its static information (analysis.Info), kept with the
// cached AST and shared by vet, static inference and both annotations, one
// inference, and one annotation, which /v1/static shares with /v1/annotate
// because inference reproduced the simulated trace. The annotations print the
// cached AST with their annotations spliced in and return that text without
// parsing it. While each annotation re-parsed its output as a self-check
// and each of the four phases built an Info of its own, this was 4 parses
// and 4 builds; before the AST was immutable each of the three executing
// phases parsed a copy of its own, 9 parses in all. An inexact program's
// inferred trace is not the simulated one, so it is annotated twice.
func TestColdProgramParses(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	execs := func(phase string) uint64 { return s.metrics.Snapshot()[`pipeline_executions_total{phase="`+phase+`"}`] }
	parses, builds := parc.Parses(), analysis.Builds()
	for _, c := range coldRequests(parcgen.Generate(goldenSeed + 1)) {
		code, hdr, body := post(t, ts.URL+c.path, c.req)
		if code != http.StatusOK || hdr.Get("X-Cachier-Cache") != "miss" {
			t.Fatalf("%s: status %d, cache %q: %s", c.path, code, hdr.Get("X-Cachier-Cache"), body)
		}
	}
	if got := parc.Parses() - parses; got != 2 {
		t.Errorf("one cold program through four endpoints parsed %d times, want 2", got)
	}
	if got := analysis.Builds() - builds; got != 1 {
		t.Errorf("one cold program through four endpoints built %d Infos, want 1", got)
	}
	for _, phase := range []string{"annotate", "static"} {
		if got := execs(phase); got != 1 {
			t.Errorf("one exact cold program through four endpoints ran %s %d times, want 1", phase, got)
		}
	}
	// A formatting variant has the program's token digest: it hits the
	// program cache and every cache after it, and parses and analyses
	// nothing.
	parses, builds = parc.Parses(), analysis.Builds()
	for _, c := range coldRequests(parcgen.Generate(goldenSeed+1) + "\n\n  \t// edited\n") {
		postAs(t, ts.URL+c.path, c.req, "hit")
	}
	if got := parc.Parses() - parses; got != 0 {
		t.Errorf("a formatting variant through four endpoints parsed %d times, want 0", got)
	}
	if got := analysis.Builds() - builds; got != 0 {
		t.Errorf("a formatting variant through four endpoints built %d Infos, want 0", got)
	}
	annotations := execs("annotate")
	for _, c := range coldRequests(parcgen.Generate(inexactSeed)) {
		code, _, body := post(t, ts.URL+c.path, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, code, body)
		}
		if c.path == "/v1/static" && !bytes.Contains(body, []byte(`"exact": false`)) {
			t.Fatalf("seed %d was expected to infer inexactly: %s", inexactSeed, body)
		}
	}
	if got := execs("annotate") - annotations; got != 2 {
		t.Errorf("an inexact cold program through four endpoints was annotated %d times, want 2", got)
	}
}

// inexactSeed is a parcgen seed that infers inexactly at testNodes: a branch
// on a non-concrete condition records both arms.
const inexactSeed = 47

// TestInferenceAndAnnotationCachedOnce: an exact program sent to /v1/static
// and /v1/annotate in three styles on one machine infers once, shared by
// every style, and annotates once per style, shared by both endpoints.
// Without the inference and annotation caches this was 3 inferences and 6
// annotations.
func TestInferenceAndAnnotationCachedOnce(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	src := parcgen.Generate(goldenSeed)
	for _, st := range []struct {
		style    string
		prefetch bool
	}{{"performance", false}, {"performance", true}, {"programmer", false}} {
		for _, path := range []string{"/v1/static", "/v1/annotate"} {
			req := &AnnotateRequest{Source: src, Style: st.style, Prefetch: st.prefetch, Machine: MachineSpec{Nodes: testNodes}}
			code, _, body := post(t, ts.URL+path, req)
			if code != http.StatusOK {
				t.Fatalf("%s %s prefetch=%v: status %d: %s", path, st.style, st.prefetch, code, body)
			}
			if !bytes.Equal(body, evalBytes(t, path, req)) {
				t.Errorf("%s %s prefetch=%v: the server's bytes diverge from the library's", path, st.style, st.prefetch)
			}
		}
	}
	snap := s.metrics.Snapshot()
	for phase, want := range map[string]uint64{"static": 1, "trace": 1, "annotate": 3} {
		if got := snap[`pipeline_executions_total{phase="`+phase+`"}`]; got != want {
			t.Errorf("%s ran %d times, want %d", phase, got, want)
		}
	}
}

// coldRequests are one request to each of the four POST endpoints for src,
// on the test machine.
func coldRequests(src string) []struct {
	path string
	req  any
} {
	machine := MachineSpec{Nodes: testNodes}
	return []struct {
		path string
		req  any
	}{
		{"/v1/vet", &VetRequest{Source: src, Nodes: testNodes}},
		{"/v1/annotate", &AnnotateRequest{Source: src, Machine: machine}},
		{"/v1/static", &AnnotateRequest{Source: src, Machine: machine}},
		{"/v1/simulate", &SimulateRequest{Source: src, Configs: []MachineSpec{machine}}},
	}
}

// TestEachFactCachedOnce: one cold program through the four endpoints
// leaves one entry per fact computed, each in exactly one cache: the four
// response bodies, the canonical program, the trace /v1/annotate ran, the
// trace /v1/static inferred, the one annotation both endpoints render (the
// program infers exactly), and the simulation. Vet findings and snapshots
// have no cache of their own: the snapshot is served from its simulation's
// entry. The body index holds no fact: its four entries each name a cached
// response.
func TestEachFactCachedOnce(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	src := parcgen.Generate(goldenSeed + 2)
	var snapshotID string
	for _, c := range coldRequests(src) {
		code, _, body := post(t, ts.URL+c.path, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, code, body)
		}
		if c.path == "/v1/simulate" {
			var resp SimulateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			snapshotID = resp.Results[0].SnapshotID
		}
	}
	for _, c := range []struct {
		name  string
		cache *lruCache
		want  int
	}{
		{"response", s.resp, 4},
		{"program", s.eval.programs, 1},
		{"trace", s.eval.traces, 1},
		{"inference", s.eval.inferences, 1},
		{"annotation", s.eval.annotations, 1},
		{"simulation", s.eval.sims, 1},
		{"index", s.index, 4},
	} {
		if got := c.cache.len(); got != c.want {
			t.Errorf("%s cache holds %d entries, want %d", c.name, got, c.want)
		}
	}
	for _, el := range s.index.items {
		key := el.Value.(*lruEntry).val.(string)
		if _, ok := s.resp.items[key]; !ok {
			t.Errorf("the body index names response key %q, which the response cache does not hold", key)
		}
	}

	_, want, err := EvalSimulate(&SimulateRequest{Source: src, Configs: []MachineSpec{{Nodes: testNodes}}})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/v1/snapshot/"+snapshotID)
	if code != http.StatusOK || !bytes.Equal(body, want[snapshotID]) {
		t.Fatalf("snapshot %s: status %d, or its bytes diverge from the library's", snapshotID, code)
	}
	if got := s.metrics.Snapshot()[`cache_hits_total{cache="simulate"}`]; got != 1 {
		t.Errorf("the snapshot was served by %d simulation-cache hits, want 1", got)
	}
}
