package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachier/internal/parc"
	"cachier/internal/parcgen"
)

// gate lets a test hold every heavy pipeline execution open: the executing
// goroutine announces itself on entered and then blocks until release is
// closed.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate(n int) *gate {
	return &gate{entered: make(chan struct{}, n), release: make(chan struct{})}
}

func (g *gate) hook() func() {
	return func() {
		g.entered <- struct{}{}
		<-g.release
	}
}

func (g *gate) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no pipeline execution entered the gate")
	}
}

// TestSingleflightCollapse submits the same program from many goroutines at
// once while the pipeline execution is held open. Exactly one vet execution
// must run, and every response must be byte-identical and successful.
func TestSingleflightCollapse(t *testing.T) {
	const n = 16
	s, ts := newTestServer(t, DefaultConfig())
	g := newGate(n)
	s.eval.slow = g.hook()

	src := parcgen.Generate(11)
	req := &VetRequest{Source: src, Nodes: testNodes}

	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = post(t, ts.URL+"/v1/vet", req)
		}(i)
	}
	// The leader is inside the pipeline; give the followers a moment to
	// pile onto its flight, then let it finish.
	g.waitEntered(t)
	time.Sleep(50 * time.Millisecond)
	close(g.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body diverges from request 0", i)
		}
	}
	snap := s.metrics.Snapshot()
	if got := snap[`pipeline_executions_total{phase="vet"}`]; got != 1 {
		t.Fatalf("vet executed %d times, want exactly 1", got)
	}
	// Any extra attempts past the gate would have shown up here too.
	if got := snap[`cache_misses_total{cache="response"}`]; got < 1 {
		t.Fatalf("expected at least one response-cache miss, got %d", got)
	}
}

// TestFollowerOutlivesCancelledLeader: a request that joined another's
// flight is not failed by the other's cancellation. With the only worker
// held, request A leads program P's flight and queues for the worker, and
// B, the same request, joins A's flight; then A's client goes away. A gets
// its 503, and B, whose client stayed, still gets the library's bytes once
// the worker is free.
func TestFollowerOutlivesCancelledLeader(t *testing.T) {
	s := New(Config{Workers: 1})
	g := newGate(4)
	s.eval.slow = g.hook()
	send := func(ctx context.Context, req *VetRequest) <-chan *httptest.ResponseRecorder {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/vet", bytes.NewReader(body)).WithContext(ctx))
			done <- rec
		}()
		return done
	}

	holder := send(context.Background(), &VetRequest{Source: parcgen.Generate(51), Nodes: testNodes})
	g.waitEntered(t) // the only worker is now held

	req := &VetRequest{Source: parcgen.Generate(52), Nodes: testNodes}
	lib, err := EvalVet(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalResponse(lib)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	a := send(ctxA, req)
	for s.eval.pool.depth() == 0 { // A is queued, leading P's flight
		time.Sleep(time.Millisecond)
	}
	b := send(context.Background(), req)
	// B has missed the response cache (after the holder and A) and joins
	// A's flight next.
	for s.metrics.Counter(`cache_misses_total{cache="response"}`) < 3 {
		time.Sleep(time.Millisecond)
	}
	cancelA()
	if rec := <-a; rec.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled leader: status %d %s, want 503", rec.Code, rec.Body)
	}

	close(g.release)
	if rec := <-holder; rec.Code != http.StatusOK {
		t.Errorf("holder: status %d %s", rec.Code, rec.Body)
	}
	rec := <-b
	if rec.Code != http.StatusOK {
		t.Fatalf("follower of a cancelled leader: status %d %s, want 200", rec.Code, rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("follower's body diverges from the library's\n--- http ---\n%s\n--- library ---\n%s", rec.Body, want)
	}
}

// TestQueueFullBackpressure saturates a 1-worker, 0-queue server and checks
// that the overflow request is rejected immediately with 429 + Retry-After
// while the occupying request still completes.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	g := newGate(4)
	s.eval.slow = g.hook()

	type reply struct {
		code int
		body []byte
	}
	first := make(chan reply, 1)
	go func() {
		code, _, body := post(t, ts.URL+"/v1/vet", &VetRequest{Source: parcgen.Generate(21), Nodes: testNodes})
		first <- reply{code, body}
	}()
	g.waitEntered(t) // the only worker slot is now held open

	// A different program cannot join the first request's flight, needs a
	// pool slot, and the queue bound is zero: explicit 429 on arrival.
	body, err := MarshalResponse(&VetRequest{Source: parcgen.Generate(22), Nodes: testNodes})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/vet", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(g.release)
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("occupying request: status %d: %s", r.code, r.body)
	}
	snap := s.metrics.Snapshot()
	if got := snap[`requests_total{endpoint="vet",code="429"}`]; got != 1 {
		t.Fatalf("429 counter = %d, want 1", got)
	}
}

// TestGracefulDrain holds a request in flight, starts Drain, and checks the
// three-way contract: new requests get 503, the in-flight request completes
// with 200, and Drain returns only after it does.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	g := newGate(1)
	s.eval.slow = g.hook()

	type reply struct {
		code int
		body []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		code, _, body := post(t, ts.URL+"/v1/vet", &VetRequest{Source: parcgen.Generate(31), Nodes: testNodes})
		inflight <- reply{code, body}
	}()
	g.waitEntered(t)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining.
	code, hdr, body := post(t, ts.URL+"/v1/vet", &VetRequest{Source: parcgen.Generate(32), Nodes: testNodes})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}

	// Drain must still be waiting on the in-flight request.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(g.release)
	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", r.code, r.body)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the in-flight request finished")
	}

	// A bounded Drain on an already-drained server returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestPipelinePanicContained makes the first pipeline execution panic while
// a second identical request waits on its flight. Both must get the same
// 500 naming the program, promptly; nothing may be cached, so a retry
// executes again and succeeds; and the server must still drain.
func TestPipelinePanicContained(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	g := newGate(1)
	var executions atomic.Int32
	s.eval.slow = func() {
		if executions.Add(1) == 1 {
			g.hook()()
			panic("boom")
		}
	}
	src := parcgen.Generate(41)
	pi, err := CanonicalProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	req := &VetRequest{Source: src, Nodes: testNodes}

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 2)
	send := func() {
		code, _, body := post(t, ts.URL+"/v1/vet", req)
		replies <- reply{code, body}
	}
	go send()
	g.waitEntered(t)
	go send()
	time.Sleep(50 * time.Millisecond) // let the second request join the flight
	close(g.release)
	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.code != http.StatusInternalServerError ||
				!bytes.Contains(r.body, []byte(pi.Hash)) || !bytes.Contains(r.body, []byte("boom")) {
				t.Errorf("reply %d: status %d %s, want a 500 naming program %s and the panic", i, r.code, r.body, pi.Hash)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a request is still waiting on the execution that panicked")
		}
	}

	if code, _, body := post(t, ts.URL+"/v1/vet", req); code != http.StatusOK {
		t.Fatalf("retry: status %d: %s", code, body)
	}
	if got := executions.Load(); got != 2 {
		t.Errorf("pipeline executed %d times, want 2 (the panic, then the retry)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after a contained panic: %v", err)
	}
}

// TestBatchPanicContained: a panic in one config of a simulate batch, which
// runs on a goroutine of its own, fails the request and not the process.
func TestBatchPanicContained(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	s.eval.slow = func() { panic("boom") }
	code, _, body := post(t, ts.URL+"/v1/simulate", &SimulateRequest{
		Source:  parcgen.Generate(42),
		Configs: []MachineSpec{{Nodes: 2}, {Nodes: testNodes}},
	})
	if code != http.StatusInternalServerError || !bytes.Contains(body, []byte("boom")) {
		t.Fatalf("status %d %s, want a 500 carrying the panic", code, body)
	}
}

// TestConcurrentMixedLoad hammers one server with distinct programs and a
// simulate fan-out from many goroutines; under -race this is the data-race
// probe for the shared caches, the body index and the batch path. Every
// response must match the library result bytes.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 256})
	const seeds = 6
	type call struct {
		url  string
		req  any
		want []byte
	}
	var calls []call
	for i := 0; i < seeds; i++ {
		src := parcgen.Generate(int64(100 + i))
		vreq := &VetRequest{Source: src, Nodes: testNodes}
		sreq := &SimulateRequest{Source: src, Configs: []MachineSpec{
			{Nodes: testNodes},
			{Nodes: testNodes, Protocol: "dirnb:4"},
		}}
		wantVet, err := EvalVet(vreq)
		if err != nil {
			t.Fatal(err)
		}
		wantVetBytes, _ := MarshalResponse(wantVet)
		wantSim, _, err := EvalSimulate(sreq)
		if err != nil {
			t.Fatal(err)
		}
		wantSimBytes, _ := MarshalResponse(wantSim)
		calls = append(calls, call{ts.URL + "/v1/vet", vreq, wantVetBytes}, call{ts.URL + "/v1/simulate", sreq, wantSimBytes})
	}
	// The first pass sends every call twice at once, so the cold and cached
	// paths run concurrently; the second pass is answered by the body index.
	for range 2 {
		var wg sync.WaitGroup
		errc := make(chan error, 2*len(calls))
		for range 2 {
			for _, c := range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, _, body := post(t, c.url, c.req)
					if code != http.StatusOK || !bytes.Equal(body, c.want) {
						errc <- fmt.Errorf("%s: status %d or body divergence", c.url, code)
					}
				}()
			}
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	}
}

// TestConcurrentVariantsCanonicaliseOnce sends eight formatting variants of
// one new program at once. They share one token digest, so one
// CanonicalProgram (two parses) serves all eight, through the program
// cache's singleflight or its entry, and each answer is the library's on
// that variant.
func TestConcurrentVariantsCanonicaliseOnce(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	src := parcgen.Generate(goldenSeed + 9)
	const variants = 8
	var reqs []*VetRequest
	var want [][]byte
	for i := range variants {
		req := &VetRequest{Source: fmt.Sprintf("// variant %d\n%s%s", i, src, strings.Repeat("\n", i)), Nodes: testNodes}
		lib, err := EvalVet(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := MarshalResponse(lib)
		reqs, want = append(reqs, req), append(want, body)
	}
	before := parc.Parses()
	start := make(chan struct{})
	errc := make(chan error, variants)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, _, body := post(t, ts.URL+"/v1/vet", req)
			if code != http.StatusOK || !bytes.Equal(body, want[i]) {
				errc <- fmt.Errorf("variant %d: status %d or body divergence: %s", i, code, body)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := parc.Parses() - before; got != 2 {
		t.Errorf("eight variants parsed %d times, want 2: one CanonicalProgram", got)
	}
	if n := s.eval.programs.len(); n != 1 {
		t.Errorf("the program cache holds %d entries, want 1", n)
	}
}

// TestFlightErrorIsOwn: a malformed text that joins another text's
// canonicalisation flight on the same token digest does not answer with
// that text's error. Its 400 quotes its own line:col.
func TestFlightErrorIsOwn(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	leader, follower := "func main() { x = ; }", "\n\nfunc main() {\n  x = ;\n}"
	sum, err := parc.Digest(leader)
	if err != nil {
		t.Fatal(err)
	}
	shared := func() uint64 { return s.metrics.Counter("singleflight_shared_total") }
	for attempt := 0; shared() == 0; attempt++ {
		if attempt == 5 {
			t.Fatal("the follower never joined the held flight")
		}
		entered, release, led := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(led)
			s.eval.flight.do(cacheKey(s.eval.programs.label, string(sum[:])), func() (any, error) {
				close(entered)
				<-release
				_, err := CanonicalProgram(leader)
				return nil, badRequest(err)
			})
		}()
		<-entered
		misses := s.metrics.Counter(s.eval.programs.misses)
		type result struct {
			code int
			body []byte
		}
		done := make(chan result)
		go func() {
			code, _, body := post(t, ts.URL+"/v1/vet", &VetRequest{Source: follower, Nodes: testNodes})
			done <- result{code, body}
		}()
		for s.metrics.Counter(s.eval.programs.misses) == misses { // the follower is at the flight
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		close(release)
		r := <-done
		<-led
		if r.code != http.StatusBadRequest || !bytes.Contains(r.body, []byte("4:7: expected expression")) {
			t.Fatalf("status %d, body %s, want a 400 at the follower's own 4:7", r.code, r.body)
		}
	}
}

// TestSharedProgramManyLayouts sends one program to every endpoint at once,
// on machines that lay it out differently (block sizes 16 to 128), from
// goroutines that start together. All of it executes the
// one cached AST: the program cache hands the same *ProgramInfo to every
// request and no phase copies it. Under -race this is the proof that a run
// writes nothing into the program it executes; every body must equal the
// library's bytes, so no run saw another's layout either.
func TestSharedProgramManyLayouts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	src := parcgen.Generate(41)
	type call struct {
		path string
		req  any
		want []byte
	}
	var calls []call
	add := func(path string, req, want any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		bytes, err := MarshalResponse(want)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{path, req, bytes})
	}
	vreq := &VetRequest{Source: src, Nodes: testNodes}
	vet, err := EvalVet(vreq)
	add("/v1/vet", vreq, vet, err)
	for _, blockSize := range []int{16, 32, 64, 128} {
		machine := MachineSpec{Nodes: testNodes, BlockSize: blockSize}
		areq := &AnnotateRequest{Source: src, Machine: machine}
		ann, err := EvalAnnotate(areq)
		add("/v1/annotate", areq, ann, err)
		static, err := EvalStatic(areq)
		add("/v1/static", areq, static, err)
		sreq := &SimulateRequest{Source: src, Configs: []MachineSpec{machine}}
		sim, _, err := EvalSimulate(sreq)
		add("/v1/simulate", sreq, sim, err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, len(calls))
	for _, c := range calls {
		wg.Add(1)
		go func(c call) {
			defer wg.Done()
			<-start
			code, _, body := post(t, ts.URL+c.path, c.req)
			if code != http.StatusOK || !bytes.Equal(body, c.want) {
				errc <- fmt.Errorf("%s: status %d or body divergence from the library result", c.path, code)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestLazySnapshotConcurrentReads: a simulation's snapshot bytes are made
// on first read, so the first GET /v1/snapshot/{id} requests race to make
// them. Several readers send them at once while a repeat /v1/simulate of
// the same program is in flight, its two finished configs copied out of the
// simulation cache and its third held at the gate. Every reader must get
// the golden bytes; under -race nothing may be written unsynchronized.
func TestLazySnapshotConcurrentReads(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	src := parcgen.Generate(goldenSeed)
	configs := []MachineSpec{{Nodes: testNodes}, {Nodes: testNodes, Protocol: "dirnnb:4"}}
	code, _, body := post(t, ts.URL+"/v1/simulate", &SimulateRequest{Source: src, Configs: configs})
	if code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", code, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot_seed7.golden.json"))
	if err != nil {
		t.Fatal(err)
	}

	g := newGate(1)
	s.eval.slow = g.hook()
	repeat := make(chan int, 1)
	go func() {
		more := append(slices.Clone(configs), MachineSpec{Nodes: testNodes, Protocol: "dirnb:4"})
		code, _, _ := post(t, ts.URL+"/v1/simulate", &SimulateRequest{Source: src, Configs: more})
		repeat <- code
	}()
	g.waitEntered(t)

	const readers = 8
	bodies := make([][]byte, readers)
	codes := make([]int, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range resp.Results {
				code, b := get(t, ts.URL+"/v1/snapshot/"+r.SnapshotID)
				codes[i] = max(codes[i], code)
				bodies[i] = append(bodies[i], b...)
			}
		}()
	}
	wg.Wait()
	close(g.release)
	if code := <-repeat; code != http.StatusOK {
		t.Fatalf("repeat simulate: status %d", code)
	}
	for i := range readers {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], want) {
			t.Errorf("reader %d: status %d, or its snapshots diverge from snapshot_seed7.golden.json", i, codes[i])
		}
	}
}

// TestEvictedSnapshotUnread: a snapshot evicted with its simulation before
// anyone read it answers 404, like any snapshot the cache no longer holds.
func TestEvictedSnapshotUnread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 1
	_, ts := newTestServer(t, cfg)
	var ids []string
	for _, seed := range []int64{goldenSeed, goldenSeed + 1} {
		code, _, body := post(t, ts.URL+"/v1/simulate", &SimulateRequest{
			Source: parcgen.Generate(seed), Configs: []MachineSpec{{Nodes: testNodes}},
		})
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
		var resp SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Results[0].SnapshotID)
	}
	if code, body := get(t, ts.URL+"/v1/snapshot/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("evicted unread snapshot: status %d: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/snapshot/"+ids[1]); code != http.StatusOK {
		t.Errorf("cached snapshot: status %d", code)
	}
}
