package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cachier/internal/obs"
)

// Config sizes the server's concurrency and caches.
type Config struct {
	// Workers bounds concurrently executing heavy pipeline phases
	// (trace/annotate/simulate/vet). Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many phase executions may wait for a worker
	// slot before new arrivals are rejected with 429. Default 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline, covering queue wait and
	// pipeline execution. Default 60s.
	RequestTimeout time.Duration
	// CacheEntries is the entry capacity of the program, trace, inference,
	// annotation and simulation caches; the response cache and the body
	// index over it each hold four times as many, one per endpoint.
	// Default 512.
	CacheEntries int
	// MaxBodyBytes bounds a request body. Default 4 MiB.
	MaxBodyBytes int64
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Workers:        runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		RequestTimeout: 60 * time.Second,
		CacheEntries:   512,
		MaxBodyBytes:   4 << 20,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = d.CacheEntries
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	return c
}

// Server is the annotation-as-a-service front end: an http.Handler exposing
// the pipeline endpoints over the cached, pooled evaluator. Create one with
// New, mount Handler on an http.Server, and call Drain before exit.
type Server struct {
	cfg      Config
	eval     *evaluator
	resp     *lruCache // (endpoint, program hash, options) → response bytes
	index    *lruCache // endpoint + sha256 of a request body → its resp key
	metrics  *obs.Metrics
	mux      *http.ServeMux
	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a Server with its caches, worker pool, and routes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := obs.NewMetrics()
	p := newPool(cfg.Workers, cfg.QueueDepth)
	s := &Server{
		cfg: cfg,
		eval: &evaluator{
			programs:    newLRU("program", cfg.CacheEntries),
			traces:      newLRU("trace", cfg.CacheEntries),
			inferences:  newLRU("inference", cfg.CacheEntries),
			annotations: newLRU("annotation", cfg.CacheEntries),
			sims:        newLRU("simulate", cfg.CacheEntries),
			flight:      newFlightGroup(),
			pool:        p,
			metrics:     m,
		},
		resp:    newLRU("response", 4*cfg.CacheEntries),
		index:   newLRU("index", 4*cfg.CacheEntries),
		metrics: m,
		mux:     http.NewServeMux(),
	}
	m.RegisterGauge("queue_depth", p.depth)
	m.RegisterGauge("workers_busy", p.busy)
	for _, c := range []*lruCache{s.resp, s.index, s.eval.programs, s.eval.traces, s.eval.inferences, s.eval.annotations, s.eval.sims} {
		m.RegisterGauge(fmt.Sprintf("cache_entries{cache=%q}", c.label), func() int64 { return int64(c.len()) })
		m.Add(c.evictions, 0) // listed at zero before the first eviction
	}
	s.routes()
	return s
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's metrics registry (also rendered at
// /metrics); tests and cmd/cachierd's shutdown dump read it directly.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Drain stops accepting new requests (everything but /metrics answers 503)
// and waits for in-flight requests to complete or ctx to expire. Call it
// before http.Server.Shutdown so clients see explicit draining rather than
// connection resets.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/annotate", postHandler(s, "annotate", s.eval.prepAnnotate(false)))
	s.mux.HandleFunc("POST /v1/static", postHandler(s, "static", s.eval.prepAnnotate(true)))
	s.mux.HandleFunc("POST /v1/vet", postHandler(s, "vet", s.eval.prepVet))
	s.mux.HandleFunc("POST /v1/simulate", postHandler(s, "simulate", s.eval.prepSimulate))
	s.mux.HandleFunc("GET /v1/snapshot/{id}", s.handleSnapshot)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// endpoint is a route's name and the metric names of its successes,
// formatted once.
type endpoint struct{ name, ok, latency string }

var snapshotEndpoint = newEndpoint("snapshot")

func newEndpoint(name string) *endpoint {
	return &endpoint{name: name, ok: requestsTotal(name, http.StatusOK), latency: fmt.Sprintf("latency_us{endpoint=%q}", name)}
}

func requestsTotal(endpoint string, code int) string {
	return fmt.Sprintf("requests_total{endpoint=%q,code=\"%d\"}", endpoint, code)
}

// postHandler wires one POST endpoint around its prepare function prep:
// draining check, body bound, the body index, decoding into prep's request
// type, timing, the response cache over the marshaled response, error
// mapping, and counters. The full path is deterministic in the body, so a
// body answered 200 before is answered from the response key the index
// holds for it, undecoded; one whose response was evicted runs again.
func postHandler[Req, Resp any](s *Server, name string, prep func(*Req) (string, compute[Resp], error)) http.HandlerFunc {
	ep := newEndpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.draining.Load() {
			s.finish(w, ep, start, "", nil, &apiError{code: http.StatusServiceUnavailable, msg: "server is draining"})
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()

		buf := getBody()
		defer putBody(buf)
		_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.finish(w, ep, start, "", nil, bodyError(err))
			return
		}
		body := buf.Bytes()
		var kb [indexKeyMax]byte
		sum := sha256.Sum256(body)
		digest := append(append(kb[:0], name...), sum[:]...)
		if data, ok := s.indexed(digest); ok {
			s.finish(w, ep, start, "hit", data, nil)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		req := new(Req)
		if err := json.Unmarshal(body, req); err != nil {
			s.finish(w, ep, start, "", nil, &apiError{code: 400, msg: fmt.Sprintf("bad request body: %v", err)})
			return
		}
		key, run, err := prep(req)
		if err != nil {
			s.finish(w, ep, start, "", nil, err)
			return
		}
		key = cacheKey(name, key)
		data, disposition, err := s.eval.cached(ctx, s.resp, key, func(ctx context.Context) (any, error) {
			resp, err := run(ctx)
			if err != nil {
				return nil, err
			}
			return MarshalResponse(resp)
		})
		if err != nil {
			s.finish(w, ep, start, "", nil, err)
			return
		}
		if s.index.put(string(digest), key) {
			s.eval.count(s.index.evictions)
		}
		s.finish(w, ep, start, disposition, data.([]byte), nil)
	}
}

// indexKeyMax is the size of the stack array an index key is built in:
// the longest endpoint name and a sha256.
const indexKeyMax = len("annotate") + sha256.Size

// maxPooledBody bounds the capacity of a body buffer the pool keeps, so one
// large (or padded) request does not pin its bytes for every later one.
const maxPooledBody = 64 << 10

// bodies holds request-body buffers between requests. It has no New, so
// that a test can drain it: getBody makes a buffer when it comes back empty.
var bodies sync.Pool

func getBody() *bytes.Buffer {
	if b, ok := bodies.Get().(*bytes.Buffer); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// putBody returns b to the pool unless it has grown past maxPooledBody.
// Nothing may hold b's bytes afterwards: json.Unmarshal copies the strings
// it decodes, and the index copies its key on put.
func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		bodies.Put(b)
	}
}

// bodyError maps a failed body read: a body over MaxBodyBytes is 413, and
// anything else (a client that went away mid-body, a malformed chunk) is a
// bad request.
func bodyError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{code: http.StatusRequestEntityTooLarge, msg: err.Error()}
	}
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf("reading request body: %v", err)}
}

// indexed returns the cached response of a body the index holds under
// digest (endpoint name, then the body's sha256). A body whose response has
// been evicted counts as an index miss.
func (s *Server) indexed(digest []byte) ([]byte, bool) {
	if key, ok := s.index.getBytes(digest); ok {
		if data, ok := s.resp.get(key.(string)); ok {
			s.eval.count(s.index.hits)
			s.eval.count(s.resp.hits)
			return data.([]byte), true
		}
	}
	s.eval.count(s.index.misses)
	return nil, false
}

// Header values, assigned into a response's header map rather than Set, so
// that writing them allocates nothing. Sharing them is safe: http.Header's
// methods replace a value slice or append to it, never write into it, and
// a slice with no spare capacity is copied by append.
var (
	jsonContentType = []string{"application/json"}
	dispositions    = map[string][]string{"hit": {"hit"}, "miss": {"miss"}, "flight": {"flight"}}
	retryAfter      = []string{"1"}
)

// finish writes the response (success or mapped error) and records metrics.
func (s *Server) finish(w http.ResponseWriter, ep *endpoint, start time.Time, cacheStatus string, data []byte, err error) {
	code := http.StatusOK
	if err != nil {
		var ae *apiError
		switch {
		case errors.As(err, &ae):
			code = ae.code
		case errors.Is(err, errBusy):
			code = http.StatusTooManyRequests
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			code = http.StatusServiceUnavailable
		default:
			code = http.StatusInternalServerError
		}
		data, _ = MarshalResponse(&ErrorResponse{Error: err.Error()})
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if cacheStatus != "" {
		h["X-Cachier-Cache"] = dispositions[cacheStatus]
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		h["Retry-After"] = retryAfter
	}
	w.WriteHeader(code)
	w.Write(data)
	counter := ep.ok
	if code != http.StatusOK {
		counter = requestsTotal(ep.name, code)
	}
	s.metrics.Inc(counter)
	s.metrics.Observe(ep.latency, uint64(time.Since(start).Microseconds()))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		s.finish(w, snapshotEndpoint, start, "", nil, &apiError{code: http.StatusServiceUnavailable, msg: "server is draining"})
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	id := r.PathValue("id")
	if v, ok := s.eval.lookup(s.eval.sims, id); ok {
		s.finish(w, snapshotEndpoint, start, "hit", v.(*SimResult).snapshot.bytes(), nil)
		return
	}
	s.finish(w, snapshotEndpoint, start, "", nil,
		&apiError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown snapshot %q (snapshots are published by /v1/simulate and bounded by the cache)", id)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\n  \"status\": \"draining\"\n}\n")
		return
	}
	io.WriteString(w, "{\n  \"status\": \"ok\"\n}\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteText(w)
}
