package serve

import (
	"bytes"
	"encoding"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"cachier/internal/obs"
	"cachier/internal/parcgen"
)

// TestColdRequestAllocBudget is the host-independent gate on a cold
// request: the bytes one new corpus program allocates through the four
// endpoints on a fresh server, where every layer runs once and no cache
// helps. While static inference copied vet's events into a summary of its
// own and expanded every access into an address slice, and /v1/simulate
// indented its snapshot's JSON whether or not anyone read it, this cost
// 602 KB. Reading vet's stream through a cursor and marshalling the snapshot
// on first read brought it to 431.6 KB, while both annotations still
// re-parsed their own output and each phase built its own analysis.Info.
// Returning the annotated text unparsed and building one Info per program
// brought it to 399–400.2 KB, or 418–432 KB under the race detector, with
// /v1/static annotating again the trace /v1/annotate had annotated. Sharing
// that annotation, it costs 375.0–375.6 KB, or 389–408 KB under the race
// detector, whose readings spread widely. Each build has its own budget: the
// plain one within 5% of its reading, the race detector's above its
// spread.
func TestColdRequestAllocBudget(t *testing.T) {
	h := New(DefaultConfig()).Handler()
	reqs := coldRequests(parcgen.Generate(goldenSeed + 3))
	bodies := make([][]byte, len(reqs))
	for i, c := range reqs {
		var err error
		if bodies[i], err = json.Marshal(c.req); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, c := range reqs {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(bodies[i])))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, w.Code, w.Body)
		}
	}
	runtime.ReadMemStats(&after)
	budget := uint64(390 << 10)
	if raceEnabled {
		budget = 430 << 10
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one cold program through four endpoints allocates %.1f KB", float64(got)/(1<<10))
	if got > budget {
		t.Errorf("cold request allocates %d bytes, budget %d", got, budget)
	}
}

// TestColdCorpusAllocBudget is the steady-state gate on cold requests: the
// bytes per program that 16 new corpus programs allocate through the four
// endpoints of a server that has already served 16 others. Unlike
// TestColdRequestAllocBudget's first program, these find vet's stream
// storage in its pool, so the gate is on what recycling saves. The
// collector is off while it runs, so the pool is not emptied mid-way. While
// every vet pass allocated its streams afresh this cost 418.4–418.8 KB per
// program, or 452–457 KB under the race detector; recycling them brings it
// to 290–298 KB, or 384–401 KB under the race detector, whose pool drops a
// quarter of what is put into it. The plain budget is within 5% of its
// reading, the race detector's above its spread.
func TestColdCorpusAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := New(DefaultConfig()).Handler()
	send := func(seeds ...int64) {
		for _, seed := range seeds {
			for _, c := range coldRequests(parcgen.Generate(seed)) {
				body, err := json.Marshal(c.req)
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("seed %d, %s: status %d: %s", seed, c.path, w.Code, w.Body)
				}
			}
		}
	}
	send(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31)
	runtime.ReadMemStats(&after)
	budget := uint64(310 << 10)
	if raceEnabled {
		budget = 430 << 10
	}
	got := (after.TotalAlloc - before.TotalAlloc) / 16
	t.Logf("a cold program on a warm server allocates %.1f KB through four endpoints", float64(got)/(1<<10))
	if got > budget {
		t.Errorf("a cold program on a warm server allocates %d bytes, budget %d", got, budget)
	}
}

// hitWriter is a reusable in-memory http.ResponseWriter, as a load
// generator that keeps its responses keeps one per connection.
type hitWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *hitWriter) Header() http.Header  { return w.header }
func (w *hitWriter) WriteHeader(code int) { w.code = code }
func (w *hitWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestHotRequestAllocBudget is the host-independent gate on a cached
// request: the objects and bytes one repeated request allocates on each
// endpoint of a warmed server, sent through one reused *http.Request as a
// closed-loop client sends it. While every request was decoded,
// canonicalised by the program cache and given a deadline before its
// response was found, a hit took 25–34 allocations. Answered through the
// body index, but with the body read by io.ReadAll, the index key built as
// a string and the headers Set, it took 6 allocations and 1 552 B. With a
// pooled body buffer, a stack-array key and pre-built header values the one
// allocation left is http.MaxBytesReader's, 64 B.
func TestHotRequestAllocBudget(t *testing.T) {
	h := New(DefaultConfig()).Handler()
	rd := bytes.NewReader(nil)
	w := &hitWriter{header: make(http.Header)}
	for _, c := range coldRequests(parcgen.Generate(goldenSeed + 4)) {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, c.path, nil)
		req.Body = io.NopCloser(rd)
		send := func() {
			rd.Reset(body)
			clear(w.header)
			w.body = w.body[:0]
			h.ServeHTTP(w, req)
		}
		send()
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, w.code, w.body)
		}
		allocs, size := allocsPerRun(200, send)
		if got := w.header.Get("X-Cachier-Cache"); got != "hit" {
			t.Fatalf("%s: a repeated request was a %q, want a hit", c.path, got)
		}
		t.Logf("%s: %d-byte request, %.0f allocations and %.0f B per hit", c.path, len(body), allocs, size)
		if raceEnabled {
			continue
		}
		if allocs > 1 || size > 128 {
			t.Errorf("%s: a cached hit allocates %.0f objects and %.0f B, budget 1 and 128 B", c.path, allocs, size)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// allocation counts TestHotRequestAllocBudget does not gate and
// TestColdRequestAllocBudget and TestColdCorpusAllocBudget gate on budgets
// of their own.
var raceEnabled bool

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the mean
// objects (truncated, as AllocsPerRun truncates) and bytes one call of f
// allocates, after one warm-up call, on a single P.
func allocsPerRun(runs int, f func()) (allocs, size float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSnapshotMarshalCannotFail pins what lets snapshotBody drop the error
// of MarshalIndentJSON: encoding/json fails only on a float that is NaN or
// infinite, a map, an interface, a channel, a function, a complex number or
// a type with its own marshaller, and obs.Snapshot holds none of them.
func TestSnapshotMarshalCannotFail(t *testing.T) {
	marshalers := []reflect.Type{reflect.TypeFor[json.Marshaler](), reflect.TypeFor[encoding.TextMarshaler]()}
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		for _, m := range marshalers {
			if ty.Implements(m) || reflect.PointerTo(ty).Implements(m) {
				t.Errorf("%s (%s) has its own marshaller", path, ty)
			}
		}
		switch ty.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				if f := ty.Field(i); f.IsExported() {
					walk(path+"."+f.Name, f.Type)
				}
			}
		default:
			t.Errorf("%s is a %s, which JSON marshalling can fail on", path, ty)
		}
	}
	walk("Snapshot", reflect.TypeFor[obs.Snapshot]())
}
