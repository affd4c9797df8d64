package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"cachier/internal/parcgen"
)

// postAs sends req to url and requires a 200 with the given
// X-Cachier-Cache disposition; it returns the body.
func postAs(t *testing.T, url string, req any, disposition string) []byte {
	t.Helper()
	code, hdr, body := post(t, url, req)
	if code != http.StatusOK || hdr.Get("X-Cachier-Cache") != disposition {
		t.Fatalf("status %d, cache %q, want 200 and %q: %s", code, hdr.Get("X-Cachier-Cache"), disposition, body)
	}
	return body
}

// TestBodyIndexTransparent: the body index changes which path answers a
// request, never what it answers. A byte-identical repeat is answered by
// the index; a formatting variant misses the index and still hits the
// response cache through its content hash; a request whose response was
// evicted, whether or not the index still names it, is recomputed to the
// same bytes; and an error is never indexed.
func TestBodyIndexTransparent(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	url := ts.URL + "/v1/vet"
	indexHits := func() uint64 { return s.metrics.Counter(s.index.hits) }

	for range 2 {
		code, hdr, body := post(t, ts.URL+"/v1/annotate", json.RawMessage(`{"source": "func main() { nope"}`))
		if code != http.StatusBadRequest || hdr.Get("X-Cachier-Cache") != "" {
			t.Fatalf("status %d, cache %q, want a 400 with no cache header: %s", code, hdr.Get("X-Cachier-Cache"), body)
		}
	}
	if n := s.index.len(); n != 0 {
		t.Fatalf("two 400s left %d index entries, want 0", n)
	}

	src := parcgen.Generate(goldenSeed + 5)
	req := &VetRequest{Source: src, Nodes: testNodes}
	cold := postAs(t, url, req, "miss")
	if got := postAs(t, url, req, "hit"); !bytes.Equal(got, cold) || indexHits() != 1 {
		t.Fatalf("a byte-identical repeat was not answered by the index with the cold bytes (%d index hits)", indexHits())
	}
	if got := postAs(t, url, &VetRequest{Source: reformat(src), Nodes: testNodes}, "hit"); !bytes.Equal(got, cold) || indexHits() != 1 {
		t.Fatalf("a formatting variant was not a response-cache hit with the cold bytes (%d index hits)", indexHits())
	}
	if n := s.index.len(); n != 2 {
		t.Fatalf("the index holds %d entries after two bodies of one program, want 2", n)
	}

	// Another program's four responses evict this one's, and its index
	// entries with them.
	for _, c := range coldRequests(parcgen.Generate(goldenSeed + 6)) {
		postAs(t, ts.URL+c.path, c.req, "miss")
	}
	if got := postAs(t, url, req, "miss"); !bytes.Equal(got, cold) {
		t.Fatalf("an evicted response was recomputed to different bytes\n--- got ---\n%s\n--- cold ---\n%s", got, cold)
	}
	// A stale index entry: the response is gone but the index still names it.
	for i := range 4 {
		s.resp.put(fmt.Sprint("filler", i), []byte("{}"))
	}
	if got := postAs(t, url, req, "miss"); !bytes.Equal(got, cold) {
		t.Fatalf("a stale index entry answered different bytes\n--- got ---\n%s\n--- cold ---\n%s", got, cold)
	}
	if got := postAs(t, url, req, "hit"); !bytes.Equal(got, cold) || indexHits() != 2 {
		t.Fatalf("a refreshed index entry was not answered by the index (%d index hits)", indexHits())
	}
}

// TestPaddingIsNotRetained: a submission padded with a large comment
// retains none of its padding. The program cache keys on the digest of the
// token stream, the body index on a sha256 of the body, and every other key
// derives from the canonical program.
func TestPaddingIsNotRetained(t *testing.T) {
	s, ts := newTestServer(t, DefaultConfig())
	src := parcgen.Generate(goldenSeed + 5)
	pad := "/*" + strings.Repeat("padding ", 1<<17) + "*/\n"
	var first []byte
	for i := range 4 {
		padded := &VetRequest{Source: fmt.Sprintf("// copy %d\n%s%s", i, pad, src), Nodes: testNodes}
		if i == 0 {
			first = postAs(t, ts.URL+"/v1/vet", padded, "miss")
		} else if body := postAs(t, ts.URL+"/v1/vet", padded, "hit"); !bytes.Equal(body, first) {
			t.Fatalf("padded copy %d answered different bytes", i)
		}
	}
	for _, c := range []struct {
		cache  *lruCache
		maxKey int
	}{
		{s.eval.programs, sha256.Size},
		{s.index, len("simulate") + sha256.Size},
		{s.resp, 256},
		{s.eval.traces, 256},
		{s.eval.sims, 256},
	} {
		for key := range c.cache.items {
			if len(key) > c.maxKey {
				t.Errorf("the %s cache retains a %d-byte key, want at most %d", c.cache.label, len(key), c.maxKey)
			}
		}
	}
	if n := s.eval.programs.len(); n != 1 {
		t.Errorf("the program cache holds %d entries for four texts of one token stream, want 1", n)
	}

	// The padded body's buffer grew past maxPooledBody, so the pool must
	// not keep it. The handler is called directly: its deferred putBody has
	// run when ServeHTTP returns.
	body, err := json.Marshal(&VetRequest{Source: pad + src, Nodes: testNodes})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/vet", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	for v := bodies.Get(); v != nil; v = bodies.Get() {
		if n := v.(*bytes.Buffer).Cap(); n > maxPooledBody {
			t.Errorf("the body pool kept a %d-byte buffer, want at most %d", n, maxPooledBody)
		}
	}
}

// TestBodyReadErrors: a body over MaxBodyBytes is answered 413, and a body
// whose read fails partway (a client that went away) is answered 400, not
// "request entity too large". Neither is indexed, and a good body sent next
// is answered from a clean buffer.
func TestBodyReadErrors(t *testing.T) {
	s := New(Config{MaxBodyBytes: 4 << 10})
	h := s.Handler()
	good, err := json.Marshal(&VetRequest{Source: parcgen.Generate(goldenSeed + 5), Nodes: testNodes})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body io.Reader
		code int
		msg  string
	}{
		{"over MaxBodyBytes", bytes.NewReader(bytes.Repeat([]byte(" "), 5<<10)), http.StatusRequestEntityTooLarge, "http: request body too large"},
		{"failing mid-body", io.MultiReader(bytes.NewReader(good[:len(good)/2]), iotest.ErrReader(errors.New("connection reset"))),
			http.StatusBadRequest, "reading request body: connection reset"},
		{"failing at once", iotest.ErrReader(io.ErrUnexpectedEOF), http.StatusBadRequest, "reading request body: unexpected EOF"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/vet", c.body))
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != c.code || er.Error != c.msg {
			t.Errorf("%s: status %d, body %s; want %d and %q", c.name, w.Code, w.Body, c.code, c.msg)
		}
		if got := w.Header().Get("X-Cachier-Cache"); got != "" {
			t.Errorf("%s: a %d carries cache header %q", c.name, w.Code, got)
		}
	}
	if n := s.index.len(); n != 0 {
		t.Fatalf("three failed reads left %d index entries, want 0", n)
	}
	for _, want := range []string{"miss", "hit"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/vet", bytes.NewReader(good)))
		if w.Code != http.StatusOK || w.Header().Get("X-Cachier-Cache") != want {
			t.Fatalf("a good body after failed reads: status %d, cache %q, want 200 and %q: %s",
				w.Code, w.Header().Get("X-Cachier-Cache"), want, w.Body)
		}
	}
}

// FuzzServeBytes sends arbitrary bytes to each POST endpoint through the
// server's handler. Whatever arrives, the answer is a JSON body with a
// status the API documents, and sending the same bytes again answers the
// same status and body: a 200 is then a cache hit, and an error carries no
// cache header either time. Between the two sends goes a longer, unrelated
// body, so a pooled body buffer that kept a stale tail would show.
func FuzzServeBytes(f *testing.F) {
	paths := []string{"/v1/vet", "/v1/annotate", "/v1/static", "/v1/simulate"}
	for _, seed := range []int64{goldenSeed, 1} {
		for i, c := range coldRequests(parcgen.Generate(seed)) {
			body, err := json.Marshal(c.req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), body)
		}
	}
	for _, body := range []string{
		``, `null`, `[]`, `{nope`, `{"source": 7}`, `{"source": "\u0000"}`,
		`{"source": "func main() { nope"}`,
		`{"source": "func main() { x = 1; }"}`,
		`{"source": "shared float A[4000000000];\nfunc main() { A[0] = 1.0; }"}`,
		`{"source": "shared int A[4];\nfunc main() { var z int = 0; A[pid() % 4] = 1 / z; }", "nodes": 4}`,
		`{"source": "func main() { }", "nodes": 100000}`,
		`{"source": "func main() { }", "style": "bogus"}`,
		`{"source": "func main() { }", "configs": [{"protocol": "dir9000"}]}`,
	} {
		for i := range paths {
			f.Add(uint8(i), []byte(body))
		}
	}
	h := New(Config{CacheEntries: 16}).Handler()
	send := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		first := send(path, body)
		switch first.Code {
		case 200, 400, 413, 422, 429, 500, 503:
		default:
			t.Fatalf("%s: status %d: %s", path, first.Code, first.Body)
		}
		if !json.Valid(first.Body.Bytes()) {
			t.Fatalf("%s: status %d with a body that is not JSON: %q", path, first.Code, first.Body)
		}
		other := append(bytes.Repeat([]byte{' '}, len(body)+1), `{"source": "func main() { }"}`...)
		send(path, other)
		second := send(path, body)
		if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s: the same bytes were answered %d, then %d\n--- first ---\n%s\n--- second ---\n%s",
				path, first.Code, second.Code, first.Body, second.Body)
		}
		cache := second.Header().Get("X-Cachier-Cache")
		if first.Code != http.StatusOK {
			if first.Header().Get("X-Cachier-Cache") != "" || cache != "" {
				t.Fatalf("%s: a %d carries a cache header", path, first.Code)
			}
		} else if cache != "hit" {
			t.Fatalf("%s: a repeated 200 was a %q, want a hit", path, cache)
		}
	})
}
