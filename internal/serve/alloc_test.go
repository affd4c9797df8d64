package serve

import (
	"bytes"
	"encoding"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
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
// 602 KB; reading vet's stream through a cursor and marshalling the snapshot
// on first read it costs 434 KB. The budget sits between the two.
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
	const budget = 520 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one cold program through four endpoints allocates %.1f KB", float64(got)/(1<<10))
	if got > budget {
		t.Errorf("cold request allocates %d bytes, budget %d", got, budget)
	}
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
