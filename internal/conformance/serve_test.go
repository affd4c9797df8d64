package conformance

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cachier/internal/parcgen"
	"cachier/internal/serve"
)

// TestServeEquivalenceCorpus is the serving layer's conformance check: for
// a corpus slice, every HTTP response from one shared server must be
// byte-identical to the in-process library result (serve.Eval* through
// serve.MarshalResponse) — cold and cached. The server's caches,
// singleflight, and worker pool therefore cannot change a single response
// byte; cmd/cachierload extends this to the full corpus against a live
// daemon.
func TestServeEquivalenceCorpus(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.DefaultConfig()).Handler())
	// t.Cleanup (not defer): it runs only after every parallel subtest has
	// finished with the shared server.
	t.Cleanup(srv.Close)

	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			src := parcgen.Generate(seed)
			machine := serve.MachineSpec{Nodes: 4}

			vetReq := &serve.VetRequest{Source: src, Nodes: 4}
			wantVet, err := serve.EvalVet(vetReq)
			if err != nil {
				t.Fatalf("EvalVet: %v", err)
			}
			annReq := &serve.AnnotateRequest{Source: src, Prefetch: true, Machine: machine}
			wantAnn, err := serve.EvalAnnotate(annReq)
			if err != nil {
				t.Fatalf("EvalAnnotate: %v", err)
			}
			simReq := &serve.SimulateRequest{Source: src, Configs: []serve.MachineSpec{{Nodes: 4}}}
			wantSim, _, err := serve.EvalSimulate(simReq)
			if err != nil {
				t.Fatalf("EvalSimulate: %v", err)
			}

			for _, c := range []struct {
				endpoint string
				req      any
				want     any
			}{
				{"vet", vetReq, wantVet},
				{"annotate", annReq, wantAnn},
				{"simulate", simReq, wantSim},
			} {
				wantBytes, err := serve.MarshalResponse(c.want)
				if err != nil {
					t.Fatal(err)
				}
				// Cold request, then an immediate repeat: both must match
				// the library bytes exactly.
				for pass := 0; pass < 2; pass++ {
					body, err := json.Marshal(c.req)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.Post(srv.URL+"/v1/"+c.endpoint, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s pass %d: status %d: %s", c.endpoint, pass, resp.StatusCode, got)
					}
					if !bytes.Equal(got, wantBytes) {
						t.Fatalf("%s pass %d: HTTP response diverges from library result\n--- http ---\n%s\n--- library ---\n%s",
							c.endpoint, pass, got, wantBytes)
					}
				}
			}
		})
	}
}

// TestServeStaticProtocols: /v1/static infers on the machine it is asked
// about, protocol included, so where it answers exact its placement is
// /v1/annotate's. Under the one-pointer DirnNB the second loop's four
// readers of each A[i] overflow its pointer, and the simulated trace calls
// for a check_in of A that Dir1SW's does not.
func TestServeStaticProtocols(t *testing.T) {
	const src = `
shared float A[64] label "A";
shared float B[64] label "B";
func main() {
  var i int;
  for i = 0 to 63 { A[i] = A[i] + 1.0; }
  barrier;
  for i = 0 to 63 { B[pid()] = B[pid()] + A[i]; }
  barrier;
  for i = 0 to 63 { A[i] = B[i % 4]; }
}`
	for _, spec := range ProtocolSpecs() {
		req := &serve.AnnotateRequest{Source: src, Machine: serve.MachineSpec{Nodes: 4, Protocol: spec}}
		ann, err := serve.EvalAnnotate(req)
		if err != nil {
			t.Fatalf("%s: EvalAnnotate: %v", spec, err)
		}
		st, err := serve.EvalStatic(req)
		if err != nil {
			t.Fatalf("%s: EvalStatic: %v", spec, err)
		}
		if st.Exact == nil || !*st.Exact {
			t.Errorf("%s: static inference is not exact: %v", spec, st.Notes)
		}
		st.Static, st.Exact, st.Notes = false, nil, nil
		if !reflect.DeepEqual(st, ann) {
			t.Errorf("%s: /v1/static places %d annotation(s), /v1/annotate %d\n--- static ---\n%s\n--- annotate ---\n%s",
				spec, st.Annotations, ann.Annotations, st.Annotated, ann.Annotated)
		}
	}
}
