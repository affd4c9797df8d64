package staticanno_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/staticanno"
	"cachier/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/infer.golden")

// inferDigest writes everything Infer decides about prog on nodes nodes into
// h: the synthesized trace in its file form, Exact, and every note. A
// refused program contributes its error text instead.
func inferDigest(t *testing.T, h hash.Hash, src string, nodes int) {
	t.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := staticanno.DefaultConfig()
	cfg.Nodes = nodes
	res, err := staticanno.Infer(prog, cfg)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	if err := trace.Write(h, res.Trace); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "exact %v\n", res.Exact)
	for _, n := range res.Notes {
		fmt.Fprintf(h, "note %s\n", n)
	}
}

// TestInferGolden pins Infer's output byte for byte: one sha256 per Figure 6
// training source at the port's node count, and one over parcgen seeds
// 0–399 at 4 nodes. Run with -update to rewrite testdata/infer.golden after
// an intended change.
func TestInferGolden(t *testing.T) {
	var out bytes.Buffer
	for _, b := range bench.All() {
		h := sha256.New()
		inferDigest(t, h, b.Source(b.Train), b.Nodes)
		fmt.Fprintf(&out, "%s %d %x\n", b.Name, b.Nodes, h.Sum(nil))
	}
	h := sha256.New()
	for seed := int64(0); seed < 400; seed++ {
		fmt.Fprintf(h, "seed %d\n", seed)
		inferDigest(t, h, parcgen.Generate(seed), 4)
	}
	fmt.Fprintf(&out, "parcgen[0,400) 4 %x\n", h.Sum(nil))

	path := filepath.Join("testdata", "infer.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("infer.golden mismatch\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}
