package conformance

import (
	"testing"
)

// corpusSize is the deterministic corpus: seeds 0..corpusSize-1. Every seed
// runs the full differential pipeline (oracle + four simulated variants +
// per-access protocol probe + cost bounds), so tier-1 CI gets real
// adversarial coverage without any fuzz time.
const corpusSize = 200

// TestCorpus runs the full differential check over the fixed seed corpus.
func TestCorpus(t *testing.T) {
	for seed := int64(0); seed < corpusSize; seed++ {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunSeed(seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestAnnotatedEquivalenceCorpus runs the annotated-artifact check over a
// corpus slice (it overlaps RunSeed's work, so a smaller sample keeps the
// suite fast; the fuzz target extends it indefinitely).
func TestAnnotatedEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunAnnotatedEquivalence(seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// The reference differential's corpus: the production engine against the
// reference engine, bit-identical on every surface (checkEngineSource).
// It is one check, cut into the four slices below so that together they
// cover plain and annotated source under every protocol, and trace mode,
// without running any cell twice. The slices are named after the
// per-engine corpora this differential replaced, whose subtests the repo's
// test floor lists one by one; read "Lanes" as the production engine and
// ignore "Parallel".

// TestLanesEquivalenceCorpus is the default-protocol slice over the full
// corpus: every seed's program and its annotated form, in measuring mode.
func TestLanesEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < corpusSize; seed++ {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunReferenceEquivalence(seed, "", true, true); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestParallelEquivalenceCorpus is the trace-mode slice over the full
// corpus: the two engines must hand Cachier the same miss trace.
func TestParallelEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < corpusSize; seed++ {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunTraceEquivalence(seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestProtocolEquivalenceCorpus runs the cross-protocol differential over
// the full corpus: every seed's program, plain and annotated, under Dir1SW,
// Dir1NB, Dir4NB, and Dir4B with protocol-specific invariant probes on —
// all oracle-identical, differing only in time.
func TestProtocolEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < corpusSize; seed++ {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunProtocolEquivalence(seed); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestProtocolLanesCorpus is the plain-source slice under every non-default
// protocol, including the degenerate one-pointer DirnNB (maximum directory
// churn, so the most lines taken from under a lane counting hits off its
// cache's keys): a protocol hook changes another node's cache only through
// cache.Cache's methods, and this keeps that true as protocols are added.
func TestProtocolLanesCorpus(t *testing.T) {
	for _, spec := range []string{"dirnnb:1", "dirnnb:4", "dirnb:4"} {
		spec := spec
		for seed := int64(0); seed < 50; seed++ {
			seed := seed
			t.Run(spec+"/"+seedName(seed), func(t *testing.T) {
				t.Parallel()
				if err := RunReferenceEquivalence(seed, spec, true, false); err != nil {
					t.Fatalf("seed %d under %s: %v", seed, spec, err)
				}
			})
		}
	}
}

// TestProtocolParallelCorpus is the annotated-source slice under the
// sweep's two hardware protocols: directives on pointer directories.
func TestProtocolParallelCorpus(t *testing.T) {
	for _, spec := range []string{"dirnnb:4", "dirnb:4"} {
		spec := spec
		for seed := int64(0); seed < 50; seed++ {
			seed := seed
			t.Run(spec+"/"+seedName(seed), func(t *testing.T) {
				t.Parallel()
				if err := RunReferenceEquivalence(seed, spec, false, true); err != nil {
					t.Fatalf("seed %d under %s: %v", seed, spec, err)
				}
			})
		}
	}
}

func seedName(seed int64) string {
	const digits = "0123456789"
	if seed == 0 {
		return "seed0"
	}
	var buf [20]byte
	i := len(buf)
	for v := seed; v > 0; v /= 10 {
		i--
		buf[i] = digits[v%10]
	}
	return "seed" + string(buf[i:])
}

// FuzzPipeline extends TestCorpus to arbitrary seeds under `go test -fuzz`:
// the fuzzer explores the generator's seed space looking for a program any
// pipeline stage mishandles.
func FuzzPipeline(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := RunSeed(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzAnnotatedEquivalence fuzzes the annotated-artifact equivalence check.
func FuzzAnnotatedEquivalence(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := RunAnnotatedEquivalence(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLanesEquivalence fuzzes the reference differential's measuring-mode
// slices over the generator's seed space: plain and annotated source under
// a protocol the seed picks.
func FuzzLanesEquivalence(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	specs := ProtocolSpecs()
	f.Fuzz(func(t *testing.T, seed int64) {
		spec := specs[uint64(seed)%uint64(len(specs))]
		if err := RunReferenceEquivalence(seed, spec, true, true); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzParallelEquivalence fuzzes the reference differential's trace-mode
// slice over the generator's seed space.
func FuzzParallelEquivalence(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := RunTraceEquivalence(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzProtocolEquivalence fuzzes the cross-protocol differential over the
// generator's seed space.
func FuzzProtocolEquivalence(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := RunProtocolEquivalence(seed); err != nil {
			t.Fatal(err)
		}
	})
}
