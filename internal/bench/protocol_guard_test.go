package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fig6Cycles is one Figure 6 benchmark's cycles per variant.
type fig6Cycles struct {
	Benchmark                      string
	None, Hand, Cachier, CachierPF uint64
}

// fullMapFig6 is Figure 6 under the full-map directory, DirₙNB with a
// pointer per node: the cycles the retired full-map switch of Dir1SW gave,
// which dirnnb:32 reproduces exactly.
var fullMapFig6 = []fig6Cycles{
	{"Barnes", 1280960, 1276062, 1041187, 1040227},
	{"Ocean", 149729, 157958, 197635, 197635},
	{"Mp3d", 138000, 178282, 206928, 201539},
	{"MatrixMultiply", 276348, 471531, 503238, 464434},
	{"Tomcatv", 2224346, 2230626, 2441778, 2362428},
}

// TestDir1SWRefactorGuard pins the protocols built from the shared
// directory transitions to frozen Figure 6 cycle counts: Dir1SW selected
// explicitly through the protocol registry (sim.Config.Protocol =
// "dir1sw", the same resolution path DirnNB/DirnB use) must reproduce the
// pre-refactor goldens, and the full-map baseline dirnnb:32 the cycles of
// the switch it replaced. Any drift means a refactor of the coherence
// machinery changed simulated behaviour, which it must not — hence Fatalf,
// not Errorf.
func TestDir1SWRefactorGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var dir1swFig6 []fig6Cycles
	for _, g := range goldenFig6 {
		dir1swFig6 = append(dir1swFig6, fig6Cycles{g.Benchmark, g.None, g.Hand, g.Cachier, g.CachierPF})
	}
	for _, c := range []struct {
		spec, name string
		golden     []fig6Cycles
	}{
		{"dir1sw", "Dir1SW", dir1swFig6},
		{"dirnnb:32", "Dir32NB", fullMapFig6},
	} {
		rows, err := Figure6Protocol(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range c.golden {
			r := rows[i]
			if r.Benchmark != want.Benchmark {
				t.Fatalf("%s: row %d is %s, want %s", c.spec, i, r.Benchmark, want.Benchmark)
			}
			if r.Protocol != c.name {
				t.Fatalf("%s/%s: protocol %q, want %s", c.spec, r.Benchmark, r.Protocol, c.name)
			}
			golden := map[Variant]uint64{
				VariantNone:            want.None,
				VariantHand:            want.Hand,
				VariantCachier:         want.Cachier,
				VariantCachierPrefetch: want.CachierPF,
			}
			for _, v := range Variants() {
				if r.Cycles[v] != golden[v] {
					t.Fatalf("%s/%s/%s: %d cycles, frozen golden %d — the coherence machinery drifted",
						c.spec, r.Benchmark, v, r.Cycles[v], golden[v])
				}
			}
		}
	}
}

// TestGoldenStatsSnapshotsDirn locks the DirnNB and DirnB stats trees the
// same way TestGoldenStatsSnapshots locks Dir1SW's: every Figure 6
// benchmark runs observed under each hardware protocol at the sweep's
// pointer count, every variant's snapshot must be internally consistent
// (including the transitions-sum-to-DirEvents rule), and the Cachier
// variant's snapshot must match its golden byte for byte (refresh with
// `go test ./internal/bench -run GoldenStatsSnapshotsDirn -update`).
func TestGoldenStatsSnapshotsDirn(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	protos := []struct {
		suffix string // golden filename component
		spec   string // sim.Config.Protocol
		name   string // display name reported by the run
	}{
		{suffix: "dirnnb", spec: "dirnnb:4", name: "Dir4NB"},
		{suffix: "dirnb", spec: "dirnb:4", name: "Dir4B"},
	}
	for _, p := range protos {
		for _, want := range goldenFig6 {
			p, want := p, want
			t.Run(p.suffix+"/"+want.Benchmark, func(t *testing.T) {
				t.Parallel()
				b, err := ByName(want.Benchmark)
				if err != nil {
					t.Fatal(err)
				}
				row, err := RunBenchmarkObserved(b.WithProtocol(p.spec), false)
				if err != nil {
					t.Fatal(err)
				}
				if row.Protocol != p.name {
					t.Fatalf("protocol %q, want %q", row.Protocol, p.name)
				}
				for _, v := range Variants() {
					snap := row.Snapshots[v]
					if snap == nil {
						t.Fatalf("%s: no snapshot", v)
					}
					if snap.ProtocolName != p.name {
						t.Errorf("%s: snapshot protocol %q, want %q", v, snap.ProtocolName, p.name)
					}
					if snap.Protocol.DirEvents == 0 {
						t.Errorf("%s: snapshot has no directory events", v)
					}
					if snap.Protocol.Traps != 0 {
						t.Errorf("%s: %d traps — %s is all-hardware and never traps", v, snap.Protocol.Traps, p.name)
					}
					if err := snap.CheckConsistency(); err != nil {
						t.Errorf("%s: %v", v, err)
					}
				}
				data, err := row.Snapshots[VariantCachier].MarshalIndentJSON()
				if err != nil {
					t.Fatal(err)
				}
				path := statsGoldenPath(b.Name, p.suffix)
				if *updateStats {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d bytes)", path, len(data))
					return
				}
				wantData, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to regenerate)", err)
				}
				if !bytes.Equal(data, wantData) {
					t.Errorf("snapshot differs from %s (run with -update to regenerate)\ngot %d bytes, want %d",
						path, len(data), len(wantData))
				}
			})
		}
	}
}
