package sim

import (
	"fmt"
	"strings"
	"testing"

	"cachier/internal/parc"
)

const protoTestSrc = `
shared int out[4];
func main() {
    out[pid()] = pid() + 10;
    barrier;
    if pid() == 0 {
        for i = 0 to 3 {
            out[i] = out[i] * 2;
        }
    }
}
`

// TestProtocolSelection runs the same program under every protocol spec:
// results (memory, barriers) agree, the display name is reported, and the
// hardware protocols never trap.
func TestProtocolSelection(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"", "Dir1SW"},
		{"dir1sw", "Dir1SW"},
		{"dirnnb:1", "Dir1NB"},
		{"dirnnb", "Dir4NB"},
		{"dirnb:2", "Dir2B"},
	}
	var base *Result
	for _, c := range cases {
		cfg := cfg4()
		cfg.Protocol = c.spec
		res := runSrc(t, protoTestSrc, cfg)
		if res.Protocol != c.name {
			t.Errorf("spec %q: protocol %q, want %q", c.spec, res.Protocol, c.name)
		}
		if c.spec != "" && c.spec != "dir1sw" && res.Stats.Traps != 0 {
			t.Errorf("spec %q: %d traps, hardware protocols never trap", c.spec, res.Stats.Traps)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Barriers != base.Barriers {
			t.Errorf("spec %q: %d barriers, want %d", c.spec, res.Barriers, base.Barriers)
		}
		for i := 0; i < 4; i++ {
			if got, want := load(t, res, "out", i), load(t, base, "out", i); got != want {
				t.Errorf("spec %q: out[%d] = %v, want %v", c.spec, i, got, want)
			}
		}
	}
}

// TestFullMapAblationStillSelectsDir1SWFamily: the full-map baseline is
// "dirnnb:<nodes>", Dir1SW's transitions without its traps. On the same
// program it misses exactly where Dir1SW does, never traps, and so runs no
// slower.
func TestFullMapAblationStillSelectsDir1SWFamily(t *testing.T) {
	cfg := cfg4()
	d1 := runSrc(t, protoTestSrc, cfg)
	cfg.Protocol = fmt.Sprintf("dirnnb:%d", cfg.Nodes)
	fm := runSrc(t, protoTestSrc, cfg)
	if fm.Protocol != "Dir4NB" {
		t.Errorf("protocol %q, want Dir4NB", fm.Protocol)
	}
	if d1.Stats.Traps == 0 || fm.Stats.Traps != 0 {
		t.Errorf("traps: Dir1SW %d, full map %d; want some and none", d1.Stats.Traps, fm.Stats.Traps)
	}
	if fm.Stats.Misses() != d1.Stats.Misses() || fm.Cycles > d1.Cycles {
		t.Errorf("full map: %d misses in %d cycles; Dir1SW: %d misses in %d cycles",
			fm.Stats.Misses(), fm.Cycles, d1.Stats.Misses(), d1.Cycles)
	}
}

// TestProtocolConfigRejections: unknown specs, and the Dir1SW-only switch
// combined with hardware protocols, fail up front rather than mis-simulate.
func TestProtocolConfigRejections(t *testing.T) {
	prog, err := parc.Parse(protoTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate func(*Config)
		substr string
	}{
		{func(c *Config) { c.Protocol = "mesi" }, "unknown"},
		{func(c *Config) { c.Protocol = "dirnnb:0" }, "pointer"},
		{func(c *Config) { c.Protocol = "dirnb:4"; c.PostStore = true }, "PostStore"},
	}
	for _, c := range cases {
		cfg := cfg4()
		c.mutate(&cfg)
		if _, err := Run(prog, cfg); err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("protocol %q poststore=%v: err = %v, want mention of %q",
				cfg.Protocol, cfg.PostStore, err, c.substr)
		}
	}
}
