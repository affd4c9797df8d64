package coherence

import (
	"testing"

	"cachier/internal/obs"
	"cachier/internal/trace"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		str  string
	}{
		{"", Spec{Name: SpecDir1SW}, "dir1sw"},
		{"dir1sw", Spec{Name: SpecDir1SW}, "dir1sw"},
		{"Dir1SW", Spec{Name: SpecDir1SW}, "dir1sw"},
		{"dirnnb", Spec{Name: SpecDirnNB, N: 4}, "dirnnb:4"},
		{"dirnnb:1", Spec{Name: SpecDirnNB, N: 1}, "dirnnb:1"},
		{"DirnB:8", Spec{Name: SpecDirnB, N: 8}, "dirnb:8"},
		{" dirnb ", Spec{Name: SpecDirnB, N: 4}, "dirnb:4"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.String() != c.str {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got.String(), c.str)
		}
	}
	for _, bad := range []string{"mesi", "dir1sw:2", "dirnnb:0", "dirnnb:-1", "dirnb:x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestDirStateString(t *testing.T) {
	for st, want := range map[obs.DirState]string{obs.StateIdle: "idle", obs.StateShared: "shared", obs.StateExclusive: "exclusive"} {
		if st.String() != want {
			t.Errorf("%d -> %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestStatsAggregates(t *testing.T) {
	s := Stats{ReqMsgs: 3, DataMsgs: 4, CtlMsgs: 5, ReadMisses: 1, WriteMisses: 2, WriteFaults: 3}
	if s.TotalMsgs() != 12 {
		t.Errorf("TotalMsgs = %d", s.TotalMsgs())
	}
	if s.Misses() != 6 {
		t.Errorf("Misses = %d", s.Misses())
	}
}

// TestAccessKindStrings pins the access outcomes a Result reports: the
// three misses keep the trace format's values and letters, which the text
// format and Trace.Digest are written in, and a hit has a letter of its own.
func TestAccessKindStrings(t *testing.T) {
	for k, want := range map[trace.Kind]string{
		trace.ReadMiss: "r", trace.WriteMiss: "w", trace.WriteFault: "f", trace.Hit: "h",
	} {
		if k.String() != want {
			t.Errorf("%d -> %q, want %q", int(k), k.String(), want)
		}
	}
	if trace.ReadMiss != 0 || trace.WriteMiss != 1 || trace.WriteFault != 2 {
		t.Error("the miss kinds' values moved")
	}
}

func TestCostArithmetic(t *testing.T) {
	c := Costs{NetHop: 25, DirService: 10, MemAccess: 20, Trap: 250, InvalMsg: 8}
	if got := c.CleanMiss(); got != 2*25+10+20 {
		t.Errorf("CleanMiss = %d", got)
	}
	if got := c.Upgrade(); got != 2*25+10 {
		t.Errorf("Upgrade = %d", got)
	}
}
