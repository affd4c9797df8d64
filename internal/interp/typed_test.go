package interp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachier/internal/parc"
)

// typedPrograms maps each program in testdata/typed to the runtime error
// it must end in ("" for none). They aim at what parcgen's corpus never
// reaches: its generated code never mixes operand types in min or max, nor
// divides by zero, nor loops at the int64 edge, nor meets the flush limit
// exactly before a call. internal/sim runs the same files on its two lane
// hosts.
var typedPrograms = map[string]string{
	"minmax.parc":          "",
	"divzero_int.parc":     "integer division by zero",
	"modzero_int.parc":     "integer modulo by zero",
	"mod_float.parc":       "% requires integer operands",
	"mod_dyn.parc":         "% requires integer operands",
	"modzero_dyn.parc":     "integer modulo by zero",
	"divguard_local.parc":  "integer division by zero in /=",
	"divguard_shared.parc": "integer division by zero in /=",
	"subscripts.parc":      "",
	"compound.parc":        "",
	"coerce.parc":          "",
	"print.parc":           "",
	"nan.parc":             "",
	"fortrips.parc":        "",
	"mixed_float.parc":     "",
	"shortcircuit.parc":    "",
	"privflush.parc":       "",
	"bounds_late.parc":     "g: index 3 out of range [0,3) in dimension 0",
	"redeclare.parc":       "",
}

// TestTypedVMMatchesTreeWalker holds the typed registers to the Value-based
// reference on every case where a type conversion, a value-typed min/max or
// a float corner decides the result.
func TestTypedVMMatchesTreeWalker(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "typed", "*.parc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(typedPrograms) {
		t.Fatalf("%d programs in testdata/typed, %d in typedPrograms", len(files), len(typedPrograms))
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(strings.TrimSuffix(name, ".parc"), func(t *testing.T) {
			want, ok := typedPrograms[name]
			if !ok {
				t.Fatalf("%s is not in typedPrograms", name)
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := parc.Check(parc.MustParse(string(src))); err != nil {
				t.Fatal(err)
			}
			diffEngines(t, string(src), 2)
			m, _, _, errs := execAll(t, string(src), 2, true)
			switch {
			case want == "" && len(errs) > 0:
				t.Fatalf("unexpected runtime errors: %q", errs)
			case want != "" && (len(errs) != 2 || !strings.HasSuffix(errs[0], ": "+want)):
				t.Fatalf("runtime errors %q, want each to end in %q", errs, want)
			case want == "" && len(m.printed) == 0:
				t.Fatal("the program printed nothing")
			}
		})
	}
}
