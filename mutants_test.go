//go:build mutants

package cachier

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The mutation ledger (make mutants): each mutant in testdata/mutants.json
// is one source edit, applied to a copy of the module, whose whole test
// suite then runs with a 90 s timeout. A row per mutant names the tests that
// killed it. A mutant must be killed unless the list says why it is
// equivalent; one marked reference_only must be killed by reference
// differentials alone (the tests named in reference_tests, which hold the
// compiled engine to the tree-walker or to the oracle that runs on it).
// The copies build with -trimpath, so a package the edit does not reach
// keeps its test binary and its cached result.

type mutant struct {
	Name          string `json:"name"`
	File          string `json:"file"`
	Old           string `json:"old"`
	New           string `json:"new"`
	ReferenceOnly bool   `json:"reference_only"`
	Equivalent    string `json:"equivalent"` // why it survives, if it does
}

type mutantList struct {
	ReferenceTests []string `json:"reference_tests"`
	Mutants        []mutant `json:"mutants"`
}

func TestMutants(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "mutants.json"))
	if err != nil {
		t.Fatal(err)
	}
	var list mutantList
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	t.Run("unmutated", func(t *testing.T) {
		if killers, out, failed := runMutant(t, nil); failed {
			t.Fatalf("the unmutated copy fails (%v):\n%s", killers, out)
		}
	})
	var rows []string
	for _, m := range list.Mutants {
		t.Run(m.Name, func(t *testing.T) {
			began := time.Now()
			killers, out, failed := runMutant(t, &m)
			row := fmt.Sprintf("%-30s %5.0fs  ", m.Name, time.Since(began).Seconds())
			named := strings.Join(killers, ", ")
			if len(killers) > 5 {
				named = fmt.Sprintf("%s and %d more", strings.Join(killers[:5], ", "), len(killers)-5)
			}
			switch {
			case !failed && m.Equivalent == "":
				row += "SURVIVED"
				t.Errorf("%s survives with no reason given", m.Name)
			case !failed:
				row += "survives: " + m.Equivalent
			case m.Equivalent != "":
				row += "killed by " + named
				t.Errorf("%s is killed, yet the list calls it equivalent", m.Name)
			default:
				row += "killed by " + named
				if slices.ContainsFunc(killers, func(k string) bool { return !slices.Contains(list.ReferenceTests, k) }) {
					if m.ReferenceOnly {
						t.Errorf("%s is killed outside the reference differentials", m.Name)
					}
				} else {
					row += " (reference only)"
				}
			}
			if failed && len(killers) == 0 {
				t.Errorf("%s fails with no failing test named:\n%s", m.Name, out)
			}
			t.Log(row)
			rows = append(rows, row)
		})
	}
	fmt.Printf("\nmutation ledger: %d mutants, %.0f s\n", len(rows), time.Since(start).Seconds())
	for _, r := range rows {
		fmt.Println(r)
	}
}

// runMutant applies m (nil: no edit) to a copy of the module, runs its tests
// and returns the failing tests as package.Test (a test still running at the
// timeout is marked so), the output, and whether the run failed.
func runMutant(t *testing.T, m *mutant) (killers []string, out string, failed bool) {
	t.Helper()
	dir := t.TempDir()
	if err := copyModule(dir); err != nil {
		t.Fatal(err)
	}
	if m != nil {
		p := filepath.Join(dir, m.File)
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.Old); n != 1 {
			t.Fatalf("%s: the edit's old text occurs %d times in %s, want once", m.Name, n, m.File)
		}
		if err := os.WriteFile(p, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "test", "-trimpath", "-timeout", "90s", "./...")
	cmd.Dir = dir
	b, err := cmd.CombinedOutput()
	out = string(b)
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatal(err)
		}
		failed = true
	}
	var pending []string // failed tests whose package line is still to come
	sc := bufio.NewScanner(strings.NewReader(out))
	running := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "--- FAIL: "):
			pending = append(pending, strings.Fields(line)[2])
		case strings.HasPrefix(line, "\trunning tests:"):
			running = true
		case running && strings.HasPrefix(line, "\t\t"):
			pending = append(pending, strings.Fields(line)[0]+" (timeout)")
		case strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "ok  \t"):
			running = false
			f := strings.Fields(line)
			if len(f) > 2 && strings.HasPrefix(f[2], "[") {
				t.Fatalf("%s: %s %s", f[1], f[2], out)
			}
			for _, name := range pending {
				killers = append(killers, path.Base(f[1])+"."+name)
			}
			pending = nil
		}
	}
	return killers, out, failed
}

// copyModule copies the module's files into dir, all but .git and the
// benchmark's build cache.
func copyModule(dir string) error {
	return filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, p), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		src, err := os.Open(p)
		if err != nil {
			return err
		}
		defer src.Close()
		dst, err := os.OpenFile(filepath.Join(dir, p), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, info.Mode().Perm())
		if err != nil {
			return err
		}
		if _, err := io.Copy(dst, src); err != nil {
			dst.Close()
			return err
		}
		return dst.Close()
	})
}
