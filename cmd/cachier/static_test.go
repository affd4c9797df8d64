package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const partitionSrc = `
const N = 64;
shared float A[N] label "A";
shared float B[N] label "B";
func main() {
    var chunk int = N / nprocs();
    var lo int = pid() * chunk;
    for i = lo to lo + chunk - 1 {
        A[i] = float(i);
    }
    barrier;
    for i = lo to lo + chunk - 1 {
        B[i] = A[i] * 2.0;
    }
    barrier;
}`

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.parc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCachier(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// TestStaticAnnotate: -static needs no trace input at all and produces an
// annotated program.
func TestStaticAnnotate(t *testing.T) {
	prog := writeProg(t, partitionSrc)
	stdout, stderr, err := runCachier(t, "-static", "-nodes", "4", prog)
	if err != nil {
		t.Fatalf("err=%v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "check_in") {
		t.Errorf("static annotation placed nothing:\n%s", stdout)
	}
	if !strings.Contains(stderr, "inserted") {
		t.Errorf("missing insertion summary:\n%s", stderr)
	}
}

// protocolSrc places differently by protocol: under the one-pointer
// DirnNB the second loop's four readers of each A[i] overflow its one
// pointer, and Cachier adds a check_in of A that Dir1SW's trace does not
// call for.
const protocolSrc = `
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

// TestStaticMatchesSelf: on a race-free enumerable program, -static and
// -self must print byte-identical annotated output on the same machine,
// protocol included.
func TestStaticMatchesSelf(t *testing.T) {
	for _, tc := range []struct{ src, protocol string }{
		{partitionSrc, ""},
		{protocolSrc, "dirnnb:1"},
	} {
		prog := writeProg(t, tc.src)
		args := []string{"-nodes", "4", "-prefetch", "-protocol", tc.protocol, prog}
		fromStatic, _, err := runCachier(t, append([]string{"-static"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		fromSelf, _, err := runCachier(t, append([]string{"-self"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		if fromStatic != fromSelf {
			t.Errorf("-protocol %q: -static and -self annotate differently:\n--- static ---\n%s\n--- self ---\n%s",
				tc.protocol, fromStatic, fromSelf)
		}
	}
}

// TestStaticFlagRejectsGarbage: -static is a plain bool flag.
func TestStaticFlagRejectsGarbage(t *testing.T) {
	prog := writeProg(t, partitionSrc)
	if _, _, err := runCachier(t, "-static=sometimes", prog); err == nil {
		t.Error("expected flag parse error")
	}
}

// TestStaticInexactWarning: approximate inference must be called out on
// stderr rather than silently over-annotating.
func TestStaticInexactWarning(t *testing.T) {
	prog := writeProg(t, `
const N = 8;
shared float A[N] label "A";
shared int idx label "idx";
func main() {
    if pid() == 0 {
        A[idx] = 1.0;
    }
    barrier;
}`)
	_, stderr, err := runCachier(t, "-static", "-nodes", "2", prog)
	if err != nil {
		t.Fatalf("err=%v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "approximate") {
		t.Errorf("expected inexactness warning:\n%s", stderr)
	}
}
