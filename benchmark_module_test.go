package cachier

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds type-checks ./benchmark from the root module's
// tests. The benchmark is a module of its own (its only requirement is
// `replace cachier => ../`), so `go build ./... && go test ./...` never
// compiles it, and deleting a name it uses would otherwise go unseen until
// the benchmark itself is run.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in ./benchmark: %v\n%s", err, out)
	}
}
