package sim

import (
	"testing"

	"cachier/internal/parc"
)

// schedulerSource is the ready-queue stress program: many processors with
// skewed per-round compute separated by barriers, so every quantum expiry
// and barrier release reschedules among P runnable contexts. This is the
// workload where the indexed min-heap replaces the seed's O(P) linear scan.
const schedulerSource = `
shared int sink[64];
func main() {
    var acc int = 0;
    for r = 0 to 40 {
        for j = 0 to 16 + pid() {
            acc += j;
        }
        barrier;
    }
    sink[pid()] = acc;
}
`

func BenchmarkScheduler(b *testing.B) {
	prog, err := parc.Parse(schedulerSource)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Nodes = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
