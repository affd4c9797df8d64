package trace_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cachier/internal/core"
	"cachier/internal/trace"
)

// TestSortMissesDeterministic: a trace's miss order within an epoch carries
// no meaning. The Builder emits Miss.Compare order, and core.ProcessTrace
// sorts any epoch that is not in it (a trace read from a file, written by
// hand or shuffled), so a shuffled epoch gives the same sets as the sorted
// one and the shuffled trace itself is left as it was.
func TestSortMissesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := trace.NewBuilder(4, 32, nil)
	for ep := 0; ep < 3; ep++ {
		for i := 0; i < 200; i++ {
			b.AddMiss(trace.Kind(rng.Intn(3)), uint64(32+8*rng.Intn(64)), rng.Intn(5), rng.Intn(4))
		}
		b.EndEpoch(10+ep, []uint64{1, 2, 3, 4}, ep == 2)
	}
	sorted := b.Trace()
	shuffled := *sorted
	shuffled.Epochs = slices.Clone(sorted.Epochs)
	for i := range shuffled.Epochs {
		ms := slices.Clone(sorted.Epochs[i].Misses)
		if !slices.IsSortedFunc(ms, trace.Miss.Compare) {
			t.Fatalf("epoch %d: the Builder left its misses out of Compare order", i)
		}
		rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
		if slices.IsSortedFunc(ms, trace.Miss.Compare) {
			t.Fatalf("epoch %d: the shuffle left the misses sorted", i)
		}
		shuffled.Epochs[i].Misses = ms
	}
	before := slices.Clone(shuffled.Epochs[0].Misses)
	if got, want := core.ProcessTrace(&shuffled), core.ProcessTrace(sorted); !reflect.DeepEqual(got, want) {
		t.Error("a shuffled trace gives other sets than the sorted one")
	}
	if !slices.Equal(shuffled.Epochs[0].Misses, before) {
		t.Error("ProcessTrace reordered its input")
	}
}
