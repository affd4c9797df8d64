package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	b := NewBuilder(2, 32, []Label{
		{Name: "A", Base: 32, Elem: 8, Dims: []int{4, 4}},
		{Name: "x", Base: 160, Elem: 8},
	})
	b.AddMiss(ReadMiss, 32, 5, 0)
	b.AddMiss(WriteMiss, 40, 6, 1)
	b.AddMiss(WriteFault, 48, 7, 0)
	b.EndEpoch(12, []uint64{100, 110}, false)
	b.AddMiss(ReadMiss, 160, 9, 1)
	b.EndEpoch(-1, []uint64{250, 260}, true)
	return b.Trace()
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(1, 32, nil)
	b.AddMiss(ReadMiss, 32, 5, 0)
	b.AddMiss(ReadMiss, 32, 5, 0) // duplicate
	b.AddMiss(ReadMiss, 32, 6, 0) // different PC: kept
	b.AddMiss(WriteMiss, 32, 5, 0)
	b.AddMiss(ReadMiss, 32, 5, 0) // duplicate, not adjacent to the first
	// The contract holds at Trace(), with or without an EndEpoch before it:
	// distinct records, in Compare order.
	want := []Miss{{ReadMiss, 32, 5, 0}, {ReadMiss, 32, 6, 0}, {WriteMiss, 32, 5, 0}}
	if got := b.Trace().Epochs[0].Misses; !slices.Equal(got, want) {
		t.Errorf("open epoch: got %v, want %v", got, want)
	}
	b.AddMiss(ReadMiss, 32, 6, 0)
	b.EndEpoch(-1, []uint64{1}, true)
	if got := b.Trace().Epochs[0].Misses; !slices.Equal(got, want) {
		t.Errorf("closed epoch: got %v, want %v", got, want)
	}
}

// TestBuilderBoundedUnderDuplicates: a program that misses on one word a
// million times in an epoch (two nodes ping-ponging a block) costs the
// builder a few records of memory, not a million.
func TestBuilderBoundedUnderDuplicates(t *testing.T) {
	b := NewBuilder(1, 32, nil)
	for i := 0; i < 1_000_000; i++ {
		b.AddMiss(WriteMiss, 64, 7, 0)
		if c := cap(b.buf); c > 64 {
			t.Fatalf("after %d identical misses the epoch holds room for %d", i+1, c)
		}
	}
	if got := b.Trace().Epochs[0].Misses; len(got) != 1 {
		t.Errorf("got %d misses, want 1", len(got))
	}
}

// TestBuilderMatchesSet: random epochs with many repeats come out as the
// sorted set of what went in, whatever the interleaving of growth and
// compaction.
func TestBuilderMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		b := NewBuilder(4, 32, nil)
		set := map[Miss]bool{}
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			m := Miss{Kind(rng.Intn(3)), uint64(rng.Intn(1+round)) * 8, rng.Intn(3), rng.Intn(4)}
			set[m] = true
			b.AddMiss(m.Kind, m.Addr, m.PC, m.Node)
		}
		got := b.Trace().Epochs[0].Misses
		if len(got) != len(set) || !slices.IsSortedFunc(got, Miss.Compare) {
			t.Fatalf("round %d: %d records (sorted %v), want the %d distinct ones sorted",
				round, len(got), slices.IsSortedFunc(got, Miss.Compare), len(set))
		}
		for _, m := range got {
			if !set[m] {
				t.Fatalf("round %d: record %v was never added", round, m)
			}
		}
	}
}

func TestBuilderEpochBoundaries(t *testing.T) {
	tr := sample()
	if len(tr.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(tr.Epochs))
	}
	if tr.Epochs[0].BarrierPC != 12 || tr.Epochs[1].BarrierPC != -1 {
		t.Errorf("barrier PCs: %d %d", tr.Epochs[0].BarrierPC, tr.Epochs[1].BarrierPC)
	}
	if tr.Epochs[0].Index != 0 || tr.Epochs[1].Index != 1 {
		t.Error("epoch indices wrong")
	}
	if tr.Epochs[0].VT[1] != 110 {
		t.Errorf("VT = %v", tr.Epochs[0].VT)
	}
	// Dedup state resets across epochs: the same miss may reappear.
	b := NewBuilder(1, 32, nil)
	b.AddMiss(ReadMiss, 32, 5, 0)
	b.EndEpoch(3, []uint64{10}, false)
	b.AddMiss(ReadMiss, 32, 5, 0)
	b.EndEpoch(-1, []uint64{20}, true)
	if len(b.Trace().Epochs[1].Misses) != 1 {
		t.Error("miss in new epoch dropped by stale dedup")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(8)
		b := NewBuilder(nodes, 32, []Label{{Name: "V", Base: 32, Elem: 8, Dims: []int{64}}})
		epochs := 1 + rng.Intn(4)
		for e := 0; e < epochs; e++ {
			for i := 0; i < rng.Intn(20); i++ {
				b.AddMiss(Kind(rng.Intn(3)), 32+uint64(rng.Intn(64))*8, rng.Intn(100), rng.Intn(nodes))
			}
			vt := make([]uint64, nodes)
			for n := range vt {
				vt[n] = uint64(rng.Intn(10_000))
			}
			b.EndEpoch(pick(rng, e == epochs-1), vt, e == epochs-1)
		}
		tr := b.Trace()
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func pick(rng *rand.Rand, final bool) int {
	if final {
		return -1
	}
	return rng.Intn(50)
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"bad header", "not-a-trace\n"},
		{"missing nodes", "cachier-trace v1\nblock 32\n"},
		{"bad miss kind", "cachier-trace v1\nnodes 1\nblock 32\nepoch 0 barrierpc 1\nmiss z 0 0 0\nend\n"},
		{"miss node range", "cachier-trace v1\nnodes 1\nblock 32\nepoch 0 barrierpc 1\nmiss r 0 0 5\nend\n"},
		{"unterminated epoch", "cachier-trace v1\nnodes 1\nblock 32\nepoch 0 barrierpc 1\nmiss r 0 0 0\n"},
		{"garbage line", "cachier-trace v1\nnodes 1\nwat\n"},
		{"bad vt node", "cachier-trace v1\nnodes 1\nblock 32\nepoch 0 barrierpc 1\nvt 9 3\nend\n"},
		// A header that would size each epoch's VT past memory or below zero,
		// leave the block size for a reader to divide by, or come after the
		// epochs it sizes.
		{"negative nodes", "cachier-trace v1\nnodes -1\nblock 32\nepoch 0 barrierpc 1\nend\n"},
		{"huge nodes", "cachier-trace v1\nnodes 4611686018427387904\nblock 32\nepoch 0 barrierpc 1\nend\n"},
		{"nodes over the bound", "cachier-trace v1\nnodes 65537\nblock 32\nepoch 0 barrierpc 1\nend\n"},
		{"missing block", "cachier-trace v1\nnodes 1\nepoch 0 barrierpc 1\nend\n"},
		{"zero block", "cachier-trace v1\nnodes 1\nblock 0\nepoch 0 barrierpc 1\nend\n"},
		{"block not a power of two", "cachier-trace v1\nnodes 1\nblock 24\nepoch 0 barrierpc 1\nend\n"},
		{"epoch before nodes", "cachier-trace v1\nblock 32\nepoch 0 barrierpc 1\nend\nnodes 1\n"},
		{"nodes after an epoch", "cachier-trace v1\nnodes 1\nblock 32\nepoch 0 barrierpc 1\nend\nnodes 4\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestKindString(t *testing.T) {
	if ReadMiss.String() != "r" || WriteMiss.String() != "w" || WriteFault.String() != "f" {
		t.Error("kind strings wrong")
	}
	if _, err := parseKind("x"); err == nil {
		t.Error("parseKind accepted junk")
	}
}

// TestDigestCoversEveryField mutates, one at a time and by reflection, every
// field of the sample trace's Trace, Epoch, Miss and Label values (a number
// or string changed, a slice lengthened, the first element of a slice walked
// into), and requires each mutation to change the digest and its undoing to
// restore it. A field added to any of the four types later is walked too, so
// leaving it out of the fold fails here. Two traces read from one text have
// one digest.
func TestDigestCoversEveryField(t *testing.T) {
	tr := sample()
	want := tr.Digest()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != want {
		t.Fatal("a trace read back from its text has another digest")
	}
	mutated := 0
	check := func(path string, mutate func() (undo func())) {
		undo := mutate()
		if tr.Digest() == want {
			t.Errorf("changing %s leaves the digest as it was", path)
		}
		undo()
		if tr.Digest() != want {
			t.Fatalf("undoing the change to %s does not restore the digest", path)
		}
		mutated++
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Int:
			check(path, func() func() { v.SetInt(v.Int() + 1); return func() { v.SetInt(v.Int() - 1) } })
		case reflect.Uint64:
			check(path, func() func() { v.SetUint(v.Uint() + 1); return func() { v.SetUint(v.Uint() - 1) } })
		case reflect.String:
			old := v.String()
			check(path, func() func() { v.SetString(old + "x"); return func() { v.SetString(old) } })
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("the sample trace's %s is empty, so its elements are not walked", path)
			}
			old := reflect.ValueOf(v.Interface())
			check(path+" length", func() func() {
				v.Set(reflect.Append(old, reflect.Zero(v.Type().Elem())))
				return func() { v.Set(old) }
			})
			walk(path+"[0]", v.Index(0))
		default:
			t.Fatalf("%s is a %s, which the walk cannot mutate", path, v.Kind())
		}
	}
	walk("Trace", reflect.ValueOf(tr).Elem())
	t.Logf("%d mutations checked", mutated)
}

// FuzzTraceRead feeds arbitrary text to Read: it must never panic, and a
// trace it accepts must read back from its own Write output with the same
// digest.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("cachier-trace v1\nnodes 1\nblock 32\nepoch 0 barrierpc -1\nvt 0 7\nmiss f 8 3 0\nend\n")
	f.Add("cachier-trace v1\nnodes -1\nepoch 0 barrierpc 1\nend\n")
	f.Add("cachier-trace v1\nnodes 2\nblock 0\nlabel A base 0 elem 8 dims 2 2\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("an accepted trace does not read back: %v\n%s", err, out.String())
		}
		if back.Digest() != tr.Digest() {
			t.Fatalf("the trace read back has another digest\n%s", out.String())
		}
	})
}
