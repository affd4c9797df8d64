package memory

import (
	"strings"
	"testing"
	"testing/quick"

	"cachier/internal/parc"
)

func testLayout(t *testing.T) (*parc.Program, *Layout) {
	t.Helper()
	prog := parc.MustParse(`
const N = 6;
shared float A[N][N] label "matA";
shared int flags[10];
shared float x;
func main() { }
`)
	l, err := New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	return prog, l
}

func TestLayoutAlignmentAndSizes(t *testing.T) {
	prog, l := testLayout(t)
	if len(l.Regions) != 3 {
		t.Fatalf("got %d regions", len(l.Regions))
	}
	for _, r := range l.Regions {
		if r.BaseAddr%32 != 0 {
			t.Errorf("region %s base %#x not block-aligned", r.Name, r.BaseAddr)
		}
		if r.BaseAddr == 0 {
			t.Errorf("region %s at address 0 (reserved)", r.Name)
		}
	}
	a := l.Region("A")
	if a.Bytes != 6*6*parc.ElemSize {
		t.Errorf("A bytes = %d", a.Bytes)
	}
	if a.Label != "matA" {
		t.Errorf("A label = %q", a.Label)
	}
	if f := l.Region("flags"); f.Label != "flags" {
		t.Errorf("unlabelled region label = %q", f.Label)
	}
	for i, d := range prog.Shareds {
		if d.Index != i || l.Regions[i].Name != d.Name {
			t.Errorf("Regions[%d] is %s, Shareds[%d] is %s with Index %d", i, l.Regions[i].Name, i, d.Name, d.Index)
		}
	}
	if x := l.Region("x"); x.Elems != 1 || len(x.DimSizes) != 0 {
		t.Errorf("scalar region: %+v", x)
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	_, l := testLayout(t)
	for i := 1; i < len(l.Regions); i++ {
		prev, cur := l.Regions[i-1], l.Regions[i]
		if prev.End() > cur.BaseAddr {
			t.Errorf("regions %s and %s overlap", prev.Name, cur.Name)
		}
		// Block-aligned bases mean no two regions share a cache block.
		if l.BlockOf(prev.End()-1) == l.BlockOf(cur.BaseAddr) {
			t.Errorf("regions %s and %s share block %d", prev.Name, cur.Name, l.BlockOf(cur.BaseAddr))
		}
	}
}

func TestAddrOfRowMajor(t *testing.T) {
	_, l := testLayout(t)
	a := l.Region("A")
	a00, _ := l.AddrOf("A", 0, 0)
	a01, _ := l.AddrOf("A", 0, 1)
	a10, _ := l.AddrOf("A", 1, 0)
	if a00 != a.BaseAddr {
		t.Errorf("A[0][0] at %#x, base %#x", a00, a.BaseAddr)
	}
	if a01-a00 != parc.ElemSize {
		t.Errorf("row stride wrong: %d", a01-a00)
	}
	if a10-a00 != 6*parc.ElemSize {
		t.Errorf("column stride wrong: %d", a10-a00)
	}
}

func TestAddrOfErrors(t *testing.T) {
	_, l := testLayout(t)
	if _, err := l.AddrOf("nope", 0); err == nil {
		t.Error("missing variable accepted")
	}
	if _, err := l.AddrOf("A", 0); err == nil {
		t.Error("wrong rank accepted")
	}
	if _, err := l.AddrOf("A", 0, 6); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := l.AddrOf("A", -1, 0); err == nil {
		t.Error("negative index accepted")
	}
}

func TestResolveRoundTrip(t *testing.T) {
	_, l := testLayout(t)
	f := func(i, j uint8) bool {
		ii, jj := int(i)%6, int(j)%6
		addr, err := l.AddrOf("A", ii, jj)
		if err != nil {
			return false
		}
		r, ix, ok := l.Resolve(addr)
		return ok && r.Name == "A" && len(ix) == 2 && ix[0] == ii && ix[1] == jj
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResolveOutsideRegions(t *testing.T) {
	_, l := testLayout(t)
	if _, _, ok := l.Resolve(0); ok {
		t.Error("address 0 resolved")
	}
	if _, _, ok := l.Resolve(l.TotalBytes() + 100); ok {
		t.Error("address past end resolved")
	}
	// Padding byte between regions (A is 288 bytes = 9 blocks exactly, so use
	// flags region end padding instead).
	flags := l.Region("flags")
	pad := flags.End()
	if x := l.Region("x"); pad < x.BaseAddr {
		if _, _, ok := l.Resolve(pad); ok {
			t.Error("padding address resolved")
		}
	}
}

func TestBlockMath(t *testing.T) {
	_, l := testLayout(t)
	if l.ElemsPerBlock() != 4 {
		t.Errorf("elements per block = %d, want 4 (paper Section 5)", l.ElemsPerBlock())
	}
	if l.BlockOf(32) != 1 || l.BlockOf(31) != 0 {
		t.Error("BlockOf wrong")
	}
	if l.BlockAddr(3) != 96 {
		t.Error("BlockAddr wrong")
	}
}

func TestBadBlockSize(t *testing.T) {
	prog := parc.MustParse(`shared int a; func main() { }`)
	for _, bs := range []int{0, -4, 24} {
		if _, err := New(prog, bs); err == nil {
			t.Errorf("block size %d accepted", bs)
		}
	}
}

// TestTotalSizeBound: arrays the checker accepts one by one must not add up
// to a shared address space past the same bound.
func TestTotalSizeBound(t *testing.T) {
	prog := parc.MustParse(`
shared int a[33554432];
shared int b[8];
func main() { }
`)
	if _, err := New(prog, 32); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("layout of %d bytes and more: err = %v, want the bound named at a", parc.MaxArrayBytes, err)
	}
	if _, err := New(parc.MustParse(`shared int a[16777216]; func main() { }`), 32); err != nil {
		t.Errorf("a layout of half the bound: %v", err)
	}
}
