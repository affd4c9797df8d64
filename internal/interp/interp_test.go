package interp

import (
	"reflect"
	"strings"
	"testing"

	"cachier/internal/memory"
	"cachier/internal/parc"
)

// mockMachine records every callback for assertions. It executes each node
// to completion sequentially (no scheduling), which is fine for
// single-processor semantics tests.
type mockMachine struct {
	accesses   []mockAccess
	directives []mockDirective
	barriers   []int
	locks      []int64
	unlocks    []int64
	work       uint64
	works      []uint64 // each Work call's cycles: the flush cadence
	printed    []string
}

type mockAccess struct {
	node  int
	write bool
	addr  uint64
	pc    int
}

type mockDirective struct {
	node   int
	kind   parc.AnnKind
	ranges []AddrRange
	pc     int
}

func (m *mockMachine) Access(node int, write bool, addr uint64, pc int) {
	m.accesses = append(m.accesses, mockAccess{node, write, addr, pc})
}
func (m *mockMachine) Directive(node int, kind parc.AnnKind, ranges []AddrRange, pc int) {
	// Ranges are only valid during the call; retain a copy.
	var cp []AddrRange
	if ranges != nil {
		cp = append([]AddrRange{}, ranges...)
	}
	m.directives = append(m.directives, mockDirective{node, kind, cp, pc})
}
func (m *mockMachine) Barrier(node int, pc int)          { m.barriers = append(m.barriers, pc) }
func (m *mockMachine) Lock(node int, id int64, pc int)   { m.locks = append(m.locks, id) }
func (m *mockMachine) Unlock(node int, id int64, pc int) { m.unlocks = append(m.unlocks, id) }
func (m *mockMachine) Work(node int, cycles uint64) {
	m.work += cycles
	m.works = append(m.works, cycles)
}
func (m *mockMachine) Print(node int, text string) { m.printed = append(m.printed, text) }

// run executes src on a single simulated processor and returns the machine
// record, store, and layout.
func run(t *testing.T, src string) (*mockMachine, *Store, *memory.Layout, error) {
	t.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStoreFor(layout)
	m := &mockMachine{}
	ctx := NewContext(prog, store, m, 0, 1)
	return m, store, layout, ctx.Run()
}

func mustRun(t *testing.T, src string) (*mockMachine, *Store, *memory.Layout) {
	t.Helper()
	m, s, l, err := run(t, src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, s, l
}

func loadFloat(s *Store, l *memory.Layout, name string, ix ...int) float64 {
	addr, err := l.AddrOf(name, ix...)
	if err != nil {
		panic(err)
	}
	return FromBits(s.Load(addr), true).F
}

func loadInt(s *Store, l *memory.Layout, name string, ix ...int) int64 {
	addr, err := l.AddrOf(name, ix...)
	if err != nil {
		panic(err)
	}
	return FromBits(s.Load(addr), false).I
}

func TestArithmeticAndControlFlow(t *testing.T) {
	_, s, l := mustRun(t, `
shared int out[8];
func main() {
    out[0] = 1 + 2 * 3;
    out[1] = (1 + 2) * 3;
    out[2] = 17 % 5;
    out[3] = 17 / 5;
    if 1 < 2 && 2 < 3 { out[4] = 1; } else { out[4] = 2; }
    var i int = 0;
    var acc int = 0;
    while i < 5 { acc += i; i += 1; }
    out[5] = acc;
    var acc2 int = 0;
    for k = 1 to 10 step 3 { acc2 += k; }
    out[6] = acc2;
    var acc3 int = 0;
    for k = 5 to 1 step -2 { acc3 += k; }
    out[7] = acc3;
}
`)
	want := []int64{7, 9, 2, 3, 1, 10, 22, 9}
	for i, w := range want {
		if got := loadInt(s, l, "out", i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestFloatsAndBuiltins(t *testing.T) {
	_, s, l := mustRun(t, `
shared float out[8];
func main() {
    out[0] = 1.5 + 2.25;
    out[1] = sqrt(16.0);
    out[2] = abs(-3.5);
    out[3] = min(2.0, 7.0);
    out[4] = max(2.0, 7.0);
    out[5] = float(7 / 2);
    out[6] = floor(2.9);
    out[7] = float(int(3.99));
}
`)
	want := []float64{3.75, 4, 3.5, 2, 7, 3, 2, 3}
	for i, w := range want {
		if got := loadFloat(s, l, "out", i); got != w {
			t.Errorf("out[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestFunctionsAndRecursionReturn(t *testing.T) {
	_, s, l := mustRun(t, `
shared int out[3];
func fib(n int) int {
    if n < 2 { return n; }
    return fib(n - 1) + fib(n - 2);
}
func addTo(x int, y int) int { return x + y; }
func noret() int { }
func main() {
    out[0] = fib(10);
    out[1] = addTo(3, 4);
    out[2] = noret() + 9;
}
`)
	if got := loadInt(s, l, "out", 0); got != 55 {
		t.Errorf("fib(10) = %d", got)
	}
	if got := loadInt(s, l, "out", 1); got != 7 {
		t.Errorf("addTo = %d", got)
	}
	if got := loadInt(s, l, "out", 2); got != 9 {
		t.Errorf("zero-value fallthrough = %d", got)
	}
}

func TestPrivateArraysStayPrivate(t *testing.T) {
	m, s, l := mustRun(t, `
shared int out[1];
func main() {
    var buf int[10];
    for i = 0 to 9 { buf[i] = i * i; }
    var sum int = 0;
    for i = 0 to 9 { sum += buf[i]; }
    out[0] = sum;
}
`)
	if got := loadInt(s, l, "out", 0); got != 285 {
		t.Errorf("sum = %d", got)
	}
	// Only the single shared store should reach the machine.
	if len(m.accesses) != 1 || !m.accesses[0].write {
		t.Errorf("accesses = %+v", m.accesses)
	}
}

func TestSharedAccessesReported(t *testing.T) {
	m, _, l := mustRun(t, `
shared float A[4][4];
shared float x;
func main() {
    A[1][2] = 5.0;
    x = A[1][2] + 1.0;
    A[1][2] += 1.0;
}
`)
	a12, _ := l.AddrOf("A", 1, 2)
	xaddr, _ := l.AddrOf("x")
	type acc struct {
		write bool
		addr  uint64
	}
	var got []acc
	for _, a := range m.accesses {
		got = append(got, acc{a.write, a.addr})
	}
	want := []acc{
		{true, a12},  // A[1][2] = 5.0
		{false, a12}, // read A[1][2]
		{true, xaddr},
		{false, a12}, // compound read
		{true, a12},  // compound write
	}
	if len(got) != len(want) {
		t.Fatalf("got %d accesses %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestAccessPCMatchesStatement(t *testing.T) {
	m, _, _ := mustRun(t, `
shared int x;
func main() {
    x = 1;
}
`)
	prog := parc.MustParse(`
shared int x;
func main() {
    x = 1;
}
`)
	// Find the assignment's statement ID in an identically parsed program.
	var wantPC = -1
	parc.WalkProgram(prog, func(s parc.Stmt) bool {
		if _, ok := s.(*parc.AssignStmt); ok {
			wantPC = s.ID()
		}
		return true
	})
	if len(m.accesses) != 1 || m.accesses[0].pc != wantPC {
		t.Errorf("accesses = %+v, want pc %d", m.accesses, wantPC)
	}
}

func TestBarrierLockUnlockPrint(t *testing.T) {
	m, _, _ := mustRun(t, `
func main() {
    barrier;
    lock(3);
    unlock(3);
    barrier;
    print("v=%d f=%f g=%g pct=%%", 42, 1.5, 0.25);
}
`)
	if len(m.barriers) != 2 {
		t.Errorf("barriers = %v", m.barriers)
	}
	if len(m.locks) != 1 || m.locks[0] != 3 || len(m.unlocks) != 1 {
		t.Errorf("locks = %v unlocks = %v", m.locks, m.unlocks)
	}
	if len(m.printed) != 1 || m.printed[0] != "v=42 f=1.500000 g=0.25 pct=%" {
		t.Errorf("printed = %q", m.printed)
	}
}

func TestCICODirectiveRanges(t *testing.T) {
	m, _, l := mustRun(t, `
const N = 4;
shared float A[N][N];
func main() {
    check_out_x A[1][0:N-1];
    check_in A[1][2];
    check_out_s A[0:1][1:2];
}
`)
	if len(m.directives) != 3 {
		t.Fatalf("directives = %+v", m.directives)
	}
	a10, _ := l.AddrOf("A", 1, 0)
	a13, _ := l.AddrOf("A", 1, 3)
	d := m.directives[0]
	if d.kind != parc.AnnCheckOutX || len(d.ranges) != 1 || d.ranges[0].Lo != a10 || d.ranges[0].Hi != a13 {
		t.Errorf("row range: %+v", d)
	}
	// 2-D range: one contiguous run per row.
	d = m.directives[2]
	if d.kind != parc.AnnCheckOutS || len(d.ranges) != 2 {
		t.Fatalf("2-D range: %+v", d)
	}
	a01, _ := l.AddrOf("A", 0, 1)
	a02, _ := l.AddrOf("A", 0, 2)
	a11, _ := l.AddrOf("A", 1, 1)
	if d.ranges[0] != (AddrRange{a01, a02}) || d.ranges[1].Lo != a11 {
		t.Errorf("2-D runs: %+v", d.ranges)
	}
}

func TestCICOClampsOutOfRange(t *testing.T) {
	m, _, l := mustRun(t, `
const N = 4;
shared float A[N];
func main() {
    check_out_x A[-3:99];
    check_in A[7:9];
}
`)
	if len(m.directives) != 2 {
		t.Fatalf("directives = %+v", m.directives)
	}
	a0, _ := l.AddrOf("A", 0)
	a3, _ := l.AddrOf("A", 3)
	if r := m.directives[0].ranges; len(r) != 1 || r[0] != (AddrRange{a0, a3}) {
		t.Errorf("clamped range: %+v", r)
	}
	if r := m.directives[1].ranges; r != nil {
		t.Errorf("fully out-of-range annotation produced %+v", r)
	}
}

func TestSharedScalar(t *testing.T) {
	_, s, l := mustRun(t, `
shared int counter;
func main() {
    counter = 5;
    counter += 2;
}
`)
	if got := loadInt(s, l, "counter"); got != 7 {
		t.Errorf("counter = %d", got)
	}
}

func TestPidAndNprocs(t *testing.T) {
	prog := parc.MustParse(`
shared int out[4];
func main() {
    out[pid()] = 100 + pid() * nprocs();
}
`)
	layout, _ := memory.New(prog, 32)
	store := NewStoreFor(layout)
	for node := 0; node < 4; node++ {
		m := &mockMachine{}
		if err := NewContext(prog, store, m, node, 4).Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		addr, _ := layout.AddrOf("out", i)
		if got := FromBits(store.Load(addr), false).I; got != int64(100+i*4) {
			t.Errorf("out[%d] = %d", i, got)
		}
	}
}

func TestRndDeterministicPerNode(t *testing.T) {
	src := `
shared float out[2];
func main() {
    out[pid()] = rnd();
}
`
	prog := parc.MustParse(src)
	layout, _ := memory.New(prog, 32)
	vals := make([]float64, 2)
	for round := 0; round < 2; round++ {
		store := NewStoreFor(layout)
		for node := 0; node < 2; node++ {
			if err := NewContext(prog, store, &mockMachine{}, node, 2).Run(); err != nil {
				t.Fatal(err)
			}
		}
		a0, _ := layout.AddrOf("out", 0)
		a1, _ := layout.AddrOf("out", 1)
		v0 := FromBits(store.Load(a0), true).F
		v1 := FromBits(store.Load(a1), true).F
		if v0 == v1 {
			t.Error("nodes produced identical random values")
		}
		if v0 < 0 || v0 >= 1 || v1 < 0 || v1 >= 1 {
			t.Errorf("rnd out of [0,1): %g %g", v0, v1)
		}
		if round == 0 {
			vals[0], vals[1] = v0, v1
		} else if vals[0] != v0 || vals[1] != v1 {
			t.Error("rnd not deterministic across runs")
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"index oob", `shared int a[4]; func main() { a[4] = 1; }`, "out of range"},
		{"negative index", `shared int a[4]; func main() { var i int = -1; a[i] = 1; }`, "out of range"},
		{"div zero", `shared int a[4]; func main() { var z int = 0; a[0] = 1 / z; }`, "division by zero"},
		{"mod zero", `shared int a[4]; func main() { var z int = 0; a[0] = 1 % z; }`, "modulo by zero"},
		{"mod float", `shared int a[4]; func main() { a[0] = int(1.5 % 2.0); }`, "integer"},
		{"zero step", `func main() { var s int = 0; for i = 0 to 3 step s { } }`, "zero step"},
		{"compound div zero", `shared int a[4]; func main() { var z int = 0; a[0] = 4; a[0] /= z; }`, "division by zero"},
		{"recursion", `func r() { r(); } func main() { r(); }`, "call depth"},
	}
	for _, c := range cases {
		_, _, _, err := run(t, c.src)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestWorkCharged(t *testing.T) {
	m, _, _ := mustRun(t, `
func main() {
    var acc int = 0;
    for i = 0 to 999 { acc += i; }
    barrier;
}
`)
	if m.work == 0 {
		t.Error("no local work charged")
	}
	// 1000 iterations at several units each.
	if m.work < 2000 {
		t.Errorf("work = %d, implausibly small", m.work)
	}
}

func TestShortCircuitSkipsSharedAccess(t *testing.T) {
	m, _, _ := mustRun(t, `
shared int flag;
func main() {
    var x int = 0;
    if x != 0 && flag == 1 { x = 1; }
    if x == 0 || flag == 1 { x = 2; }
}
`)
	if len(m.accesses) != 0 {
		t.Errorf("short-circuit evaluated shared operand: %+v", m.accesses)
	}
}

// TestOneProgramManyLayouts: a checked program carries no addresses, so
// runs that lay it out differently (here by block size) execute the same
// AST and the same compiled bytecode, each addressing through its own
// store's table. A store made from a bare size, with no layout, packs the
// variables from address 0.
func TestOneProgramManyLayouts(t *testing.T) {
	prog := parc.MustParse(`
shared int a[3];
shared int b;
shared int c[2];
func main() {
    a[2] = 7;
    b = a[2] + 1;
    c[1] = b + 1;
    check_in c[0:1];
}`)
	for _, engine := range []string{"vm", "tree"} {
		for _, blockSize := range []int{8, 32, 128} {
			layout, err := memory.New(prog, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			store := NewStoreFor(layout)
			m := &mockMachine{}
			ctx := NewContext(prog, store, m, 0, 1)
			run := ctx.Run
			if engine == "tree" {
				run = ctx.runTree
			}
			if err := run(); err != nil {
				t.Fatalf("%s, block size %d: %v", engine, blockSize, err)
			}
			if a, b, c := loadInt(store, layout, "a", 2), loadInt(store, layout, "b"), loadInt(store, layout, "c", 1); a != 7 || b != 8 || c != 9 {
				t.Errorf("%s, block size %d: a[2], b, c[1] = %d, %d, %d, want 7, 8, 9", engine, blockSize, a, b, c)
			}
			cBase := layout.Region("c").BaseAddr
			if cBase%uint64(blockSize) != 0 {
				t.Fatalf("c is not block-aligned at %d", cBase)
			}
			if len(m.directives) != 1 || len(m.directives[0].ranges) != 1 ||
				m.directives[0].ranges[0] != (AddrRange{Lo: cBase, Hi: cBase + parc.ElemSize}) {
				t.Errorf("%s, block size %d: directive ranges %+v, want c's two words at %d", engine, blockSize, m.directives, cBase)
			}
		}
	}

	bare := NewStore(6 * parc.ElemSize)
	if err := NewContext(prog, bare, &mockMachine{}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := bare.Words(), []uint64{0, 0, 7, 8, 0, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("bare store holds %v, want the variables packed: %v", got, want)
	}
}
