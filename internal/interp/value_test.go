package interp

import (
	"math"
	"testing"
	"testing/quick"

	"cachier/internal/memory"
	"cachier/internal/parc"
)

// layoutT keeps the helper signature readable.
type layoutT = memory.Layout

func newLayout(prog *parc.Program) (*layoutT, error) { return memory.New(prog, 32) }

func TestValueConversions(t *testing.T) {
	if IntVal(7).AsFloat() != 7.0 || IntVal(7).AsInt() != 7 {
		t.Error("IntVal conversions")
	}
	if FloatVal(2.9).AsInt() != 2 || FloatVal(-2.9).AsInt() != -2 {
		t.Error("float truncation toward zero")
	}
	if !IntVal(1).Truthy() || IntVal(0).Truthy() {
		t.Error("int truthiness")
	}
	if !FloatVal(0.5).Truthy() || FloatVal(0).Truthy() {
		t.Error("float truthiness")
	}
}

func TestBitsRoundTripProperty(t *testing.T) {
	fInt := func(v int64) bool {
		return FromBits(IntVal(v).Bits(), false).I == v
	}
	if err := quick.Check(fInt, nil); err != nil {
		t.Error(err)
	}
	fFloat := func(v float64) bool {
		if math.IsNaN(v) {
			return math.IsNaN(FromBits(FloatVal(v).Bits(), true).F)
		}
		return FromBits(FloatVal(v).Bits(), true).F == v
	}
	if err := quick.Check(fFloat, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerce(t *testing.T) {
	if v := coerce(FloatVal(3.7), parc.IntType); v.Float || v.I != 3 {
		t.Errorf("coerce float->int: %+v", v)
	}
	if v := coerce(IntVal(3), parc.FloatType); !v.Float || v.F != 3.0 {
		t.Errorf("coerce int->float: %+v", v)
	}
}

func TestStoreAddressing(t *testing.T) {
	s := NewStore(256)
	s.StoreWord(0, 42)
	s.StoreWord(248, 99)
	if s.Load(0) != 42 || s.Load(248) != 99 {
		t.Error("store round trip")
	}
	// Element-aligned addresses within a word map to that word.
	if s.Load(0) != s.Load(0) {
		t.Error("unstable load")
	}
}

func TestRuntimeErrorFormat(t *testing.T) {
	e := &RuntimeError{Node: 3, Pos: parc.Pos{Line: 7, Col: 2}, Msg: "boom"}
	if got := e.Error(); got != "node 3: 7:2: boom" {
		t.Errorf("error = %q", got)
	}
	e2 := &RuntimeError{Node: 1, PC: 9, Msg: "x"}
	if got := e2.Error(); got != "node 1: stmt 9: x" {
		t.Errorf("error = %q", got)
	}
}

// TestInterpArithmeticMatchesGo: random integer expressions evaluate the
// same in ParC as in Go.
func TestInterpArithmeticMatchesGo(t *testing.T) {
	f := func(a, b int16, pick uint8) bool {
		x, y := int64(a), int64(b)
		var want int64
		var op string
		switch pick % 5 {
		case 0:
			op, want = "+", x+y
		case 1:
			op, want = "-", x-y
		case 2:
			op, want = "*", x*y
		case 3:
			if y == 0 {
				return true
			}
			op, want = "/", x/y
		case 4:
			if y == 0 {
				return true
			}
			op, want = "%", x%y
		}
		src := `
shared int out;
func main() {
    var a int = ` + itoa(x) + `;
    var b int = ` + itoa(y) + `;
    out = a ` + op + ` b;
}
`
		prog, err := parc.Parse(src)
		if err != nil {
			return false
		}
		_, store, layout, err := runProg(prog)
		if err != nil {
			return false
		}
		addr, _ := layout.AddrOf("out")
		return FromBits(store.Load(addr), false).I == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// runProg executes a parsed program on a single mock-machine processor.
func runProg(prog *parc.Program) (*mockMachine, *Store, *layoutT, error) {
	layout, err := newLayout(prog)
	if err != nil {
		return nil, nil, nil, err
	}
	store := NewStoreFor(layout)
	m := &mockMachine{}
	err = NewContext(prog, store, m, 0, 1).Run()
	return m, store, layout, err
}

func itoa(v int64) string {
	if v < 0 {
		return "0 - " + itoa(-v)
	}
	digits := "0123456789"
	if v < 10 {
		return string(digits[v])
	}
	return itoa(v/10) + string(digits[v%10])
}
