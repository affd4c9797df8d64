// Package interp executes ParC programs. Each simulated processor runs the
// SPMD entry point in its own interpreter context; every shared-memory
// reference, CICO directive, barrier, and lock operation is reported to a
// Machine (implemented by the simulator), which charges costs and schedules
// processors. Shared values live in a Store shared by all contexts; the
// simulator guarantees only one context runs at a time, so the interpreter
// needs no internal locking.
package interp

import (
	"fmt"
	"math"

	"cachier/internal/memory"
	"cachier/internal/parc"
)

// Value is a ParC runtime value: an int64 or a float64.
type Value struct {
	Float bool
	I     int64
	F     float64
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{I: i} }

// FloatVal makes a float value.
func FloatVal(f float64) Value { return Value{Float: true, F: f} }

// AsFloat returns the value as a float64, converting ints.
func (v Value) AsFloat() float64 {
	if v.Float {
		return v.F
	}
	return float64(v.I)
}

// AsInt returns the value as an int64, truncating floats.
func (v Value) AsInt() int64 {
	if v.Float {
		return int64(v.F)
	}
	return v.I
}

// Truthy reports whether the value is nonzero.
func (v Value) Truthy() bool {
	if v.Float {
		return v.F != 0
	}
	return v.I != 0
}

// Bits returns the value's 64-bit memory representation.
func (v Value) Bits() uint64 {
	if v.Float {
		return math.Float64bits(v.F)
	}
	return uint64(v.I)
}

// FromBits decodes a 64-bit memory word as the given element type.
func FromBits(bits uint64, float bool) Value {
	if float {
		return FloatVal(math.Float64frombits(bits))
	}
	return IntVal(int64(bits))
}

func (v Value) String() string {
	if v.Float {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", v.I)
}

// coerce converts v to the given base type (used on assignment).
func coerce(v Value, base parc.BaseType) Value {
	if base == parc.FloatType {
		return FloatVal(v.AsFloat())
	}
	return IntVal(v.AsInt())
}

// The operations below are ParC's value semantics. The tree-walker computes
// every expression with them; the lane VM, whose registers the compiler
// types, needs them only where a type depends on a value (compile.go, kDyn).

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// compare orders two values: as floats when either is one (NaN compares
// equal to everything, as neither less nor greater), else as ints.
func compare(x, y Value) int {
	if x.Float || y.Float {
		a, b := x.AsFloat(), y.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	switch {
	case x.I < y.I:
		return -1
	case x.I > y.I:
		return 1
	}
	return 0
}

// binaryOp applies a binary operator other than && and ||: in floats when
// either operand is one, else in ints. msg is the runtime error's text when
// the operation fails.
func binaryOp(op parc.TokKind, x, y Value) (v Value, msg string) {
	fl := x.Float || y.Float
	switch op {
	case parc.TokPlus:
		if fl {
			return FloatVal(x.AsFloat() + y.AsFloat()), ""
		}
		return IntVal(x.I + y.I), ""
	case parc.TokMinus:
		if fl {
			return FloatVal(x.AsFloat() - y.AsFloat()), ""
		}
		return IntVal(x.I - y.I), ""
	case parc.TokStar:
		if fl {
			return FloatVal(x.AsFloat() * y.AsFloat()), ""
		}
		return IntVal(x.I * y.I), ""
	case parc.TokSlash:
		if fl {
			return FloatVal(x.AsFloat() / y.AsFloat()), ""
		}
		if y.I == 0 {
			return Value{}, "integer division by zero"
		}
		return IntVal(x.I / y.I), ""
	case parc.TokPercent:
		if fl {
			return Value{}, "% requires integer operands"
		}
		if y.I == 0 {
			return Value{}, "integer modulo by zero"
		}
		return IntVal(x.I % y.I), ""
	case parc.TokEq:
		return boolVal(compare(x, y) == 0), ""
	case parc.TokNe:
		return boolVal(compare(x, y) != 0), ""
	case parc.TokLt:
		return boolVal(compare(x, y) < 0), ""
	case parc.TokLe:
		return boolVal(compare(x, y) <= 0), ""
	case parc.TokGt:
		return boolVal(compare(x, y) > 0), ""
	case parc.TokGe:
		return boolVal(compare(x, y) >= 0), ""
	}
	return Value{}, "bad binary operator"
}

func negValue(x Value) Value {
	if x.Float {
		return FloatVal(-x.F)
	}
	return IntVal(-x.I)
}

// minValue and maxValue return the winning argument unchanged, type and
// all: min of an int and a float is whichever compares smaller.
func minValue(x, y Value) Value {
	if compare(x, y) <= 0 {
		return x
	}
	return y
}

func maxValue(x, y Value) Value {
	if compare(x, y) >= 0 {
		return x
	}
	return y
}

func absValue(x Value) Value {
	if x.Float {
		return FloatVal(math.Abs(x.F))
	}
	if x.I < 0 {
		return IntVal(-x.I)
	}
	return x
}

// applyOp combines the current value with rhs under the assignment operator,
// coercing the result to the destination's type.
func applyOp(cur Value, op parc.AssignOp, rhs Value, destFloat bool) Value {
	var out Value
	switch op {
	case parc.OpSet:
		out = rhs
	case parc.OpAdd:
		if cur.Float || rhs.Float {
			out = FloatVal(cur.AsFloat() + rhs.AsFloat())
		} else {
			out = IntVal(cur.I + rhs.I)
		}
	case parc.OpSub:
		if cur.Float || rhs.Float {
			out = FloatVal(cur.AsFloat() - rhs.AsFloat())
		} else {
			out = IntVal(cur.I - rhs.I)
		}
	case parc.OpMul:
		if cur.Float || rhs.Float {
			out = FloatVal(cur.AsFloat() * rhs.AsFloat())
		} else {
			out = IntVal(cur.I * rhs.I)
		}
	case parc.OpDiv:
		// Integer division by zero is rejected by execAssign before the
		// value reaches here; the int branch guards against it anyway.
		if cur.Float || rhs.Float {
			out = FloatVal(cur.AsFloat() / rhs.AsFloat())
		} else if rhs.I == 0 {
			out = IntVal(0)
		} else {
			out = IntVal(cur.I / rhs.I)
		}
	}
	if destFloat {
		return FloatVal(out.AsFloat())
	}
	return IntVal(out.AsInt())
}

// Store holds the values of all shared variables, addressed by byte address
// (element-aligned). Coherence and cost are modelled separately by the
// memory system; the Store is the simulator's "main memory + caches" value
// state, valid because the simulated machine is sequentially consistent at
// scheduler granularity.
type Store struct {
	words []uint64
	// bases[i] is where this run's layout put the shared variable with
	// parc.SharedDecl.Index i; the checked program carries no addresses.
	bases []uint64
}

// NewStore allocates a store covering totalBytes of address space with no
// layout, for runs with no memory system behind them: a context on it packs
// the shared variables from address 0. Simulations use NewStoreFor.
func NewStore(totalBytes uint64) *Store {
	return &Store{words: make([]uint64, (totalBytes+parc.ElemSize-1)/parc.ElemSize)}
}

// NewStoreFor allocates the store for one run under the given layout.
func NewStoreFor(layout *memory.Layout) *Store {
	s := NewStore(layout.TotalBytes())
	s.bases = make([]uint64, len(layout.Regions))
	for i, r := range layout.Regions {
		s.bases[i] = r.BaseAddr
	}
	return s
}

// Load reads the element word at addr.
func (s *Store) Load(addr uint64) uint64 { return s.words[addr/parc.ElemSize] }

// StoreWord writes the element word at addr.
func (s *Store) StoreWord(addr uint64, bits uint64) { s.words[addr/parc.ElemSize] = bits }

// Words exposes the store's backing array, one uint64 per element word
// (index addr/parc.ElemSize), for callers that compare or dump whole memory
// images; they must follow the same single-active-writer discipline as
// Load/StoreWord.
func (s *Store) Words() []uint64 { return s.words }

// RuntimeError is an error raised during ParC execution, carrying the
// processor, source position, and statement ID where it occurred.
type RuntimeError struct {
	Node int
	Pos  parc.Pos
	PC   int
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("node %d: %s: %s", e.Node, e.Pos, e.Msg)
	}
	return fmt.Sprintf("node %d: stmt %d: %s", e.Node, e.PC, e.Msg)
}
