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
