// Package memory lays out a ParC program's shared variables in the simulated
// global address space and maps addresses back to variables and element
// indices. Regions are block-aligned so that false sharing can only occur
// between elements of the same array, never between unrelated variables.
//
// The labelled-region facility stands in for the paper's memory-labelling
// macro (Section 4.3): "The programmer uses a macro to label a continuous
// region of shared-memory with a name." In ParC the label is part of the
// shared declaration; unlabelled variables fall back to their declared name.
package memory

import (
	"fmt"
	"sort"

	"cachier/internal/cache"
	"cachier/internal/parc"
	"cachier/internal/trace"
)

// Region describes one shared variable's placement in the address space.
type Region struct {
	Name     string        // declared name
	Label    string        // label if given, else Name
	Base     parc.BaseType // declared element type
	BaseAddr uint64        // first byte, block-aligned
	DimSizes []int         // per-dimension element counts; empty for scalars
	Elems    int           // total element count
	Bytes    uint64        // total size in bytes
}

// End returns the first byte past the region.
func (r *Region) End() uint64 { return r.BaseAddr + r.Bytes }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.BaseAddr && addr < r.End()
}

// Layout is the address-space assignment for a program's shared variables.
type Layout struct {
	BlockSize int
	Regions   []*Region
	byName    map[string]*Region
	total     uint64
}

// New computes a layout for the program's shared declarations, aligning each
// region to blockSize. Regions[i] places prog.Shareds[i]; the program itself
// is only read, so any number of runs may lay out one checked program at
// once, each with its own block size.
func New(prog *parc.Program, blockSize int) (*Layout, error) {
	if err := cache.CheckBlockSize(blockSize); err != nil {
		return nil, fmt.Errorf("memory: %w", err)
	}
	l := &Layout{
		BlockSize: blockSize,
		byName:    make(map[string]*Region),
	}
	var next uint64 = uint64(blockSize) // keep address 0 unused as a sentinel
	for _, d := range prog.Shareds {
		label := d.Label
		if label == "" {
			label = d.Name
		}
		r := &Region{
			Name:     d.Name,
			Label:    label,
			Base:     d.Base,
			BaseAddr: next,
			DimSizes: append([]int(nil), d.DimSizes...),
			Elems:    d.Size,
			Bytes:    uint64(d.Size) * parc.ElemSize,
		}
		l.Regions = append(l.Regions, r)
		l.byName[d.Name] = r
		next = alignUp(next+r.Bytes, uint64(blockSize))
		// The checker bounds each array; many arrays each under the bound
		// must not add up past it either.
		if next > parc.MaxArrayBytes {
			return nil, fmt.Errorf("memory: shared data through %q is larger than the limit of %d bytes", d.Name, parc.MaxArrayBytes)
		}
	}
	l.total = next
	return l, nil
}

// Labels returns the regions as the labels a trace carries (Fig. 3).
func (l *Layout) Labels() []trace.Label {
	var out []trace.Label
	for _, r := range l.Regions {
		out = append(out, trace.Label{Name: r.Label, Base: r.BaseAddr, Elem: parc.ElemSize, Dims: append([]int(nil), r.DimSizes...)})
	}
	return out
}

func alignUp(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }

// TotalBytes returns the size of the laid-out shared address space.
func (l *Layout) TotalBytes() uint64 { return l.total }

// Region returns the region for a shared variable name, or nil.
func (l *Layout) Region(name string) *Region { return l.byName[name] }

// AddrOf returns the byte address of an element given its indices (row-major
// order, as in the paper's worked examples).
func (l *Layout) AddrOf(name string, indices ...int) (uint64, error) {
	r := l.byName[name]
	if r == nil {
		return 0, fmt.Errorf("memory: no shared variable %q", name)
	}
	return r.AddrOf(indices...)
}

// AddrOf returns the byte address of an element of the region.
func (r *Region) AddrOf(indices ...int) (uint64, error) {
	if len(indices) != len(r.DimSizes) {
		return 0, fmt.Errorf("memory: %s has rank %d, got %d indices", r.Name, len(r.DimSizes), len(indices))
	}
	off := 0
	for d, ix := range indices {
		if ix < 0 || ix >= r.DimSizes[d] {
			return 0, fmt.Errorf("memory: index %d out of range [0,%d) in dimension %d of %s",
				ix, r.DimSizes[d], d, r.Name)
		}
		off = off*r.DimSizes[d] + ix
	}
	return r.BaseAddr + uint64(off)*parc.ElemSize, nil
}

// IndexOf converts an address inside the region back to element indices.
func (r *Region) IndexOf(addr uint64) ([]int, error) {
	return r.IndexInto(addr, nil)
}

// IndexInto is IndexOf writing into buf when it has sufficient capacity, so
// callers converting many addresses can reuse one allocation. The returned
// slice aliases buf in that case.
func (r *Region) IndexInto(addr uint64, buf []int) ([]int, error) {
	if !r.Contains(addr) {
		return nil, fmt.Errorf("memory: address %#x not in region %s", addr, r.Name)
	}
	off := int((addr - r.BaseAddr) / parc.ElemSize)
	if len(r.DimSizes) == 0 {
		return nil, nil
	}
	var out []int
	if cap(buf) >= len(r.DimSizes) {
		out = buf[:len(r.DimSizes)]
	} else {
		out = make([]int, len(r.DimSizes))
	}
	for d := len(r.DimSizes) - 1; d >= 0; d-- {
		out[d] = off % r.DimSizes[d]
		off /= r.DimSizes[d]
	}
	return out, nil
}

// RegionOf returns the region containing the address, or nil for addresses
// outside every region (including padding between regions).
func (l *Layout) RegionOf(addr uint64) *Region {
	i := sort.Search(len(l.Regions), func(i int) bool {
		return l.Regions[i].End() > addr
	})
	if i >= len(l.Regions) || !l.Regions[i].Contains(addr) {
		return nil
	}
	return l.Regions[i]
}

// Resolve maps an address to its region and element indices. ok is false for
// addresses outside every region (including padding between regions).
func (l *Layout) Resolve(addr uint64) (r *Region, indices []int, ok bool) {
	r = l.RegionOf(addr)
	if r == nil {
		return nil, nil, false
	}
	ix, err := r.IndexOf(addr)
	if err != nil {
		return nil, nil, false
	}
	return r, ix, true
}

// BlockOf returns the block number containing addr.
func (l *Layout) BlockOf(addr uint64) uint64 { return addr / uint64(l.BlockSize) }

// BlockAddr returns the first byte address of a block number.
func (l *Layout) BlockAddr(block uint64) uint64 { return block * uint64(l.BlockSize) }

// ElemsPerBlock returns b, the number of array elements per cache block
// (4 with the default 32-byte blocks, as in the paper).
func (l *Layout) ElemsPerBlock() int { return l.BlockSize / parc.ElemSize }
