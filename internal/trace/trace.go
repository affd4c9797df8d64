// Package trace defines the execution-trace model and file format that links
// the simulator to Cachier, mirroring the paper's Figure 3: per-epoch
// sections carrying each node's barrier PC and barrier virtual time followed
// by the epoch's shared-data cache misses (type, address, PC, node). The
// trace also carries the labelling information used to map raw addresses
// back to program data structures (Section 4.3).
//
// As in the paper, only accesses that miss in the (barrier-flushed)
// shared-data caches appear, there is no ordering among misses within an
// epoch, and epochs are ordered by barrier virtual time.
package trace

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Kind is the outcome of one shared-data access, as the coherence protocol
// reports it and the observability layer counts it. A trace records only the
// three miss kinds, by their values and letters; a Hit never appears in one.
type Kind int

// Access outcomes. A write fault is a write that found the block cached
// read-only (Section 4, "trace processing").
const (
	ReadMiss Kind = iota
	WriteMiss
	WriteFault
	Hit
	NumKinds // the number of access outcomes
)

func (k Kind) String() string {
	switch k {
	case ReadMiss:
		return "r"
	case WriteMiss:
		return "w"
	case WriteFault:
		return "f"
	case Hit:
		return "h"
	}
	return "?"
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "r":
		return ReadMiss, nil
	case "w":
		return WriteMiss, nil
	case "f":
		return WriteFault, nil
	}
	return 0, fmt.Errorf("trace: unknown miss kind %q", s)
}

// Miss is one recorded shared-data cache miss.
type Miss struct {
	Kind Kind
	Addr uint64 // element byte address
	PC   int    // statement ID of the referencing statement
	Node int
}

// Epoch is the trace section between two global barriers.
type Epoch struct {
	Index     int
	BarrierPC int      // statement ID of the barrier ending this epoch; -1 for program end
	VT        []uint64 // per-node barrier virtual times (cycles)
	Misses    []Miss
}

// Label names a contiguous shared-memory region, standing in for the
// paper's labelling macro.
type Label struct {
	Name string
	Base uint64
	Elem int   // element size in bytes
	Dims []int // per-dimension element counts (empty for scalars)
}

// Trace is a complete program execution trace.
type Trace struct {
	Nodes     int
	BlockSize int
	Labels    []Label
	Epochs    []Epoch
}

// Builder accumulates a trace during simulation, deduplicating misses within
// an epoch as the paper's per-epoch hash table does, but with no table: the
// open epoch's misses are appended to one buffer as they come, and compacted
// when the epoch ends and whenever the buffer is full, so what is held stays
// proportional to the distinct records. A compaction sorts only what was
// appended since the last one and merges it into the sorted prefix. A closed
// epoch keeps an exact-size copy, in Miss.Compare order.
type Builder struct {
	tr  Trace
	cur *Epoch // the open epoch; nil once the final one is closed
	// buf holds the open epoch's misses, reused from epoch to epoch:
	// buf[:sorted] is sorted and distinct, the rest as appended. merge is
	// the scratch a compaction merges into; it and buf trade places.
	buf, merge []Miss
	sorted     int
}

// NewBuilder starts a trace for the given machine geometry.
func NewBuilder(nodes, blockSize int, labels []Label) *Builder {
	b := &Builder{tr: Trace{Nodes: nodes, BlockSize: blockSize, Labels: labels}}
	b.startEpoch()
	return b
}

func (b *Builder) startEpoch() {
	b.tr.Epochs = append(b.tr.Epochs, Epoch{
		Index: len(b.tr.Epochs),
		VT:    make([]uint64, b.tr.Nodes),
	})
	b.cur = &b.tr.Epochs[len(b.tr.Epochs)-1]
	b.buf = b.buf[:0]
	b.sorted = 0
}

// AddMiss records a miss in the current epoch. Duplicate
// (kind, addr, pc, node) tuples are dropped, by the epoch's end at the
// latest.
func (b *Builder) AddMiss(kind Kind, addr uint64, pc, node int) {
	if len(b.buf) == cap(b.buf) {
		// Full: drop the duplicates first, and grow only if that left it more
		// than half full, so each compaction is paid for by as many appends.
		b.compact()
		if 2*len(b.buf) >= cap(b.buf) {
			b.buf = slices.Grow(b.buf, max(len(b.buf), 8))
		}
	}
	b.buf = append(b.buf, Miss{Kind: kind, Addr: addr, PC: pc, Node: node})
}

// compact leaves the buffer sorted (see Compare) and without duplicates:
// it sorts the tail appended since the last compaction and merges it into
// the sorted prefix.
func (b *Builder) compact() {
	head, tail := b.buf[:b.sorted], b.buf[b.sorted:]
	slices.SortFunc(tail, Miss.Compare)
	tail = slices.Compact(tail)
	if len(head) == 0 {
		b.buf = tail
		b.sorted = len(tail)
		return
	}
	out := b.merge[:0]
	for len(head) > 0 && len(tail) > 0 {
		switch c := head[0].Compare(tail[0]); {
		case c < 0:
			out, head = append(out, head[0]), head[1:]
		case c > 0:
			out, tail = append(out, tail[0]), tail[1:]
		default:
			out, head, tail = append(out, head[0]), head[1:], tail[1:]
		}
	}
	out = append(append(out, head...), tail...)
	b.merge, b.buf = b.buf[:0], out
	b.sorted = len(out)
}

// flush gives the current epoch the buffer's distinct misses: nil for none,
// as Read leaves an epoch without any.
func (b *Builder) flush() {
	b.compact()
	b.cur.Misses = append([]Miss(nil), b.buf...)
}

// EndEpoch closes the current epoch at a barrier: barrierPC is the barrier
// statement's ID (-1 for program termination) and vt the per-node arrival
// times. A new epoch begins unless final is true.
func (b *Builder) EndEpoch(barrierPC int, vt []uint64, final bool) {
	b.cur.BarrierPC = barrierPC
	copy(b.cur.VT, vt)
	b.flush()
	b.cur = nil
	if !final {
		b.startEpoch()
	}
}

// Trace returns the built trace; an epoch still open is brought up to date
// first.
func (b *Builder) Trace() *Trace {
	if b.cur != nil {
		b.flush()
	}
	return &b.tr
}

// Compare orders misses by node, kind, address, then PC: the order Builder
// leaves an epoch in, and the one core's trace processing groups by without
// re-sorting. Within an epoch the order carries no timing meaning.
func (m Miss) Compare(o Miss) int {
	if c := cmp.Compare(m.Node, o.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(m.Kind, o.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(m.Addr, o.Addr); c != 0 {
		return c
	}
	return cmp.Compare(m.PC, o.PC)
}

// Digest is the sha256 of a binary fold of every field of t, in order:
// traces with equal digests are equal to everything that reads them, so
// cachierd keys an annotation by its trace's digest. Every number is a
// varint and every slice and string is preceded by its length, so no two
// traces that differ fold to the same bytes. The fold goes through a
// buffer, not through the text codec (Write), which costs over ten times
// as much.
func (t *Trace) Digest() [32]byte {
	h := sha256.New()
	var arr [512]byte
	buf := arr[:0]
	flush := func() { h.Write(buf); buf = buf[:0] }
	fold := func(vs ...int64) {
		for _, v := range vs {
			if len(buf) > len(arr)-binary.MaxVarintLen64 {
				flush()
			}
			buf = binary.AppendVarint(buf, v)
		}
	}
	fold(int64(t.Nodes), int64(t.BlockSize), int64(len(t.Labels)))
	for _, l := range t.Labels {
		fold(int64(len(l.Name)))
		flush()
		io.WriteString(h, l.Name)
		fold(int64(l.Base), int64(l.Elem), int64(len(l.Dims)))
		for _, d := range l.Dims {
			fold(int64(d))
		}
	}
	fold(int64(len(t.Epochs)))
	for _, e := range t.Epochs {
		fold(int64(e.Index), int64(e.BarrierPC), int64(len(e.VT)))
		for _, vt := range e.VT {
			fold(int64(vt))
		}
		fold(int64(len(e.Misses)))
		for _, m := range e.Misses {
			fold(int64(m.Kind), int64(m.Addr), int64(m.PC), int64(m.Node))
		}
	}
	flush()
	return [32]byte(h.Sum(nil))
}

// Write serializes the trace in the line-oriented text format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cachier-trace v1\n")
	fmt.Fprintf(bw, "nodes %d\n", t.Nodes)
	fmt.Fprintf(bw, "block %d\n", t.BlockSize)
	for _, l := range t.Labels {
		fmt.Fprintf(bw, "label %s base %d elem %d dims", l.Name, l.Base, l.Elem)
		for _, d := range l.Dims {
			fmt.Fprintf(bw, " %d", d)
		}
		fmt.Fprintln(bw)
	}
	for _, e := range t.Epochs {
		fmt.Fprintf(bw, "epoch %d barrierpc %d\n", e.Index, e.BarrierPC)
		for n, vt := range e.VT {
			fmt.Fprintf(bw, "vt %d %d\n", n, vt)
		}
		for _, m := range e.Misses {
			fmt.Fprintf(bw, "miss %s %d %d %d\n", m.Kind, m.Addr, m.PC, m.Node)
		}
		fmt.Fprintln(bw, "end")
	}
	return bw.Flush()
}

// maxNodes bounds a trace's node count, so that a malformed header cannot
// size every epoch's virtual-time vector past memory. It is 64 times the
// widest machine cachierd simulates (1 024 nodes).
const maxNodes = 1 << 16

// Read parses a trace written by Write. The header must give a node count in
// [1, maxNodes], once and before the first epoch, and a block size that is a
// positive power of two.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line != "" {
				return line, true
			}
		}
		return "", false
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	line, ok := next()
	if !ok || line != "cachier-trace v1" {
		return nil, fail("missing header")
	}
	t := &Trace{}
	for {
		line, ok = next()
		if !ok {
			break
		}
		f := strings.Fields(line)
		switch f[0] {
		case "nodes":
			if len(f) != 2 {
				return nil, fail("bad nodes line")
			}
			if t.Nodes != 0 || len(t.Epochs) > 0 {
				return nil, fail("nodes line repeated or after an epoch")
			}
			if _, err := fmt.Sscanf(f[1], "%d", &t.Nodes); err != nil {
				return nil, fail("bad node count %q", f[1])
			}
			if t.Nodes <= 0 || t.Nodes > maxNodes {
				return nil, fail("node count %d out of range [1,%d]", t.Nodes, maxNodes)
			}
		case "block":
			if len(f) != 2 {
				return nil, fail("bad block line")
			}
			if _, err := fmt.Sscanf(f[1], "%d", &t.BlockSize); err != nil {
				return nil, fail("bad block size %q", f[1])
			}
			if t.BlockSize <= 0 || t.BlockSize&(t.BlockSize-1) != 0 {
				return nil, fail("block size %d is not a positive power of two", t.BlockSize)
			}
		case "label":
			// label NAME base B elem E dims D1 D2 ...
			if len(f) < 7 || f[2] != "base" || f[4] != "elem" || f[6] != "dims" {
				return nil, fail("bad label line %q", line)
			}
			l := Label{Name: f[1]}
			if _, err := fmt.Sscanf(f[3], "%d", &l.Base); err != nil {
				return nil, fail("bad label base %q", f[3])
			}
			if _, err := fmt.Sscanf(f[5], "%d", &l.Elem); err != nil {
				return nil, fail("bad label elem %q", f[5])
			}
			for _, ds := range f[7:] {
				var d int
				if _, err := fmt.Sscanf(ds, "%d", &d); err != nil {
					return nil, fail("bad label dim %q", ds)
				}
				l.Dims = append(l.Dims, d)
			}
			t.Labels = append(t.Labels, l)
		case "epoch":
			if len(f) != 4 || f[2] != "barrierpc" {
				return nil, fail("bad epoch line %q", line)
			}
			if t.Nodes == 0 {
				return nil, fail("epoch before the nodes line")
			}
			e := Epoch{VT: make([]uint64, t.Nodes)}
			if _, err := fmt.Sscanf(f[1], "%d", &e.Index); err != nil {
				return nil, fail("bad epoch index %q", f[1])
			}
			if _, err := fmt.Sscanf(f[3], "%d", &e.BarrierPC); err != nil {
				return nil, fail("bad barrier pc %q", f[3])
			}
			for {
				line, ok = next()
				if !ok {
					return nil, fail("unterminated epoch")
				}
				if line == "end" {
					break
				}
				ef := strings.Fields(line)
				switch ef[0] {
				case "vt":
					var n int
					var vt uint64
					if len(ef) != 3 {
						return nil, fail("bad vt line %q", line)
					}
					if _, err := fmt.Sscanf(ef[1], "%d", &n); err != nil {
						return nil, fail("bad vt node %q", ef[1])
					}
					if _, err := fmt.Sscanf(ef[2], "%d", &vt); err != nil {
						return nil, fail("bad vt value %q", ef[2])
					}
					if n < 0 || n >= t.Nodes {
						return nil, fail("vt node %d out of range", n)
					}
					e.VT[n] = vt
				case "miss":
					if len(ef) != 5 {
						return nil, fail("bad miss line %q", line)
					}
					k, err := parseKind(ef[1])
					if err != nil {
						return nil, fail("%v", err)
					}
					var m Miss
					m.Kind = k
					if _, err := fmt.Sscanf(ef[2], "%d", &m.Addr); err != nil {
						return nil, fail("bad miss addr %q", ef[2])
					}
					if _, err := fmt.Sscanf(ef[3], "%d", &m.PC); err != nil {
						return nil, fail("bad miss pc %q", ef[3])
					}
					if _, err := fmt.Sscanf(ef[4], "%d", &m.Node); err != nil {
						return nil, fail("bad miss node %q", ef[4])
					}
					if m.Node < 0 || m.Node >= t.Nodes {
						return nil, fail("miss node %d out of range", m.Node)
					}
					e.Misses = append(e.Misses, m)
				default:
					return nil, fail("unexpected line %q in epoch", line)
				}
			}
			t.Epochs = append(t.Epochs, e)
		default:
			return nil, fail("unexpected line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Nodes == 0 {
		return nil, fmt.Errorf("trace: missing nodes header")
	}
	if t.BlockSize == 0 {
		return nil, fmt.Errorf("trace: missing block header")
	}
	return t, nil
}
