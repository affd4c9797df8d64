package interp

import (
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/memory"
	"cachier/internal/parc"
)

// poolSrc exercises every frame-pool compartment: kernel has named scalars
// (the cleared prefix), literal constants (materialized into the constant
// pool), temporaries, and a private array, and main calls it repeatedly so
// frames cycle through the per-function free-list.
const poolSrc = `
shared float out[4];
func kernel(n int) float {
    var acc float = 0.0;
    var buf float[8];
    for i = 0 to 7 { buf[i] = float(i) * 2.5; }
    for i = 1 to n { acc += buf[i % 8] + 3.25; }
    return acc;
}
func main() {
    var t float = 0.0;
    for r = 0 to 3 { t += kernel(16); }
    out[pid()] = t;
}
`

func compileFor(t testing.TB, src string) (*parc.Program, *progCode) {
	t.Helper()
	prog := parc.MustParse(src)
	if err := parc.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog, prog.Artifact(codeKey{}, func() any { return compileProgram(prog) }).(*progCode)
}

// checkFrameClean asserts the frame-pool reuse contract on a frame just
// handed out by acquire: the named-scalar prefix reads as zero words, the
// constant pool still holds exactly the compiled literal values, and private
// arrays are unbound but keep their cached backing storage.
func checkFrameClean(t *testing.T, co *fnCode, fr *vmFrame) {
	t.Helper()
	for i := 0; i < co.clearRegs; i++ {
		if fr.regs[i] != 0 {
			t.Errorf("%s: reg %d not cleared on reuse: %#x", co.fn.Name, i, fr.regs[i])
		}
	}
	for i, v := range co.poolVals {
		if got := fr.regs[int(co.poolBase)+i]; got != v {
			t.Errorf("%s: constant-pool reg %d corrupted: got %#x want %#x",
				co.fn.Name, int(co.poolBase)+i, got, v)
		}
	}
	for i := range fr.arrays {
		if fr.arrays[i].data != nil {
			t.Errorf("%s: private array %d still bound on reuse", co.fn.Name, i)
		}
	}
}

// TestFramePoolCleanSlate pins the vmFrame pooling contract directly:
// acquire a frame, scribble every mutable compartment, release it, and
// verify the next acquire hands the same frame back with the named-scalar
// prefix zeroed, the constant pool intact, and arrays unbound but with
// their backing capacity retained. A pooling bug here would leak one
// activation's register words into the next and silently corrupt results,
// so this must fail before any engine-level differential does.
func TestFramePoolCleanSlate(t *testing.T) {
	prog, pcm := compileFor(t, poolSrc)
	co := pcm.fns[prog.FuncMap["kernel"]]
	if co == nil {
		t.Fatal("kernel did not compile")
	}
	if co.clearRegs == 0 || len(co.poolVals) == 0 || co.narrs == 0 {
		t.Fatalf("test program misses a pool compartment: clearRegs=%d poolVals=%d narrs=%d",
			co.clearRegs, len(co.poolVals), co.narrs)
	}
	layout, err := memory.New(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(prog, NewStoreFor(layout), &mockMachine{}, 0, 1)
	c.pools = make([][]*vmFrame, len(pcm.fns))

	fr := c.acquire(co)
	for i, v := range co.poolVals {
		if got := fr.regs[int(co.poolBase)+i]; got != v {
			t.Fatalf("fresh frame constant-pool reg %d: got %#x want %#x", int(co.poolBase)+i, got, v)
		}
	}
	// Scribble the cleared prefix and the temporaries, and bind a private
	// array; the constant pool stays untouched, as in real execution (the
	// compiler never emits a write to those registers), so release is
	// entitled to preserve rather than restore it.
	for i := 0; i < co.clearRegs; i++ {
		fr.regs[i] = FloatVal(float64(i) + 0.5).Bits()
	}
	for i := int(co.poolBase) + len(co.poolVals); i < co.nregs; i++ {
		fr.regs[i] = uint64(i) * 3
	}
	for i := range fr.arrays {
		data := make([]uint64, 6)
		for j := range data {
			data[j] = uint64(j + 1)
		}
		fr.arrays[i] = vmArray{data: data, cache: data}
	}
	c.release(co, fr)

	got := c.acquire(co)
	if got != fr {
		t.Fatal("acquire did not reuse the released frame")
	}
	checkFrameClean(t, co, got)
	for i := range got.arrays {
		if cap(got.arrays[i].cache) == 0 {
			t.Errorf("private array %d lost its cached backing storage", i)
		}
	}
}

// parkEveryOther is a yielder that parks its lane at every second probe, so
// a run under it suspends and resumes at about half of its Machine calls.
type parkEveryOther struct{ probes int }

func (y *parkEveryOther) LaneRunning(int) bool {
	y.probes++
	return y.probes%2 == 0
}

func (y *parkEveryOther) LaneSwitch(int) {}

func (y *parkEveryOther) LaneView(int) (coherence.LaneView, bool) {
	return coherence.LaneView{}, false
}

// TestFramePoolCleanAfterRun runs the same program to completion, once
// straight through (Run: no yielder, never suspended) and once stepped
// under a yielder that keeps parking the lane, then audits every frame left
// in every pool: the release contract must hold on every path, including
// opRet and the final flush re-entered after a suspension.
func TestFramePoolCleanAfterRun(t *testing.T) {
	for _, mode := range []struct {
		name    string
		stepped bool
	}{{"vm", false}, {"lane", true}} {
		t.Run(mode.name, func(t *testing.T) {
			prog, pcm := compileFor(t, poolSrc)
			layout, err := memory.New(prog, 4)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewContext(prog, NewStoreFor(layout), &mockMachine{}, 0, 1)
			if mode.stepped {
				y := &parkEveryOther{}
				lv, err := ctx.NewLaneVM(y)
				if err != nil {
					t.Fatal(err)
				}
				resumes := 0
				for lv.Resume() != LaneDone {
					resumes++
				}
				if err := lv.Err(); err != nil {
					t.Fatal(err)
				}
				if resumes == 0 {
					t.Fatal("the yielder never suspended the lane")
				}
			} else if err := ctx.Run(); err != nil {
				t.Fatal(err)
			}
			audited := 0
			for _, co := range pcm.fns {
				for _, fr := range ctx.pools[co.idx] {
					checkFrameClean(t, co, fr)
					audited++
				}
			}
			if audited == 0 {
				t.Fatal("no pooled frames to audit")
			}
		})
	}
}
