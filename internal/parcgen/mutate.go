package parcgen

import (
	"fmt"
	"math/rand"
	"strconv"

	"cachier/internal/parc"
)

// Mutate applies one deterministic semantic mutation to a valid ParC source
// text: it picks an integer literal (seeded choice), perturbs its value, and
// returns the mutated source — which still parses and checks, but denotes a
// different program. It returns "" when no literal can be perturbed without
// breaking the front end (a program with no integer literals at all).
//
// The serving layer's cache-key property tests use this as the "semantic
// change" generator: any Mutate result whose AST differs from the original
// must change the content hash, while formatting-only rewrites must not.
func Mutate(src string, seed int64) string {
	toks, err := parc.Tokenize(src)
	if err != nil {
		return ""
	}
	var ints []parc.Token
	for _, t := range toks {
		if t.Kind == parc.TokInt {
			ints = append(ints, t)
		}
	}
	if len(ints) == 0 {
		return ""
	}
	lineOff := lineOffsets(src)
	rng := rand.New(rand.NewSource(seed))
	// Try literals in a seeded rotation until one yields a program the
	// front end still accepts (e.g. bumping an array bound past a
	// partition constraint is rejected and skipped).
	start := rng.Intn(len(ints))
	for i := 0; i < len(ints); i++ {
		t := ints[(start+i)%len(ints)]
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			continue
		}
		off := lineOff[t.Pos.Line-1] + t.Pos.Col - 1
		if off < 0 || off+len(t.Text) > len(src) || src[off:off+len(t.Text)] != t.Text {
			continue
		}
		mutated := src[:off] + fmt.Sprint(v+1) + src[off+len(t.Text):]
		if _, err := parc.Parse(mutated); err != nil {
			continue
		}
		return mutated
	}
	return ""
}

// lineOffsets returns the byte offset of each line start (1-based lines map
// to index line-1).
func lineOffsets(src string) []int {
	offs := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			offs = append(offs, i+1)
		}
	}
	// Guard a trailing position past the last newline.
	offs = append(offs, len(src))
	return offs
}
