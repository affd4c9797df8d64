package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"cachier/internal/parc"
)

// ProgramInfo is the parsed, checked, canonicalized form of a submitted
// ParC source — the content address every cache key in the service derives
// from. Two sources that differ only in formatting (whitespace, comments,
// string quoting) canonicalize to the same printed text and therefore the
// same hash; any semantic difference survives parc.Print and changes it.
type ProgramInfo struct {
	// Hash is the hex sha256 of the canonical printed form.
	Hash string
	// Canonical is parc.Print of the checked AST. Annotation prints Prog
	// with its annotations spliced in, so annotated responses are
	// canonically formatted regardless of the submitted formatting.
	Canonical string
	// Prog is the AST parsed back from Canonical, so positions in findings
	// and conflict reports refer to the canonical text. A checked program is
	// immutable (a run keeps its layout in its own tables, and annotation
	// only prints), so every phase of every request reads this one AST,
	// concurrently.
	Prog *parc.Program
}

// FreshProg returns Prog; an immutable AST needs no private copies.
//
// Deprecated: only benchmark/probes.go calls it. Delete it with the next
// change that may edit benchmark/.
func (pi *ProgramInfo) FreshProg() (*parc.Program, error) { return pi.Prog, nil }

// CanonicalProgram parses and checks src, canonicalizes it, and content-
// addresses the result. Errors are front-end diagnostics suitable for a
// 400 response.
func CanonicalProgram(src string) (*ProgramInfo, error) {
	prog, err := parc.Parse(src)
	if err != nil {
		return nil, err
	}
	canon := parc.Print(prog)
	// Reparse so the cached AST's positions are the canonical text's: the
	// responses quote them, and they must not depend on how the submitted
	// text was formatted.
	cprog, err := parc.Parse(canon)
	if err != nil {
		return nil, fmt.Errorf("serve: canonical form does not re-parse: %w", err)
	}
	sum := sha256.Sum256([]byte(canon))
	return &ProgramInfo{Hash: hex.EncodeToString(sum[:]), Canonical: canon, Prog: cprog}, nil
}

// contentID derives a short content-addressed identifier (e.g. a snapshot
// ID) from its parts.
func contentID(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// cacheKey joins key parts with an unambiguous separator.
func cacheKey(parts ...string) string {
	out := make([]byte, 0, 64)
	for i, p := range parts {
		if i > 0 {
			out = append(out, 0)
		}
		out = append(out, p...)
	}
	return string(out)
}
