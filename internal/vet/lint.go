package vet

import (
	"fmt"

	"cachier/internal/parc"
)

// The annotation linter replays one node's event stream against a
// per-variable checkout state machine. The protocol it checks is the CICO
// discipline from paper Section 3: a node checks out the blocks it will
// touch, uses them, and checks them back in before the next barrier; a
// shared check-out grants read-only access; a block is unusable between
// its check-in and a re-check-out.
//
// Identity across loop iterations matters: check_out(pv[i]) in iteration 3
// and a write to pv[i] in iteration 4 name different elements even though
// both abstract to the same interval. Two events are about the same
// instance only when they come from the same loop-body instance (iterCtx)
// or when neither depends on an abstract value at all (both invariant).

// lintVar is one variable's checkout state, held as pointers into the
// node's event stream.
type lintVar struct {
	active    []*event // check-outs not yet checked in
	checkedIn []*event // check-ins during the current epoch
	bare      []*event // accesses no active check-out covered, this epoch
}

func sameInstance(a, b *event) bool {
	if !a.variant && !b.variant {
		return true
	}
	return a.iterCtx == b.iterCtx
}

// dimsMayOverlap reports whether two per-dimension element sets can name a
// common element. Missing trailing dimensions (whole-array annotations)
// cover everything.
func dimsMayOverlap(a, b []si) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for d := 0; d < n; d++ {
		if !a[d].overlaps(b[d]) {
			return false
		}
	}
	return true
}

// dimsCover reports whether outer covers every element of inner.
func dimsCover(outer, inner []si) bool {
	for d, o := range outer {
		if d >= len(inner) {
			// Outer constrains a dimension inner doesn't: inner spans it all.
			return false
		}
		if !o.contains(inner[d]) {
			return false
		}
	}
	return true
}

// lint replays one node's event stream through the checkout state machine.
func (v *vetter) lint(r *nodeRun) {
	vars := make(map[*parc.SharedDecl]*lintVar)
	get := func(decl *parc.SharedDecl) *lintVar {
		lv := vars[decl]
		if lv == nil {
			lv = &lintVar{}
			vars[decl] = lv
		}
		return lv
	}
	flagOpen := func(e *event, why string) {
		v.add(Finding{
			Rule: RuleMissingCI, Severity: SevInfo, Pos: e.position(), Var: e.decl.Name,
			Epoch: int(e.epoch), Nodes: [2]int{r.node, -1},
			Msg: fmt.Sprintf("%s of %s has no matching check_in before %s", coName(e), e.decl.Name, why),
		})
	}
	for i := range r.events {
		ev := &r.events[i]
		switch ev.kind {
		case evBarrier:
			// Checked-out blocks legitimately stay out across barriers —
			// the Section 2.1 whole-fit regime owns its block for the whole
			// time loop — so holding one here is only worth an advisory
			// note (the vetter dedups it to one finding per check-out).
			// Epoch-scoped state is reset.
			for _, lv := range vars {
				for _, e := range lv.active {
					flagOpen(e, "the barrier")
				}
				lv.checkedIn = lv.checkedIn[:0]
				lv.bare = lv.bare[:0]
			}
		case evAnn:
			v.lintAnn(r, ev, get(ev.decl))
		case evAccess:
			v.lintAccess(r, ev, get(ev.decl))
		}
	}
	for _, lv := range vars {
		for _, e := range lv.active {
			flagOpen(e, "the node returns")
		}
	}
}

// coName names a check-out annotation's kind.
func coName(co *event) string {
	if co.ann == parc.AnnCheckOutS {
		return "check_out_s"
	}
	return "check_out_x"
}

func (v *vetter) lintAnn(r *nodeRun, ev *event, lv *lintVar) {
	switch ev.ann {
	case parc.AnnCheckOutX, parc.AnnCheckOutS:
		for _, a := range lv.active {
			if a.epoch == ev.epoch && dimsMayOverlap(a.dims, ev.dims) && sameInstance(a, ev) {
				v.add(Finding{
					Rule: RuleDoubleCO, Severity: SevWarning, Pos: ev.position(),
					Var: ev.decl.Name, Epoch: int(ev.epoch), Nodes: [2]int{r.node, -1},
					Msg: fmt.Sprintf("%s overlaps a block of %s already checked out at %s",
						ev.text(), ev.decl.Name, posString(a.position())),
				})
				break
			}
		}
		for _, b := range lv.bare {
			if dimsMayOverlap(b.dims, ev.dims) && sameInstance(b, ev) {
				v.add(Finding{
					Rule: RuleLateCO, Severity: SevWarning, Pos: ev.position(),
					Var: ev.decl.Name, Epoch: int(ev.epoch), Nodes: [2]int{r.node, -1},
					Msg: fmt.Sprintf("%s of %s follows an unannotated access to %s at %s in the same epoch",
						coName(ev), ev.decl.Name, b.text(), posString(b.position())),
				})
				break
			}
		}
		lv.active = append(lv.active, ev)
	case parc.AnnCheckIn:
		lv.checkedIn = append(lv.checkedIn, ev)
		kept := lv.active[:0]
		for _, a := range lv.active {
			if !dimsCover(ev.dims, a.dims) {
				kept = append(kept, a)
			}
		}
		lv.active = kept
	// Prefetches are performance hints, not protocol obligations; the
	// simulator treats an unmatched prefetch as harmless, so the linter
	// does too.
	case parc.AnnPrefetchX, parc.AnnPrefetchS:
	}
}

func (v *vetter) lintAccess(r *nodeRun, ev *event, lv *lintVar) {
	covered := false
	for _, a := range lv.active {
		if !dimsCover(a.dims, ev.dims) {
			continue
		}
		covered = true
		if ev.write && a.ann == parc.AnnCheckOutS {
			v.add(Finding{
				Rule: RuleSharedW, Severity: SevWarning, Pos: ev.position(),
				Var: ev.decl.Name, Epoch: int(ev.epoch), Nodes: [2]int{r.node, -1},
				Msg: fmt.Sprintf("write to %s under a shared check-out (check_out_s at %s); shared blocks are read-only",
					ev.text(), posString(a.position())),
			})
		}
		break
	}
	if covered {
		return
	}
	// Use-after-check-in is only certain within the same loop-body
	// instance: re-touching a block checked in by an *earlier* iteration
	// is legal under the protocol (the access re-fetches the block; slow,
	// not wrong), and Cachier's own output does it.
	for _, ci := range lv.checkedIn {
		if ci.epoch == ev.epoch && ci.iterCtx == ev.iterCtx &&
			dimsMayOverlap(ci.dims, ev.dims) {
			v.add(Finding{
				Rule: RuleUseAfterCI, Severity: SevError, Pos: ev.position(),
				Var: ev.decl.Name, Epoch: int(ev.epoch), Nodes: [2]int{r.node, -1},
				Msg: fmt.Sprintf("%s is accessed after its block was checked in at %s in the same epoch; the node no longer owns it",
					ev.text(), posString(ci.position())),
			})
			return
		}
	}
	lv.bare = append(lv.bare, ev)
}

func posString(p parc.Pos) string {
	if !p.IsValid() {
		return "<generated>"
	}
	return p.String()
}
