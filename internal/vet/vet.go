// Package vet statically checks ParC programs for the two properties
// Cachier's correctness argument assumes but never verifies (paper Section
// 3): that the input program is data-race-free, and that its CICO
// annotations follow the check-out/check-in protocol discipline.
//
// The race detector runs the program abstractly once per node with pid()
// bound to that node's id, so pid-dependent partition arithmetic folds to
// constants, and models every shared-array access as a strided interval per
// dimension. Barriers advance an epoch counter during the abstract run;
// accesses from two different nodes in the same epoch conflict when at
// least one writes, every dimension's element sets intersect, and the nodes
// hold no common lock.
//
// The annotation linter replays each node's event stream — accesses,
// annotations, barriers in abstract program order — against a per-variable
// checkout state machine, flagging accesses after a check-in, writes under
// a shared check-out, double check-outs, late check-outs, and check-outs
// still open at a barrier or return.
package vet

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cachier/internal/analysis"
	"cachier/internal/parc"
)

// Options configures an analysis run.
type Options struct {
	// Nprocs is the number of SPMD nodes to model; it should match the
	// machine size the program is written for (partition arithmetic like
	// N/nprocs() folds per node). Defaults to 4.
	Nprocs int
}

// Severity ranks findings.
type Severity int

// Severities, least to most severe.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// Finding rules.
const (
	RuleRaceWW     = "race-write-write"
	RuleRaceWR     = "race-write-read"
	RuleBarrierDiv = "barrier-divergence"
	RuleStructural = "epoch-approximation"
	RuleUseAfterCI = "use-after-check-in"
	RuleDoubleCO   = "double-check-out"
	RuleSharedW    = "write-under-check-out-s"
	RuleLateCO     = "check-out-after-use"
	RuleMissingCI  = "missing-check-in"
)

// Finding is one diagnostic produced by the analysis.
type Finding struct {
	Rule     string
	Severity Severity
	Pos      parc.Pos
	Var      string // shared variable involved, "" for structural findings
	Epoch    int    // epoch index the finding occurred in, -1 if not epochal
	Nodes    [2]int // the node pair for races, {node, -1} otherwise
	Msg      string
}

func (f Finding) String() string {
	loc := f.Pos.String()
	if !f.Pos.IsValid() {
		loc = "<generated>"
	}
	return fmt.Sprintf("%s: %s: [%s] %s", loc, f.Severity, f.Rule, f.Msg)
}

// Report is the result of one analysis run.
type Report struct {
	Findings []Finding
}

// Races returns the data-race findings.
func (r *Report) Races() []Finding { return r.filter(RuleRaceWW, RuleRaceWR) }

// LintErrors returns annotation-lint findings of Error severity; a program
// "passes the annotation lint" when this is empty.
func (r *Report) LintErrors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == SevError && f.Rule != RuleRaceWW && f.Rule != RuleRaceWR {
			out = append(out, f)
		}
	}
	return out
}

// Errors returns all Error-severity findings (races included).
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == SevError {
			out = append(out, f)
		}
	}
	return out
}

func (r *Report) filter(rules ...string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		for _, rule := range rules {
			if f.Rule == rule {
				out = append(out, f)
			}
		}
	}
	return out
}

func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Analyze runs both engines over a checked program and returns the combined
// report. The program must have passed parc.Check (Parse guarantees this).
func Analyze(prog *parc.Program, opts Options) *Report {
	if opts.Nprocs <= 0 {
		opts.Nprocs = 4
	}
	v := newVetter(prog, opts)
	for _, fn := range prog.Funcs {
		v.checkCFG(fn)
	}
	main := prog.FuncMap["main"]
	runs := make([]*nodeRun, opts.Nprocs)
	var prev *nodeRun
	for p := range runs {
		runs[p] = newNodeRun(v, p, prev)
		runs[p].run(main)
		prev = runs[p]
	}
	v.checkAlignment(runs)
	v.findRaces(runs)
	for _, r := range runs {
		v.lint(r)
	}
	sort.SliceStable(v.findings, func(i, j int) bool {
		a, b := v.findings[i], v.findings[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Col < b.Pos.Col
	})
	return &Report{Findings: v.findings}
}

// AnalyzeSource parses a ParC file and vets it. The file name is stamped
// into every position so findings print file:line:col.
func AnalyzeSource(file, src string, opts Options) (*Report, error) {
	prog, err := parc.ParseFile(file, src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog, opts), nil
}

// maxFindings bounds the report; a pathological program should produce a
// readable prefix, not an unbounded dump.
const maxFindings = 200

type vetter struct {
	prog     *parc.Program
	info     *analysis.Info
	opts     Options
	findings []Finding
	seen     map[string]bool // finding dedup keys
	lockSets interner[int64] // lock sets nodes hold, sorted ascending
}

// newVetter prepares a run over prog, reading the program's shared Info.
func newVetter(prog *parc.Program, opts Options) *vetter {
	return &vetter{prog: prog, info: analysis.Analyze(prog), opts: opts, seen: make(map[string]bool)}
}

func (v *vetter) add(f Finding) {
	key := f.Rule + "|" + f.Pos.String() + "|" + f.Var + "|" + f.Msg
	if v.seen[key] || len(v.findings) >= maxFindings {
		return
	}
	v.seen[key] = true
	v.findings = append(v.findings, f)
}

// checkAlignment verifies every node executed the same number of barriers;
// a divergence means the program can deadlock at a barrier and also voids
// the race detector's epoch pairing, so it is an Error.
func (v *vetter) checkAlignment(runs []*nodeRun) {
	for _, r := range runs[1:] {
		if r.epoch != runs[0].epoch {
			v.add(Finding{
				Rule:     RuleBarrierDiv,
				Severity: SevError,
				Epoch:    -1,
				Nodes:    [2]int{0, r.node},
				Msg: fmt.Sprintf("node 0 executes %d barrier(s) but node %d executes %d; barrier arrival is node-dependent",
					runs[0].epoch, r.node, r.epoch),
			})
			return
		}
	}
}

// findRaces pairs shared accesses across nodes within each epoch. Accesses
// are keyed by integers and pointers; text is rendered only for a finding.
func (v *vetter) findRaces(runs []*nodeRun) {
	// Bucket deduplicated accesses by (var, epoch), keeping per-node lists.
	type bucketKey struct {
		decl  *parc.SharedDecl
		epoch int32
	}
	type bucket struct {
		name string     // "var@epoch", the order buckets are visited in
		accs [][]*event // by node
	}
	// An access adds nothing to its node's list when one to the same
	// variable with the same statement, epoch, direction, element sets and
	// lock set is already there. Shared reads carry statement 0, so without
	// the variable in the key one node's reads of A[3] and B[3] in an epoch
	// would keep only the first, and a race on the second would go
	// unreported.
	type accessKey struct {
		decl                     *parc.SharedDecl
		stmt, epoch, dims, locks int32
		write                    bool
	}
	buckets := make(map[bucketKey]*bucket)
	var order []*bucket
	dedup := make(map[accessKey]struct{})
	var dims interner[si]
	for _, r := range runs {
		clear(dedup)
		dims.reset()
		for i := range r.events {
			ev := &r.events[i]
			if ev.kind != evAccess {
				continue
			}
			key := accessKey{ev.decl, ev.stmtID, ev.epoch, dimsID(&dims, ev.dims), ev.locks, ev.write}
			if _, dup := dedup[key]; dup {
				continue
			}
			dedup[key] = struct{}{}
			bk := bucketKey{ev.decl, ev.epoch}
			b := buckets[bk]
			if b == nil {
				b = &bucket{
					name: ev.decl.Name + "@" + strconv.Itoa(int(ev.epoch)),
					accs: make([][]*event, len(runs)),
				}
				buckets[bk] = b
				order = append(order, b)
			}
			b.accs[r.node] = append(b.accs[r.node], ev)
		}
	}
	slices.SortFunc(order, func(a, b *bucket) int { return strings.Compare(a.name, b.name) })
	reported := make(map[pairKey]bool)
	for _, b := range order {
		for p := 0; p < len(b.accs); p++ {
			for q := p + 1; q < len(b.accs); q++ {
				for _, ea := range b.accs[p] {
					for _, eb := range b.accs[q] {
						v.checkPair(ea, eb, p, q, reported)
					}
				}
			}
		}
	}
}

// pairKey names one race finding: its rule, statement pair and epoch.
type pairKey struct {
	ww            bool
	lo, hi, epoch int32
}

func (v *vetter) checkPair(a, b *event, p, q int, reported map[pairKey]bool) {
	if (!a.write && !b.write) || len(v.findings) >= maxFindings {
		return
	}
	if v.commonLock(a.locks, b.locks) {
		return
	}
	for d := range a.dims {
		if d >= len(b.dims) || !a.dims[d].overlaps(b.dims[d]) {
			return
		}
	}
	// Put a write first for the message and the finding position.
	if !a.write {
		a, b = b, a
		p, q = q, p
	}
	// One finding per (rule, statement pair); other node pairs hitting the
	// same source lines add nothing.
	lo, hi := a.stmtID, b.stmtID
	if lo > hi {
		lo, hi = hi, lo
	}
	rk := pairKey{b.write, lo, hi, a.epoch}
	if reported[rk] {
		return
	}
	reported[rk] = true
	rule, kind, bverb := RuleRaceWR, "write-read", "reads"
	if b.write {
		rule, kind, bverb = RuleRaceWW, "write-write", "writes"
	}
	atext, btext := a.text(), b.text()
	other := ""
	if a.stmtID != b.stmtID || atext != btext {
		other = fmt.Sprintf(" (at %s)", posString(b.position()))
	}
	v.add(Finding{
		Rule:     rule,
		Severity: SevError,
		Pos:      a.position(),
		Var:      a.decl.Name,
		Epoch:    int(a.epoch),
		Nodes:    [2]int{p, q},
		Msg: fmt.Sprintf("possible %s data race on %s in epoch %d: node %d writes %s = elements %s, node %d %s %s = elements %s%s, no common lock",
			kind, a.decl.Name, a.epoch, p, atext, dimsString(a.dims),
			q, bverb, btext, dimsString(b.dims), other),
	})
}

// commonLock reports whether two interned lock sets share a lock.
func (v *vetter) commonLock(a, b int32) bool {
	for x := a; x != 0; x = v.lockSets.links[x].prev {
		for y := b; y != 0; y = v.lockSets.links[y].prev {
			if v.lockSets.links[x].v == v.lockSets.links[y].v {
				return true
			}
		}
	}
	return false
}

// dimsID interns an access's element sets as dimsString renders them: every
// empty set is one, infinite bounds are clamped to the sentinels, and a
// stride of at most 1 is 1. A scalar access is 0.
func dimsID(in *interner[si], dims []si) int32 {
	id := int32(0)
	for _, d := range dims {
		switch {
		case d.empty():
			d = siEmpty
		case d.isConst():
			d.stride = 0
		default:
			d.lo, d.hi, d.stride = max(d.lo, negInf), min(d.hi, posInf), max(d.stride, 1)
		}
		id = in.add(id, d)
	}
	return id
}

// interner numbers sequences of comparable values, one element at a time:
// add(prev, x) is the ID of prev's sequence followed by x. Equal sequences
// get equal IDs, and 0 is the empty sequence.
type interner[T comparable] struct {
	ids   map[link[T]]int32
	links []link[T] // by ID; links[0] stands for the empty sequence
}

type link[T comparable] struct {
	prev int32
	v    T
}

func (in *interner[T]) add(prev int32, x T) int32 {
	l := link[T]{prev, x}
	if id, ok := in.ids[l]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[link[T]]int32)
		in.links = make([]link[T], 1, 16)
	}
	id := int32(len(in.links))
	in.links = append(in.links, l)
	in.ids[l] = id
	return id
}

// reset forgets every sequence, keeping the space.
func (in *interner[T]) reset() {
	if in.ids != nil {
		clear(in.ids)
		in.links = in.links[:1]
	}
}

// dimsString renders element sets like [0:31][1:61:2]; a scalar renders "".
func dimsString(dims []si) string {
	if len(dims) == 0 {
		return "(scalar)"
	}
	var b strings.Builder
	for _, d := range dims {
		b.WriteString(siString(d))
	}
	return b.String()
}

func siString(d si) string {
	switch {
	case d.empty():
		return "[empty]"
	case d.isConst():
		return fmt.Sprintf("[%d]", d.lo)
	}
	lo, hi := fmt.Sprint(d.lo), fmt.Sprint(d.hi)
	if d.lo <= negInf {
		lo = "-inf"
	}
	if d.hi >= posInf {
		hi = "+inf"
	}
	if d.stride > 1 {
		return fmt.Sprintf("[%s:%s:%d]", lo, hi, d.stride)
	}
	return fmt.Sprintf("[%s:%s]", lo, hi)
}
