package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"cachier/internal/parc"
)

// ProtocolStats is the memory-system counter block of a Snapshot. It
// mirrors coherence.Stats field for field (coherence.Stats.Protocol
// converts; obs cannot import coherence without a cycle) with stable JSON
// names, and is the single form the CLIs print protocol statistics from.
type ProtocolStats struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`

	Hits        uint64 `json:"hits"`
	ReadMisses  uint64 `json:"read_misses"`
	WriteMisses uint64 `json:"write_misses"`
	WriteFaults uint64 `json:"write_faults"`

	Traps         uint64 `json:"traps"`
	Invalidations uint64 `json:"invalidations"`
	Writebacks    uint64 `json:"writebacks"`

	// DirEvents counts directory state transitions performed by the
	// protocol; omitted on snapshots replayed without a live directory
	// (tracestat) and on pre-protocol golden files.
	DirEvents uint64 `json:"dir_events,omitempty"`

	ReqMsgs  uint64 `json:"req_msgs"`
	DataMsgs uint64 `json:"data_msgs"`
	CtlMsgs  uint64 `json:"ctl_msgs"`

	CheckOutX  uint64 `json:"check_out_x"`
	CheckOutS  uint64 `json:"check_out_s"`
	CheckIns   uint64 `json:"check_ins"`
	PrefetchX  uint64 `json:"prefetch_x"`
	PrefetchS  uint64 `json:"prefetch_s"`
	WastedDirs uint64 `json:"wasted_directives"`

	PostStores     uint64 `json:"post_stores"`
	PrefetchHits   uint64 `json:"prefetch_hits"`
	PrefetchStalls uint64 `json:"prefetch_stalls"`
}

// Misses returns all misses including write faults.
func (p *ProtocolStats) Misses() uint64 { return p.ReadMisses + p.WriteMisses + p.WriteFaults }

// TotalMsgs returns all messages sent.
func (p *ProtocolStats) TotalMsgs() uint64 { return p.ReqMsgs + p.DataMsgs + p.CtlMsgs }

// Transition is one directory state-transition count; only transitions
// that occurred appear in a snapshot, ordered (from, to).
type Transition struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count uint64 `json:"count"`
}

// TrapStats is one trap cause's count; only causes that occurred appear,
// in cause-declaration order.
type TrapStats struct {
	Cause string `json:"cause"`
	Count uint64 `json:"count"`
}

// DirectoryStats is the dir1sw-level detail of a Snapshot.
type DirectoryStats struct {
	Transitions []Transition `json:"transitions,omitempty"`
	TrapCauses  []TrapStats  `json:"trap_causes,omitempty"`
}

// DirectiveStats aggregates one directive kind across the run.
type DirectiveStats struct {
	Kind   string `json:"kind,omitempty"`
	Events uint64 `json:"events"`
	Blocks uint64 `json:"blocks"`
}

// InterpStats is the interpreter/scheduler block of a Snapshot.
type InterpStats struct {
	// Ops is the total dispatched-op count over all nodes: VM instructions
	// retired, or statements executed on the tree-walking reference.
	Ops uint64 `json:"ops"`
	// Handoffs counts scheduler context switches (the simulator's
	// yield slow path).
	Handoffs uint64 `json:"handoffs"`
	// WorkCycles is the total local-computation cycles charged.
	WorkCycles uint64 `json:"work_cycles"`
}

// NodeEpochStats is one node's activity within one epoch.
type NodeEpochStats struct {
	Hits            uint64 `json:"hits"`
	ReadMisses      uint64 `json:"read_misses"`
	WriteMisses     uint64 `json:"write_misses"`
	WriteFaults     uint64 `json:"write_faults"`
	Traps           uint64 `json:"traps"`
	Invalidations   uint64 `json:"invalidations"`
	StallCycles     uint64 `json:"stall_cycles"`
	BarrierStall    uint64 `json:"barrier_stall"`
	DirectiveOps    uint64 `json:"directive_ops"`
	DirectiveBlocks uint64 `json:"directive_blocks"`
	// WorkingSet is the number of distinct cache blocks the node touched
	// with loads and stores during the epoch (the paper's Figures 5-6
	// per-epoch working-set analysis).
	WorkingSet uint64 `json:"working_set"`
}

// EpochStats is one epoch's record: the interval between two global
// barriers (the final epoch, ending at program completion, has BarrierPC
// -1, like the trace format).
type EpochStats struct {
	Index     int    `json:"index"`
	BarrierPC int    `json:"barrier_pc"`
	Release   uint64 `json:"release"`
	// Nodes is indexed by node ID.
	Nodes []NodeEpochStats `json:"nodes"`
	// WorkingSet is the distribution of per-node working-set sizes (in
	// cache blocks) across the epoch's nodes.
	WorkingSet Histogram `json:"working_set"`
}

// NodeTotals is one node's whole-run aggregate.
type NodeTotals struct {
	Node          int    `json:"node"`
	Cycles        uint64 `json:"cycles"`
	Hits          uint64 `json:"hits"`
	ReadMisses    uint64 `json:"read_misses"`
	WriteMisses   uint64 `json:"write_misses"`
	WriteFaults   uint64 `json:"write_faults"`
	Traps         uint64 `json:"traps"`
	Invalidations uint64 `json:"invalidations"`
	StallCycles   uint64 `json:"stall_cycles"`
	BarrierStall  uint64 `json:"barrier_stall"`
	Ops           uint64 `json:"ops"`
}

// VarStats tallies the CICO directive blocks applied to one labelled
// shared variable.
type VarStats struct {
	Name      string `json:"name"`
	CheckOutX uint64 `json:"check_out_x"`
	CheckOutS uint64 `json:"check_out_s"`
	CheckIns  uint64 `json:"check_ins"`
	PrefetchX uint64 `json:"prefetch_x"`
	PrefetchS uint64 `json:"prefetch_s"`
}

// CheckOuts returns all check-outs (exclusive + shared) of the variable.
func (v VarStats) CheckOuts() uint64 { return v.CheckOutX + v.CheckOutS }

// VarByName returns the named variable's directive tally, or the zero
// VarStats if the variable saw no directives.
func (s *Snapshot) VarByName(name string) VarStats {
	for _, v := range s.Vars {
		if v.Name == name {
			return v
		}
	}
	return VarStats{Name: name}
}

// Snapshot is the full deterministic stats tree for one run: same program,
// same configuration, same snapshot, byte for byte, which is what lets the
// golden-stats regression tests pin protocol behaviour rather than only
// cycle totals. All map-shaped data is emitted as name-sorted slices.
type Snapshot struct {
	Nodes     int    `json:"nodes"`
	BlockSize int    `json:"block_size"`
	Cycles    uint64 `json:"cycles"`
	Barriers  int    `json:"barriers"`

	// ProtocolName identifies the coherence protocol that produced the run
	// ("Dir1SW", "Dir4NB", "Dir4B", ...). Empty on snapshots replayed
	// without a live directory and on pre-protocol golden files.
	ProtocolName string `json:"protocol_name,omitempty"`

	Protocol   ProtocolStats    `json:"protocol"`
	Directory  DirectoryStats   `json:"directory"`
	Interp     InterpStats      `json:"interp"`
	Directives []DirectiveStats `json:"directives,omitempty"`
	PerNode    []NodeTotals     `json:"per_node"`
	Epochs     []EpochStats     `json:"epochs"`
	Vars       []VarStats       `json:"vars,omitempty"`
}

// Snapshot folds everything recorded so far, plus the run results the
// simulator owns (cycles, per-node clocks, barrier count, protocol
// counters), into the stats tree. The recorder must have been finished
// (Finish) for the final epoch to appear.
func (r *Recorder) Snapshot(cycles uint64, nodeCycles []uint64, barriers int, protocol ProtocolStats) *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Nodes:     r.nodes,
		BlockSize: int(r.blockSize),
		Cycles:    cycles,
		Barriers:  barriers,
		Protocol:  protocol,
		Interp:    InterpStats{Handoffs: r.handoffs, WorkCycles: r.workCyc},
		Epochs:    append([]EpochStats(nil), r.epochs...),
		Vars:      r.sortedVars(),
	}
	for from := DirState(0); from < nDirStates; from++ {
		for to := DirState(0); to < nDirStates; to++ {
			if c := r.dirTrans[from][to]; c > 0 {
				s.Directory.Transitions = append(s.Directory.Transitions,
					Transition{From: from.String(), To: to.String(), Count: c})
			}
		}
	}
	for cause := TrapCause(0); cause < nTrapCauses; cause++ {
		if c := r.traps[cause]; c > 0 {
			s.Directory.TrapCauses = append(s.Directory.TrapCauses,
				TrapStats{Cause: cause.String(), Count: c})
		}
	}
	for k := parc.AnnKind(0); k < nDirKinds; k++ {
		if agg := r.dirAgg[k]; agg.Events > 0 {
			agg.Kind = k.String()
			s.Directives = append(s.Directives, agg)
		}
	}
	s.PerNode = make([]NodeTotals, r.nodes)
	for n := 0; n < r.nodes; n++ {
		t := &s.PerNode[n]
		t.Node = n
		if n < len(nodeCycles) {
			t.Cycles = nodeCycles[n]
		}
		t.Ops = r.ops[n]
		s.Interp.Ops += r.ops[n]
	}
	for ei := range s.Epochs {
		ep := &s.Epochs[ei]
		ep.WorkingSet.Compact()
		for n := range ep.Nodes {
			ne := &ep.Nodes[n]
			t := &s.PerNode[n]
			t.Hits += ne.Hits
			t.ReadMisses += ne.ReadMisses
			t.WriteMisses += ne.WriteMisses
			t.WriteFaults += ne.WriteFaults
			t.Traps += ne.Traps
			t.Invalidations += ne.Invalidations
			t.StallCycles += ne.StallCycles
			t.BarrierStall += ne.BarrierStall
		}
	}
	return s
}

// CheckConsistency cross-checks the independently-recorded layers of the
// snapshot against each other: the per-epoch per-node counters (recorded by
// the simulator, access by access) must sum to the protocol totals
// (counted by dir1sw), the directory's trap-cause counts must account for
// every trap, the per-kind directive block counts must match the protocol's
// directive counters, and per-variable attributions can never exceed the
// directive totals. The conformance harness and the golden-stats tests run
// this on every snapshot they produce.
func (s *Snapshot) CheckConsistency() error {
	var hits, rm, wm, wf, traps, invals uint64
	for _, ep := range s.Epochs {
		for _, ne := range ep.Nodes {
			hits += ne.Hits
			rm += ne.ReadMisses
			wm += ne.WriteMisses
			wf += ne.WriteFaults
			traps += ne.Traps
			invals += ne.Invalidations
		}
		var wsSum uint64
		for _, ne := range ep.Nodes {
			wsSum += ne.WorkingSet
		}
		if ep.WorkingSet.Count != uint64(len(ep.Nodes)) || ep.WorkingSet.Sum != wsSum {
			return fmt.Errorf("obs: epoch %d working-set histogram (count=%d sum=%d) does not match nodes (count=%d sum=%d)",
				ep.Index, ep.WorkingSet.Count, ep.WorkingSet.Sum, len(ep.Nodes), wsSum)
		}
	}
	p := &s.Protocol
	if hits != p.Hits || rm != p.ReadMisses || wm != p.WriteMisses || wf != p.WriteFaults {
		return fmt.Errorf("obs: per-epoch access sums (hit=%d rm=%d wm=%d wf=%d) disagree with protocol (hit=%d rm=%d wm=%d wf=%d)",
			hits, rm, wm, wf, p.Hits, p.ReadMisses, p.WriteMisses, p.WriteFaults)
	}
	if hits+rm+wm+wf != p.Reads+p.Writes {
		return fmt.Errorf("obs: access outcomes (%d) do not sum to accesses (%d)",
			hits+rm+wm+wf, p.Reads+p.Writes)
	}
	if traps != p.Traps {
		return fmt.Errorf("obs: per-epoch trap sum %d disagrees with protocol traps %d", traps, p.Traps)
	}
	if invals != p.Invalidations {
		return fmt.Errorf("obs: per-epoch invalidation sum %d disagrees with protocol %d", invals, p.Invalidations)
	}
	var causes uint64
	for _, tc := range s.Directory.TrapCauses {
		causes += tc.Count
	}
	if causes != p.Traps {
		return fmt.Errorf("obs: trap causes sum to %d, protocol took %d traps", causes, p.Traps)
	}
	// Live-directory snapshots record every SetState twice: the protocol
	// counts DirEvents, the recorder tallies the (from, to) transition.
	// DirEvents == 0 marks a replayed or legacy snapshot with no directory.
	if p.DirEvents > 0 {
		var trans uint64
		for _, tr := range s.Directory.Transitions {
			trans += tr.Count
		}
		if trans != p.DirEvents {
			return fmt.Errorf("obs: directory transitions sum to %d, protocol counted %d events", trans, p.DirEvents)
		}
	}
	dirWant := map[string]uint64{
		parc.AnnCheckOutX.String(): p.CheckOutX,
		parc.AnnCheckOutS.String(): p.CheckOutS,
		parc.AnnCheckIn.String():   p.CheckIns,
		parc.AnnPrefetchX.String(): p.PrefetchX,
		parc.AnnPrefetchS.String(): p.PrefetchS,
	}
	var dirBlocks uint64
	for _, d := range s.Directives {
		if d.Blocks != dirWant[d.Kind] {
			return fmt.Errorf("obs: directive %s covers %d blocks, protocol counted %d",
				d.Kind, d.Blocks, dirWant[d.Kind])
		}
		dirBlocks += d.Blocks
	}
	if total := p.CheckOutX + p.CheckOutS + p.CheckIns + p.PrefetchX + p.PrefetchS; dirBlocks != total {
		return fmt.Errorf("obs: directive kinds cover %d blocks, protocol counted %d", dirBlocks, total)
	}
	var varBlocks uint64
	for _, v := range s.Vars {
		varBlocks += v.CheckOutX + v.CheckOutS + v.CheckIns + v.PrefetchX + v.PrefetchS
	}
	if varBlocks > dirBlocks {
		return fmt.Errorf("obs: per-variable attributions (%d blocks) exceed directive totals (%d)", varBlocks, dirBlocks)
	}
	return nil
}

// MarshalIndentJSON returns the snapshot's canonical JSON form: indented,
// trailing newline, deterministic for identical runs. Golden files store
// exactly these bytes.
func (s *Snapshot) MarshalIndentJSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteJSON writes the canonical JSON form to w.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := s.MarshalIndentJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadSnapshot decodes a snapshot previously written by WriteJSON.
func ReadSnapshot(rd io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: decoding snapshot: %w", err)
	}
	return &s, nil
}
