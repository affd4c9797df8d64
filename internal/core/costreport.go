package core

import (
	"fmt"
	"sort"
	"strings"

	"cachier/internal/cico"
	"cachier/internal/memory"
)

// VarCost is one shared variable's annotation volume within a static epoch,
// in cache blocks, summed over nodes and dynamic instances.
type VarCost struct {
	CoXBlocks uint64
	CoSBlocks uint64
	CIBlocks  uint64
}

// EpochCost summarizes one static epoch (all dynamic executions of the code
// region ending at one barrier).
type EpochCost struct {
	BarrierPC int
	Instances int // how many times the epoch executed
	Vars      map[string]VarCost
}

// CostReport is the CICO cost model's output (paper Section 2): the
// communication a program performs, measured in cache blocks checked out
// and in, attributed to variables and epochs. Programmers use it to find
// the communication bottleneck the way Section 5 finds the result-matrix
// race in the matrix multiply.
type CostReport struct {
	Epochs []EpochCost

	TotalCoX uint64
	TotalCoS uint64
	TotalCI  uint64

	// ModelCost applies the CICO cost model's per-block weights.
	ModelCost uint64
}

// buildCostReport derives the report from the annotation sets (blocks are
// deduplicated per node within each dynamic epoch, matching how a cache
// moves data).
func buildCostReport(epochs []*EpochSets, ann [][]AnnSets, layout *memory.Layout) *CostReport {
	rep := &CostReport{}
	byPC := make(map[int]int) // barrier PC -> index in rep.Epochs, first-occurrence order
	blockSize := uint64(layout.BlockSize)

	// blocksByVar reports each variable's distinct-block count in the set:
	// regions are block-aligned and the set is sorted, so a variable's
	// addresses are adjacent and a block is new exactly when it differs from
	// the previous address's.
	blocksByVar := func(set AddrSet, add func(v string, blocks uint64)) {
		var region *memory.Region
		var blocks, lastBlock uint64
		for _, addr := range set {
			if region == nil || !region.Contains(addr) {
				if blocks > 0 {
					add(region.Name, blocks)
				}
				blocks, lastBlock = 0, ^uint64(0)
				if region = layout.RegionOf(addr); region == nil {
					continue
				}
			}
			if b := addr / blockSize; b != lastBlock {
				lastBlock = b
				blocks++
			}
		}
		if blocks > 0 {
			add(region.Name, blocks)
		}
	}

	for i, es := range epochs {
		ei, ok := byPC[es.BarrierPC]
		if !ok {
			ei = len(rep.Epochs)
			byPC[es.BarrierPC] = ei
			rep.Epochs = append(rep.Epochs, EpochCost{BarrierPC: es.BarrierPC, Vars: make(map[string]VarCost)})
		}
		ec := &rep.Epochs[ei]
		ec.Instances++
		for n := range es.Nodes {
			a := ann[i][n]
			blocksByVar(a.CoX, func(v string, blocks uint64) {
				vc := ec.Vars[v]
				vc.CoXBlocks += blocks
				ec.Vars[v] = vc
				rep.TotalCoX += blocks
			})
			blocksByVar(a.CoS, func(v string, blocks uint64) {
				vc := ec.Vars[v]
				vc.CoSBlocks += blocks
				ec.Vars[v] = vc
				rep.TotalCoS += blocks
			})
			blocksByVar(a.CI, func(v string, blocks uint64) {
				vc := ec.Vars[v]
				vc.CIBlocks += blocks
				ec.Vars[v] = vc
				rep.TotalCI += blocks
			})
		}
	}
	rep.ModelCost = cico.ProgramCost(rep.TotalCoX+rep.TotalCoS, rep.TotalCI)
	return rep
}

// String renders the report as a table, variables sorted by check-out
// volume so the communication bottleneck tops each epoch.
func (r *CostReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CICO communication cost (cache blocks; %d epochs)\n", len(r.Epochs))
	for i, ec := range r.Epochs {
		fmt.Fprintf(&sb, "epoch %d (barrier pc %d, executed %dx):\n", i, ec.BarrierPC, ec.Instances)
		type row struct {
			name string
			vc   VarCost
		}
		var rows []row
		for v, vc := range ec.Vars {
			rows = append(rows, row{v, vc})
		}
		sort.Slice(rows, func(a, b int) bool {
			ta := rows[a].vc.CoXBlocks + rows[a].vc.CoSBlocks
			tb := rows[b].vc.CoXBlocks + rows[b].vc.CoSBlocks
			if ta != tb {
				return ta > tb
			}
			return rows[a].name < rows[b].name
		})
		for _, rw := range rows {
			fmt.Fprintf(&sb, "  %-14s co_x %-8d co_s %-8d ci %d\n",
				rw.name, rw.vc.CoXBlocks, rw.vc.CoSBlocks, rw.vc.CIBlocks)
		}
	}
	fmt.Fprintf(&sb, "total: %d checked out exclusive, %d shared, %d checked in (model cost %d)\n",
		r.TotalCoX, r.TotalCoS, r.TotalCI, r.ModelCost)
	return sb.String()
}
