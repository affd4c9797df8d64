// The paper's Section 2.1 cost-model example: run the two annotated Jacobi
// regimes and check the simulator's measured check-out counts against the
// closed forms — 2NPT(1+b)/b + N^2/b when the processor's block fits in its
// cache, and (2NP(1+b)/b + N^2/b)T when only single rows fit.
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"

	"cachier/internal/bench"
	"cachier/internal/cico"
	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/sim"
)

func main() {
	p := bench.JacobiParams
	cfg := sim.DefaultConfig()
	cfg.Nodes = p.P * p.P

	run := func(src string) (*sim.Result, *obs.Recorder) {
		rcfg := cfg
		rcfg.Recorder = obs.New(rcfg.Nodes, rcfg.BlockSize)
		res, err := sim.Run(parc.MustParse(src), rcfg)
		if err != nil {
			log.Fatal(err)
		}
		return res, rcfg.Recorder
	}

	n, pp, t := int64(p.N), int64(p.P), int64(p.Steps)
	const b = 4 // matrix elements per 32-byte cache block

	fmt.Printf("Jacobi relaxation, N=%d, P=%d (%d processors), T=%d, b=%d\n\n",
		p.N, p.P, p.P*p.P, p.Steps, b)

	whole, wholeRec := run(bench.JacobiWholeFit(p))
	wholeU := wholeRec.Var("U")
	wantWhole := cico.JacobiWholeMatrixCheckouts(n, pp, t, b)
	fmt.Printf("regime 1 (block fits in cache):\n")
	fmt.Printf("  formula 2NPT(1+b)/b + N^2/b = %d blocks\n", wantWhole)
	fmt.Printf("  measured check-outs of U     = %d blocks\n\n", wholeU.CheckOuts())

	row, rowRec := run(bench.JacobiRowFit(p))
	rowU := rowRec.Var("U")
	wantRow := cico.JacobiColumnCheckouts(n, pp, t, b)
	fmt.Printf("regime 2 (single rows fit):\n")
	fmt.Printf("  formula (2NP(1+b)/b + N^2/b)T = %d blocks\n", wantRow)
	fmt.Printf("  measured check-outs of U      = %d blocks\n\n", rowU.CheckOuts())

	fmt.Printf("per-processor per-column blocks, regime 1: %d  regime 2: %d (ratio T=%d)\n",
		cico.JacobiPerProcColumnBlocksWholeFit(n, pp, b),
		cico.JacobiPerProcColumnBlocksColumnFit(n, pp, t, b), t)

	fmt.Printf("\nCICO model communication cost: regime 1 = %d, regime 2 = %d\n",
		cico.ProgramCost(wholeU.CheckOuts(), wholeU.CheckIns),
		cico.ProgramCost(rowU.CheckOuts(), rowU.CheckIns))
	fmt.Printf("simulated execution time:      regime 1 = %d, regime 2 = %d cycles\n",
		whole.Cycles, row.Cycles)
}
