// Package cico implements the check-in/check-out cost model of Larus,
// Chandra, and Wood ("CICO: A Practical Shared-Memory Programming
// Performance Model") as used by the paper: program communication cost is
// measured in cache blocks checked out, and the worked examples of Sections
// 2.1 and 5 give closed forms that the simulator's measured counts must
// match.
package cico

// BlocksInRange returns how many cache blocks the inclusive element address
// range [lo, hi] touches.
func BlocksInRange(lo, hi uint64, blockSize int) uint64 {
	if hi < lo {
		return 0
	}
	bs := uint64(blockSize)
	return hi/bs - lo/bs + 1
}

// BlocksTouched returns how many distinct cache blocks a set of element
// addresses, given in ascending order, occupies. It is the block-footprint
// side of the CICO cost equations: a node that writes these addresses in an
// epoch must acquire at least this many blocks exclusively (by write miss,
// write fault, check_out_x, or prefetch_x), which is what lets a
// differential harness bound measured protocol counters by trace-derived
// footprints.
func BlocksTouched(addrs []uint64, blockSize int) uint64 {
	if blockSize <= 0 {
		return 0
	}
	bs := uint64(blockSize)
	var n uint64
	for i, a := range addrs {
		if i == 0 || a/bs != addrs[i-1]/bs {
			n++
		}
	}
	return n
}

// JacobiWholeMatrixCheckouts is the paper's Section 2.1 first regime: the
// blocked N x N matrix fits in each processor's cache, so the matrix is
// checked out once and only boundary rows/columns are re-checked-out each
// time step. Across P^2 processors and T time steps the total is
//
//	2NPT(1+b)/b + N^2/b
//
// cache blocks, where b is the number of matrix elements per cache block.
func JacobiWholeMatrixCheckouts(n, p, t, b int64) int64 {
	return 2*n*p*t*(1+b)/b + n*n/b
}

// JacobiColumnCheckouts is Section 2.1's second regime: a processor's block
// of the matrix does not fit in its cache but single columns do, so the
// matrix is re-checked-out column by column every time step:
//
//	(2NP(1+b)/b + N^2/b) * T
func JacobiColumnCheckouts(n, p, t, b int64) int64 {
	return (2*n*p*(1+b)/b + n*n/b) * t
}

// JacobiPerProcColumnBlocksWholeFit is the per-processor, per-column count
// for the fits-in-cache regime used in Section 2.1's closing comparison:
// N/(bP) blocks per column of the matrix over the whole run.
func JacobiPerProcColumnBlocksWholeFit(n, p, b int64) int64 { return n / (b * p) }

// JacobiPerProcColumnBlocksColumnFit is the same count for the second
// regime: NT/(bP) blocks per column, because every time step re-checks the
// column out.
func JacobiPerProcColumnBlocksColumnFit(n, p, t, b int64) int64 { return n * t / (b * p) }

// MatMulOriginalCCheckouts is Section 5's count for the unconventional
// matrix multiply before restructuring: every inner-loop update checks the
// result element out and back in, N * N/P * N/P * P^2 = N^3 check-outs of
// matrix C, all racing on cache blocks.
func MatMulOriginalCCheckouts(n int64) int64 { return n * n * n }

// MatMulRestructuredCCheckouts is Section 5's count after restructuring
// with local accumulation: 2 * N * N/(bP) * P^2 = N^2 * P / 2 check-outs of
// C (copy-in plus copy-back, b = 4 elements per block).
func MatMulRestructuredCCheckouts(n, p, b int64) int64 { return 2 * n * (n / (b * p)) * p * p }

// MatMulRestructuredRacyCheckouts is the portion of the restructured
// check-outs that still race (the lock-protected copy-back): N^2 * P / 4
// with b = 4.
func MatMulRestructuredRacyCheckouts(n, p, b int64) int64 { return n * (n / (b * p)) * p * p }

// FootprintOverlap compares two block-footprint sets (block numbers, as
// BlocksTouched counts them): blocks in both, blocks only in a, and blocks
// only in b. Under the CICO cost model the asymmetry prices an
// over-approximation — every extra block one side would check out costs a
// block transfer the other side does not pay — so differential harnesses
// report onlyA/onlyB directly as communication-cost deltas.
func FootprintOverlap(a, b map[uint64]bool) (both, onlyA, onlyB uint64) {
	for blk := range a {
		if b[blk] {
			both++
		} else {
			onlyA++
		}
	}
	for blk := range b {
		if !a[blk] {
			onlyB++
		}
	}
	return both, onlyA, onlyB
}

// The CICO model's abstract communication cost, weighted like the
// memory-system model: checking out a block costs a full block transfer
// (expensive), checking in sends it home (cheaper), and a block-race
// re-checkout pays the transfer every time.
const (
	checkOutBlockCost = 100 // per block checked out
	checkInBlockCost  = 10  // per block checked in
)

// ProgramCost is the CICO model's communication cost for a program whose
// annotations checked out co blocks and checked in ci blocks in total.
func ProgramCost(co, ci uint64) uint64 {
	return co*checkOutBlockCost + ci*checkInBlockCost
}
