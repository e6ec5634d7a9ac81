package ordinary

import (
	"fmt"
	"sync/atomic"
)

// This file implements the work-optimal blocked-scan schedule for ordinary
// plans — the alternative to pointer jumping picked by CompilePlan when the
// write-chain forest is a disjoint union of paths with long chains (see
// buildBlocked and DESIGN §14). Per chain the replay runs three phases:
//
//  1. reduce — the chain is cut into fixed-length contiguous segments and
//     each segment is folded sequentially (left to right, terminal → head)
//     into one summary value;
//  2. combine tree — a Kogge–Stone inclusive scan over the per-chain
//     segment summaries turns summary s into the fold of the chain's first
//     s+1 segments, in ⌈log₂ S⌉ double-buffered rounds (S = segments of the
//     longest chain);
//  3. apply — each segment re-folds its cells sequentially, seeded with its
//     predecessor's tree prefix, writing every cell's final value.
//
// Total work is ~2n combines plus n/segLen tree combines — O(n), against
// pointer jumping's O(n log n) — and the span is n·P⁻¹ + log(n/segLen)
// after segment-level parallelization, matching the roadmap's
// T = n/P + log P target. Every phase folds the same ordered operand
// sequence the sequential loop consumes, merely re-associated, so results
// are identical to pointer jumping for exactly associative ops (and equal
// up to float re-association otherwise — see Plan.Schedule's contract).

const (
	// blockedMinChain is the auto-selection threshold: chains shorter than
	// this fit in O(log chain) cheap jumping rounds and gain nothing from
	// segment bookkeeping, so CompilePlan keeps pointer jumping below it.
	// Structural constant — never derived from GOMAXPROCS, so a plan's
	// schedule (and thus its fingerprint-keyed replay behavior across a
	// cluster) is a pure function of the system's structure.
	blockedMinChain = 256
	// blockedSegLen is the segment length of the reduce and apply phases:
	// long enough to amortize a parallel handoff per segment, short enough
	// that n/segLen segments expose ample parallel slack on any realistic
	// worker count.
	blockedSegLen = 256
)

// blockedDisabled is the global kill switch for the blocked-scan schedule
// (see SetBlockedEnabled): when set, replays of blocked-compiled plans fall
// back to the pointer-jumping schedule (recorded lazily on first need).
var blockedDisabled atomic.Bool

// SetBlockedEnabled globally enables (default) or disables blocked-scan
// replays and reports whether they were enabled before. Intended for tests
// and fuzzers proving the blocked and jumping schedules are bit-identical;
// not a production tunable. Compilation is unaffected — plans keep their
// blocked schedule and re-enable instantly.
func SetBlockedEnabled(on bool) bool {
	return !blockedDisabled.Swap(!on)
}

// blockedEnabled reports whether blocked-scan replays are globally enabled.
func blockedEnabled() bool { return !blockedDisabled.Load() }

// blockedSched is the compiled blocked-scan schedule: the chain-major cell
// order plus the segment table. All arrays are immutable after buildBlocked.
type blockedSched struct {
	// cellSeq lists every written cell in chain-major order, each chain
	// terminal → head — i.e. the order the sequential loop's fold consumes
	// the chain's values. Chains are ordered by ascending terminal cell.
	cellSeq []int32
	// chainOff[c] : chainOff[c+1] bound chain c within cellSeq.
	chainOff []int32
	// rootOf[c] is the cell whose initial value seeds chain c's fold
	// (= Forest.InitF of the chain's terminal cell).
	rootOf []int32
	// segOff[s] : segOff[s+1] bound segment s within cellSeq. Segments are
	// blockedSegLen cells except the last of each chain, and never straddle
	// a chain boundary.
	segOff []int32
	// segChain[s] is the chain id of segment s.
	segChain []int32
	// segFirst[s] is the index of the first segment of segment s's chain:
	// the tree phase combines sum[s-stride] into sum[s] iff
	// s-stride >= segFirst[s].
	segFirst []int32
	// maxSegs is the largest per-chain segment count — the tree depth is
	// ⌈log₂ maxSegs⌉.
	maxSegs int
	// rounds is the tree-phase round count (Result.Rounds adds the reduce
	// and apply phases on top).
	rounds int
	// combines is the exact op-application count of a blocked replay.
	combines int64
}

// numSegs returns the total segment count across all chains.
func (b *blockedSched) numSegs() int { return len(b.segOff) - 1 }

// segBounds returns segment s's [lo, hi) range within cellSeq.
func (b *blockedSched) segBounds(s int) (int, int) {
	return int(b.segOff[s]), int(b.segOff[s+1])
}

// buildBlocked compiles the blocked-scan schedule for fr, or returns
// (nil, nil) when the forest does not qualify under the auto heuristic:
// the forest must be path-only (no cell is the Next target of two chains —
// a tree join has no contiguous-segment decomposition) and its longest
// chain must reach blockedMinChain. force (PlanOptions ScheduleBlocked)
// skips the length gate and turns the path-only failure into an error.
func buildBlocked(fr *Forest, m int, force bool) (*blockedSched, error) {
	// Path-only check + reverse links in one pass: prev[y] is y's unique
	// chain predecessor, or -1.
	prev := make([]int32, m)
	for x := range prev {
		prev[x] = -1
	}
	for _, x := range fr.Cells {
		n := fr.Next[x]
		if n < 0 {
			continue
		}
		if prev[n] >= 0 {
			if force {
				return nil, fmt.Errorf("ordinary: ScheduleBlocked: cell %d is consumed by two chains (forest is a tree, not a path union)", n)
			}
			return nil, nil
		}
		prev[n] = int32(x)
	}

	b := &blockedSched{
		cellSeq:  make([]int32, 0, len(fr.Cells)),
		chainOff: []int32{0},
	}
	maxLen := 0
	// Chains are numbered by ascending terminal cell.
	for t := 0; t < m; t++ {
		if !fr.Written[t] || fr.Next[t] >= 0 {
			continue
		}
		start := len(b.cellSeq)
		for x := int32(t); x >= 0; x = prev[x] {
			b.cellSeq = append(b.cellSeq, x)
		}
		if l := len(b.cellSeq) - start; l > maxLen {
			maxLen = l
		}
		b.chainOff = append(b.chainOff, int32(len(b.cellSeq)))
		b.rootOf = append(b.rootOf, int32(fr.InitF[t]))
	}
	if !force && maxLen < blockedMinChain {
		return nil, nil
	}

	// Segment table: fixed-length cuts per chain, never crossing chains.
	b.segOff = []int32{0}
	for c := 0; c+1 < len(b.chainOff); c++ {
		first := int32(len(b.segChain))
		lo, hi := b.chainOff[c], b.chainOff[c+1]
		for o := lo; o < hi; o += blockedSegLen {
			b.segOff = append(b.segOff, min(o+blockedSegLen, hi))
			b.segChain = append(b.segChain, int32(c))
			b.segFirst = append(b.segFirst, first)
		}
		if segs := len(b.segChain) - int(first); segs > b.maxSegs {
			b.maxSegs = segs
		}
	}
	for d := 1; d < b.maxSegs; d *= 2 {
		b.rounds++
	}

	// Exact combine count: reduce folds len cells for a chain-first segment
	// (its seed is the chain root's initial value, so the terminal's init
	// fold is one combine too) and len-1 otherwise (seeded by its own first
	// cell); the tree combines once per (round, segment) with an in-chain
	// predecessor; apply folds every cell once.
	for s := 0; s < b.numSegs(); s++ {
		l := int64(b.segOff[s+1] - b.segOff[s])
		b.combines += 2 * l
		if int32(s) != b.segFirst[s] {
			b.combines--
		}
	}
	for d := 1; d < b.maxSegs; d *= 2 {
		for s := 0; s < b.numSegs(); s++ {
			if s-d >= int(b.segFirst[s]) {
				b.combines++
			}
		}
	}
	return b, nil
}
