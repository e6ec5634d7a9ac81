package grid2d

import (
	"context"
	"sync/atomic"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// kernelsDisabled is the global kill switch for the concrete grid row
// kernels (see SetKernelsEnabled): when set, solves dispatch every cell
// update through the generic Semiring interface path instead. Fuzzers flip
// it to prove both dispatch paths are bit-identical.
var kernelsDisabled atomic.Bool

// SetKernelsEnabled globally enables (default) or disables the concrete
// grid row kernels and reports whether they were enabled before. Intended
// for tests and fuzzers exercising the generic path; not a production
// tunable.
func SetKernelsEnabled(on bool) bool {
	return !kernelsDisabled.Swap(!on)
}

// kernelFor resolves the ring's row kernel under the kill switch.
func kernelFor(r Ring) core.GridKernel {
	if !kernelsDisabled.Load() {
		if k := core.GridKernelFor(r.semiring()); k != nil {
			return k
		}
	}
	return core.GridKernelGeneric(r.semiring())
}

// Arena is the reusable scratch of grid replays: the row-major output
// buffer of Arena.SolveCtx, the result shell, and the pre-bound round body.
// A steady-state warm replay through an arena performs no allocation at
// all. An arena is single-solve at a time (not safe for concurrent
// SolveCtx calls on the same arena), and the result of a solve aliases the
// arena's buffer — it is valid only until the next SolveCtx on the same
// arena. Use one arena per worker, or Plan.SolveCtx for a pool-managed
// replay into a caller-owned result.
type Arena struct {
	plan *Plan
	out  []float64 // row-major rows×cols result of Arena.SolveCtx, made on first use
	res  Result

	// Per-solve bindings, cleared on return so pooled arenas retain no
	// caller data.
	sys  *System
	kern core.GridKernel
	dst  []float64   // row-major rows×cols grid being solved
	k    int         // current tile round, read by body goroutines
	bad  atomic.Bool // some tile wrote a non-finite cell

	// The round body, bound once so ForCtx dispatch never allocates.
	body func(lo, hi int) error
}

// NewArena allocates replay scratch for p.
func (p *Plan) NewArena() *Arena {
	a := &Arena{plan: p}
	a.body = a.updateTiles
	return a
}

// updateTiles is the wavefront round body: tiles [lo, hi) of the current
// tile anti-diagonal, each solved row by row through the bound kernel. A
// tile reads only its own cells and the edges of its up, left and diagonal
// neighbour tiles, all solved in earlier rounds, so the tiles of one round
// race nothing.
func (a *Arena) updateTiles(lo, hi int) error {
	p, s := a.plan, a.sys
	ti0, _ := p.roundTiles(a.k)
	var bad float64
	for ti := ti0 + lo; ti < ti0+hi; ti++ {
		i0, i1, j0, j1 := p.tileBounds(ti, a.k-ti)
		for i := i0; i < i1; i++ {
			c0, c1 := i*p.cols+j0, i*p.cols+j1 // the run's row-major cells
			up, left, diag := a.rowInputs(i, j0, j1)
			bad += a.kern.UpdateRow(a.dst[c0:c1], up, left, diag,
				coefRun(s.A, c0, c1), coefRun(s.B, c0, c1), coefRun(s.D, c0, c1), coefRun(s.C, c0, c1))
		}
	}
	if bad != 0 {
		// Keep solving: a later round may hold a non-finite cell that comes
		// first in row-major order, the cell the error must name.
		a.bad.Store(true)
	}
	return nil
}

// rowInputs returns the operands a run of row i over columns [j0, j1)
// reads from outside itself: the cells above it, and the cells left of and
// above-left of its first cell — boundary values on the grid's first row
// and column, solved cells of dst elsewhere.
func (a *Arena) rowInputs(i, j0, j1 int) (up []float64, left, diag float64) {
	s, c := a.sys, a.plan.cols
	if i == 0 {
		up = s.North[j0:j1]
	} else {
		up = a.dst[(i-1)*c+j0 : (i-1)*c+j1]
	}
	switch {
	case j0 > 0:
		left = a.dst[i*c+j0-1]
		if i == 0 {
			diag = s.North[j0-1]
		} else {
			diag = a.dst[(i-1)*c+j0-1]
		}
	case i == 0:
		left, diag = s.West[0], s.NW
	default:
		left, diag = s.West[i], s.West[i-1]
	}
	return up, left, diag
}

// coefRun returns a coefficient grid's cells [lo, hi), or nil for an absent
// term.
func coefRun(g []float64, lo, hi int) []float64 {
	if g == nil {
		return nil
	}
	return g[lo:hi]
}

// SolveCtx replays the compiled schedule for s in this arena. The returned
// result aliases the arena's buffer and is valid until the next SolveCtx
// on the same arena. Warm replays allocate nothing and are bit-identical to
// SolveSequential.
func (a *Arena) SolveCtx(ctx context.Context, s *System, procs int) (*Result, error) {
	p := a.plan
	if err := p.check(s); err != nil {
		return nil, err
	}
	if a.out == nil {
		a.out = make([]float64, p.rows*p.cols)
	}
	if err := a.run(ctx, s, procs, a.out); err != nil {
		return nil, err
	}
	a.res = Result{Values: a.out, Rounds: p.Rounds(), Cells: int64(p.rows) * int64(p.cols)}
	return &a.res, nil
}

// run solves the already-checked s in place into dst, one parallel round
// per tile anti-diagonal. Each kernel call returns its finiteness probe, so
// a clean solve pays no separate scan; on a probe hit dst is scanned for
// the row-major-first non-finite cell, the one the oracle names.
func (a *Arena) run(ctx context.Context, s *System, procs int, dst []float64) error {
	p := a.plan
	a.sys, a.kern, a.dst = s, kernelFor(s.Ring), dst
	a.bad.Store(false)

	// A tile is up to TileSize² cells of work, far above the handoff grain,
	// so the split of a round is set by roundWorkers alone.
	const tileCells = TileSize * TileSize
	ctx, release := parallel.EnsureGang(ctx, roundWorkers(procs, p.maxTiles), p.maxTiles*tileCells)
	var err error
	for k := range p.tileRounds() {
		a.k = k
		_, count := p.roundTiles(k)
		if err = parallel.ForCtxWeighted(ctx, count, roundWorkers(procs, count), tileCells, a.body); err != nil {
			break
		}
	}
	release()
	a.sys, a.kern, a.dst = nil, nil, nil
	if err == nil && a.bad.Load() {
		err = checkFinite(dst, p.cols)
	}
	return err
}
