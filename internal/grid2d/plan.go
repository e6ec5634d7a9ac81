package grid2d

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"indexedrec/internal/core"
)

// TileSize is the side B of the square tiles the wavefront walks: B×B
// blocks of cells, solved row-major inside a tile, one parallel round per
// tile anti-diagonal. Tiles on the grid's bottom and right edges are
// clamped, so a grid no larger than B×B is one row-major tile. B is a
// compile-time constant — never a flag or a machine property — so it never
// enters plans or fingerprints. At 256 a tile row is 2 KB of working grid:
// the row above it stays in L1 while a tile runs.
const TileSize = 256

// roundTilesPerWorker is the fewest tiles of one round a worker is handed.
// A split round lasts as long as its slowest worker, and a worker is only
// as fast as the core it gets: with a tile or two each, a second worker's
// gain on an idle machine becomes a stall on a busy one. On a shared 2-vCPU
// VM a 1024² grid (4×4 tiles, rounds at most four wide) replayed in 7 ms
// or 11 ms by turns as neighbour load came and went when its rounds were
// split, and in a steady 10–13 ms on the caller's goroutine. So narrow
// grids, and the fill and drain rounds of wide ones, run on the caller; a
// variable only so this package's tests can split small grids.
var roundTilesPerWorker = 4

// Plan is the compiled tiled-wavefront schedule of one grid shape, sized
// from structure alone (dimensions, ring, term mask — never machine
// properties), plus an arena pool for pooled replays. A Plan is immutable
// after Compile and safe for concurrent SolveCtx calls from any number of
// goroutines.
type Plan struct {
	rows, cols int
	ring       Ring
	mask       uint8
	tileRows   int // tiles down the grid, ⌈rows/TileSize⌉
	tileCols   int // tiles across the grid, ⌈cols/TileSize⌉
	maxTiles   int // widest tile round, sizes gang requests

	arenas sync.Pool
}

// Compile fixes the wavefront schedule for s's shape. The schedule depends
// only on structure (Rows, Cols, Ring, term mask), so two systems with the
// same shape share plans regardless of coefficient values; SolveCtx
// revalidates shape at solve time.
func Compile(ctx context.Context, s *System) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, c := s.Rows, s.Cols
	tr, tc := (r+TileSize-1)/TileSize, (c+TileSize-1)/TileSize
	p := &Plan{
		rows:     r,
		cols:     c,
		ring:     s.Ring,
		mask:     s.TermMask(),
		tileRows: tr,
		tileCols: tc,
		maxTiles: min(tr, tc),
	}
	p.arenas.New = func() any { return p.NewArena() }
	return p, nil
}

// tileRounds is the number of tile anti-diagonals, one parallel round each.
func (p *Plan) tileRounds() int { return p.tileRows + p.tileCols - 1 }

// roundTiles returns tile round k's tiles: (ti0+t, k-ti0-t) for t in
// [0, count), walking the tile anti-diagonal with the tile row increasing.
func (p *Plan) roundTiles(k int) (ti0, count int) {
	ti0 = max(0, k-(p.tileCols-1))
	return ti0, min(k, p.tileRows-1) - ti0 + 1
}

// tileBounds returns the interior cells [i0, i1) × [j0, j1) of tile (ti, tj).
func (p *Plan) tileBounds(ti, tj int) (i0, i1, j0, j1 int) {
	i0, j0 = ti*TileSize, tj*TileSize
	return i0, min(i0+TileSize, p.rows), j0, min(j0+TileSize, p.cols)
}

// roundWorkers returns how many workers a round of count tiles is split
// over under the procs bound (<= 0 means GOMAXPROCS): one per
// roundTilesPerWorker tiles, and at least the caller.
func roundWorkers(procs, count int) int {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	return max(1, min(procs, count/roundTilesPerWorker))
}

// Workers returns the most workers one round of p is split over under the
// procs bound (<= 0 means GOMAXPROCS) — 1 when every round runs on the
// caller's goroutine.
func (p *Plan) Workers(procs int) int { return roundWorkers(procs, p.maxTiles) }

// Rows returns the plan's interior row count.
func (p *Plan) Rows() int { return p.rows }

// Cols returns the plan's interior column count.
func (p *Plan) Cols() int { return p.cols }

// Ring returns the semiring the plan folds with.
func (p *Plan) Ring() Ring { return p.ring }

// TermMask returns the structural term-presence bits the plan was compiled
// for.
func (p *Plan) TermMask() uint8 { return p.mask }

// Rounds returns the dependence depth of the grid, Rows+Cols-1: the number
// of cell anti-diagonals, the length of the longest chain of cells each
// reading the last. The tiled schedule runs Rows+Cols-1 cell diagonals in
// ⌈Rows/B⌉+⌈Cols/B⌉-1 parallel rounds.
func (p *Plan) Rounds() int { return p.rows + p.cols - 1 }

// planBytes is a grid plan's memory footprint whatever its shape: the
// schedule is a handful of integers, and a pooled arena holds only its
// bindings because cells are solved in place in the caller's result.
const planBytes = 512

// SizeBytes estimates the plan's memory footprint (the plan and one pooled
// arena) for cache accounting.
func (p *Plan) SizeBytes() int64 { return planBytes }

// check validates s and checks it has exactly the structure p was compiled
// for.
func (p *Plan) check(s *System) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Rows != p.rows || s.Cols != p.cols || s.Ring != p.ring || s.TermMask() != p.mask {
		return fmt.Errorf("%w: system (%dx%d ring %s mask %#x) does not match plan (%dx%d ring %s mask %#x)",
			core.ErrInvalidSystem, s.Rows, s.Cols, s.Ring, s.TermMask(),
			p.rows, p.cols, p.ring, p.mask)
	}
	return nil
}

// SolveCtx replays the compiled schedule for s through a pooled arena,
// solving the cells in place in a fresh caller-owned result. Safe for
// concurrent use; each call checks out its own arena, so warm concurrent
// replays share nothing but the immutable schedule.
func (p *Plan) SolveCtx(ctx context.Context, s *System, procs int) (*Result, error) {
	if err := p.check(s); err != nil {
		return nil, err
	}
	out := make([]float64, p.rows*p.cols)
	ar := p.arenas.Get().(*Arena)
	err := ar.run(ctx, s, procs, out)
	p.arenas.Put(ar)
	if err != nil {
		return nil, err
	}
	return &Result{Values: out, Rounds: p.Rounds(), Cells: int64(p.rows) * int64(p.cols)}, nil
}
