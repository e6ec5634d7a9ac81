// Package grid2d solves 2-D indexed recurrence grids by tiled anti-diagonal
// wavefronts (Natale, "On the Computation of 2-D Recurrence Equations"):
//
//	w[i,j] = (a[i,j] ⊗ w[i-1,j]) ⊕ (b[i,j] ⊗ w[i,j-1]) ⊕
//	         (d[i,j] ⊗ w[i-1,j-1]) ⊕ c[i,j]
//
// over a selectable float64 semiring (⊕, ⊗): the affine ring (+, ×) for
// linear grid recurrences, or the tropical max-plus / min-plus pairs that
// turn the same grid into a dynamic program — edit distance, Smith–Waterman
// and friends are Systems here, not bespoke solvers.
//
// # Tiled wavefront schedule
//
// Every cell on anti-diagonal k = i+j depends only on diagonals k-1 and
// k-2, so the grid's dependence depth is Rows+Cols-1 (Result.Rounds). The
// engine does not run one round per cell diagonal: it cuts the grid into
// TileSize×TileSize tiles and walks the tile anti-diagonals (the
// loop-order/tiling schedule of Sundram, Tariq and Kjolstad's recurrence
// compiler). A tile needs only its up, left and diagonal neighbour tiles,
// all on earlier tile diagonals, so each tile diagonal is one parallel
// round — one parallel.ForCtxWeighted, gang-backed when a gang is installed
// — and the tiles of a round race nothing. A round is split over workers
// only when each gets at least four of its tiles, within the procs bound;
// narrower rounds run on the caller's goroutine. That covers every round of
// a grid with fewer than eight tiles across its shorter side and the fill
// and drain rounds of wider ones: a split round lasts as long as its
// slowest worker, so a split of a tile or two per worker gains little on an
// idle machine and stalls on a busy one. Inside a tile the cells run
// row-major: each tile row is one call of the semiring's core.GridKernel
// row kernel, which carries the left and diagonal operands in registers and
// reads the row above with unit stride. A grid no larger than one tile is a
// single row-major sweep.
//
// Cells are solved in place in the row-major result: the kernels read the
// North/West boundaries for the first row and column and solved cells
// everywhere else, so there is no boundary-extended working grid and no
// copy-out.
//
// # Compile once, solve many
//
// Compile fixes the schedule — the tile grid and its widest round — from
// the system's structure alone (dimensions, semiring, term mask), never
// from machine properties; TileSize is a compile-time constant, so plan
// fingerprints agree across machines. Plan.SolveCtx solves straight into a
// fresh caller-owned result through a pool of arenas; NewArena gives a
// caller-owned arena whose warm replays allocate nothing. Every path is
// bit-identical to the SolveSequential oracle: the oracle and the generic
// kernel fold each cell through core.GridCell, and the concrete per-ring
// row kernels repeat that fold term for term. SetKernelsEnabled switches
// to the generic kernel so tests and fuzzers can prove it.
//
// # Finiteness
//
// Like the Möbius family, results must be finite: boundaries are checked by
// Validate, and every row kernel returns a finiteness probe of the values
// it wrote (fused into the update, so warm replays pay no separate scan). A
// NaN or ±Inf anywhere fails the solve with ErrNonFinite naming the first
// bad cell in row-major order, identically on every path: the tile rounds
// run to the end before the result is scanned, because a tile solved later
// may hold an earlier cell in row-major order.
package grid2d
