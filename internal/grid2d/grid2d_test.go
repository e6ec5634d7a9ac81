package grid2d

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"indexedrec/internal/cap"
	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// defaultRoundTilesPerWorker is the production split threshold. TestMain
// lowers the live one to a tile per worker, so every test's small grids —
// a few tiles per side — run split rounds on the gang as well as the
// caller-only walk of procs 1.
var defaultRoundTilesPerWorker = roundTilesPerWorker

func TestMain(m *testing.M) {
	roundTilesPerWorker = 1
	os.Exit(m.Run())
}

// TestRoundWorkers pins the split policy at the production threshold: a
// round goes to one worker per four tiles, within procs, so a round under
// eight tiles — every round of a 1024² grid — runs on the caller's
// goroutine whatever procs allows.
func TestRoundWorkers(t *testing.T) {
	defer func(v int) { roundTilesPerWorker = v }(roundTilesPerWorker)
	roundTilesPerWorker = defaultRoundTilesPerWorker
	for _, tc := range []struct{ procs, count, want int }{
		{2, 1, 1}, {2, 3, 1}, {8, 4, 1}, {8, 7, 1}, {1, 16, 1},
		{2, 8, 2}, {8, 8, 2}, {8, 15, 3}, {8, 16, 4}, {2, 16, 2},
	} {
		if got := roundWorkers(tc.procs, tc.count); got != tc.want {
			t.Errorf("roundWorkers(procs %d, %d tiles) = %d, want %d", tc.procs, tc.count, got, tc.want)
		}
	}
	const n = 4 * TileSize // 4×4 tiles: the widest round holds four
	p, err := Compile(context.Background(), editDistance(strings.Repeat("ab", n/2), strings.Repeat("ba", n/2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Workers(8); got != 1 {
		t.Errorf("%dx%d plan: Workers(8) = %d, want 1 (rounds at most four tiles wide)", n, n, got)
	}
}

// editDistance builds the Levenshtein DP as a min-plus grid: unit
// insert/delete costs on the up/left terms, 0/1 substitution cost on the
// diagonal, D[0][j]=j / D[i][0]=i boundaries.
func editDistance(a, b string) *System {
	r, c := len(a), len(b)
	s := &System{
		Rows: r, Cols: c, Ring: RingMinPlus,
		A: make([]float64, r*c), B: make([]float64, r*c), D: make([]float64, r*c),
		North: make([]float64, c), West: make([]float64, r),
	}
	for k := range s.A {
		s.A[k], s.B[k] = 1, 1
		if a[k/c] != b[k%c] {
			s.D[k] = 1
		}
	}
	for j := range s.North {
		s.North[j] = float64(j + 1)
	}
	for i := range s.West {
		s.West[i] = float64(i + 1)
	}
	return s
}

// randomSystem builds a random grid with the given shape, ring and term
// mask (at least one term is forced). Affine coefficients stay small so
// 32-step products cannot overflow.
func randomSystem(rng *rand.Rand, rows, cols int, ring Ring, mask uint8) *System {
	if mask&(TermA|TermB|TermD|TermC) == 0 {
		mask = TermA | TermB
	}
	cells := rows * cols
	grid := func() []float64 {
		g := make([]float64, cells)
		for k := range g {
			if ring == RingAffine {
				g[k] = 0.6*rng.Float64() - 0.3
			} else {
				g[k] = float64(rng.Intn(21) - 10)
			}
		}
		return g
	}
	s := &System{Rows: rows, Cols: cols, Ring: ring,
		North: make([]float64, cols), West: make([]float64, rows),
		NW: float64(rng.Intn(9) - 4)}
	if mask&TermA != 0 {
		s.A = grid()
	}
	if mask&TermB != 0 {
		s.B = grid()
	}
	if mask&TermD != 0 {
		s.D = grid()
	}
	if mask&TermC != 0 {
		s.C = grid()
	}
	for j := range s.North {
		s.North[j] = float64(rng.Intn(9) - 4)
	}
	for i := range s.West {
		s.West[i] = float64(rng.Intn(9) - 4)
	}
	return s
}

func TestSolveSequentialEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want float64
	}{
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"a", "a", 0},
		{"a", "b", 1},
		{"abc", "x", 3},
	} {
		res, err := SolveSequential(editDistance(tc.a, tc.b))
		if err != nil {
			t.Fatalf("SolveSequential(%q,%q): %v", tc.a, tc.b, err)
		}
		if got := res.Values[len(res.Values)-1]; got != tc.want {
			t.Errorf("edit(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if want := len(tc.a) + len(tc.b) - 1; res.Rounds != want {
			t.Errorf("edit(%q,%q) rounds = %d, want %d", tc.a, tc.b, res.Rounds, want)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	ok := func() *System { return editDistance("ab", "cde") }
	for name, breakIt := range map[string]func(*System){
		"zero rows":     func(s *System) { s.Rows = 0 },
		"negative cols": func(s *System) { s.Cols = -1 },
		"huge dims":     func(s *System) { s.Rows = maxGridDim + 1 },
		"bad ring":      func(s *System) { s.Ring = numRings },
		"no terms":      func(s *System) { s.A, s.B, s.D, s.C = nil, nil, nil, nil },
		"short a grid":  func(s *System) { s.A = s.A[:3] },
		"short north":   func(s *System) { s.North = s.North[:1] },
		"long west":     func(s *System) { s.West = append(s.West, 0) },
		"nan nw":        func(s *System) { s.NW = nan() },
		"inf north":     func(s *System) { s.North[1] = inf() },
		"nan west":      func(s *System) { s.West[0] = nan() },
	} {
		s := ok()
		breakIt(s)
		if err := s.Validate(); !errors.Is(err, core.ErrInvalidSystem) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidSystem", name, err)
		}
		if _, err := Compile(context.Background(), s); !errors.Is(err, core.ErrInvalidSystem) {
			t.Errorf("%s: Compile() = %v, want ErrInvalidSystem", name, err)
		}
	}
	var nilSys *System
	if err := nilSys.Validate(); !errors.Is(err, core.ErrInvalidSystem) {
		t.Errorf("nil system: Validate() = %v, want ErrInvalidSystem", err)
	}
	if err := ok().Validate(); err != nil {
		t.Errorf("valid system: Validate() = %v", err)
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestRingByName(t *testing.T) {
	for _, r := range []Ring{RingAffine, RingMaxPlus, RingMinPlus} {
		got, err := RingByName(r.String())
		if err != nil || got != r {
			t.Errorf("RingByName(%q) = %v, %v", r.String(), got, err)
		}
	}
	if r, err := RingByName(""); err != nil || r != RingAffine {
		t.Errorf("RingByName(\"\") = %v, %v, want affine default", r, err)
	}
	if _, err := RingByName("bogus"); !errors.Is(err, core.ErrInvalidSystem) {
		t.Errorf("RingByName(bogus) = %v, want ErrInvalidSystem", err)
	}
}

// TestPlanMatchesOracle sweeps shapes — the 1×1, 1×n and n×1 edge cases,
// and the shapes around tile edges: just inside, on and just past one
// tile, past two tiles, and single rows and columns spanning three tiles —
// under every ring, every term mask, procs 1, 2 and 4 and both kernel
// paths (concrete and generic), and requires the pooled plan replay and
// warm arena replays to be bit-identical to the sequential oracle. Short
// and race builds keep only the all-terms mask on the tile-edge shapes.
func TestPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	prev := SetKernelsEnabled(true)
	defer SetKernelsEnabled(prev)
	small := [][2]int{{1, 1}, {1, 7}, {7, 1}, {1, 64}, {64, 1}, {2, 2}, {3, 5}, {8, 8}, {17, 31}, {33, 9}}
	const b = TileSize
	shapes := append(small, [][2]int{{b - 1, b - 1}, {b, b}, {b + 1, b + 1},
		{2*b + 1, 2*b + 1}, {1, 2*b + 1}, {2*b + 1, 1}}...)
	allMasks := !testing.Short() && !parallel.RaceEnabled
	for n, sh := range shapes {
		for _, ring := range []Ring{RingAffine, RingMaxPlus, RingMinPlus} {
			for mask := uint8(1); mask < 16; mask++ {
				if n >= len(small) && !allMasks && mask != TermA|TermB|TermD|TermC {
					continue
				}
				s := randomSystem(rng, sh[0], sh[1], ring, mask)
				want, err := SolveSequential(s)
				if err != nil {
					t.Fatalf("%dx%d %s mask %#x: oracle: %v", sh[0], sh[1], ring, mask, err)
				}
				p, err := Compile(ctx, s)
				if err != nil {
					t.Fatalf("%dx%d %s mask %#x: Compile: %v", sh[0], sh[1], ring, mask, err)
				}
				ar := p.NewArena()
				for _, kernels := range []bool{true, false} {
					SetKernelsEnabled(kernels)
					for _, procs := range []int{1, 2, 4} {
						label := fmt.Sprintf("%dx%d %s mask %#x kernels=%v procs=%d",
							sh[0], sh[1], ring, mask, kernels, procs)
						got, err := p.SolveCtx(ctx, s, procs)
						if err != nil {
							t.Fatalf("%s: SolveCtx: %v", label, err)
						}
						assertSame(t, label+" pooled", want, got)
						got, err = ar.SolveCtx(ctx, s, procs)
						if err != nil {
							t.Fatalf("%s: arena: %v", label, err)
						}
						assertSame(t, label+" arena", want, got)
					}
				}
				SetKernelsEnabled(true)
			}
		}
	}
}

func assertSame(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Cells != want.Cells {
		t.Fatalf("%s: rounds/cells = %d/%d, want %d/%d", label, got.Rounds, got.Cells, want.Rounds, want.Cells)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: len = %d, want %d", label, len(got.Values), len(want.Values))
	}
	for k := range want.Values {
		if math.Float64bits(want.Values[k]) != math.Float64bits(got.Values[k]) {
			t.Fatalf("%s: cell %d = %v, want %v (bitwise)", label, k, got.Values[k], want.Values[k])
		}
	}
}

// TestKernelToggle proves the concrete and generic-dispatch kernel
// paths are bit-identical.
func TestKernelToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	s := randomSystem(rng, 19, 23, RingMaxPlus, TermA|TermB|TermD|TermC)
	p, err := Compile(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := p.SolveCtx(ctx, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetKernelsEnabled(false)
	defer SetKernelsEnabled(prev)
	if prev != true {
		t.Fatalf("kernels were disabled at test start")
	}
	slow, err := p.SolveCtx(ctx, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "generic dispatch", fast, slow)
}

// TestSignedZeroTies solves grids whose coefficients and boundaries are
// all +0 or -0, so the sign of every result hangs on which operand ⊕
// keeps on a tie and on how + and × sign their zeros: every ring and term
// mask, both kernel paths, single- and multi-tile, bit for bit against the
// oracle.
func TestSignedZeroTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	zeros := func(g []float64) {
		for k := range g {
			g[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}
	ctx := context.Background()
	prev := SetKernelsEnabled(true)
	defer SetKernelsEnabled(prev)
	for _, sh := range [][2]int{{3, 4}, {TileSize + 1, TileSize + 1}} {
		for _, ring := range []Ring{RingAffine, RingMaxPlus, RingMinPlus} {
			for mask := uint8(1); mask < 16; mask++ {
				s := randomSystem(rng, sh[0], sh[1], ring, mask)
				for _, g := range [][]float64{s.A, s.B, s.D, s.C, s.North, s.West} {
					zeros(g)
				}
				s.NW = math.Copysign(0, -1)
				want, err := SolveSequential(s)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Compile(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, kernels := range []bool{true, false} {
					SetKernelsEnabled(kernels)
					got, err := p.SolveCtx(ctx, s, 2)
					if err != nil {
						t.Fatal(err)
					}
					assertSame(t, fmt.Sprintf("%dx%d %s mask %#x kernels=%v", sh[0], sh[1], ring, mask, kernels), want, got)
				}
				SetKernelsEnabled(true)
			}
		}
	}
}

// TestNonFinite drives affine grids into overflow and requires the oracle
// and the parallel engine to fail identically: same error class, same
// first bad cell in row-major order. The multi-tile case plants bad cells
// in tile (1,0), solved in round 1, and in tile (0,2), solved in round 2
// but first in row-major order, so a solve that stopped at the first bad
// round would name the wrong cell.
func TestNonFinite(t *testing.T) {
	overflow := func() *System {
		r, c := 6, 5
		s := &System{Rows: r, Cols: c, Ring: RingAffine,
			A: make([]float64, r*c), B: make([]float64, r*c),
			North: make([]float64, c), West: make([]float64, r)}
		for k := range s.A {
			s.A[k], s.B[k] = 1e300, 1e300
		}
		for j := range s.North {
			s.North[j] = 1e300
		}
		for i := range s.West {
			s.West[i] = 1e300
		}
		return s
	}
	tileOrder := func() *System {
		r, c := TileSize+1, 2*TileSize+1
		s := &System{Rows: r, Cols: c, Ring: RingAffine, C: make([]float64, r*c),
			North: make([]float64, c), West: make([]float64, r)}
		s.C[2*TileSize] = inf()   // (0, 2B): tile (0,2)
		s.C[TileSize*c+3] = nan() // (B, 3): tile (1,0)
		return s
	}
	for name, tc := range map[string]struct {
		mk   func() *System
		cell string
	}{
		"overflow":   {overflow, "cell (0,0)"},
		"tile order": {tileOrder, fmt.Sprintf("cell (0,%d)", 2*TileSize)},
	} {
		s := tc.mk()
		_, oerr := SolveSequential(s)
		if !errors.Is(oerr, ErrNonFinite) || !strings.HasSuffix(oerr.Error(), tc.cell) {
			t.Fatalf("%s: oracle error = %v, want ErrNonFinite naming %s", name, oerr, tc.cell)
		}
		p, err := Compile(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			_, perr := p.SolveCtx(context.Background(), s, procs)
			if !errors.Is(perr, ErrNonFinite) {
				t.Fatalf("%s procs=%d: parallel error = %v, want ErrNonFinite", name, procs, perr)
			}
			if oerr.Error() != perr.Error() {
				t.Fatalf("%s procs=%d: error text diverged:\n  oracle:   %v\n  parallel: %v", name, procs, oerr, perr)
			}
		}
	}
}

// TestArenaShapeMismatch rejects replaying a plan with a system of a
// different structure.
func TestArenaShapeMismatch(t *testing.T) {
	ctx := context.Background()
	s := editDistance("abc", "abcd")
	p, err := Compile(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	other := editDistance("abcd", "abc") // transposed shape
	if _, err := p.SolveCtx(ctx, other, 2); !errors.Is(err, core.ErrInvalidSystem) {
		t.Fatalf("shape mismatch error = %v, want ErrInvalidSystem", err)
	}
	sameShape := editDistance("abc", "abcd")
	sameShape.Ring = RingMaxPlus // structural change, same dims
	if _, err := p.SolveCtx(ctx, sameShape, 2); !errors.Is(err, core.ErrInvalidSystem) {
		t.Fatalf("ring mismatch error = %v, want ErrInvalidSystem", err)
	}
}

// TestDiagonalScheduleMatchesCAPWavefront embeds grids as dependence DAGs
// (edges from each cell to the cells it reads) and cross-checks cap's
// general wavefront labeling against grid2d's compiled tile schedule:
// level(i,j) must equal the anti-diagonal i+j and the number of levels the
// plan's Rounds (the dependence depth), and walking the tile rounds must
// solve every cell exactly once, after each cell it reads — in an earlier
// tile round, or earlier in the same tile's row-major order. The shapes
// include single tiles and grids that cross tile edges in both directions.
func TestDiagonalScheduleMatchesCAPWavefront(t *testing.T) {
	const b = TileSize
	for _, sh := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {3, 4}, {5, 5}, {b, b},
		{b + 1, 2*b + 1}, {1, 2*b + 1}, {2*b + 1, 1}} {
		r, c := sh[0], sh[1]
		edges := make(map[int][]cap.Edge)
		one := big.NewInt(1)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				v := i*c + j
				if i > 0 {
					edges[v] = append(edges[v], cap.Edge{To: (i-1)*c + j, Label: one})
				}
				if j > 0 {
					edges[v] = append(edges[v], cap.Edge{To: v - 1, Label: one})
				}
				if i > 0 && j > 0 {
					edges[v] = append(edges[v], cap.Edge{To: (i-1)*c + j - 1, Label: one})
				}
			}
		}
		levels, err := cap.WavefrontLevels(cap.NewGraph(r*c, edges))
		if err != nil {
			t.Fatalf("%dx%d: WavefrontLevels: %v", r, c, err)
		}
		s := randomSystem(rand.New(rand.NewSource(1)), r, c, RingAffine, TermA|TermB|TermD)
		p, err := Compile(context.Background(), s)
		if err != nil {
			t.Fatalf("%dx%d: Compile: %v", r, c, err)
		}
		for v, l := range levels {
			if want := v/c + v%c; l != want {
				t.Fatalf("%dx%d: level(%d,%d) = %d, want %d", r, c, v/c, v%c, l, want)
			}
		}
		if maxL := levels[r*c-1]; maxL+1 != p.Rounds() {
			t.Errorf("%dx%d: cap depth %d+1 != plan rounds %d", r, c, maxL, p.Rounds())
		}

		// Walk the schedule: the tile round, tile row and row-major position
		// inside its tile at which each cell is solved.
		round, tile, seq := make([]int, r*c), make([]int, r*c), make([]int, r*c)
		for v := range round {
			round[v] = -1
		}
		for k := range p.tileRounds() {
			ti0, count := p.roundTiles(k)
			for ti := ti0; ti < ti0+count; ti++ {
				i0, i1, j0, j1 := p.tileBounds(ti, k-ti)
				n := 0
				for i := i0; i < i1; i++ {
					for j := j0; j < j1; j++ {
						v := i*c + j
						if round[v] >= 0 {
							t.Fatalf("%dx%d: cell (%d,%d) solved in rounds %d and %d", r, c, i, j, round[v], k)
						}
						round[v], tile[v], seq[v] = k, ti, n
						n++
					}
				}
			}
		}
		for v := range round {
			if round[v] < 0 {
				t.Fatalf("%dx%d: cell (%d,%d) never solved", r, c, v/c, v%c)
			}
			for _, e := range edges[v] {
				u := e.To
				sameTile := round[u] == round[v] && tile[u] == tile[v]
				if round[u] > round[v] || (round[u] == round[v] && (!sameTile || seq[u] > seq[v])) {
					t.Fatalf("%dx%d: cell (%d,%d) (round %d) reads (%d,%d) (round %d) before it is solved",
						r, c, v/c, v%c, round[v], u/c, u%c, round[u])
				}
			}
		}
		if r <= b && c <= b && p.tileRounds() != 1 {
			t.Errorf("%dx%d: %d tile rounds, want one row-major tile", r, c, p.tileRounds())
		}
	}
}

// TestConcurrentWarmReplays hammers one plan from many goroutines — pooled
// solves and private arenas interleaved — and requires every result to be
// bit-identical to the oracle. Run under -race this is the arena-aliasing
// safety proof.
func TestConcurrentWarmReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	s := randomSystem(rng, 40, 33, RingMinPlus, TermA|TermB|TermC)
	want, err := SolveSequential(s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	const workers, reps = 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ar := p.NewArena()
			for rep := 0; rep < reps; rep++ {
				var res *Result
				var err error
				if (w+rep)%2 == 0 {
					res, err = ar.SolveCtx(ctx, s, 2)
				} else {
					res, err = p.SolveCtx(ctx, s, 2)
				}
				if err != nil {
					errc <- err
					return
				}
				for k := range want.Values {
					if res.Values[k] != want.Values[k] {
						errc <- fmt.Errorf("worker %d rep %d: cell %d = %v, want %v",
							w, rep, k, res.Values[k], want.Values[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestWarmReplayZeroAlloc is the acceptance gate: a warm arena replay with
// a persistent gang installed must not allocate at all.
func TestWarmReplayZeroAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const procs = 4
	rng := rand.New(rand.NewSource(5))
	s := randomSystem(rng, 1200, 1100, RingMaxPlus, TermA|TermB|TermD|TermC)
	p, err := Compile(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	g := parallel.NewGang(procs)
	defer g.Close()
	ctx := parallel.WithGang(context.Background(), g)
	ar := p.NewArena()
	if _, err := ar.SolveCtx(ctx, s, procs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ar.SolveCtx(ctx, s, procs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm arena replay allocated %.1f times per run, want 0", allocs)
	}
}

// TestCancellation stops a solve mid-flight.
func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSystem(rng, 300, 300, RingAffine, TermA|TermB|TermC)
	p, err := Compile(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SolveCtx(ctx, s, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve error = %v, want context.Canceled", err)
	}
}
