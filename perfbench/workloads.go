package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"indexedrec/internal/cluster"
	"indexedrec/internal/core"
	"indexedrec/internal/grid2d"
	"indexedrec/internal/moebius"
	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// workloadSpec names a workload, its fixed closed-loop client count and its
// set-up.
type workloadSpec struct {
	name    string
	clients int
	setup   func(ctx context.Context, b *bench, rng *rand.Rand, seconds int) error
}

var workloads = []workloadSpec{
	{"serve-large", 1, setupServeLarge},
	{"serve-small-mix", 2, setupServeSmallMix},
	{"lib-grid2d", 1, setupLibGrid2D},
	{"coord-scatter", 1, setupCoordScatter},
}

// bench is one set-up workload: servers, clients and prepared ops.
type bench struct {
	clients int
	// conns holds one client per closed-loop caller (nil entries for
	// library workloads).
	conns []*client.Client
	// next returns the op for the k-th request of a run, or nil once the
	// workload's inputs are used up.
	next func(k uint64) op
	// targets are the base URLs whose /metrics are scraped around a run.
	targets []string
	// guard checks a warm run's counter deltas.
	guard   func(d counters) error
	tr      *tracer // nil when untraced
	closers []func()
}

func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
}

// serve mounts h on a loopback HTTP server, behind the tracer in traced runs.
func (b *bench) serve(h http.Handler) string {
	if b.tr != nil {
		h = b.tr.wrap(h)
	}
	ts := httptest.NewServer(h)
	b.closers = append(b.closers, ts.Close)
	return ts.URL
}

// irserved starts an irserved instance with production defaults.
func (b *bench) irserved() string {
	s := server.New(server.Config{})
	b.closers = append(b.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx) // teardown: nothing is in flight any more
	})
	url := b.serve(s.Handler())
	b.targets = append(b.targets, url)
	return url
}

// connect builds the workload's clients against base: one shared transport
// capped at one connection per client.
func (b *bench) connect(base string) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxConnsPerHost = b.clients
	tp.MaxIdleConnsPerHost = b.clients
	b.closers = append(b.closers, tp.CloseIdleConnections)
	var rt http.RoundTripper = tp
	if b.tr != nil {
		rt = tagTransport{base: tp}
	}
	for range b.clients {
		b.conns = append(b.conns, &client.Client{Base: base, HTTP: &http.Client{Transport: rt}})
	}
}

// warm sends each op once (plan caches, connections, arenas) and checks the
// replies.
func (b *bench) warm(ctx context.Context, ops ...op) error {
	for _, o := range ops {
		reply, err := o.do(ctx, b.conns[0])
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if !o.check(reply) {
			return errors.New("warm-up: reply differs from the sequential oracle")
		}
	}
	return nil
}

// noMisses is the warm-run guard: every structure was compiled at set-up.
func noMisses(d counters) error {
	var errs []error
	for _, name := range []string{"irserved_plan_cache_misses_total", "ircluster_plan_cache_misses_total"} {
		if d[name] > 0 {
			errs = append(errs, fmt.Errorf("%s rose by %v in a warm run", name, d[name]))
		}
	}
	if d["ircluster_local_fallbacks_total"] > 0 {
		errs = append(errs, fmt.Errorf("ircluster_local_fallbacks_total rose by %v: the scatter path was not measured",
			d["ircluster_local_fallbacks_total"]))
	}
	return errors.Join(errs...)
}

// ordinaryInt prepares an int64-add solve of a dense system, with its
// sequential oracle answer.
func ordinaryInt(sys *core.System, init []int64, fresh bool) (*systemOp, error) {
	want := core.RunSequential[int64](sys, core.IntAdd{}, init)
	return newSystemOp(ir.FamilyOrdinary, ir.WireFromSystem(sys), "int64-add", 0, init, want, fresh)
}

func setupServeLarge(ctx context.Context, b *bench, rng *rand.Rand, _ int) error {
	b.connect(b.irserved())
	sys := workload.Chains(131072, 64)
	o, err := ordinaryInt(sys, workload.InitInt64(rng, sys.M, 1000), false)
	if err != nil {
		return err
	}
	b.next = func(uint64) op { return o }
	b.guard = noMisses
	return b.warm(ctx, o)
}

func setupCoordScatter(ctx context.Context, b *bench, rng *rand.Rand, _ int) error {
	workers := []string{b.irserved(), b.irserved()}
	co := cluster.New(cluster.Config{Workers: workers})
	b.closers = append(b.closers, co.Close)
	url := b.serve(co.Handler())
	b.targets = append(b.targets, url)
	b.connect(url)
	sys := workload.Chains(16384, 64)
	o, err := ordinaryInt(sys, workload.InitInt64(rng, sys.M, 1000), false)
	if err != nil {
		return err
	}
	b.next = func(uint64) op { return o }
	b.guard = noMisses
	return b.warm(ctx, o)
}

func setupLibGrid2D(ctx context.Context, b *bench, rng *rand.Rand, _ int) error {
	const n = 1024
	sys := workload.EditDistance(randString(rng, n), randString(rng, n))
	inner, err := engineGrid(sys)
	if err != nil {
		return err
	}
	want, err := grid2d.SolveSequential(inner)
	if err != nil {
		return err
	}
	plan, err := ir.CompileGrid2DCtx(ctx, sys)
	if err != nil {
		return err
	}
	o := &libGridOp{sys: sys, plan: plan, want: want.Values, inner: inner}
	if b.tr != nil {
		if o.gplan, err = grid2d.Compile(ctx, inner); err != nil {
			return err
		}
	}
	b.conns = make([]*client.Client, b.clients)
	b.next = func(uint64) op { return o }
	return b.warm(ctx, o)
}

// freshPerSecond sizes serve-small-mix's never-repeating structure pool: it
// covers one fresh request in eight at up to 800 requests a second; a run
// that uses the pool up ends early rather than repeat a structure.
const freshPerSecond = 100

// mixVariants is how many structures of each family serve-small-mix keeps
// warm, so one seed's draw of a single cheap or costly structure does not
// set the run's latency.
const mixVariants = 4

func setupServeSmallMix(ctx context.Context, b *bench, rng *rand.Rand, seconds int) error {
	b.connect(b.irserved())
	var hot []op
	for range mixVariants {
		for fam := range 5 {
			o, err := mixOp(rng, fam, false)
			if err != nil {
				return err
			}
			hot = append(hot, o)
		}
	}
	fresh := make([]op, seconds*freshPerSecond)
	for i := range fresh {
		var err error
		if fresh[i], err = mixOp(rng, i%4, true); err != nil {
			return err
		}
	}
	b.next = func(k uint64) op {
		if k%8 == 7 {
			if i := k / 8; i < uint64(len(fresh)) {
				return fresh[i]
			}
			return nil
		}
		// k minus the fresh requests before it, so every hot op gets an
		// equal share.
		return hot[(k-(k+1)/8)%uint64(len(hot))]
	}
	return b.warm(ctx, hot...)
}

// mixOp builds one serve-small-mix request of family fam: 0 dense ordinary
// n=1024, 1 sparse ordinary, 2 general mul-mod, 3 linear m=1024, 4 a 32x32
// edit-distance grid. Fresh requests are never grids: a grid's plan depends
// only on its shape, so few grids could carry unseen structures.
func mixOp(rng *rand.Rand, fam int, fresh bool) (op, error) {
	const n = 1024
	switch fam {
	case 0:
		sys := workload.RandomOrdinary(rng, n, n)
		return ordinaryInt(sys, workload.InitInt64(rng, sys.M, 1000), fresh)
	case 1:
		sp := workload.SparseZipf(rng, 1<<20, n)
		init := workload.InitInt64(rng, len(sp.Cells), 1000)
		want := core.RunSequential[int64](sp.Compact, core.IntAdd{}, init)
		return newSystemOp(ir.FamilyOrdinary, ir.WireFromSparse(sp), "int64-add", 0, init, want, fresh)
	case 2:
		const mod = 1_000_000_007
		sys := workload.RandomGIR(rng, n/2, n)
		init := workload.InitInt64(rng, sys.M, mod)
		want := core.RunSequential[int64](sys, core.MulMod{M: mod}, init)
		return newSystemOp(ir.FamilyGeneral, ir.WireFromSystem(sys), "mul-mod", mod, init, want, fresh)
	case 3:
		// Coefficients a = ±1 and small integer b, x0 keep every value an
		// exactly representable integer, so any association order of the
		// affine maps gives the sequential loop's bits.
		sys := workload.RandomOrdinary(rng, n, n)
		a := make([]float64, sys.N)
		bb := make([]float64, sys.N)
		for i := range a {
			a[i] = float64(1 - 2*rng.Intn(2))
			bb[i] = float64(rng.Intn(17) - 8)
		}
		x0 := make([]float64, sys.M)
		for i := range x0 {
			x0[i] = float64(rng.Intn(201) - 100)
		}
		want := moebius.NewLinear(sys.M, sys.G, sys.F, a, bb).RunSequential(x0)
		return &linearOp{
			req:   server.LinearRequest{M: sys.M, G: sys.G, F: sys.F, A: a, B: bb, X0: x0},
			want:  want,
			fresh: fresh,
		}, nil
	default:
		sys := workload.EditDistance(randString(rng, 32), randString(rng, 32))
		inner, err := engineGrid(sys)
		if err != nil {
			return nil, err
		}
		want, err := grid2d.SolveSequential(inner)
		if err != nil {
			return nil, err
		}
		return &gridOp{req: server.Grid2DRequest{System: *sys}, want: want.Values}, nil
	}
}

// engineGrid converts the wire grid to the engine's system for the
// sequential oracle and grid2d-layer replays (slices shared).
func engineGrid(s *ir.Grid2DSystem) (*grid2d.System, error) {
	ring, err := grid2d.RingByName(s.Semiring)
	if err != nil {
		return nil, err
	}
	return &grid2d.System{
		Rows: s.Rows, Cols: s.Cols, Ring: ring,
		A: s.A, B: s.B, D: s.Diag, C: s.C,
		North: s.North, West: s.West, NW: s.NorthWest,
	}, nil
}

// randString returns n letters over a four-letter alphabet.
func randString(rng *rand.Rand, n int) string {
	const alphabet = "ACGT"
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(buf)
}
