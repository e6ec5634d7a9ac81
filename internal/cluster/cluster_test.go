package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// checkGoroutines snapshots the goroutine count and returns an assertion
// that the count returned to (near) the snapshot — the cluster layer must
// not leak scatter, hedge, or probe goroutines.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// testWorker is one in-process irserved worker behind an interceptable
// handler, so chaos tests can delay or kill it mid-scatter.
type testWorker struct {
	srv *server.Server
	ts  *httptest.Server
	// intercept, when non-nil, runs before each proxied request; returning
	// false aborts the connection without a response (a crashed worker).
	intercept atomic.Pointer[func(r *http.Request) bool]
	// respond, when non-nil, may answer the request itself (returning
	// true); tests use it to inject synthetic responses such as 429 +
	// Retry-After without touching the real server.
	respond atomic.Pointer[func(w http.ResponseWriter, r *http.Request) bool]
}

func (tw *testWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f := tw.intercept.Load(); f != nil && !(*f)(r) {
		panic(http.ErrAbortHandler)
	}
	if f := tw.respond.Load(); f != nil && (*f)(w, r) {
		return
	}
	tw.srv.Handler().ServeHTTP(w, r)
}

// newFleet starts n in-process workers and a coordinator over them. The
// returned teardown is idempotent and also registered as a cleanup
// backstop; tests call it before their goroutine-leak assertion.
func newFleet(t testing.TB, n int, mut func(*Config)) (*Coordinator, []*testWorker, func()) {
	t.Helper()
	workers := make([]*testWorker, n)
	addrs := make([]string, n)
	for i := range workers {
		tw := &testWorker{srv: server.New(server.Config{})}
		tw.ts = httptest.NewServer(tw)
		workers[i] = tw
		addrs[i] = tw.ts.URL
	}
	cfg := Config{
		Workers:       addrs,
		ProbeInterval: -1, // probed once at New; tests control liveness
		RetryBackoff:  time.Millisecond,
		HedgeAfter:    -1, // chaos tests opt back in explicitly
		Logger:        log.New(io.Discard, "", 0),
	}
	if mut != nil {
		mut(&cfg)
	}
	co := New(cfg)
	var once sync.Once
	down := func() {
		once.Do(func() {
			co.Close()
			for _, tw := range workers {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_ = tw.srv.Shutdown(ctx)
				cancel()
				tw.ts.Close()
			}
			client.SharedTransport().CloseIdleConnections()
		})
	}
	t.Cleanup(down)
	return co, workers, down
}

// specFor builds the solve spec a coordinator endpoint would produce.
func specFor(fam ir.Family, sys *ir.System, m int, g, f []int, data ir.PlanData) *server.Request {
	if fam == ir.FamilyMoebius {
		return &server.Request{Family: fam, M: m, G: g, F: f, Data: data}
	}
	return &server.Request{Family: fam, System: sys, Data: data}
}

// localSolution computes the reference answer with the plan layer directly.
func localSolution(t testing.TB, spec *server.Request) *ir.PlanSolution {
	t.Helper()
	var p *ir.Plan
	var err error
	if spec.Family == ir.FamilyMoebius {
		p, err = ir.CompileMoebius(spec.M, spec.G, spec.F)
	} else {
		p, err = ir.CompileCtx(context.Background(), spec.System, ir.CompileOptions{
			Family: spec.Family, MaxExponentBits: spec.Bits,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.SolveCtx(context.Background(), spec.Data)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// assertSameSolution fails unless distributed and local values agree
// bit-for-bit.
func assertSameSolution(t testing.TB, got, want *ir.PlanSolution) {
	t.Helper()
	if len(got.ValuesInt) != len(want.ValuesInt) ||
		len(got.ValuesFloat) != len(want.ValuesFloat) ||
		len(got.Values) != len(want.Values) {
		t.Fatalf("value shape mismatch: got (%d,%d,%d), want (%d,%d,%d)",
			len(got.ValuesInt), len(got.ValuesFloat), len(got.Values),
			len(want.ValuesInt), len(want.ValuesFloat), len(want.Values))
	}
	for i := range want.ValuesInt {
		if got.ValuesInt[i] != want.ValuesInt[i] {
			t.Fatalf("cell %d: distributed %v != local %v", i, got.ValuesInt[i], want.ValuesInt[i])
		}
	}
	for i := range want.ValuesFloat {
		if got.ValuesFloat[i] != want.ValuesFloat[i] {
			t.Fatalf("cell %d: distributed %v != local %v", i, got.ValuesFloat[i], want.ValuesFloat[i])
		}
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("cell %d: distributed %v != local %v", i, got.Values[i], want.Values[i])
		}
	}
}

// randSpec draws a random solve across all three families from rng.
func randSpec(rng *rand.Rand) *server.Request {
	m := 1 + rng.Intn(32)
	n := rng.Intn(m + 1)
	switch rng.Intn(3) {
	case 0: // ordinary over float64-add
		perm := rng.Perm(m)
		g := make([]int, n)
		f := make([]int, n)
		for i := 0; i < n; i++ {
			g[i], f[i] = perm[i], rng.Intn(m)
		}
		init := make([]float64, m)
		for x := range init {
			init[x] = rng.Float64()*100 - 50
		}
		return specFor(ir.FamilyOrdinary, &ir.System{M: m, N: n, G: g, F: f}, 0, nil, nil,
			ir.PlanData{Op: "float64-add", InitFloat: init})
	case 1: // general over mul-mod
		n = rng.Intn(2*m + 1)
		g := make([]int, n)
		f := make([]int, n)
		h := make([]int, n)
		for i := 0; i < n; i++ {
			g[i], f[i], h[i] = rng.Intn(m), rng.Intn(m), rng.Intn(m)
		}
		init := make([]int64, m)
		for x := range init {
			init[x] = rng.Int63n(1000) + 1
		}
		spec := specFor(ir.FamilyGeneral, &ir.System{M: m, N: n, G: g, F: f, H: h}, 0, nil, nil,
			ir.PlanData{Op: "mul-mod", Mod: 1_000_003, InitInt: init})
		spec.Bits = 4096
		return spec
	default: // moebius with denominators kept off zero
		perm := rng.Perm(m)
		g := make([]int, n)
		f := make([]int, n)
		for i := 0; i < n; i++ {
			g[i], f[i] = perm[i], rng.Intn(m)
		}
		coeffs := func(scale float64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = (rng.Float64()*2 - 1) * scale
			}
			return out
		}
		d := coeffs(3)
		for i := range d {
			d[i] += 1.5
		}
		x0 := make([]float64, m)
		for i := range x0 {
			x0[i] = (rng.Float64()*2 - 1) * 10
		}
		return specFor(ir.FamilyMoebius, nil, m, g, f,
			ir.PlanData{A: coeffs(2), B: coeffs(5), C: coeffs(0.1), D: d, X0: x0})
	}
}

// FuzzClusterAgainstLocal drives random systems of every family through
// 1-, 2- and 4-worker fleets and requires the distributed answer to be
// bit-identical to ir.Plan.SolveCtx.
func FuzzClusterAgainstLocal(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	fleets := map[int]*Coordinator{}
	for _, k := range []int{1, 2, 4} {
		co, _, _ := newFleet(f, k, nil)
		fleets[k] = co
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		spec := randSpec(rng)
		wantSol, wantErr := func() (sol *ir.PlanSolution, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("local solve panicked: %v", r)
				}
			}()
			var p *ir.Plan
			if spec.Family == ir.FamilyMoebius {
				p, err = ir.CompileMoebius(spec.M, spec.G, spec.F)
			} else {
				p, err = ir.CompileCtx(context.Background(), spec.System, ir.CompileOptions{
					Family: spec.Family, MaxExponentBits: spec.Bits,
				})
			}
			if err != nil {
				return nil, err
			}
			sol, err = p.SolveCtx(context.Background(), spec.Data)
			return sol, err
		}()
		if wantErr != nil {
			// A division-by-zero or degenerate draw; distributed equivalence
			// needs a finite baseline.
			t.Skip()
		}
		for _, k := range []int{1, 2, 4} {
			got, err := fleets[k].Solve(context.Background(), spec)
			if err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, k, err)
			}
			assertSameSolution(t, got, wantSol)
		}
	})
}

// TestClusterSolveAllFamilies is the deterministic (non-fuzz) sweep of the
// same property, for plain `go test` runs.
func TestClusterSolveAllFamilies(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, _, down := newFleet(t, 2, nil)
		rng := rand.New(rand.NewSource(42))
		solved := 0
		for trial := 0; solved < 24; trial++ {
			if trial > 400 {
				t.Fatal("too many degenerate draws")
			}
			spec := randSpec(rng)
			var want *ir.PlanSolution
			ok := func() (ok bool) {
				defer func() { recover() }()
				var p *ir.Plan
				var err error
				if spec.Family == ir.FamilyMoebius {
					p, err = ir.CompileMoebius(spec.M, spec.G, spec.F)
				} else {
					p, err = ir.CompileCtx(context.Background(), spec.System, ir.CompileOptions{
						Family: spec.Family, MaxExponentBits: spec.Bits,
					})
				}
				if err != nil {
					return false
				}
				want, err = p.SolveCtx(context.Background(), spec.Data)
				return err == nil
			}()
			if !ok {
				continue
			}
			got, err := co.Solve(context.Background(), spec)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			assertSameSolution(t, got, want)
			solved++
		}
		if co.metrics.shards.Value() == 0 {
			t.Fatal("no shards scattered; solves never went distributed")
		}
		if co.metrics.fallbacks.Value() != 0 {
			t.Fatalf("%d local fallbacks in a healthy fleet", co.metrics.fallbacks.Value())
		}
		down()
	}()
	leak()
}

// TestChaosKillWorkerMidScatter kills one of two workers exactly when it
// receives its first shard request; the coordinator must mark it down,
// re-scatter the shard onto the survivor, and still produce the
// bit-identical answer — with retries observed and no goroutines leaked.
func TestChaosKillWorkerMidScatter(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 2, nil)

		// Arm worker 0: the first shard request aborts the connection and
		// every later request is refused, like a crashed process.
		var killed atomic.Bool
		kill := func(r *http.Request) bool {
			if r.URL.Path == server.ShardPrefix+"solve" {
				killed.Store(true)
			}
			return !killed.Load()
		}
		workers[0].intercept.Store(&kill)

		// Many-chain ordinary systems; shard placement is rendezvous-hashed
		// per fingerprint, so vary the shape until a shard lands on the
		// armed worker. Every answer along the way must still be exact.
		var spec *server.Request
		var want *ir.PlanSolution
		for attempt := 0; attempt < 8 && !killed.Load(); attempt++ {
			m := 64 + 2*attempt
			g := make([]int, m/2)
			f := make([]int, m/2)
			init := make([]int64, m)
			for i := range g {
				g[i], f[i] = 2*i+1, 2*i
			}
			for i := range init {
				init[i] = int64(i)
			}
			sys := &ir.System{M: m, N: len(g), G: g, F: f}
			spec = specFor(ir.FamilyOrdinary, sys, 0, nil, nil,
				ir.PlanData{Op: "int64-add", InitInt: init})
			want = localSolution(t, spec)

			got, err := co.Solve(context.Background(), spec)
			if err != nil {
				t.Fatalf("solve across a mid-scatter kill: %v", err)
			}
			assertSameSolution(t, got, want)
		}
		if !killed.Load() {
			t.Fatal("worker 0 never saw a shard; the chaos never happened")
		}
		if co.metrics.retries.Value() == 0 && co.metrics.fallbacks.Value() == 0 {
			t.Fatal("kill produced neither a retry nor a fallback")
		}
		if co.metrics.workerUp.Value(workers[0].ts.URL) != 0 {
			t.Fatal("killed worker still marked up")
		}

		// The fleet keeps answering afterwards, on the survivor alone.
		got, err := co.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("solve after the kill: %v", err)
		}
		assertSameSolution(t, got, want)
		down()
	}()
	leak()
}

// TestFallbackWhenAllWorkersDown asserts graceful degradation: with every
// worker unreachable the coordinator solves locally and says so in its
// metrics.
func TestFallbackWhenAllWorkersDown(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 1, nil)
		dead := func(r *http.Request) bool { return false }
		workers[0].intercept.Store(&dead)
		for _, w := range co.memberList() {
			w.setUp(false)
		}

		spec := specFor(ir.FamilyOrdinary, &ir.System{M: 4, N: 3, G: []int{1, 2, 3}, F: []int{0, 1, 2}}, 0, nil, nil,
			ir.PlanData{Op: "int64-add", InitInt: []int64{1, 2, 3, 4}})
		want := localSolution(t, spec)
		got, err := co.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("fallback solve: %v", err)
		}
		assertSameSolution(t, got, want)
		if co.metrics.fallbacks.Value() == 0 {
			t.Fatal("no local fallback recorded")
		}
		down()
	}()
	leak()
}

// TestHedgedRequest delays the first shard request each worker sees past
// the hedge threshold; the duplicate fired at the second-ranked worker must
// win and the hedge must be visible in metrics.
func TestHedgedRequest(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, workers, down := newFleet(t, 2, func(cfg *Config) {
			cfg.HedgeAfter = 20 * time.Millisecond
		})
		for _, tw := range workers {
			var once atomic.Bool
			slow := func(r *http.Request) bool {
				if r.URL.Path == server.ShardPrefix+"solve" && once.CompareAndSwap(false, true) {
					time.Sleep(400 * time.Millisecond)
				}
				return true
			}
			tw.intercept.Store(&slow)
		}

		// Single chain → single shard → the first attempt is slow and the
		// hedge lands on the other, still-fast worker.
		spec := specFor(ir.FamilyOrdinary, &ir.System{M: 8, N: 7,
			G: []int{1, 2, 3, 4, 5, 6, 7}, F: []int{0, 1, 2, 3, 4, 5, 6}}, 0, nil, nil,
			ir.PlanData{Op: "int64-add", InitInt: []int64{1, 1, 1, 1, 1, 1, 1, 1}})
		want := localSolution(t, spec)
		got, err := co.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("hedged solve: %v", err)
		}
		assertSameSolution(t, got, want)
		if co.metrics.hedges.Value() == 0 {
			t.Fatal("no hedge fired for a straggling shard")
		}
		down()
	}()
	leak()
}

// TestCoordinatorHTTPFrontEnd exercises the wire path end to end: a client
// posts the ordinary irserved API to the coordinator and gets the same
// answer a worker would give, with /version and /v1/cluster/workers live.
func TestCoordinatorHTTPFrontEnd(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		co, _, down := newFleet(t, 2, nil)
		front := httptest.NewServer(co.Handler())
		defer front.Close()

		reqBody, _ := json.Marshal(server.OrdinaryRequest{
			System: ir.SystemWire{M: 5, G: []int{1, 2, 3, 4}, F: []int{0, 1, 2, 3}},
			Op:     "int64-add",
			Init:   json.RawMessage(`[1, 2, 3, 4, 5]`),
		})
		resp, err := http.Post(front.URL+server.APIPrefix+"ordinary", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
		var out server.OrdinaryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		wantVals := []int64{1, 3, 6, 10, 15}
		for i, v := range wantVals {
			if out.ValuesInt[i] != v {
				t.Fatalf("X[%d] = %d, want %d", i, out.ValuesInt[i], v)
			}
		}

		resp, err = http.Get(front.URL + "/v1/cluster/workers")
		if err != nil {
			t.Fatal(err)
		}
		var ws []WorkerStatus
		err = json.NewDecoder(resp.Body).Decode(&ws)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != 2 || !ws[0].Up || !ws[1].Up {
			t.Fatalf("fleet view: %+v", ws)
		}

		resp, err = http.Post(front.URL+server.APIPrefix+"loop", "application/json", bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("loop endpoint: HTTP %d, want 501", resp.StatusCode)
		}
		down()
	}()
	leak()
}
