package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indexedrec/internal/moebius"
	"indexedrec/internal/parallel"
	"indexedrec/internal/session"
	"indexedrec/ir"
)

// Config tunes the service; zero values select production defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// QueueDepth bounds the admission queue; a full queue sheds load with
	// HTTP 429 (default 256).
	QueueDepth int
	// Workers is the solve worker pool size (default max(1, GOMAXPROCS/2),
	// so request-level and solver-internal parallelism share the machine).
	Workers int
	// Procs is the per-solve goroutine budget handed to the solvers
	// (default max(1, GOMAXPROCS/Workers)); client-requested procs are
	// clamped to it.
	Procs int
	// BatchWindow is how long the coalescer holds the first Möbius/linear
	// request of a batch waiting for companions (default 2ms).
	BatchWindow time.Duration
	// MaxBatch closes a batch early once this many requests coalesced
	// (default 32).
	MaxBatch int
	// DefaultTimeout bounds solves whose request didn't set timeout_ms
	// (default 30s); MaxTimeout clamps client-requested deadlines
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the hint returned with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxRequestBytes bounds request bodies (default 8 MiB); MaxN bounds
	// iterations per request (default 4,194,304).
	MaxRequestBytes int64
	MaxN            int
	// MaxExponentBits caps CAP trace-exponent growth for general solves
	// (default 16384); requests may lower it but not raise it.
	MaxExponentBits int
	// PlanCacheBytes bounds the compiled-plan LRU cache (default 64 MiB).
	// Negative disables plan caching: every request then compiles its plan
	// afresh through the same pipeline, recomputing structure each time.
	PlanCacheBytes int64
	// Tenants configures per-tenant admission (WFQ weight, shed priority,
	// queue quota) keyed by the X-IR-Tenant header value. Tenants absent
	// from the map get the zero TenantConfig: weight 1, priority 0, no
	// quota.
	Tenants map[string]TenantConfig
	// SessionTTL evicts streaming sessions idle longer than this (default
	// 5m; negative disables idle eviction). SessionBytes bounds the summed
	// resident size of live sessions (default 256 MiB; negative disables),
	// MaxSessions their count (default 1024; negative disables).
	SessionTTL   time.Duration
	SessionBytes int64
	MaxSessions  int
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0) / c.Workers
		if c.Procs < 1 {
			c.Procs = 1
		}
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.MaxN <= 0 {
		c.MaxN = 4 << 20
	}
	if c.MaxExponentBits <= 0 {
		c.MaxExponentBits = 16384
	}
	if c.PlanCacheBytes == 0 {
		c.PlanCacheBytes = 64 << 20
	}
}

// serverMetrics is the service's metrics contract; see DESIGN.md §8.
type serverMetrics struct {
	requests       *CounterVec   // irserved_requests_total{endpoint,code}
	shed           *CounterVec   // irserved_shed_total{endpoint}
	tenantShed     *CounterVec   // irserved_tenant_shed_total{tenant}
	queueDepth     *Gauge        // irserved_queue_depth
	queueCapacity  *Gauge        // irserved_queue_capacity
	inflight       *Gauge        // irserved_inflight_requests
	ready          *Gauge        // irserved_ready
	batches        *Counter      // irserved_batches_total
	batchSize      *Histogram    // irserved_batch_size
	batchFallbacks *Counter      // irserved_batch_fallbacks_total
	latency        *HistogramVec // irserved_solve_seconds{endpoint}
	sparseSolves   *CounterVec   // irserved_sparse_solves_total{mode}
	planHits       *Counter      // irserved_plan_cache_hits_total
	planMisses     *Counter      // irserved_plan_cache_misses_total
	planEvictions  *Counter      // irserved_plan_cache_evictions_total
	planBytes      *Gauge        // irserved_plan_cache_bytes

	sessions             *GaugeVec  // irserved_sessions{state}
	sessionAppends       *Counter   // irserved_session_appends_total
	sessionEvictions     *Counter   // irserved_session_evictions_total
	sessionBytes         *Gauge     // irserved_session_bytes
	sessionAppendLatency *Histogram // irserved_session_append_seconds
}

func newServerMetrics(reg *Registry, depthFn func() float64, capacity int) *serverMetrics {
	m := &serverMetrics{
		requests: reg.NewCounterVec("irserved_requests_total",
			"Requests by endpoint and HTTP status code.", "endpoint", "code"),
		shed: reg.NewCounterVec("irserved_shed_total",
			"Requests shed with 429 because the admission queue was full.", "endpoint"),
		tenantShed: reg.NewCounterVec("irserved_tenant_shed_total",
			"Requests shed per tenant: quota exhaustion, a full queue, or eviction by a higher-priority tenant. Unconfigured tenant names share the \"other\" label.", "tenant"),
		queueDepth: reg.NewGaugeFunc("irserved_queue_depth",
			"Jobs waiting in the admission queue right now.", depthFn),
		queueCapacity: reg.NewGauge("irserved_queue_capacity",
			"Admission queue capacity (QueueDepth)."),
		inflight: reg.NewGauge("irserved_inflight_requests",
			"Solve requests currently admitted and not yet answered."),
		ready: reg.NewGauge("irserved_ready",
			"1 while serving, 0 once draining began."),
		batches: reg.NewCounter("irserved_batches_total",
			"Coalesced Moebius/linear batches dispatched."),
		batchSize: reg.NewHistogram("irserved_batch_size",
			"Requests coalesced per dispatched batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
		batchFallbacks: reg.NewCounter("irserved_batch_fallbacks_total",
			"Batches that fell back to per-item solves after a sweep error."),
		latency: reg.NewHistogramVec("irserved_solve_seconds",
			"End-to-end solve latency (admission queueing included).",
			[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10},
			"endpoint"),
		sparseSolves: reg.NewCounterVec("irserved_sparse_solves_total",
			"Sparse-encoded solves by execution mode: \"sparse\" replays the compact plan, \"dense-fallback\" expanded to the dense form because the sparse fast path is disabled.", "mode"),
		planHits: reg.NewCounter("irserved_plan_cache_hits_total",
			"Solves replayed from a cached compiled plan."),
		planMisses: reg.NewCounter("irserved_plan_cache_misses_total",
			"Solves that compiled a plan because none was cached."),
		planEvictions: reg.NewCounter("irserved_plan_cache_evictions_total",
			"Compiled plans evicted to respect the cache byte bound."),
		planBytes: reg.NewGauge("irserved_plan_cache_bytes",
			"Resident bytes of cached compiled plans."),
		sessions: reg.NewGaugeVec("irserved_sessions",
			"Streaming sessions by state: \"open\" counts resident sessions, \"closed\" the cumulative total that ended (deleted, drained or evicted).", "state"),
		sessionAppends: reg.NewCounter("irserved_session_appends_total",
			"Append batches folded into streaming sessions."),
		sessionEvictions: reg.NewCounter("irserved_session_evictions_total",
			"Streaming sessions evicted by the idle TTL or the byte/count bounds."),
		sessionBytes: reg.NewGauge("irserved_session_bytes",
			"Resident bytes of live streaming sessions."),
		sessionAppendLatency: reg.NewHistogram("irserved_session_append_seconds",
			"End-to-end session append latency (admission queueing included).",
			[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}),
	}
	m.queueCapacity.Set(int64(capacity))
	m.ready.Set(1)
	return m
}

// planCacheMetrics packs the plan-cache slice of the server metrics into the
// exported form NewPlanCache accepts.
func (m *serverMetrics) planCacheMetrics() PlanCacheMetrics {
	return PlanCacheMetrics{
		Hits:      m.planHits,
		Misses:    m.planMisses,
		Evictions: m.planEvictions,
		Bytes:     m.planBytes,
	}
}

// Server is the solve service. Create with New, mount Handler (or use
// ListenAndServe), stop with Shutdown.
type Server struct {
	cfg     Config
	limits  Limits
	reg     *Registry
	metrics *serverMetrics
	pool    *pool
	co      *coalescer
	// plans caches compiled solve plans by fingerprint; nil when
	// Config.PlanCacheBytes is negative (caching disabled).
	plans *PlanCache
	// sessions owns the live streaming sessions (see internal/session);
	// sessionOpen/sessionClosed back the irserved_sessions gauge because
	// store hooks fire under the store lock and must not call back into it.
	sessions      *session.Store
	sessionOpen   atomic.Int64
	sessionClosed atomic.Int64
	mux           *http.ServeMux
	lifetime      context.Context
	cancel        context.CancelFunc
	draining      atomic.Bool
	inflight      sync.WaitGroup
	shutOnce      sync.Once

	// testHook, when non-nil, runs on the worker goroutine before each
	// non-batch solve and before each batch sweep — tests use it to hold
	// workers busy deterministically.
	testHook func()
}

// New builds a Server and starts its worker pool and coalescer.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{cfg: cfg, reg: NewRegistry(),
		limits: Limits{MaxN: cfg.MaxN, Procs: cfg.Procs, MaxExponentBits: cfg.MaxExponentBits}}
	s.lifetime, s.cancel = context.WithCancel(context.Background())
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, cfg.Procs, cfg.Tenants,
		func(tenant string) { s.metrics.tenantShed.Inc(s.shedLabel(tenant)) })
	s.metrics = newServerMetrics(s.reg,
		func() float64 { return float64(s.pool.depth() + len(s.co.in)) },
		cfg.QueueDepth)
	if cfg.PlanCacheBytes > 0 {
		s.plans = NewPlanCache(cfg.PlanCacheBytes, s.metrics.planCacheMetrics())
	}
	s.sessions = session.NewStore(session.StoreConfig{
		TTL:         cfg.SessionTTL,
		MaxBytes:    cfg.SessionBytes,
		MaxSessions: cfg.MaxSessions,
		Hooks: session.Hooks{
			Opened: func() { s.metrics.sessions.Set(s.sessionOpen.Add(1), "open") },
			Closed: func(evicted bool) {
				s.metrics.sessions.Set(s.sessionOpen.Add(-1), "open")
				s.metrics.sessions.Set(s.sessionClosed.Add(1), "closed")
				if evicted {
					s.metrics.sessionEvictions.Inc()
				}
			},
			Bytes: func(total int64) { s.metrics.sessionBytes.Set(total) },
		},
	})
	s.co = newCoalescer(cfg.QueueDepth, cfg.MaxBatch, cfg.BatchWindow, func(items []*batchItem) {
		j := &job{ctx: s.lifetime, run: func(jctx context.Context) {
			if s.testHook != nil {
				s.testHook()
			}
			s.runBatch(jctx, items)
		}}
		if err := s.pool.submitInternal(j); err != nil {
			for _, it := range items {
				it.res <- batchResult{err: err}
			}
		}
	})
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST "+APIPrefix+"ordinary", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "ordinary", s.solve(s.limits.DecodeOrdinary))
	})
	s.mux.HandleFunc("POST "+APIPrefix+"general", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "general", s.solve(s.limits.DecodeGeneral))
	})
	s.mux.HandleFunc("POST "+APIPrefix+"linear", func(w http.ResponseWriter, r *http.Request) {
		s.handleCoalesced(w, r, "linear", s.limits.DecodeLinear)
	})
	s.mux.HandleFunc("POST "+APIPrefix+"moebius", func(w http.ResponseWriter, r *http.Request) {
		s.handleCoalesced(w, r, "moebius", s.limits.DecodeMoebius)
	})
	s.mux.HandleFunc("POST "+APIPrefix+"grid2d", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "grid2d", s.solve(s.limits.DecodeGrid2D))
	})
	s.mux.HandleFunc("POST "+APIPrefix+"loop", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "loop", s.execLoop)
	})
	s.mux.HandleFunc("POST "+ShardPrefix+"solve", func(w http.ResponseWriter, r *http.Request) {
		s.handleSolve(w, r, "shard", s.solveShard)
	})
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.sessionRoutes()
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (the example prints from it).
func (s *Server) Registry() *Registry { return s.reg }

// BatchStats reports (batches dispatched, requests coalesced into them) —
// convenience over the underlying metrics.
func (s *Server) BatchStats() (batches, coalesced int64) {
	return s.metrics.batches.Value(), int64(s.metrics.batchSize.Sum())
}

// ListenAndServe serves on cfg.Addr until ctx is cancelled, then drains
// gracefully: readyz flips to 503, in-flight solves finish under their own
// deadlines, and the listener closes. A second ctx cancellation is not
// needed; drain is bounded by the longest per-request deadline.
func (s *Server) ListenAndServe(ctx context.Context) error {
	hs := &http.Server{Addr: s.cfg.Addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
	defer cancel()
	err := s.Shutdown(drainCtx)
	if herr := hs.Shutdown(drainCtx); err == nil {
		err = herr
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed
	return err
}

// Shutdown drains the service: new solve requests are refused with 503,
// queued and running solves finish (bounded by ctx), the coalescer flushes,
// and the worker pool exits. Safe to call once; later calls return nil
// immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		s.metrics.ready.Set(0)
		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = fmt.Errorf("server: drain interrupted: %w", ctx.Err())
			// Cancel stragglers so pool.close below still terminates.
			s.cancel()
			<-done
		}
		// Drain the streaming sessions after in-flight appends finished: every
		// open session closes (later appends answer 404) and the idle sweeper
		// stops.
		s.sessions.CloseAll()
		s.sessions.Close()
		s.co.close()
		s.pool.close()
		s.cancel()
	})
	return err
}

// ---------------------------------------------------------------- handlers

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeText(w, "healthz", http.StatusOK, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.writeText(w, "readyz", http.StatusServiceUnavailable, "draining\n")
		return
	}
	s.writeText(w, "readyz", http.StatusOK, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = s.reg.WriteTo(w)
	s.metrics.requests.Inc("metrics", "200")
}

// execFunc decodes and validates a request body and returns the closure a
// pool worker will run plus the client's timeout_ms; validation errors
// surface before admission as 4xx.
type execFunc func(body []byte) (run func(ctx context.Context) (any, error), timeoutMs int, err error)

// solve is the irserved end of the shared pipeline (see request.go):
// decode → Plan → SolveCtx → Response.
func (s *Server) solve(decode func([]byte) (*Request, error)) execFunc {
	return func(body []byte) (func(ctx context.Context) (any, error), int, error) {
		req, err := decode(body)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context) (any, error) {
			start := time.Now()
			if req.Sparse != nil {
				s.metrics.sparseSolves.Inc("sparse")
			} else if req.expanded != nil {
				s.metrics.sparseSolves.Inc("dense-fallback")
			}
			p, err := req.Plan(ctx, s.plans)
			if err != nil {
				return nil, err
			}
			sol, err := p.SolveCtx(ctx, req.Data)
			if err != nil {
				return nil, err
			}
			return req.Response(sol, time.Since(start))
		}, req.TimeoutMs, nil
	}
}

// handleSolve is the common path for directly-executed endpoints
// (ordinary, general, grid2d, loop, shard): decode+validate, admit, run on
// the pool, wait.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, endpoint string, exec execFunc) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.metrics.inflight.Inc()
	defer s.metrics.inflight.Dec()
	start := time.Now()
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		WriteError(w, s.metrics.requests, endpoint, http.StatusServiceUnavailable, "draining")
		return
	}
	body, werr := ReadBody(w, r, s.cfg.MaxRequestBytes)
	if werr != nil {
		WriteError(w, s.metrics.requests, endpoint, http.StatusBadRequest, werr.Error())
		return
	}
	run, timeoutMs, err := exec(body)
	if err != nil {
		WriteError(w, s.metrics.requests, endpoint, StatusForValidation(err), err.Error())
		return
	}
	ctx, cancel := RequestContext(r, timeoutMs, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	defer cancel()

	type outcome struct {
		v   any
		err error
	}
	res := make(chan outcome, 1)
	j := &job{ctx: ctx, tenant: tenantOf(r), run: func(jctx context.Context) {
		if err := jctx.Err(); err != nil {
			res <- outcome{err: err}
			return
		}
		if s.testHook != nil {
			s.testHook()
		}
		v, err := run(jctx)
		res <- outcome{v: v, err: err}
	}}
	// shed makes the queued job evictable under priority shedding; the
	// buffered res channel means delivery never blocks the pool.
	j.shed = func() { res <- outcome{err: errShed} }
	if err := s.pool.submit(j); err != nil {
		s.refuse(w, endpoint, err)
		return
	}
	select {
	case out := <-res:
		s.metrics.latency.With(endpoint).Observe(time.Since(start).Seconds())
		if errors.Is(out.err, errShed) {
			// Evicted from the queue by a higher-priority tenant.
			s.refuse(w, endpoint, out.err)
			return
		}
		if out.err != nil {
			WriteError(w, s.metrics.requests, endpoint, StatusForSolve(out.err), out.err.Error())
			return
		}
		WriteJSON(w, s.metrics.requests, endpoint, http.StatusOK, out.v)
	case <-ctx.Done():
		// Deadline or client disconnect while queued/solving; the worker
		// will observe ctx and abandon the solve.
		s.metrics.latency.With(endpoint).Observe(time.Since(start).Seconds())
		WriteError(w, s.metrics.requests, endpoint, StatusForSolve(ctx.Err()), ctx.Err().Error())
	}
}

// handleCoalesced is the path for linear/moebius requests: full validation
// up front, then admission into the coalescer rather than the plain queue.
func (s *Server) handleCoalesced(w http.ResponseWriter, r *http.Request, endpoint string, decode func([]byte) (*Request, error)) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.metrics.inflight.Inc()
	defer s.metrics.inflight.Dec()
	start := time.Now()
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		WriteError(w, s.metrics.requests, endpoint, http.StatusServiceUnavailable, "draining")
		return
	}
	body, werr := ReadBody(w, r, s.cfg.MaxRequestBytes)
	if werr != nil {
		WriteError(w, s.metrics.requests, endpoint, http.StatusBadRequest, werr.Error())
		return
	}
	req, err := decode(body)
	if err != nil {
		WriteError(w, s.metrics.requests, endpoint, StatusForValidation(err), err.Error())
		return
	}
	ctx, cancel := RequestContext(r, req.TimeoutMs, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	defer cancel()
	// Charge the tenant's quota while the request sits in the coalescer:
	// batch jobs run under the internal tenant, so without the reservation
	// the coalesced path would sidestep MaxQueued entirely.
	tenant := tenantOf(r)
	if err := s.pool.reserve(tenant); err != nil {
		s.refuse(w, endpoint, err)
		return
	}
	defer s.pool.release(tenant)
	it := &batchItem{ms: req.moebiusSystem(), x0: req.Data.X0, ctx: ctx, res: make(chan batchResult, 1)}
	if s.plans != nil {
		it.fp = ir.PlanFingerprint(ir.FamilyMoebius, len(req.G), req.M, req.G, req.F, nil, 0)
	}
	select {
	case s.co.in <- it:
	default:
		s.metrics.tenantShed.Inc(s.shedLabel(tenant))
		s.refuse(w, endpoint, errShed)
		return
	}
	select {
	case br := <-it.res:
		s.metrics.latency.With(endpoint).Observe(time.Since(start).Seconds())
		if br.err != nil {
			WriteError(w, s.metrics.requests, endpoint, StatusForSolve(br.err), br.err.Error())
			return
		}
		WriteJSON(w, s.metrics.requests, endpoint, http.StatusOK, MoebiusResponse{
			Values:    br.values,
			BatchSize: br.size,
			ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
		})
	case <-ctx.Done():
		s.metrics.latency.With(endpoint).Observe(time.Since(start).Seconds())
		WriteError(w, s.metrics.requests, endpoint, StatusForSolve(ctx.Err()), ctx.Err().Error())
	}
}

func (s *Server) execLoop(body []byte) (func(ctx context.Context) (any, error), int, error) {
	var req LoopRequest
	if err := unmarshal(body, &req); err != nil {
		return nil, 0, err
	}
	if req.Loop == "" {
		return nil, 0, fmt.Errorf("missing \"loop\" source")
	}
	loop, err := ir.ParseLoop(req.Loop)
	if err != nil {
		return nil, 0, err
	}
	c := ir.CompileLoop(loop)
	procs := s.limits.clampProcs(req.Opts.Procs)
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		env := ir.NewEnv()
		if req.N != 0 {
			env.Scalars["n"] = float64(req.N)
		}
		for k, v := range req.Scalars {
			env.Scalars[k] = v
		}
		for k, v := range req.Arrays {
			env.Arrays[k] = append([]float64(nil), v...)
		}
		if err := c.ExecuteCtx(ctx, env, procs); err != nil {
			return nil, err
		}
		return LoopResponse{
			Analysis:  c.Analysis.Describe(),
			Strategy:  c.Strategy(),
			Arrays:    env.Arrays,
			ElapsedMs: ms(start),
		}, nil
	}, req.Opts.TimeoutMs, nil
}

// ---------------------------------------------------------------- plumbing

// RequestContext derives a solve ctx: r's own ctx (cancelled on client
// disconnect) bounded by the client's timeoutMs clamped to maxTimeout, or
// by def when the client set none.
func RequestContext(r *http.Request, timeoutMs int, def, maxTimeout time.Duration) (context.Context, context.CancelFunc) {
	d := def
	if timeoutMs > 0 {
		d = min(time.Duration(timeoutMs)*time.Millisecond, maxTimeout)
	}
	return context.WithTimeout(r.Context(), d)
}

// ReadBody reads r's body, failing with a "request body exceeds" error
// once it passes limit bytes rather than truncating it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	defer rd.Close()
	body, err := io.ReadAll(rd)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return nil, fmt.Errorf("reading request body: %v", err)
	}
	return body, nil
}

// refuse answers an admission failure: 429 + Retry-After for a full queue
// or a spent tenant quota, 503 for draining.
func (s *Server) refuse(w http.ResponseWriter, endpoint string, err error) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	if errors.Is(err, errDraining) {
		WriteError(w, s.metrics.requests, endpoint, http.StatusServiceUnavailable, "draining")
		return
	}
	s.metrics.shed.Inc(endpoint)
	if errors.Is(err, errTenantShed) {
		WriteError(w, s.metrics.requests, endpoint, http.StatusTooManyRequests,
			"tenant queue quota exceeded, retry later")
		return
	}
	WriteError(w, s.metrics.requests, endpoint, http.StatusTooManyRequests,
		fmt.Sprintf("admission queue full (capacity %d), retry later", s.cfg.QueueDepth))
}

// shedLabel bounds the irserved_tenant_shed_total label set: configured
// tenants (plus the default and internal ones) keep their own label, while
// arbitrary unconfigured X-IR-Tenant values fold into "other" so a client
// inventing tenant names cannot grow the metric series without bound.
func (s *Server) shedLabel(tenant string) string {
	if tenant == DefaultTenant || tenant == internalTenant {
		return tenant
	}
	if _, ok := s.cfg.Tenants[tenant]; ok {
		return tenant
	}
	return "other"
}

// tenantOf names the request's admission tenant from the X-IR-Tenant
// header; absent means DefaultTenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// StatusForValidation maps pre-admission errors (all client mistakes) to
// 400, except sparse-encoding defects — an unsorted, duplicated or
// out-of-range touched-cell list, compact ids off the cell list, a
// wrong-length compact init — which answer 422: the request parsed but its
// sparse encoding is semantically unprocessable.
func StatusForValidation(err error) int {
	if errors.Is(err, ir.ErrInvalidSparse) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// StatusForSolve maps solver errors to HTTP statuses.
func StatusForSolve(err error) int {
	var pe *parallel.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ir.ErrInvalidSystem), errors.Is(err, moebius.ErrBadSystem),
		errors.Is(err, ir.ErrShard):
		return http.StatusBadRequest
	case errors.Is(err, ir.ErrNonFinite), errors.Is(err, ir.ErrGrid2DNonFinite),
		errors.Is(err, ir.ErrExponentLimit), errors.Is(err, ir.ErrInvalidSparse):
		return http.StatusUnprocessableEntity
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// WriteJSON answers with v as a JSON body and counts the response in
// requests{endpoint, code}.
func WriteJSON(w http.ResponseWriter, requests *CounterVec, endpoint string, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
	requests.Inc(endpoint, strconv.Itoa(code))
}

// WriteError answers with the ErrorResponse wire schema.
func WriteError(w http.ResponseWriter, requests *CounterVec, endpoint string, code int, msg string) {
	WriteJSON(w, requests, endpoint, code, ErrorResponse{Error: msg, Code: code})
}

func (s *Server) writeText(w http.ResponseWriter, endpoint string, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	_, _ = w.Write([]byte(body))
	s.metrics.requests.Inc(endpoint, strconv.Itoa(code))
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
