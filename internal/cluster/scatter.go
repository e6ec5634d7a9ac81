package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// Solve runs one distributed solve: plan, partition, scatter, gather,
// merge. The coordinator resolves the plan itself (Request.Plan, through
// its own cache) — not just its fingerprint — because Partition and
// MergeShards read the compiled structure. Any scatter-level failure —
// including an empty fleet — degrades to a local in-process solve, so the
// coordinator answers whenever a single machine could. Results are
// bit-identical to ir.Plan.SolveCtx by the shard layer's contract.
func (co *Coordinator) Solve(ctx context.Context, req *server.Request) (*ir.PlanSolution, error) {
	p, err := req.Plan(ctx, co.plans)
	if err != nil {
		return nil, err
	}
	if req.Family == ir.FamilyGrid2D {
		return co.solveGrid2D(ctx, p, req)
	}
	if req.Data.WithPowers {
		// Power traces are a whole-plan artifact; the shard path does not
		// carry them.
		return p.SolveCtx(ctx, req.Data)
	}
	parts, err := co.scatter(ctx, p, req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		co.metrics.fallbacks.Inc()
		if !errors.Is(err, ErrNoWorkers) {
			co.cfg.Logger.Printf("ircluster: scatter failed (%v); solving locally", err)
		}
		return p.SolveCtx(ctx, req.Data)
	}
	return p.MergeShards(req.Data, parts)
}

// scatter partitions the plan over the live fleet and executes every shard
// remotely, gathering the slices in shard order.
func (co *Coordinator) scatter(ctx context.Context, p *ir.Plan, req *server.Request) ([]*ir.ShardSolution, error) {
	ws := co.alive()
	if len(ws) == 0 {
		return nil, ErrNoWorkers
	}
	shards := p.Partition(len(ws))
	if len(shards) == 0 {
		// Empty shard domain (no writes): the merge of zero parts is the
		// init-copy answer, no network needed.
		return nil, nil
	}
	base, err := shardRequest(req, ctx)
	if err != nil {
		return nil, err
	}

	// The retry budget is per solve, not per shard: all shards draw from
	// one pool, so a flapping fleet cannot multiply retries by shard count.
	var budget atomic.Int64
	budget.Store(co.retryBudget(len(shards)))

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]*ir.ShardSolution, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh ir.Shard) {
			defer wg.Done()
			sreq := base
			sreq.Shard = server.ShardWire{Lo: sh.Lo, Hi: sh.Hi}
			prefs := rankWorkers(ws, p.Fingerprint(), i)
			resp, err := co.solveShard(sctx, sreq, prefs, &budget)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d [%d, %d): %w", i, sh.Lo, sh.Hi, err)
				cancel() // no point finishing the rest; we fall back locally
				return
			}
			parts[i] = &ir.ShardSolution{
				Shard:       ir.Shard{Lo: resp.Shard.Lo, Hi: resp.Shard.Hi},
				Cells:       resp.Cells,
				ValuesInt:   resp.ValuesInt,
				ValuesFloat: resp.ValuesFloat,
				Values:      resp.Values,
			}
		}(i, sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return parts, nil
}

// retryBudget resolves the per-solve retry budget for a scatter of the
// given shard count.
func (co *Coordinator) retryBudget(shards int) int64 {
	if co.cfg.RetryBudget < 0 {
		return 0
	}
	if co.cfg.RetryBudget > 0 {
		return int64(co.cfg.RetryBudget)
	}
	return int64(4 + 2*shards)
}

// solveShard executes one shard with bounded retries (jittered backoff
// stretched by Retry-After hints, next-ranked worker — the re-scatter
// path) and a single hedged duplicate for stragglers, cancelled as soon as
// a winner lands. prefs is the shard's rendezvous ranking of the fleet;
// workers whose circuit breaker is open are skipped. budget is the solve's
// shared retry pool; retries beyond MaxRetries per shard or an exhausted
// budget fail the shard (and the solve then falls back locally).
func (co *Coordinator) solveShard(ctx context.Context, req server.ShardRequest, prefs []*worker, budget *atomic.Int64) (*server.ShardResponse, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in any straggler the hedge raced against

	maxSends := 1 + co.cfg.MaxRetries
	type attempt struct {
		resp  *server.ShardResponse
		err   error
		w     *worker
		start time.Time
	}
	resCh := make(chan attempt, maxSends+1) // +1: the hedge; buffered so stragglers never block
	sends, idx := 0, 0
	// launch sends to the next breaker-admitted worker in preference order,
	// reporting false when every breaker refuses. The send goroutine itself
	// settles the breaker when the request finishes — not the receive loop —
	// so an attempt abandoned mid-flight (another worker won and sctx was
	// cancelled, or the solve ctx expired) still releases its half-open
	// probe slot instead of latching the breaker.
	launch := func(counter *server.Counter) bool {
		for tried := 0; tried < len(prefs); tried++ {
			w := prefs[idx%len(prefs)]
			idx++
			settle, ok := w.br.allow()
			if !ok {
				continue
			}
			sends++
			if counter != nil {
				counter.Inc()
			}
			go func() {
				start := time.Now()
				resp, err := w.client.SolveShard(sctx, req)
				switch {
				case err == nil:
					settle(outcomeSuccess)
				case breakerFailure(err):
					settle(outcomeFailure)
				default:
					settle(outcomeAbandoned)
				}
				resCh <- attempt{resp: resp, err: err, w: w, start: start}
			}()
			return true
		}
		return false
	}
	co.metrics.shards.Inc()
	if !launch(nil) {
		return nil, fmt.Errorf("ircluster: every worker's circuit breaker is open")
	}
	inflight := 1

	var hedgeC <-chan time.Time // nil channel: never fires
	if co.cfg.HedgeAfter > 0 && len(prefs) > 1 {
		t := time.NewTimer(co.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for inflight > 0 {
		select {
		case a := <-resCh:
			inflight--
			if a.err == nil {
				// Cancel the losing side (a straggler the hedge or a retry
				// raced against) before anything else, so its connection and
				// goroutine unwind while we record the win.
				cancel()
				co.metrics.shardLatency.Observe(time.Since(a.start).Seconds())
				return a.resp, nil
			}
			lastErr = a.err
			co.noteFailure(a.w, a.err)
			if !retryable(a.err) {
				return nil, a.err
			}
			if sends < maxSends && budget.Add(-1) >= 0 {
				if err := sleepCtx(ctx, co.retryDelay(sends, a.err)); err != nil {
					return nil, err
				}
				if launch(co.metrics.retries) {
					inflight++
				} else {
					// Nothing was sent (every breaker refused): refund the
					// budget unit so no-op retries cannot drain the solve's
					// pool under a fully-open fleet.
					budget.Add(1)
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if sends < maxSends && launch(co.metrics.hedges) {
				inflight++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// breakerFailure reports whether err should count against the worker's
// circuit breaker: transport failures and overload/5xx responses do,
// request errors (4xx) and caller-side cancellation do not.
func breakerFailure(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.IsShed()
	}
	return true
}

// retryDelay is the wait before retry number attempt (1-based): the
// jittered backoff, stretched to honor a shedding worker's Retry-After
// hint (clamped to MaxRetryAfter).
func (co *Coordinator) retryDelay(attempt int, err error) time.Duration {
	d := co.backoff(attempt)
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
		if d > co.cfg.MaxRetryAfter {
			d = co.cfg.MaxRetryAfter
		}
	}
	return d
}

// noteFailure marks a worker down on transport-level errors (a static
// worker's probe or a dynamic worker's next heartbeat brings it back);
// HTTP-level errors leave liveness alone.
func (co *Coordinator) noteFailure(w *worker, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	if w.setUp(false) {
		co.metrics.workerUp.Set(0, w.name)
		co.cfg.Logger.Printf("ircluster: worker %s down: %v", w.name, err)
		co.fleetChanged()
	}
}

// retryable reports whether another worker could plausibly answer: network
// failures and overload/5xx responses retry, request errors (4xx) do not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.IsShed()
	}
	return true
}

// backoff returns the jittered delay before retry number attempt (1-based):
// base·attempt plus up to 50% random jitter.
func (co *Coordinator) backoff(attempt int) time.Duration {
	d := co.cfg.RetryBackoff * time.Duration(attempt)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shardRequest builds the scatter's base request (everything but the Shard
// field) from a decoded request. Per-shard deadlines inherit the solve
// ctx's deadline, forwarded as timeout_ms so workers bound their own
// admission.
func shardRequest(r *server.Request, ctx context.Context) (server.ShardRequest, error) {
	req := server.ShardRequest{
		Family: r.Family.String(),
		Opts: ir.OptionsWire{
			Procs:           r.Data.Opts.Procs,
			MaxExponentBits: r.Bits,
		},
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl).Milliseconds()
		if remaining < 1 {
			remaining = 1
		}
		req.Opts.TimeoutMs = int(remaining)
	}
	switch {
	case r.Family == ir.FamilyMoebius:
		req.System = ir.SystemWire{M: r.M, N: len(r.G), G: r.G, F: r.F}
		req.A, req.B, req.C, req.D = r.Data.A, r.Data.B, r.Data.C, r.Data.D
		req.X0 = r.Data.X0
		return req, nil
	case r.Family == ir.FamilyGrid2D:
		// Bands attach their own Grid (with halo boundaries) per send.
		return req, nil
	case r.Sparse != nil:
		req.System = ir.WireFromSparse(r.Sparse)
	default:
		req.System = ir.WireFromSystem(r.System)
	}
	req.Op, req.Mod = r.Data.Op, r.Data.Mod
	var init any = r.Data.InitFloat
	if r.Data.InitInt != nil {
		init = r.Data.InitInt
	}
	raw, err := json.Marshal(init)
	if err != nil {
		return req, err
	}
	req.Init = raw
	return req, nil
}
