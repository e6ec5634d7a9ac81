package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

// solve answers one decoded solve: it forwards the client's raw body whole
// to the top-ranked live worker for the request's fingerprint and returns
// that worker's response body verbatim. A solve is never cut across
// workers — every piece would need the whole structure again — so the
// paper's parallelism runs inside the one worker's solve. When no worker
// answers (an empty or fully-down fleet, or every attempt failing) the
// coordinator runs the same decode → plan → solve → respond pipeline
// irserved runs, locally, so it answers whenever a single machine could.
func (co *Coordinator) solve(ctx context.Context, endpoint string, body []byte, req *server.Request, start time.Time) ([]byte, error) {
	fp, err := req.Fingerprint()
	if err != nil {
		return nil, err
	}
	out, err := co.forward(ctx, rankWorkers(co.alive(), fp), server.APIPrefix+endpoint, body)
	if err == nil {
		return out, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	co.metrics.fallbacks.Inc()
	if !errors.Is(err, ErrNoWorkers) {
		co.cfg.Logger.Printf("ircluster: forwarding failed (%v); solving locally", err)
	}
	p, err := req.Plan(ctx, co.plans)
	if err != nil {
		return nil, err
	}
	sol, err := p.SolveCtx(ctx, req.Data)
	if err != nil {
		return nil, err
	}
	resp, err := req.Response(sol, time.Since(start))
	if err != nil {
		return nil, err
	}
	if out, err = json.Marshal(resp); err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// forward POSTs body to path on the first breaker-admitted worker of prefs
// (the solve's rendezvous ranking) with bounded retries — jittered backoff
// stretched by Retry-After hints, each retry on the next-ranked worker —
// and a single hedged duplicate for stragglers, cancelled as soon as a
// winner lands. It returns the winner's 2xx body.
func (co *Coordinator) forward(ctx context.Context, prefs []*worker, path string, body []byte) ([]byte, error) {
	if len(prefs) == 0 {
		return nil, ErrNoWorkers
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in any straggler the hedge raced against

	maxSends := 1 + co.cfg.MaxRetries
	type attempt struct {
		out   []byte
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
				out, err := w.client.Post(sctx, path, body)
				switch {
				case err == nil:
					settle(outcomeSuccess)
				case breakerFailure(err):
					settle(outcomeFailure)
				default:
					settle(outcomeAbandoned)
				}
				resCh <- attempt{out: out, err: err, w: w, start: start}
			}()
			return true
		}
		return false
	}
	co.metrics.forwards.Inc()
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
				co.metrics.forwardLatency.Observe(time.Since(a.start).Seconds())
				return a.out, nil
			}
			lastErr = a.err
			co.noteFailure(a.w, a.err)
			if !retryable(a.err) {
				return nil, a.err
			}
			if sends < maxSends {
				if err := sleepCtx(ctx, co.retryDelay(sends, a.err)); err != nil {
					return nil, err
				}
				if launch(co.metrics.retries) {
					inflight++
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
