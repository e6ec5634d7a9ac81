package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indexedrec/internal/server"
)

// spanHeader carries the benchmark's span id from the client to the handler
// wrapper, so a handler span joins the op that caused it.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// withSpan returns ctx tagged with the op's span id.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, strconv.FormatUint(id, 10))
}

// span is one handler execution seen by a wrapper.
type span struct {
	dur       time.Duration
	reqBytes  int64
	respBytes int64
}

// tracer keeps handler spans in memory while recording is on: irserved and
// ircoord handler spans by span id, and worker shard spans in arrival order
// (coord-scatter has one closed-loop client, so every shard span recorded
// while an op is in flight belongs to that op).
type tracer struct {
	on     atomic.Bool
	mu     sync.Mutex
	spans  map[string]span
	shards []span
}

func newTracer() *tracer { return &tracer{spans: map[string]span{}} }

// wrap returns h with its solve requests timed. Shard requests
// (POST /v1/shard/solve) go to the shard list; any other request carrying a
// span id is recorded under it. Health probes and scrapes are passed through.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(spanHeader)
		shard := r.URL.Path == server.ShardPrefix+"solve"
		if !t.on.Load() || (id == "" && !shard) {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		sp := span{dur: time.Since(start), reqBytes: r.ContentLength, respBytes: cw.n}
		t.mu.Lock()
		if shard {
			t.shards = append(t.shards, sp)
		} else {
			t.spans[id] = sp
		}
		t.mu.Unlock()
	})
}

// take removes and returns the span recorded under id, and every shard span
// recorded so far.
func (t *tracer) take(id uint64) (sp span, ok bool, shards []span) {
	key := strconv.FormatUint(id, 10)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok = t.spans[key]
	delete(t.spans, key)
	shards, t.shards = t.shards, nil
	return sp, ok, shards
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// tagTransport copies the span id of a request's context into spanHeader.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, id)
	}
	return t.base.RoundTrip(r)
}

// layerSample is one traced op: its latency, the handler spans it caused,
// and the outside replays of each layer on its input (milliseconds).
type layerSample struct {
	lat time.Duration
	// handler is the irserved (or, on coord-scatter, ircoord) handler span.
	handler    span
	hasHandler bool
	shards     []span
	// missed marks an op whose structure was new to the plan cache, so the
	// handler span contains a compile.
	missed bool

	clientEncode, clientDecode             float64
	serverDecode, initDecode, serverEncode float64
	validate, fingerprint, compile, solve  float64
	gridSolve, gridOracle                  float64
	gridRounds                             int
	gridCells                              int64
	gridBytes                              float64
}

// attributed is the part of the handler span the replayed layers explain.
func (s *layerSample) attributed() float64 {
	t := s.serverDecode + s.initDecode + s.serverEncode + s.validate + s.fingerprint + s.solve
	if s.missed {
		t += s.compile
	}
	return t
}

// timeMs runs f and returns its wall time in milliseconds.
func timeMs(f func()) float64 {
	start := time.Now()
	f()
	return msOf(time.Since(start))
}
