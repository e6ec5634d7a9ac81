// Package server is the solve service over the hardened solver runtime: an
// HTTP JSON API (stdlib only) exposing the ordinary, general, linear/Möbius
// and loop-source solvers behind admission control (bounded queue, load
// shedding), a dynamic batch coalescer for Möbius-family requests, a
// compiled-plan LRU cache, a worker pool sized off GOMAXPROCS, and built-in
// observability (/healthz, /readyz, Prometheus /metrics). cmd/irserved is a
// thin daemon over this package; the client subpackage is the matching Go
// client.
//
// # Request path
//
// Every solve request is decoded and validated before admission (client
// mistakes cost no worker time), then queued; a full queue sheds with 429 +
// Retry-After. Each wire body type has one decoder on Limits, producing a
// Request; every family and encoding then runs the same pipeline (see
// request.go): Request.Plan resolves the compiled plan through the plan
// cache (see plancache.go), the plan replays the request's data, and
// Request.Response shapes the reply. The shard endpoint (shard.go) and the
// internal/cluster coordinator run the same pipeline, ending in a shard
// replay or a scatter respectively. Workers execute solves under the
// request's context, so deadlines and client disconnects abandon work
// promptly. Möbius-family requests pass through the coalescer, which holds
// the first request of a batch up to BatchWindow waiting for companions and
// dispatches the whole batch as one sweep. Requests sharing an index-map
// fingerprint reuse one compiled plan and pay only the data phase;
// DESIGN.md §9 has the diagram.
//
// # Invariants
//
// Responses are bit-identical whether a plan came from the cache or was
// compiled afresh (the cache disabled), whether a solve ran batched or fell
// back to a per-item solve, and whichever role served it — caching,
// coalescing and distribution are performance layers, never semantic ones. Every admitted request gets
// exactly one response; Shutdown drains in-flight work before the pool
// exits.
//
// # Concurrency
//
// Server is safe for concurrent use by any number of HTTP clients. Internal
// state is guarded per-structure (the pool's queue, the coalescer's
// channel, the plan cache's mutex, atomic metrics); handlers share no
// mutable per-request state.
package server
