// Command perfbench is the repository benchmark: one process that stands up
// the same handlers cmd/irserved and cmd/ircoord mount
// (server.New(...).Handler() and cluster.New(...).Handler()) on loopback
// HTTP, drives them with closed-loop clients from internal/server/client,
// checks every reply bit for bit against the sequential oracle, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// # Layers
//
// Layers are named after their modules: client (internal/server/client),
// server (internal/server: handler, admission pool, plan cache, coalescer),
// ir (the ir facade: wire validation, fingerprints, compile, plan replay),
// grid2d (internal/grid2d, reached through ir), cluster (internal/cluster:
// ircoord scatter/gather) and runtime (the Go process).
//
// # Runs
//
// With --trace 0 the run prints the end-to-end metrics, measured with no
// instrumentation in the request path. With --trace 1 the run spends the
// first half of --seconds untraced and the second half traced, and prints the
// per-layer metrics; trace.overhead_ms is the traced p50 minus the untraced
// p50. Load is closed-loop (every caller of client.Solve* waits for its
// reply) with a fixed client count of at most 2; the workloads and bounds
// were sized on a 2-CPU x86-64 VM.
//
// The end-to-end metrics: setup_s is the median of five set-ups (start the
// servers, generate the inputs, compute the oracle answers, warm the plan
// caches); latency_p50_ms and latency_p90_ms are over the successful ops of
// the run (an op is one client.Solve* call including encode and decode, or on
// lib-grid2d one ir.SolveGrid2DPlanCtx call; the "phase" line states the
// sample count and how many lie beyond p90); throughput_ops is successful ops
// per second; ok_frac is successful ops over attempted ops, i.e. 1 minus the
// failed_frac the run also prints (a metric that reads 0 on correct code
// cannot carry a relative bound); alloc_mb_per_op is the process-wide
// runtime.MemStats.TotalAlloc delta per op and cpu_ms_per_op the process's
// user+system CPU time per op from getrusage.
//
// Tracing never edits the program. A benchmark-owned http.Handler wraps each
// server's Handler() and records the handler span with its body sizes; a
// benchmark-owned RoundTripper tags each request with a span id so handler
// spans join their op even with two clients. Each server-side layer is then
// timed from outside, after the op, by calling its public function on the
// op's own input: json decode of the request struct (server.decode_ms),
// server.DecodeInitInt (server.init_decode_ms), SystemWire.System / Sparse or
// Grid2DSystem.Validate (ir.validate_ms), PlanFingerprint / SparseFingerprint
// / Grid2DFingerprint (ir.fingerprint_ms), Compile* on the structure
// (ir.compile_ms), the warm Solve*PlanCtx (ir.solve_ms) and json encode of
// the reply (server.encode_ms). server.unattributed_ms is the handler span
// minus those layers — body read, admission wait, the coalescer's batch
// window and the socket write — with ir.compile_ms counted only for ops whose
// structure missed the plan cache. client.transport_ms is the op latency
// minus the client encode, client decode and handler spans; like
// server.unattributed_ms it is a residual, and reads below 0 when the replays
// ran slower than the op's own calls. Per-layer times
// are per-op medians over the traced ops; a layer an op does not reach counts
// 0. Counter deltas and the runtime metrics come from the untraced half.
// Spans stay in memory and are reduced when the run ends.
//
// On serve-large the traced run checks its own accounting: the medians of the
// server-side layers plus the median of server.unattributed_ms must equal the
// median handler span to within 10% of it, and the unattributed median must
// not be negative (which would mean the outside replays over-attribute).
// server.accounting_err_frac reports the gap; a failed check makes the run
// incorrect.
//
// # Workloads
//
// serve-large: irserved POST /v1/solve/ordinary with workload.Chains(131072,
// 64) under int64-add, a 2.1 MB body, 1 client, warm plan cache. Chosen
// because the JSON wire dominates: on the 2-CPU VM the round trip costs two
// orders of magnitude more than the sub-millisecond solve (double init parse,
// per-request fingerprint, encode and decode on both sides). Stresses client
// and server codecs and ir.fingerprint; bypasses the coalescer, compile and
// cluster. Predicted: wire changes (plan handles, columnar bodies) move
// latency_p50_ms and alloc_mb_per_op here; solver and grid2d changes do not.
//
// serve-small-mix: irserved with 2 clients cycling through five small
// families — dense ordinary n=1024, sparse ordinary (workload.SparseZipf),
// general mul-mod (workload.RandomGIR(512, 1024)), linear m=1024 through the
// coalescer, and a 32x32 edit-distance grid, four structures of each kept
// warm so no single draw sets the run's latency. One request in eight carries
// a structure from a pool generated at set-up that never repeats within a
// run, so it misses the plan cache and compiles next to the hits. Chosen because
// fixed per-request cost dominates: HTTP, admission, plan-cache lookup or
// compile, and the coalescer's batch window. Stresses server.unattributed_ms
// and ir.compile_ms; bypasses cluster and large-body codecs. Predicted:
// pipeline and coalescer changes move latency_p50_ms, latency_p90_ms and
// throughput_ops here; wire-size changes barely move it.
//
// lib-grid2d: in-process ir.SolveGrid2DPlanCtx on a warm plan over
// workload.EditDistance at 1024x1024 (min-plus), 1 caller. Chosen because the
// solver kernel is the whole op and the wire is absent. Stresses grid2d;
// bypasses client, server and cluster. Predicted: wavefront tiling moves
// latency_p50_ms and cpu_ms_per_op here (grid2d.speedup_vs_oracle and
// grid2d.efficiency keep work reductions apart from parallel gains); wire and
// server changes do not.
//
// coord-scatter: ircoord in front of 2 in-process irserved workers, POST
// /v1/solve/ordinary with workload.Chains(16384, 64), 1 client. Chosen because
// scatter, per-shard RPCs and merge dominate against a sub-millisecond local
// replay. Stresses cluster (and the worker shard endpoint); bypasses the
// coalescer and grid2d. Coordinator and workers share the same cores, so this
// measures overhead, not scaling. Predicted: whole-request routing moves
// latency_p50_ms here and nowhere else.
//
// # Guards
//
// Counter deltas from /metrics are read around every run. A warm serve-large
// or coord-scatter run that shows a plan-cache miss, or a coord-scatter run
// with ircluster_local_fallbacks_total > 0 (the scatter path was never
// measured), is incorrect. A reply that differs from the oracle, a non-2xx
// reply, a 429 or a transport error counts as a failed op.
//
// # Records
//
// Every run prints a "record" line first: GOOS/GOARCH, NumCPU, GOMAXPROCS,
// Go version, commit (from PERFBENCH_COMMIT, which run.sh sets) and the
// workload seed. The program under test sees only the generated inputs.
package main
