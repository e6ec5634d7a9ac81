package main

import (
	"fmt"
	"math"
	"runtime"
)

// accountingTolerance is the serve-large accounting check's allowed gap
// between the median handler span and the medians of its parts, as a share
// of the handler span.
const accountingTolerance = 0.10

// medOf is the median of f over the traced samples.
func medOf(samples []*layerSample, f func(s *layerSample) float64) float64 {
	xs := make([]float64, 0, len(samples))
	for _, s := range samples {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// perLayer reduces a traced run to the per-layer metrics. plain is the
// untraced first half (counters, runtime and the overhead baseline), traced
// the second half (spans and layer replays).
func perLayer(workload string, plain, traced *runStats) result {
	// On coord-scatter the handler span is ircoord's, not irserved's.
	coord := workload == "coord-scatter"
	s := traced.samples
	var res result
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.Correct = plain.mismatch == 0 && traced.mismatch == 0 &&
		plain.guardErr == nil && traced.guardErr == nil && len(s) > 0
	med := func(f func(*layerSample) float64) float64 { return medOf(s, f) }
	ifServer := func(f func(*layerSample) float64) func(*layerSample) float64 {
		return func(ls *layerSample) float64 {
			if !ls.hasHandler || coord {
				return 0
			}
			return f(ls)
		}
	}
	ifCoord := func(f func(*layerSample) float64) func(*layerSample) float64 {
		return func(ls *layerSample) float64 {
			if !ls.hasHandler || !coord {
				return 0
			}
			return f(ls)
		}
	}

	// client
	res.set("client.encode_ms", med(func(l *layerSample) float64 { return l.clientEncode }), "ms")
	res.set("client.decode_ms", med(func(l *layerSample) float64 { return l.clientDecode }), "ms")
	res.set("client.transport_ms", med(func(l *layerSample) float64 {
		if !l.hasHandler {
			return 0
		}
		return msOf(l.lat) - l.clientEncode - l.clientDecode - msOf(l.handler.dur)
	}), "ms")
	res.set("client.req_bytes", med(func(l *layerSample) float64 { return float64(l.handler.reqBytes) }), "bytes")
	res.set("client.resp_bytes", med(func(l *layerSample) float64 { return float64(l.handler.respBytes) }), "bytes")

	// server
	handler := med(ifServer(func(l *layerSample) float64 { return msOf(l.handler.dur) }))
	unattributed := med(ifServer(func(l *layerSample) float64 { return msOf(l.handler.dur) - l.attributed() }))
	parts := []func(*layerSample) float64{
		func(l *layerSample) float64 { return l.serverDecode },
		func(l *layerSample) float64 { return l.initDecode },
		func(l *layerSample) float64 { return l.serverEncode },
		func(l *layerSample) float64 { return l.validate },
		func(l *layerSample) float64 { return l.fingerprint },
		func(l *layerSample) float64 { return l.solve },
		func(l *layerSample) float64 {
			if l.missed {
				return l.compile
			}
			return 0
		},
	}
	sum := unattributed
	for _, p := range parts {
		sum += med(ifServer(p))
	}
	accErr := 0.0
	if handler > 0 {
		accErr = math.Abs(sum-handler) / handler
	}
	res.set("server.handler_ms", handler, "ms")
	res.set("server.decode_ms", med(func(l *layerSample) float64 { return l.serverDecode }), "ms")
	res.set("server.init_decode_ms", med(func(l *layerSample) float64 { return l.initDecode }), "ms")
	res.set("server.encode_ms", med(func(l *layerSample) float64 { return l.serverEncode }), "ms")
	res.set("server.unattributed_ms", unattributed, "ms")
	res.set("server.accounting_err_frac", accErr, "ratio")
	if workload == "serve-large" {
		ok := accErr <= accountingTolerance && unattributed >= 0
		fmt.Printf("accounting serve-large handler=%.4fms parts+unattributed=%.4fms gap=%.4f tolerance=%.2f unattributed=%.4fms ok=%v\n",
			handler, sum, accErr, accountingTolerance, unattributed, ok)
		res.Correct = res.Correct && ok
	}

	// server counters, from the untraced half
	d := plain.deltas
	hits, misses := d["irserved_plan_cache_hits_total"], d["irserved_plan_cache_misses_total"]
	res.set("server.plan_cache_hits", hits, "count")
	res.set("server.plan_cache_misses", misses, "count")
	res.set("server.shed", d["irserved_shed_total"], "count")
	res.set("server.batches", d["irserved_batches_total"], "count")
	res.set("server.batch_size_mean", ratio(d["irserved_batch_size_sum"], d["irserved_batch_size_count"]), "count")
	res.set("server.plan_hit_ratio", ratio(hits, hits+misses), "ratio")

	// ir
	res.set("ir.validate_ms", med(func(l *layerSample) float64 { return l.validate }), "ms")
	res.set("ir.fingerprint_ms", med(func(l *layerSample) float64 { return l.fingerprint }), "ms")
	res.set("ir.compile_ms", med(func(l *layerSample) float64 { return l.compile }), "ms")
	res.set("ir.solve_ms", med(func(l *layerSample) float64 { return l.solve }), "ms")

	// grid2d
	gSolve := med(func(l *layerSample) float64 { return l.gridSolve })
	gOracle := med(func(l *layerSample) float64 { return l.gridOracle })
	speedup := ratio(gOracle, gSolve)
	var cells int64
	var rounds int
	var bytes float64
	if len(s) > 0 {
		cells, rounds, bytes = s[0].gridCells, s[0].gridRounds, s[0].gridBytes
	}
	res.set("grid2d.solve_ms", gSolve, "ms")
	res.set("grid2d.oracle_ms", gOracle, "ms")
	res.set("grid2d.speedup_vs_oracle", speedup, "ratio")
	res.set("grid2d.efficiency", speedup/float64(runtime.NumCPU()), "ratio")
	res.set("grid2d.rounds", float64(rounds), "count")
	res.set("grid2d.ns_per_cell", ratio(gSolve*1e6, float64(cells)), "ns")
	res.set("grid2d.bytes_moved_computed", bytes, "bytes")

	// cluster
	maxShard := func(l *layerSample) float64 {
		m := 0.0
		for _, sh := range l.shards {
			m = max(m, msOf(sh.dur))
		}
		return m
	}
	res.set("cluster.handler_ms", med(ifCoord(func(l *layerSample) float64 { return msOf(l.handler.dur) })), "ms")
	res.set("cluster.shard_rpcs", med(ifCoord(func(l *layerSample) float64 { return float64(len(l.shards)) })), "count")
	res.set("cluster.shard_req_bytes", med(ifCoord(func(l *layerSample) float64 {
		n := int64(0)
		for _, sh := range l.shards {
			n += sh.reqBytes
		}
		return float64(n)
	})), "bytes")
	res.set("cluster.shard_handler_max_ms", med(ifCoord(maxShard)), "ms")
	res.set("cluster.self_ms", med(ifCoord(func(l *layerSample) float64 { return msOf(l.handler.dur) - maxShard(l) })), "ms")
	res.set("cluster.retries", d["ircluster_retries_total"], "count")
	res.set("cluster.local_fallbacks", d["ircluster_local_fallbacks_total"], "count")
	res.set("cluster.shards", d["ircluster_shards_total"], "count")

	// runtime, from the untraced half
	ops := float64(plain.attempted)
	res.set("runtime.gc_cycles_per_op", float64(plain.proc.numGC)/ops, "count")
	res.set("runtime.gc_pause_ms", float64(plain.proc.pauseNs)/1e6/ops, "ms")

	// tracing overhead
	res.set("trace.overhead_ms", quantile(traced.lats, 0.5)-quantile(plain.lats, 0.5), "ms")
	res.set("trace.ops", float64(len(s)), "count")
	return res
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
