package cluster

import (
	"indexedrec/internal/server"
)

// clusterMetrics is the coordinator's observability surface, registered on
// the coordinator's own Registry and rendered by GET /metrics in the same
// hand-rolled exposition format irserved uses.
type clusterMetrics struct {
	forwards       *server.Counter      // ircluster_shards_total
	retries        *server.Counter      // ircluster_retries_total
	hedges         *server.Counter      // ircluster_hedges_total
	fallbacks      *server.Counter      // ircluster_local_fallbacks_total
	workerUp       *server.GaugeVec     // ircluster_worker_up{worker}
	members        *server.Gauge        // ircluster_members
	rebalances     *server.Counter      // ircluster_rebalances_total
	breakerState   *server.GaugeVec     // ircluster_breaker_state{worker}
	breakerOpens   *server.Counter      // ircluster_breaker_opens_total
	forwardLatency *server.Histogram    // ircluster_shard_latency_seconds
	requests       *server.CounterVec   // ircluster_requests_total{endpoint,code}
	solveLatency   *server.HistogramVec // ircluster_solve_seconds{endpoint}

	sessions       *server.Gauge   // ircluster_sessions
	sessionRehomes *server.Counter // ircluster_session_rehomes_total

	planHits, planMisses, planEvictions *server.Counter
	planBytes                           *server.Gauge
}

func newClusterMetrics(reg *server.Registry) *clusterMetrics {
	latencyBounds := []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60}
	return &clusterMetrics{
		forwards: reg.NewCounter("ircluster_shards_total",
			"Solves forwarded whole to a worker (each solve's first send; retries and hedges counted separately)."),
		retries: reg.NewCounter("ircluster_retries_total",
			"Forwarded solves re-sent to the next-ranked worker after a failure, including failovers off dead workers."),
		hedges: reg.NewCounter("ircluster_hedges_total",
			"Duplicate solve requests hedged onto a second worker for stragglers."),
		fallbacks: reg.NewCounter("ircluster_local_fallbacks_total",
			"Solves executed locally because no worker was reachable or every forwarding attempt failed."),
		workerUp: reg.NewGaugeVec("ircluster_worker_up",
			"Worker liveness (1 = probe succeeded or heartbeat lease held).", "worker"),
		members: reg.NewGauge("ircluster_members",
			"Workers currently in the fleet view (static + lease-holding registered)."),
		rebalances: reg.NewCounter("ircluster_rebalances_total",
			"Membership or liveness changes that re-ranked rendezvous solve placement."),
		breakerState: reg.NewGaugeVec("ircluster_breaker_state",
			"Per-worker circuit-breaker state (0 = closed, 1 = half-open, 2 = open).", "worker"),
		breakerOpens: reg.NewCounter("ircluster_breaker_opens_total",
			"Circuit-breaker trips from closed or half-open to open."),
		forwardLatency: reg.NewHistogram("ircluster_shard_latency_seconds",
			"Forwarded-solve round-trip time, successful attempts.", latencyBounds),
		requests: reg.NewCounterVec("ircluster_requests_total",
			"Coordinator HTTP responses by endpoint and status.", "endpoint", "code"),
		solveLatency: reg.NewHistogramVec("ircluster_solve_seconds",
			"End-to-end distributed solve latency by endpoint.", latencyBounds, "endpoint"),
		sessions: reg.NewGauge("ircluster_sessions",
			"Streaming sessions currently proxied through the coordinator."),
		sessionRehomes: reg.NewCounter("ircluster_session_rehomes_total",
			"Sessions rebuilt on another worker by replaying their append log."),
		planHits: reg.NewCounter("ircluster_plan_cache_hits_total",
			"Coordinator plan-cache hits."),
		planMisses: reg.NewCounter("ircluster_plan_cache_misses_total",
			"Coordinator plan-cache misses."),
		planEvictions: reg.NewCounter("ircluster_plan_cache_evictions_total",
			"Coordinator plan-cache evictions."),
		planBytes: reg.NewGauge("ircluster_plan_cache_bytes",
			"Resident bytes of the coordinator's cached plans."),
	}
}

func (m *clusterMetrics) planCacheMetrics() server.PlanCacheMetrics {
	return server.PlanCacheMetrics{
		Hits:      m.planHits,
		Misses:    m.planMisses,
		Evictions: m.planEvictions,
		Bytes:     m.planBytes,
	}
}
