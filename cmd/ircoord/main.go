// Command ircoord is the ircluster coordinator daemon: it fronts a fleet of
// irserved workers with the same /v1/solve JSON API a single irserved
// exposes, scattering each solve's shards across the fleet and gathering
// the slices into a bit-identical solution (see internal/cluster).
//
//	ircoord                                           # elastic fleet on :8070
//	ircoord -workers host1:8080,host2:8080            # static fleet
//	ircoord -addr :9000 -workers host1:8080 -hedge-after 500ms
//	curl -s localhost:8070/v1/cluster/workers
//
// The fleet is elastic: -workers is optional, and workers started with
// -coordinator-url self-register (POST /v1/cluster/register) and hold
// heartbeat leases of -lease; a missed lease drops the worker and its
// shards re-home by rendezvous hashing. Each worker sits behind a circuit
// breaker tuned by -breaker-threshold/-breaker-cooldown, and retries draw
// on a per-solve -retry-budget. With -cluster-token the membership
// endpoints require the shared token (workers pass the same value to their
// -cluster-token flag); without one they are open and must only be exposed
// on a trusted network.
//
// Endpoints: POST /v1/solve/{ordinary,general,linear,moebius} (the loop
// endpoint is intentionally absent — loop *execution* stays single-node),
// the streaming-session pass-through POST /v1/session, POST
// /v1/session/{id}/append, GET/DELETE /v1/session/{id} (each session is
// pinned by rendezvous hash to one worker and re-homed by replay when that
// worker dies), GET /healthz, /readyz, /metrics, /version, and the
// membership API /v1/cluster/{workers,register,heartbeat,deregister}.
// SIGINT/SIGTERM trigger a graceful shutdown; in-flight solves finish
// under their deadlines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof-addr listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"indexedrec/internal/cluster"
	"indexedrec/internal/server"
)

func main() {
	defer func() {
		if r := recover(); r != nil {
			fail("internal error: %v", r)
		}
	}()
	var (
		addr          = flag.String("addr", ":8070", "listen address")
		workers       = flag.String("workers", "", "comma-separated static worker addresses (optional; elastic workers self-register)")
		retries       = flag.Int("retries", 3, "max per-shard re-sends after the first attempt")
		retryBudget   = flag.Int("retry-budget", 0, "per-solve retry budget shared by all shards (0 = 4 + 2 per shard, negative disables)")
		retryBackoff  = flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff between a shard's attempts")
		maxRetryAfter = flag.Duration("max-retry-after", 2*time.Second, "cap on how far a worker's Retry-After hint stretches one backoff")
		hedgeAfter    = flag.Duration("hedge-after", 2*time.Second, "hedge a duplicate shard request after this long (negative disables)")
		probeInterval = flag.Duration("probe-interval", 5*time.Second, "static-worker health-probe period (negative disables)")
		lease         = flag.Duration("lease", 5*time.Second, "membership lease granted to self-registering workers")
		clusterToken  = flag.String("cluster-token", "", "shared token required on the membership endpoints (empty = open; trusted networks only)")
		brThreshold   = flag.Int("breaker-threshold", 3, "consecutive failures that open a worker's circuit breaker (negative disables)")
		brCooldown    = flag.Duration("breaker-cooldown", 5*time.Second, "wait before an open breaker admits its half-open probe")
		reqTimeout    = flag.Duration("request-timeout", 60*time.Second, "cap on one shard HTTP request")
		planCache     = flag.Int64("plan-cache", 0, "compiled-plan cache budget in bytes (0 = 256 MiB default, negative disables)")
		maxN          = flag.Int("max-n", 4<<20, "max iterations per request")
		procs         = flag.Int("procs", 0, "per-solve goroutine budget that client procs are clamped to (0 = GOMAXPROCS)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
		showVersion   = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	servePprof(*pprofAddr)

	if *showVersion {
		v := server.BuildVersion()
		fmt.Printf("ircoord %s %s rev %s\n", v.Version, v.Go, v.Revision)
		return
	}

	fleet := splitList(*workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	co := cluster.New(cluster.Config{
		Workers:          fleet,
		MaxRetries:       *retries,
		RetryBudget:      *retryBudget,
		RetryBackoff:     *retryBackoff,
		MaxRetryAfter:    *maxRetryAfter,
		HedgeAfter:       *hedgeAfter,
		ProbeInterval:    *probeInterval,
		LeaseTTL:         *lease,
		ClusterToken:     *clusterToken,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		RequestTimeout:   *reqTimeout,
		PlanCacheBytes:   *planCache,
		MaxN:             *maxN,
		Procs:            *procs,
	})
	if len(fleet) == 0 {
		fmt.Printf("ircoord: elastic fleet on %s (workers self-register; lease %v)\n", *addr, *lease)
	} else {
		fmt.Printf("ircoord: coordinating %d workers on %s\n", len(fleet), *addr)
	}
	if err := co.ListenAndServe(ctx, *addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("%v", err)
	}
	fmt.Println("ircoord: stopped, bye")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ircoord: "+format+"\n", args...)
	os.Exit(1)
}

// servePprof exposes the net/http/pprof endpoints (registered on the default
// mux by the blank import) on their own listener, kept off the service
// address so profiling is never publicly routable by accident.
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "ircoord: pprof listener: %v\n", err)
		}
	}()
	fmt.Printf("ircoord: pprof on http://%s/debug/pprof/\n", addr)
}

// splitList parses a comma-separated address list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
