// Service: run the irserved solve service in-process and hit it with
// bursts of concurrent typed clients. A linear solve takes the same path as
// every other family: decode, admission (a bounded queue, fair-shared
// between tenants), a plan-cache lookup keyed by the chain's structure, and
// one solve.
//
//	go run ./examples/service
//
// Each client posts its own chain X[i] := a·X[i-1] + 1. The chains come in
// five lengths and three ratios a; a plan is keyed by structure alone —
// (m, g, f), not the coefficients — so once a length has compiled, every
// later request of that length replays the cached plan. The second burst
// therefore runs entirely on plan-cache hits.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
)

const clients = 48

func main() {
	// An in-process service on a loopback port: same wiring as cmd/irserved,
	// minus the flags. Two tenants share the admission queue 4:1.
	s := server.New(server.Config{
		QueueDepth: 256,
		Tenants: map[string]server.TenantConfig{
			"paid": {Weight: 4},
			"free": {Weight: 1},
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("irserved listening on %s\n\n", base)

	ctx := context.Background()
	paid, free := client.New(base), client.New(base)
	paid.Tenant, free.Tenant = "paid", "free"
	if err := paid.Healthz(ctx); err != nil {
		log.Fatal(err)
	}

	for burst := 1; burst <= 2; burst++ {
		start := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			c := paid
			if k%2 == 1 {
				c = free
			}
			wg.Add(1)
			go func(k int, c *client.Client) {
				defer wg.Done()
				solveChain(ctx, c, k)
			}(k, c)
		}
		wg.Wait()
		fmt.Printf("burst %d: solved %d chains in %v\n", burst, clients, time.Since(start).Round(time.Millisecond))
		printMetrics(ctx, paid)
	}

	// Graceful drain: stop admitting, finish in-flight work, then exit.
	shCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		log.Fatal(err)
	}
	hs.Shutdown(shCtx)
	fmt.Println("drained and shut down cleanly")
}

// solveChain posts client k's chain X[0] = 1, X[i] = a·X[i-1] + 1 and
// checks the last cell against its O(n) fold.
func solveChain(ctx context.Context, c *client.Client, k int) {
	n := 8 + k%5
	a := 1 + float64(k%3)
	req := server.LinearRequest{M: n + 1, X0: make([]float64, n+1)}
	req.X0[0] = 1
	for i := 0; i < n; i++ {
		req.G = append(req.G, i+1)
		req.F = append(req.F, i)
		req.A = append(req.A, a)
		req.B = append(req.B, 1)
	}
	out, err := c.SolveLinear(ctx, req)
	if err != nil {
		log.Fatalf("client %d: %v", k, err)
	}
	want := 1.0
	for i := 0; i < n; i++ {
		want = a*want + 1
	}
	if math.Abs(out.Values[n]-want) > 1e-6*math.Abs(want) {
		log.Fatalf("client %d: X[%d] = %v, want %v", k, n, out.Values[n], want)
	}
}

// printMetrics shows the plan-cache and per-endpoint counters as the scrape
// endpoint reports them. Concurrent first requests of one length may each
// compile, so the first burst can miss more than five times; the second
// burst only adds hits.
func printMetrics(ctx context.Context, c *client.Client) {
	text, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "irserved_plan_cache_hits_total") ||
			strings.HasPrefix(line, "irserved_plan_cache_misses_total") ||
			strings.HasPrefix(line, `irserved_requests_total{code="200",endpoint="linear"}`) {
			fmt.Println("  " + line)
		}
	}
	fmt.Println()
}
