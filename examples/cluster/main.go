// Cluster: the paper's §3 worked example — Livermore loop 23 (2-D implicit
// hydrodynamics) — solved through the ircluster distributed layer. Each
// column's extended linear indexed recurrence is shipped to a coordinator,
// which forwards it whole to the irserved worker ranked first for that
// column's structure; the answer is bit-identical to the local plan solve.
// The six columns are six structures, so they spread over the fleet.
//
// By default the example is self-contained: it starts two in-process
// irserved workers plus a coordinator, solves all six columns, then kills
// one worker and solves again to show retries onto the next-ranked worker
// keeping answers identical. Point it at a real fleet instead with
// -coordinator:
//
//	go run ./examples/cluster
//	go run ./examples/cluster -coordinator http://127.0.0.1:8070
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"indexedrec/internal/cluster"
	"indexedrec/internal/livermore"
	"indexedrec/internal/moebius"
	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

func main() {
	coord := flag.String("coordinator", "", "coordinator base URL (empty = start an in-process fleet)")
	rows := flag.Int("rows", 2048, "loop 23 problem size (rows per column)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base := *coord
	var workerSrvs []*http.Server
	var co *cluster.Coordinator
	if base == "" {
		// Self-contained fleet: two irserved workers and a coordinator, all
		// in this process, on loopback ports.
		var addrs []string
		for i := 0; i < 2; i++ {
			s := server.New(server.Config{})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			hs := &http.Server{Handler: s.Handler()}
			go func() { _ = hs.Serve(l) }()
			workerSrvs = append(workerSrvs, hs)
			addrs = append(addrs, l.Addr().String())
		}
		co = cluster.New(cluster.Config{Workers: addrs, ProbeInterval: -1})
		defer co.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		front := &http.Server{Handler: co.Handler()}
		go func() { _ = front.Serve(l) }()
		defer front.Close()
		base = "http://" + l.Addr().String()
		fmt.Printf("in-process fleet: workers %s, coordinator %s\n\n", strings.Join(addrs, ", "), base)
	}
	c := client.NewPooled(base, time.Minute)
	if err := c.Healthz(ctx); err != nil {
		log.Fatalf("coordinator %s unreachable: %v", base, err)
	}

	k := livermore.ByID(23)
	fmt.Println("Livermore loop 23 core (as in the paper, column j fixed):")
	fmt.Println("   ", k.DSL)
	fmt.Println()

	first := make(map[int][]float64)
	solveAll := func(pass string) {
		var worst float64
		for j := 1; j <= 6; j++ {
			got := solveColumn(ctx, c, k, *rows, j)
			if prev, ok := first[j]; ok {
				for i := range got {
					if got[i] != prev[i] {
						log.Fatalf("column %d cell %d changed across passes: %v != %v", j, i, got[i], prev[i])
					}
				}
			} else {
				first[j] = got
			}
			// Cross-check against the sequential kernel (regrouping the
			// Möbius composition only costs rounding).
			seq := k.Setup(*rows)
			seq.Scalars["j"] = float64(j)
			k.Native(*rows, seq)
			for i, want := range seq.Arrays["X"] {
				rel := math.Abs(got[i]-want) / math.Max(1, math.Abs(want))
				if rel > worst {
					worst = rel
				}
			}
		}
		fmt.Printf("%s: 6 columns × %d rows solved distributed; max deviation vs sequential: %.3g\n",
			pass, *rows, worst)
		if worst > 1e-9 {
			log.Fatal("deviation too large — distribution should only regroup, never change math")
		}
	}

	solveAll("pass 1 (full fleet)")

	if *coord == "" {
		// Chaos act: kill one worker and solve again. The coordinator has no
		// probe running, so it still believes the worker is up — each column
		// routed to it fails over to the next-ranked worker (a retry), and
		// every value must come back unchanged.
		_ = workerSrvs[0].Close()
		solveAll("pass 2 (one worker killed)")
	} else {
		solveAll("pass 2 (replay)")
	}

	if metrics, err := c.Metrics(ctx); err == nil {
		fmt.Println("\ncoordinator counters:")
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, "ircluster_shards_total") ||
				strings.HasPrefix(line, "ircluster_retries_total") ||
				strings.HasPrefix(line, "ircluster_hedges_total") ||
				strings.HasPrefix(line, "ircluster_local_fallbacks_total") {
				fmt.Println("   ", line)
			}
		}
	}
	fmt.Println("\nOK — all passes bit-identical, within rounding of the sequential kernel.")
}

// solveColumn ships column j's recurrence to the coordinator as an
// extended-form linear solve, checks it bit-matches the local plan path,
// and returns the distributed values.
func solveColumn(ctx context.Context, c *client.Client, k *livermore.Kernel, rows, j int) []float64 {
	e := k.Setup(rows)
	x, y, z := e.Arrays["X"], e.Arrays["Y"], e.Arrays["Z"]
	m := len(x)
	var g, f []int
	var a, b []float64
	for i := 2; i <= rows; i++ {
		gi, fi := 7*(i-1)+j, 7*(i-2)+j
		g = append(g, gi)
		f = append(f, fi)
		a = append(a, 0.75*z[gi]) // X[g] := X[g] + a·X[f] + b
		b = append(b, 0.75*y[i])
	}

	resp, err := c.SolveLinear(ctx, server.LinearRequest{
		M: m, G: g, F: f, A: a, B: b, X0: x, Extended: true,
	})
	if err != nil {
		log.Fatalf("column %d: distributed solve: %v", j, err)
	}

	// Local baseline: the plan path every worker (and the coordinator's
	// local fallback) runs.
	ms := moebius.NewExtended(m, g, f, a, b, x)
	p, err := ir.CompileMoebiusCtx(ctx, m, ms.G, ms.F)
	if err != nil {
		log.Fatalf("column %d: compile: %v", j, err)
	}
	want, err := ir.SolveMoebiusPlanCtx(ctx, p, ms.A, ms.B, ms.C, ms.D, x, ir.SolveOptions{})
	if err != nil {
		log.Fatalf("column %d: local solve: %v", j, err)
	}
	for i := range want {
		if resp.Values[i] != want[i] {
			log.Fatalf("column %d cell %d: distributed %v != local %v", j, i, resp.Values[i], want[i])
		}
	}
	return resp.Values
}
