package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// clusterCase is one family's local-vs-distributed throughput comparison:
// the same system solved in-process and via the coordinator's solve API,
// results checked bit-identical.
type clusterCase struct {
	id    string
	title string
	run   func(ctx context.Context, c *client.Client, m, iters int) (string, error)
}

// runClusterBench benchmarks an ircluster coordinator (or a single
// irserved) at target against in-process solves of the same systems. With
// asJSON it emits one record per family in the same JSON-lines schema the
// experiment runs use.
func runClusterBench(ctx context.Context, target string, n int, quick, asJSON bool) error {
	base := target
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := client.NewPooled(base, 2*time.Minute)
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("%s unreachable: %w", target, err)
	}

	m, iters := 1<<16, 6
	if quick {
		m, iters = 1<<12, 2
	}
	if n > 0 {
		m = n
	}

	cases := []clusterCase{
		{"cluster-ordinary", "local vs distributed ordinary solve (int64-add chains)", benchClusterOrdinary},
		{"cluster-general", "local vs distributed general solve (mul-mod)", benchClusterGeneral},
		{"cluster-linear", "local vs distributed linear solve (affine chain)", benchClusterLinear},
	}
	enc := json.NewEncoder(os.Stdout)
	for _, cc := range cases {
		start := time.Now()
		out, err := cc.run(ctx, c, m, iters)
		if asJSON {
			rec := result{
				ID:        cc.id,
				Title:     cc.title,
				OK:        err == nil,
				ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
				Output:    out,
			}
			if err != nil {
				rec.Error = err.Error()
			}
			if encErr := enc.Encode(rec); encErr != nil {
				return encErr
			}
			if err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", cc.id, err)
		}
		fmt.Println(out)
	}
	return nil
}

// timedSolves runs f iters times, returning the total wall time.
func timedSolves(iters int, f func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// compareLine renders the throughput comparison for one side pair.
func compareLine(id string, m, n, iters int, local, remote time.Duration, identical bool) string {
	rate := func(d time.Duration) float64 {
		return float64(m) * float64(iters) / d.Seconds() / 1e6
	}
	match := "bit-identical"
	if !identical {
		match = "MISMATCH"
	}
	return fmt.Sprintf(
		"%-16s m=%d n=%d iters=%d\n  local:       %8.2f ms/solve  %7.2f Mcell/s\n  distributed: %8.2f ms/solve  %7.2f Mcell/s  (%.2fx vs local)\n  results: %s",
		id, m, n, iters,
		float64(local.Microseconds())/1000/float64(iters), rate(local),
		float64(remote.Microseconds())/1000/float64(iters), rate(remote),
		local.Seconds()/remote.Seconds(), match)
}

// benchClusterOrdinary races an 8-chain ordinary prefix system, which the
// coordinator forwards whole to the worker ranked first for its structure.
func benchClusterOrdinary(ctx context.Context, c *client.Client, m, iters int) (string, error) {
	const chains = 8
	var g, f []int
	for s := 0; s < chains && s < m; s++ {
		for j := s; j+chains < m; j += chains {
			g = append(g, j+chains)
			f = append(f, j)
		}
	}
	sys := &ir.System{M: m, N: len(g), G: g, F: f}
	init := make([]int64, m)
	for i := range init {
		init[i] = int64(i%7) + 1
	}
	op, err := ir.IntOpByName("int64-add", 0)
	if err != nil {
		return "", err
	}

	var localVals []int64
	local, err := timedSolves(iters, func() error {
		res, err := ir.SolveOrdinaryCtx(ctx, sys, op, init, ir.SolveOptions{})
		if err == nil {
			localVals = res.Values
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("local: %w", err)
	}

	rawInit, err := json.Marshal(init)
	if err != nil {
		return "", err
	}
	req := server.OrdinaryRequest{
		System: ir.SystemWire{M: m, G: g, F: f},
		Op:     "int64-add",
		Init:   rawInit,
	}
	var remoteVals []int64
	remote, err := timedSolves(iters, func() error {
		resp, err := c.SolveOrdinary(ctx, req)
		if err == nil {
			remoteVals = resp.ValuesInt
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("distributed: %w", err)
	}
	return compareLine("ordinary", m, len(g), iters, local, remote, sameInt64(localVals, remoteVals)), nil
}

// benchClusterGeneral races a general mul-mod system, forwarded whole like
// every coordinator solve.
func benchClusterGeneral(ctx context.Context, c *client.Client, m, iters int) (string, error) {
	n := m
	g := make([]int, n)
	f := make([]int, n)
	h := make([]int, n)
	for i := 0; i < n; i++ {
		g[i], f[i], h[i] = i, (i*7+3)%m, (i*5+1)%m
	}
	sys := &ir.System{M: m, N: n, G: g, F: f, H: h}
	init := make([]int64, m)
	for i := range init {
		init[i] = int64(i%997) + 1
	}
	const mod = 1_000_003
	op, err := ir.IntOpByName("mul-mod", mod)
	if err != nil {
		return "", err
	}

	var localVals []int64
	local, err := timedSolves(iters, func() error {
		res, err := ir.SolveGeneralCtx(ctx, sys, op, init, ir.SolveOptions{})
		if err == nil {
			localVals = res.Values
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("local: %w", err)
	}

	rawInit, err := json.Marshal(init)
	if err != nil {
		return "", err
	}
	req := server.GeneralRequest{
		System: ir.SystemWire{M: m, G: g, F: f, H: h},
		Op:     "mul-mod",
		Mod:    mod,
		Init:   rawInit,
	}
	var remoteVals []int64
	remote, err := timedSolves(iters, func() error {
		resp, err := c.SolveGeneral(ctx, req)
		if err == nil {
			remoteVals = resp.ValuesInt
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("distributed: %w", err)
	}
	return compareLine("general", m, n, iters, local, remote, sameInt64(localVals, remoteVals)), nil
}

// benchClusterLinear races an affine chain through the Möbius family.
func benchClusterLinear(ctx context.Context, c *client.Client, m, iters int) (string, error) {
	n := m - 1
	g := make([]int, n)
	f := make([]int, n)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		g[i], f[i] = i+1, i
		a[i] = 1 + float64(i%3)*0.0001
		b[i] = 0.5
	}
	x0 := make([]float64, m)
	x0[0] = 1

	var localVals []float64
	local, err := timedSolves(iters, func() error {
		vals, err := ir.SolveLinearCtx(ctx, m, g, f, a, b, x0, ir.SolveOptions{})
		if err == nil {
			localVals = vals
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("local: %w", err)
	}

	req := server.LinearRequest{M: m, G: g, F: f, A: a, B: b, X0: x0}
	var remoteVals []float64
	remote, err := timedSolves(iters, func() error {
		resp, err := c.SolveLinear(ctx, req)
		if err == nil {
			remoteVals = resp.Values
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("distributed: %w", err)
	}
	return compareLine("linear", m, n, iters, local, remote, sameFloat64(localVals, remoteVals)), nil
}

func sameInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloat64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
