package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"indexedrec/internal/server"
	"indexedrec/internal/server/client"
	"indexedrec/ir"
)

// gridSpec wraps a grid system as the solve spec specGrid2D would build.
func gridSpec(sys *ir.Grid2DSystem) *server.Request {
	return &server.Request{Family: ir.FamilyGrid2D, Grid: sys, Data: ir.PlanData{Grid: sys}}
}

// randGrid draws a full-mask grid over the given semiring; tropical rings
// use small integer costs so every path sum is exact.
func randGrid(rng *rand.Rand, rows, cols int, semiring string) *ir.Grid2DSystem {
	n := rows * cols
	grid := func(scale float64, offset float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			if semiring == "" || semiring == "affine" {
				out[i] = (rng.Float64()*2-1)*scale + offset
			} else {
				out[i] = float64(rng.Intn(21) - 10)
			}
		}
		return out
	}
	edge := func(k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			if semiring == "" || semiring == "affine" {
				out[i] = rng.Float64()*2 - 1
			} else {
				out[i] = float64(rng.Intn(11))
			}
		}
		return out
	}
	return &ir.Grid2DSystem{
		Rows: rows, Cols: cols, Semiring: semiring,
		A: grid(0.3, 0), B: grid(0.3, 0), Diag: grid(0.3, 0), C: grid(1, 0),
		North: edge(cols), West: edge(rows), NorthWest: 1,
	}
}

// gridReference solves sys locally through the public facade.
func gridReference(t testing.TB, sys *ir.Grid2DSystem) *ir.Grid2DResult {
	t.Helper()
	res, err := ir.SolveGrid2D(sys, ir.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGrid2DScatterMatchesLocal pipelines row bands across fleets of
// several sizes and requires the stitched result to be bit-identical to a
// local solve, with every band served remotely (no silent fallback).
func TestGrid2DScatterMatchesLocal(t *testing.T) {
	defer checkGoroutines(t)()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3} {
		for _, ring := range []string{"", "minplus", "maxplus"} {
			co, workers, down := newFleet(t, n, nil)
			var shardHits atomic.Int64
			for _, tw := range workers {
				count := func(r *http.Request) bool {
					if strings.HasSuffix(r.URL.Path, "solve") && strings.Contains(r.URL.Path, "shard") {
						shardHits.Add(1)
					}
					return true
				}
				tw.intercept.Store(&count)
			}
			sys := randGrid(rng, 37, 23, ring)
			want := gridReference(t, sys)
			sol, err := co.Solve(context.Background(), gridSpec(sys))
			if err != nil {
				t.Fatalf("fleet=%d ring=%q: %v", n, ring, err)
			}
			assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
			if sol.Rounds != want.Rounds {
				t.Fatalf("fleet=%d ring=%q: rounds %d != %d", n, ring, sol.Rounds, want.Rounds)
			}
			if got := co.metrics.fallbacks.Value(); got != 0 {
				t.Fatalf("fleet=%d ring=%q: %d local fallbacks, want none", n, ring, got)
			}
			if hits := shardHits.Load(); hits < int64(n) {
				t.Fatalf("fleet=%d ring=%q: only %d shard requests for %d bands", n, ring, hits, n)
			}
			down()
		}
	}
}

// TestGrid2DMoreWorkersThanRows caps the band count at the row count so no
// worker receives an empty band.
func TestGrid2DMoreWorkersThanRows(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 4, nil)
	defer down()
	sys := randGrid(rand.New(rand.NewSource(11)), 2, 29, "minplus")
	want := gridReference(t, sys)
	sol, err := co.Solve(context.Background(), gridSpec(sys))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
}

// TestGrid2DNoWorkersFallback requires an empty fleet to degrade to a
// local solve with the same bits, counting one fallback.
func TestGrid2DNoWorkersFallback(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 0, nil)
	defer down()
	sys := randGrid(rand.New(rand.NewSource(3)), 19, 31, "")
	want := gridReference(t, sys)
	sol, err := co.Solve(context.Background(), gridSpec(sys))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
	if got := co.metrics.fallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
}

// TestGrid2DWorkerCrashFallsBack kills every worker mid-pipeline and
// requires the coordinator to finish the solve locally, bit-identical.
func TestGrid2DWorkerCrashFallsBack(t *testing.T) {
	defer checkGoroutines(t)()
	co, workers, down := newFleet(t, 2, nil)
	defer down()
	for _, tw := range workers {
		die := func(r *http.Request) bool { return !strings.Contains(r.URL.Path, "shard") }
		tw.intercept.Store(&die)
	}
	sys := randGrid(rand.New(rand.NewSource(5)), 23, 17, "maxplus")
	want := gridReference(t, sys)
	sol, err := co.Solve(context.Background(), gridSpec(sys))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, sol, &ir.PlanSolution{Values: want.Values})
	if got := co.metrics.fallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
}

// TestGrid2DFrontEndToEnd drives POST /v1/solve/grid2d on the coordinator
// through the typed client and checks the distributed answer against the
// local facade, plus the 422 mapping for non-finite solutions.
func TestGrid2DFrontEndToEnd(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 2, nil)
	defer down()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	c := client.New(front.URL)

	sys := randGrid(rand.New(rand.NewSource(9)), 29, 13, "minplus")
	want := gridReference(t, sys)
	resp, err := c.SolveGrid2D(context.Background(), server.Grid2DRequest{System: *sys})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != len(want.Values) {
		t.Fatalf("got %d values, want %d", len(resp.Values), len(want.Values))
	}
	for i := range want.Values {
		if resp.Values[i] != want.Values[i] {
			t.Fatalf("cell %d: distributed %v != local %v", i, resp.Values[i], want.Values[i])
		}
	}
	if resp.Rounds != want.Rounds || resp.Cells != want.Cells {
		t.Fatalf("rounds/cells (%d, %d) != (%d, %d)", resp.Rounds, resp.Cells, want.Rounds, want.Cells)
	}

	// Affine overflow surfaces as 422, the same class irserved reports.
	bad := randGrid(rand.New(rand.NewSource(2)), 40, 40, "")
	for i := range bad.A {
		bad.A[i] = 1e300
	}
	for i := range bad.C {
		bad.C[i] = 1e300
	}
	_, err = c.SolveGrid2D(context.Background(), server.Grid2DRequest{System: *bad})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 APIError, got %v", err)
	}
}

// TestFrontJSONErrorSchema pins the coordinator's edge responses — unknown
// path, wrong method, and the unimplemented loop route — to the same JSON
// wire error schema the implemented endpoints speak, and decodes each the
// way the typed client does.
func TestFrontJSONErrorSchema(t *testing.T) {
	defer checkGoroutines(t)()
	co, _, down := newFleet(t, 0, nil)
	defer down()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	decode := func(t *testing.T, resp *http.Response) server.ErrorResponse {
		t.Helper()
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("body %q is not the JSON error schema: %v", body, err)
		}
		if er.Error == "" || er.Code != resp.StatusCode {
			t.Fatalf("decoded %+v, want non-empty error and code %d", er, resp.StatusCode)
		}
		return er
	}

	t.Run("unknown path 404", func(t *testing.T) {
		resp, err := http.Get(front.URL + "/v1/solve/no-such-family")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		er := decode(t, resp)
		if !strings.Contains(er.Error, "/v1/solve/no-such-family") {
			t.Fatalf("error %q does not name the path", er.Error)
		}
	})

	t.Run("wrong method 405", func(t *testing.T) {
		resp, err := http.Get(front.URL + server.APIPrefix + "grid2d")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
			t.Fatalf("Allow = %q, want POST", allow)
		}
		decode(t, resp)
	})

	t.Run("client decodes unimplemented loop", func(t *testing.T) {
		c := client.New(front.URL)
		_, err := c.SolveLoop(context.Background(), server.LoopRequest{Loop: "x"})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("want APIError, got %v", err)
		}
		if apiErr.Status != http.StatusNotImplemented || !strings.Contains(apiErr.Message, "worker") {
			t.Fatalf("got %d %q, want 501 pointing at a worker", apiErr.Status, apiErr.Message)
		}
	})
}
