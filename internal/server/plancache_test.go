package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"indexedrec/ir"
)

// fakePlan is a CachedPlan of a declared size, for exercising the LRU
// bookkeeping without compiling anything.
type fakePlan int64

func (p fakePlan) SizeBytes() int64 { return int64(p) }

func newBareCache(t *testing.T, maxBytes int64) (*PlanCache, *serverMetrics) {
	t.Helper()
	m := newServerMetrics(NewRegistry(), func() float64 { return 0 }, 1)
	return NewPlanCache(maxBytes, m.planCacheMetrics()), m
}

// TestPlanCacheLRU drives the cache directly: byte accounting, recency
// order, eviction of the least-recently-used entry, and the oversized-plan
// admission rule.
func TestPlanCacheLRU(t *testing.T) {
	c, m := newBareCache(t, 100)

	c.Put("a", fakePlan(40))
	c.Put("b", fakePlan(40))
	if _, ok := c.Get("a"); !ok { // refresh a: now b is LRU
		t.Fatal("a missing after put")
	}
	c.Put("c", fakePlan(40)) // 120 > 100: evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted; want the recently-used entry kept")
	}
	if got := m.planEvictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.bytes != 80 || m.planBytes.Value() != 80 {
		t.Errorf("bytes = %d (gauge %v), want 80", c.bytes, m.planBytes.Value())
	}

	// An entry larger than the whole cache is refused outright.
	c.Put("huge", fakePlan(101))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized plan was cached")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}

	// Re-inserting an existing key neither duplicates nor re-accounts.
	c.Put("a", fakePlan(40))
	if c.Len() != 2 || c.bytes != 80 {
		t.Errorf("after duplicate put: len = %d bytes = %d, want 2 and 80", c.Len(), c.bytes)
	}
}

// TestPlanCacheWarmSolves posts identical ordinary, general and linear
// requests twice each and asserts the second pass replayed cached plans
// (hits advanced, answers unchanged) and that the counters surface on
// /metrics under the documented names.
func TestPlanCacheWarmSolves(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{})
		defer down()

		ord := OrdinaryRequest{
			System: systemWireChain(16),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]`),
		}
		gen := GeneralRequest{
			System: systemWireScatter(12),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1,1,1,1,1]`),
		}
		lin := chainLinear(8)

		var ordVals [2][]int64
		var genVals [2][]int64
		var linVals [2][]float64
		for pass := 0; pass < 2; pass++ {
			resp, data := post(t, ts.URL+APIPrefix+"ordinary", ord)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ordinary pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			var or OrdinaryResponse
			if err := json.Unmarshal(data, &or); err != nil {
				t.Fatal(err)
			}
			ordVals[pass] = or.ValuesInt

			resp, data = post(t, ts.URL+APIPrefix+"general", gen)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("general pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			var gr GeneralResponse
			if err := json.Unmarshal(data, &gr); err != nil {
				t.Fatal(err)
			}
			genVals[pass] = gr.ValuesInt

			resp, data = post(t, ts.URL+APIPrefix+"linear", lin)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("linear pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			var mr MoebiusResponse
			if err := json.Unmarshal(data, &mr); err != nil {
				t.Fatal(err)
			}
			linVals[pass] = mr.Values
		}

		if fmt.Sprint(ordVals[0]) != fmt.Sprint(ordVals[1]) {
			t.Errorf("ordinary warm replay diverged: %v vs %v", ordVals[0], ordVals[1])
		}
		if fmt.Sprint(genVals[0]) != fmt.Sprint(genVals[1]) {
			t.Errorf("general warm replay diverged: %v vs %v", genVals[0], genVals[1])
		}
		if fmt.Sprint(linVals[0]) != fmt.Sprint(linVals[1]) {
			t.Errorf("linear warm replay diverged: %v vs %v", linVals[0], linVals[1])
		}
		if ordVals[1][16] != 17 {
			t.Errorf("ordinary answer wrong: %v", ordVals[1])
		}

		if hits := s.metrics.planHits.Value(); hits < 3 {
			t.Errorf("plan cache hits = %d, want >= 3 (one warm replay per family)", hits)
		}
		if misses := s.metrics.planMisses.Value(); misses < 3 {
			t.Errorf("plan cache misses = %d, want >= 3 (one cold compile per family)", misses)
		}
		if bytes := s.metrics.planBytes.Value(); bytes <= 0 {
			t.Errorf("plan cache bytes gauge = %v, want > 0", bytes)
		}

		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, name := range []string{
			"irserved_plan_cache_hits_total",
			"irserved_plan_cache_misses_total",
			"irserved_plan_cache_evictions_total",
			"irserved_plan_cache_bytes",
		} {
			if !strings.Contains(string(body), name) {
				t.Errorf("/metrics missing %s", name)
			}
		}
	}()
	leak()
}

// TestPlanCacheDisabled sets PlanCacheBytes negative and asserts the server
// compiles every request's plan afresh through the same pipeline: correct
// answers, no cache, no counter movement.
func TestPlanCacheDisabled(t *testing.T) {
	leak := checkGoroutines(t)
	func() {
		s, ts, down := newTestServer(t, Config{PlanCacheBytes: -1})
		defer down()
		if s.plans != nil {
			t.Fatal("plan cache built despite PlanCacheBytes < 0")
		}
		ord := OrdinaryRequest{
			System: systemWireChain(8),
			Op:     "int64-add",
			Init:   json.RawMessage(`[1,1,1,1,1,1,1,1,1]`),
		}
		for pass := 0; pass < 2; pass++ {
			resp, data := post(t, ts.URL+APIPrefix+"ordinary", ord)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
			resp, data = post(t, ts.URL+APIPrefix+"linear", chainLinear(8))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("linear pass %d: HTTP %d: %s", pass, resp.StatusCode, data)
			}
		}
		if h, m := s.metrics.planHits.Value(), s.metrics.planMisses.Value(); h != 0 || m != 0 {
			t.Errorf("cache counters moved while disabled: hits = %d misses = %d", h, m)
		}
	}()
	leak()
}

// systemWireScatter builds a general (H != G) system as wire JSON:
// A[i+1] = A[i] + A[h(i)] with h(i) hopping around earlier cells.
func systemWireScatter(n int) (w ir.SystemWire) {
	w.M = n + 1
	w.N = n
	for i := 0; i < n; i++ {
		w.G = append(w.G, i+1)
		w.F = append(w.F, i)
		w.H = append(w.H, (i*7)%(i+1))
	}
	return w
}
