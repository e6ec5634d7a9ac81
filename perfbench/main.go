package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"indexedrec/internal/server/client"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median and the last set-up is the one measured.
const setupRepeats = 5

// opTimeout bounds one op, so a hung request cannot outlive the run's
// 180-second budget.
const opTimeout = 30 * time.Second

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: serve-large, serve-small-mix, lib-grid2d or coord-scatter")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	var wl *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of serve-large, serve-small-mix, lib-grid2d, coord-scatter), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	traced := *trace == 1
	printRecord(wl.name, *seed, *seconds, traced)

	ctx := context.Background()
	b, setupS, err := setUp(ctx, wl, *seed, *seconds, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	defer b.close()

	d := time.Duration(*seconds) * time.Second
	var res result
	if !traced {
		r, err := b.measure(ctx, d, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		r.print("untraced")
		res = endToEnd(r, setupS)
	} else {
		plain, err := b.measure(ctx, d/2, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		plain.print("untraced")
		b.tr.on.Store(true)
		tr, err := b.measure(ctx, d-d/2, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		tr.print("traced")
		res = perLayer(wl.name, plain, tr)
	}
	for _, n := range res.order {
		m := res.Metrics[n]
		fmt.Printf("metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printRecord states the machine, toolchain, commit and inputs a result
// belongs to.
func printRecord(workload string, seed int64, seconds int, traced bool) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	rec, _ := json.Marshal(map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"numcpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
		"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
	})
	fmt.Printf("record %s\n", rec)
}

// setUp builds the workload setupRepeats times from the same seed, keeps the
// last build and returns the median set-up time in seconds. Set-up covers
// starting the servers, generating the inputs, computing the oracle answers
// and warming the plan caches.
func setUp(ctx context.Context, wl *workloadSpec, seed int64, seconds int, traced bool) (*bench, float64, error) {
	var times []float64
	var b *bench
	for i := range setupRepeats {
		if b != nil {
			b.close()
		}
		// Every set-up starts from a collected heap, not from the garbage
		// of the one before.
		runtime.GC()
		start := time.Now()
		b = &bench{clients: wl.clients}
		if traced {
			b.tr = newTracer()
		}
		if err := wl.setup(ctx, b, rand.New(rand.NewSource(seed)), seconds); err != nil {
			b.close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		fmt.Printf("setup %d %.6f s\n", i, times[i])
	}
	// Collect the set-up garbage before anything is timed.
	runtime.GC()
	return b, median(times), nil
}

// runStats is one measured phase.
type runStats struct {
	lats                        []float64 // ms, successful ops
	attempted, failed, mismatch int
	elapsed                     time.Duration
	proc                        procSnapshot // deltas over the phase
	deltas                      counters
	guardErr                    error
	firstErr                    error // the first failed op's error
	samples                     []*layerSample
}

// measure runs the closed loop for d: each client sends its next op as soon
// as its previous reply arrived and checked, until d has passed.
func (b *bench) measure(ctx context.Context, d time.Duration, traced bool) (*runStats, error) {
	before, err := b.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	p0 := snapshot()
	var next atomic.Uint64
	per := make([]runStats, b.clients)
	var replayErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range b.clients {
		wg.Add(1)
		go func(st *runStats, conn *client.Client) {
			defer wg.Done()
			for time.Since(start) < d {
				k := next.Add(1)
				o := b.next(k - 1)
				if o == nil {
					return
				}
				octx := ctx
				if traced {
					octx = withSpan(ctx, k)
				}
				octx, cancel := context.WithTimeout(octx, opTimeout)
				t0 := time.Now()
				reply, err := o.do(octx, conn)
				lat := time.Since(t0)
				cancel()
				st.attempted++
				if err == nil && !o.check(reply) {
					err = errors.New("reply differs from the sequential oracle")
					st.mismatch++
				}
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.lats = append(st.lats, msOf(lat))
				if !traced {
					continue
				}
				ls := &layerSample{lat: lat}
				sp, ok, shards := b.tr.take(k)
				ls.handler, ls.hasHandler, ls.shards = sp, ok, shards
				if err := o.replay(ctx, reply, ls); err != nil {
					mu.Lock()
					replayErr = errors.Join(replayErr, err)
					mu.Unlock()
					continue
				}
				st.samples = append(st.samples, ls)
			}
		}(&per[ci], b.conns[ci])
	}
	wg.Wait()
	out := &runStats{elapsed: time.Since(start), proc: snapshot().sub(p0)}
	if replayErr != nil {
		return nil, fmt.Errorf("layer replay: %w", replayErr)
	}
	after, err := b.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	out.deltas = after.sub(before)
	if b.guard != nil {
		out.guardErr = b.guard(out.deltas)
	}
	for i := range per {
		out.lats = append(out.lats, per[i].lats...)
		out.attempted += per[i].attempted
		out.failed += per[i].failed
		out.mismatch += per[i].mismatch
		if out.firstErr == nil {
			out.firstErr = per[i].firstErr
		}
		out.samples = append(out.samples, per[i].samples...)
	}
	if out.attempted == 0 {
		return nil, errors.New("no op completed in the measured time")
	}
	return out, nil
}

// scrapeAll sums the /metrics samples of every scraped server.
func (b *bench) scrapeAll(ctx context.Context) (counters, error) {
	all := counters{}
	for _, t := range b.targets {
		c, err := scrape(ctx, t)
		if err != nil {
			return nil, err
		}
		all.add(c)
	}
	return all, nil
}

// print writes a phase's counts, counter deltas and guard outcome.
func (r *runStats) print(phase string) {
	fmt.Printf("phase %s attempted=%d failed=%d mismatched=%d elapsed_s=%.3f latency_samples=%d beyond_p90=%d\n",
		phase, r.attempted, r.failed, r.mismatch, r.elapsed.Seconds(), len(r.lats), beyondP90(r.lats))
	for _, n := range counterNames {
		fmt.Printf("counter %s %s=%g\n", phase, n, r.deltas[n])
	}
	if r.firstErr != nil {
		fmt.Printf("error %s first failed op: %v\n", phase, r.firstErr)
	}
	if r.guardErr != nil {
		fmt.Printf("guard %s FAILED: %v\n", phase, r.guardErr)
	}
}

// counterNames are the /metrics counters reported per run.
var counterNames = []string{
	"irserved_plan_cache_hits_total", "irserved_plan_cache_misses_total",
	"irserved_shed_total", "irserved_batches_total",
	"irserved_batch_size_sum", "irserved_batch_size_count",
	"ircluster_plan_cache_misses_total", "ircluster_retries_total",
	"ircluster_local_fallbacks_total", "ircluster_shards_total",
}

// beyondP90 counts the samples above the 90th percentile.
func beyondP90(lats []float64) int {
	p90 := quantile(lats, 0.9)
	n := 0
	for _, v := range lats {
		if v > p90 {
			n++
		}
	}
	return n
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// endToEnd reduces an untraced run to the end-to-end metrics.
func endToEnd(r *runStats, setupS float64) result {
	ops := float64(r.attempted)
	res := result{
		Correct:   r.mismatch == 0 && r.guardErr == nil && len(r.lats) > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	res.set("setup_s", setupS, "s")
	res.set("latency_p50_ms", quantile(r.lats, 0.5), "ms")
	res.set("latency_p90_ms", quantile(r.lats, 0.9), "ms")
	res.set("throughput_ops", float64(len(r.lats))/r.elapsed.Seconds(), "1/s")
	res.set("ok_frac", float64(len(r.lats))/ops, "ratio")
	res.set("alloc_mb_per_op", float64(r.proc.totalAlloc)/1e6/ops, "MB")
	res.set("cpu_ms_per_op", msOf(r.proc.cpu)/ops, "ms")
	fmt.Printf("failed_frac %.6g\n", float64(r.failed)/ops)
	return res
}
