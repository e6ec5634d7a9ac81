package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procSnapshot is the process-wide state a run's metrics are deltas of.
type procSnapshot struct {
	cpu        time.Duration // user + system CPU time (getrusage)
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func snapshot() procSnapshot {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
	}
}

// sub returns the change from prev to s.
func (s procSnapshot) sub(prev procSnapshot) procSnapshot {
	return procSnapshot{
		cpu:        s.cpu - prev.cpu,
		totalAlloc: s.totalAlloc - prev.totalAlloc,
		numGC:      s.numGC - prev.numGC,
		pauseNs:    s.pauseNs - prev.pauseNs,
	}
}

// counters are Prometheus sample values summed over label sets, by metric
// name (histograms appear as name_sum and name_count).
type counters map[string]float64

// scrape fetches a /metrics exposition and sums every sample by name.
func scrape(ctx context.Context, base string) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: HTTP %d", base, resp.StatusCode)
	}
	out := counters{}
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 16<<20))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	return out, nil
}

// sub returns c - prev for every name in c.
func (c counters) sub(prev counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

// add folds o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}
