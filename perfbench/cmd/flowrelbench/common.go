package main

import (
	"runtime"
	"time"

	"flowrel"
	"flowrelbench/internal/stat"
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median, so one slow start (a cold page cache, a first GC) does
// not set it.
const setupReps = 5

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianSetup runs setup setupReps times and returns the median wall time
// in seconds.
func medianSetup(setup func() error) (float64, error) {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return stat.Median(xs), nil
}

// tailQ is the tail percentile every workload reports. A p99 was not
// steady on this shared machine: over ten seeds its spread reached 0.31
// on churn, whose p99 sits where the 0.8% of events that fall back to a
// cold compile begin, and 0.48 on the service, whose round trips queue
// behind the neighbours' load, while the p50s stayed within 0.14.
const tailQ = 0.90

// tailChunk is the least number of samples one tail estimate uses, so
// that two hundred samples lie beyond it.
const tailChunk = 2000

// window is the measurement of one timed phase: whole rounds of the
// workload's operation sequence, run until the phase's time is up.
type window struct {
	ops   int64
	rates []float64 // operations per second, one per round
	lat   []float64 // per-operation latency in µs, in order
	ends  []int     // len(lat) after each round

	// Process state around the phase, for the per-layer metrics.
	mem, memEnd     runtime.MemStats
	stats, statsEnd map[string]int64 // flowrel.StatsSnapshot counters
	cache, cacheEnd flowrel.PlanCacheCounters
}

// minRounds is the least number of rounds a timed phase runs, however
// short its time.
const minRounds = 2

// runRounds repeats round until seconds have passed (at least minRounds
// times). round performs one whole round, appends its per-operation
// latencies to w.lat and returns its operation count and the time spent
// in timed operations.
func runRounds(seconds float64, round func(w *window) (int64, time.Duration)) *window {
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.mem)
	w.stats, w.cache = flowrel.StatsSnapshot().Counters, flowrel.PlanCacheSnapshot()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		n, busy := round(w)
		w.ends = append(w.ends, len(w.lat))
		w.ops += n
		if busy > 0 {
			w.rates = append(w.rates, float64(n)/busy.Seconds())
		}
	}
	w.statsEnd, w.cacheEnd = flowrel.StatsSnapshot().Counters, flowrel.PlanCacheSnapshot()
	runtime.ReadMemStats(&w.memEnd)
	return w
}

// rate is the median per-round throughput.
func (w *window) rate() float64 { return stat.Median(append([]float64(nil), w.rates...)) }

// latency returns the median latency in µs and the median over chunks
// of consecutive whole rounds, each of at least tailChunk samples, of the
// chunk's tailQ percentile; see tailMedian.
func (w *window) latency() (p50, tail float64) {
	p50 = stat.Median(append([]float64(nil), w.lat...))
	return p50, tailMedian(w.lat, w.ends)
}

// tailMedian splits xs into chunks of at least tailChunk consecutive
// samples, cut only at the given boundaries (nil: anywhere), and returns
// the median of the chunks' tailQ percentiles. A hiccup of the machine
// then moves one chunk's percentile, not the reported one. With fewer
// than two chunks' worth of samples it is the percentile of all of them,
// 0 when the sample-count rule withholds that.
func tailMedian(xs []float64, ends []int) float64 {
	if len(xs) < 2*tailChunk {
		v, _ := stat.Tail(append([]float64(nil), xs...), tailQ)
		return v
	}
	return stat.Median(tailChunks(xs, ends))
}

// tailChunks returns the tailQ percentile of each chunk tailMedian cuts
// xs into.
func tailChunks(xs []float64, ends []int) []float64 {
	if ends == nil {
		for end := tailChunk; end <= len(xs); end += tailChunk {
			ends = append(ends, end)
		}
	}
	var ps []float64
	start := 0
	for _, end := range ends {
		if end-start >= tailChunk {
			v, _ := stat.Tail(append([]float64(nil), xs[start:end]...), tailQ)
			ps = append(ps, v)
			start = end
		}
	}
	return ps
}

// runtimeMetrics sets the benchmark process's allocation and GC metrics
// for the window.
func (w *window) runtimeMetrics(m map[string]float64) {
	if w.ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(w.memEnd.TotalAlloc-w.mem.TotalAlloc) / float64(w.ops)
	}
	m["runtime.gc_cycles"] = float64(w.memEnd.NumGC - w.mem.NumGC)
}

// overhead is the tracing overhead in percent: how much slower the
// traced phase ran than the untraced one.
func overhead(untraced, traced float64) float64 {
	if traced <= 0 {
		return 0
	}
	return (untraced/traced - 1) * 100
}

// e2e fills the end-to-end metrics every workload reports from its
// untraced window.
func e2e(m map[string]float64, setup float64, rate float64, w *window) {
	m["setup_s"] = setup
	m["ops_per_s"] = rate
	m["op_p50_us"], m["op_p90_us"] = w.latency()
}

// statsDelta returns after−before for one registry counter.
func statsDelta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// perOp divides a total by an operation count, 0 for no operations.
func perOp(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
