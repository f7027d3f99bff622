package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// countAbove returns how many of xs exceed v.
func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// heapLiveMB forces a collection and returns the Go heap in use, in MiB.
// The second collection empties the sync.Pool victim caches the first one
// only demotes, so pooled engine resources do not count.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// totalAlloc returns the cumulative bytes the Go heap has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// opTimes collects per-op wall times and per-round rates of a measured
// phase, and turns them into the shared end-to-end metrics.
type opTimes struct {
	us     []float64 // per-op wall time, microseconds
	rates  []float64 // ops per second of each completed round
	p99s   []float64 // p99 of each completed round's op times
	ops    int64
	wallNS int64 // summed wall time of the completed rounds
	mark   int   // first op time of the current round
}

// round records one completed round of n ops that took d.
func (t *opTimes) round(n int, d time.Duration) {
	if len(t.us) > t.mark {
		t.p99s = append(t.p99s, quantile(append([]float64(nil), t.us[t.mark:]...), 0.99))
		t.mark = len(t.us)
	}
	t.rates = append(t.rates, float64(n)/d.Seconds())
	t.ops += int64(n)
	t.wallNS += d.Nanoseconds()
}

// p99 is the median over rounds of each round's p99 op time, so that one
// slow stretch of the host moves it by one round, not by its share of the
// pooled tail.
func (t *opTimes) p99() float64 { return median(append([]float64(nil), t.p99s...)) }

// report fills ops_per_s (median round rate) and op_p50_us (median over all
// ops), and records the sample counts and op_p99_us in meta.
func (t *opTimes) report(m map[string]float64, meta map[string]any) {
	m["ops_per_s"] = median(append([]float64(nil), t.rates...))
	m["op_p50_us"] = quantile(t.us, 0.50)
	p99 := t.p99()
	meta["op_p99_us"] = p99
	meta["measured_s"] = float64(t.wallNS) / 1e9
	meta["ops"] = t.ops
	meta["rounds"] = len(t.rates)
	meta["round_rates"] = t.rates
	meta["round_p99s_us"] = t.p99s
	meta["op_samples"] = len(t.us)
	meta["samples_beyond_p99"] = countAbove(t.us, p99)
}

// setupTimes is the repeated set-up measurement behind setup_s.
type setupTimes []float64

func (s *setupTimes) add(d time.Duration) { *s = append(*s, d.Seconds()) }

func (s setupTimes) median() float64 { return median(append([]float64(nil), s...)) }

// sumDur adds up durations.
func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// overheadPct is the tracing overhead: how much longer an op takes in the
// traced phase than in the untraced phase of the same run.
func overheadPct(plain, traced *opTimes) float64 {
	perOp := func(t *opTimes) float64 { return float64(t.wallNS) / float64(t.ops) }
	return 100 * (perOp(traced)/perOp(plain) - 1)
}

// msDur converts milliseconds to a duration.
func msDur(ms float64) time.Duration { return time.Duration(ms * 1e6) }
