package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// sample is one timed operation: when it completed, as an offset from
// the start of the loop that issued it, and how long its caller waited.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// p99Windows is the number of equal windows query_p99_ms is taken
// over: the reported value is the median of the windows' own p99s, so
// one host hiccup moves one window and a systematic tail moves all.
const p99Windows = 8

// percentile is the nearest-rank percentile of an ascending slice. It
// degrades to the maximum when fewer than 1/(1-p) samples exist.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the samples' latencies in milliseconds, ascending.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
	}
	slices.Sort(out)
	return out
}

// p50MS is the samples' median latency in milliseconds.
func p50MS(ss []sample) float64 { return percentile(latencies(ss), 0.5) }

// windowedP99 splits [from, to) into p99Windows equal windows by
// completion time and returns the median of the windows' p99s.
func windowedP99(ss []sample, from, to time.Duration) float64 {
	width := (to - from) / p99Windows
	if width <= 0 {
		return math.NaN()
	}
	buckets := make([][]float64, p99Windows)
	for _, s := range ss {
		w := min(int((s.at-from)/width), p99Windows-1)
		if s.at >= from && w >= 0 {
			buckets[w] = append(buckets[w], ms(s.lat))
		}
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) > 0 {
			slices.Sort(b)
			p99s = append(p99s, percentile(b, 0.99))
		}
	}
	if len(p99s) == 0 {
		return math.NaN()
	}
	return median(p99s)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInUse is the live heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// loopResult is what one closed loop observed over its measured
// window (the part after the warm-up).
type loopResult struct {
	samples []sample      // measured operations only
	from    time.Duration // measured window, as offsets from loop start
	to      time.Duration
	cpu     time.Duration // process CPU over the window
	queries int           // queries answered in the window
	failed  int           // operations that failed, warm-up included
	issued  int           // operations issued, warm-up included
}

func (r *loopResult) seconds() float64 { return (r.to - r.from).Seconds() }

// closedLoop calls op back to back: the next call starts when the
// previous returns, so a slower system is offered less load. op
// reports how many queries it answered (0 = failed). Calls that start
// during the warm-up are issued but not measured. The loop ends after
// warm+window, or — when stop is non-nil — when stop closes (the serve
// workload's reader runs for as long as its mutator does).
func closedLoop(warm, window time.Duration, stop <-chan struct{}, op func(i int) int) loopResult {
	r := loopResult{samples: make([]sample, 0, 1<<16)}
	start := time.Now()
	var cpu0 time.Duration
	measuring := false
	for i := 0; ; i++ {
		t0 := time.Since(start)
		if stop == nil && t0 >= warm+window || closed(stop) {
			break
		}
		if !measuring && t0 >= warm {
			measuring = true
			r.from = t0
			cpu0 = cpuTime()
		}
		n := op(i)
		t1 := time.Since(start)
		r.issued++
		if n == 0 {
			r.failed++
		}
		if measuring {
			r.samples = append(r.samples, sample{at: t1, lat: t1 - t0})
			r.queries += n
		}
	}
	r.to = time.Since(start)
	r.cpu = cpuTime() - cpu0
	return r
}

// closed reports whether ch has been closed; a nil channel never is.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
