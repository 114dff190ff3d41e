package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// pct returns percentile p (0..1] of xs by the nearest-rank rule; xs is
// sorted in place. An empty sample reads 0.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is a snapshot of the process counters the proc.* metrics
// are differences of.
type procSample struct {
	cpu      time.Duration
	mallocs  uint64
	alloc    uint64
	pauseTot uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  m.Mallocs,
		alloc:    m.TotalAlloc,
		pauseTot: m.PauseTotalNs,
	}
}

// procMetrics fills the proc.* per-layer metrics from the process
// counters sampled at the start (a) and end (b) of a timed phase that ran
// the given number of slots and query submissions.
func procMetrics(out map[string]float64, a, b procSample, slots, queries int, heap *heapTrack) {
	n := float64(max(slots, 1))
	out["proc.cpu_ms_per_slot"] = ms(b.cpu-a.cpu) / n
	out["proc.cpu_us_per_query"] = ratio(float64((b.cpu - a.cpu).Microseconds()), float64(queries))
	out["proc.allocs_per_slot"] = float64(b.mallocs-a.mallocs) / n
	out["proc.alloc_mb_per_slot"] = float64(b.alloc-a.alloc) / (1 << 20) / n
	out["proc.gc_pause_ms"] = float64(b.pauseTot-a.pauseTot) / 1e6 / n
	out["proc.heap_slope_kb_per_100slots"] = heap.slope() * 100 / 1024
}

// heapTrack samples the live heap as of the last GC once per slot and
// fits a least-squares line through (slot, bytes): state that grows with
// history (the cluster oplog) shows as a positive slope.
type heapTrack struct {
	xs, ys []float64
	sample []metrics.Sample
}

func newHeapTrack() *heapTrack {
	return &heapTrack{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapTrack) observe(slot int) {
	metrics.Read(h.sample)
	if h.sample[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.xs = append(h.xs, float64(slot))
	h.ys = append(h.ys, float64(h.sample[0].Value.Uint64()))
}

func (h *heapTrack) slope() float64 {
	if len(h.xs) < 2 {
		return 0
	}
	mx, my := mean(h.xs), mean(h.ys)
	var sxy, sxx float64
	for i := range h.xs {
		sxy += (h.xs[i] - mx) * (h.ys[i] - my)
		sxx += (h.xs[i] - mx) * (h.xs[i] - mx)
	}
	return ratio(sxy, sxx)
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// second cycle frees what the first moved to sync.Pool victim caches, so
// pooled scratch does not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// calibrationSink defeats dead-code elimination of the calibration loop.
var calibrationSink uint64

// calibrate times a fixed single-core xorshift loop: a scalar-speed
// reference recorded with every result (it does not cancel noise from
// memory-heavy phases, so no metric is divided by it).
func calibrate() float64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return ms(time.Since(start))
}
