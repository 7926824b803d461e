package obs

import (
	"sync/atomic"
	"time"
)

// durationBounds are the fixed histogram bucket upper bounds, in
// seconds, shared by every latency histogram: fine resolution where an
// in-memory engine lives (sub-millisecond) and coverage out to the
// multi-second tail a cold fan-out or bulk ingest can reach. The
// final implicit bucket is +Inf.
var durationBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numBuckets counts the explicit bounds plus the +Inf overflow bucket.
const numBuckets = len(durationBounds) + 1

// boundNanos mirrors durationBounds in integer nanoseconds so Observe
// compares without floating-point conversion.
var boundNanos = func() [len(durationBounds)]int64 {
	var b [len(durationBounds)]int64
	for i, s := range durationBounds {
		b[i] = int64(s * 1e9)
	}
	return b
}()

// Histogram is a fixed-bucket duration histogram safe for concurrent
// observation: per-bucket atomic counters plus an atomic nanosecond
// sum. Observing allocates nothing; cumulative bucket values are
// computed at render time, so they are monotone and internally
// consistent by construction.
type Histogram struct {
	counts   [numBuckets]atomic.Int64 //provlint:counter
	sumNanos atomic.Int64             //provlint:counter
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	i := 0
	for i < len(boundNanos) && n > boundNanos[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(n)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// snapshot reads the bucket counts once and returns the cumulative
// counts (ending in the +Inf total), the total count, and the sum in
// seconds. The count equals the +Inf cumulative value by construction,
// so a scrape racing observers still renders a self-consistent series.
func (h *Histogram) snapshot() (cum [numBuckets]int64, count int64, sumSeconds float64) {
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, running, float64(h.sumNanos.Load()) / 1e9
}
