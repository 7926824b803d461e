package obs

import (
	"context"
	"testing"
	"time"
)

// BenchmarkSpanStartEnd measures the cost of one StartSpan/End pair
// inside a sampled trace — the per-span price instrumented code pays on
// a traced request.
func BenchmarkSpanStartEnd(b *testing.B) {
	tracer := NewTracer(4, 1, time.Hour)
	ctx, done := startTestTrace(tracer, "bench")
	defer done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%maxSpans == 0 {
			// Fresh trace so the span cap never turns spans into no-ops.
			done()
			ctx, done = startTestTrace(tracer, "bench")
		}
		_, sp := StartSpan(ctx, "op")
		sp.End()
	}
}

// BenchmarkSpanNoTrace measures StartSpan on an unsampled context — the
// price every instrumented call site pays when tracing is off or the
// request wasn't sampled. Expected: 0 allocs.
func BenchmarkSpanNoTrace(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		sp.End()
	}
}

// BenchmarkHistogramObserve measures one latency observation.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(3 * time.Millisecond)
	}
}
