package auditlog

import (
	"sync"
	"sync/atomic"
	"testing"

	"provpriv/internal/storage"
)

// BenchmarkAppend is the cost of one acknowledged audit record on real
// files: serial is one appender (every record pays its own fsync),
// parallel-8 is eight appenders sharing the flush.
func BenchmarkAppend(b *testing.B) {
	rec := Record{Principal: "analyst", Token: "w0", Role: "writer", Action: "exec.add", Target: "x", Status: 201}
	open := func(b *testing.B) *Log {
		fb, err := storage.OpenFlat(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		l, err := Open(fb)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		return l
	}
	b.Run("serial", func(b *testing.B) {
		l := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-8", func(b *testing.B) {
		l := open(b)
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(b.N) {
					if err := l.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
