package server

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"atr/internal/sweep"
)

// BenchmarkServerContention hammers the service's two shared maps — the
// content-addressed result cache and the rate-limiter bucket map — from
// all available CPUs, the access pattern of many uploading workers and
// submitting clients at once. Each map sits behind one mutex; on the
// service path the cache is only ever touched under the coordinator's
// lock anyway, so this is the ceiling finer locking would have to beat
// before it could matter end to end.
func BenchmarkServerContention(b *testing.B) {
	const keys = 4096

	b.Run("cache-hit", func(b *testing.B) {
		c := NewRunCache(2*keys, nil, nil)
		ks := make([]string, keys)
		for i := range ks {
			ks[i] = fmt.Sprintf("%032x", i)
			c.Put(ks[i], 1000, sweep.Record{Key: ks[i], Seq: i})
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := c.Get(ks[i%keys], 1000); !ok {
					b.Fatal("lost cache entry")
				}
				i++
			}
		})
	})

	b.Run("cache-mixed", func(b *testing.B) {
		c := NewRunCache(keys, nil, nil)
		ks := make([]string, keys)
		for i := range ks {
			ks[i] = fmt.Sprintf("%032x", i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := ks[i%keys]
				if i%8 == 0 {
					c.Put(k, 1000, sweep.Record{Key: k})
				} else {
					c.Get(k, 1000)
				}
				i++
			}
		})
	})

	b.Run("limiter", func(b *testing.B) {
		l := NewLimiter(1e9, 1<<30) // never refuses: measures bucket-map contention only
		clients := make([]string, 256)
		for i := range clients {
			clients[i] = fmt.Sprintf("client-%d", i)
		}
		now := time.Now()
		var seq atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			me := clients[int(seq.Add(1))%len(clients)]
			i := 0
			for pb.Next() {
				if ok, _ := l.Allow(me, now.Add(time.Duration(i))); !ok {
					b.Fatal("limiter refused with unbounded burst")
				}
				i++
			}
		})
	})
}
