package obs

import (
	"testing"
	"time"
)

// BenchmarkRegistryRecord folds one finished root span and one child
// into the registry per op, from every P at once: the per-finish cost a
// traced deployment pays and the contention its one lock sees.
//
//	go test -run '^$' -bench BenchmarkRegistryRecord ./internal/obs/
func BenchmarkRegistryRecord(b *testing.B) {
	reg := newRegistry()
	b.RunParallel(func(pb *testing.PB) {
		wall := time.Microsecond
		for pb.Next() {
			reg.record("lane", "node00", 4096, 0.001, wall/4, false)
			reg.record("boot", "node00", 4096, 0.002, wall, false)
			wall = wall*17/16 + time.Nanosecond // walk the buckets
			if wall > time.Second {
				wall = time.Microsecond
			}
		}
	})
}
