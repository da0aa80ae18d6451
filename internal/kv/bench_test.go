package kv

import (
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// Single-threaded map benchmarks at the benchmark's map-churn-hot shape:
// LL/SC guards (Figure 3) for 8 processes, epoch:auto reclamation, 4,096
// keys over a 65,536-node map.  "fixed" is a map built without growth;
// "grow" starts at 1,024 nodes and buckets and grows to the same ceiling
// while it is filled, so its operations run on appended segments and a
// doubled directory.  Run with -cpu 1 for the per-op cost of one process:
//
//	go test -run '^$' -bench BenchmarkMap -cpu 1 ./internal/kv
const (
	benchProcs    = 8
	benchCapacity = 65536
	benchKeys     = 4096
)

// benchMap builds the named map variant and returns a handle on it.
func benchMap(b *testing.B, variant string) *Handle {
	b.Helper()
	capacity, opts := benchCapacity, []apps.StructOption{apps.WithReclaimer(reclaim.NewEpochAuto)}
	if variant == "grow" {
		capacity, opts = 1024, append(opts, apps.WithGrowth(benchCapacity))
	}
	m, err := NewMap(shmem.NewNativeFactory(), benchProcs, capacity, capacity, apps.LLSC, 0, opts...)
	if err != nil {
		b.Fatal(err)
	}
	h, err := m.Handle(0)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// benchSink keeps the compiler from dropping a measured Get.
var benchSink Word

// benchKey spreads op i over the key space in a fixed scattered order.
func benchKey(i int) Word { return Word(uint32(i)*2654435761) % benchKeys }

// fillBench binds every key of [lo, hi).
func fillBench(b *testing.B, h *Handle, lo, hi int) {
	for k := lo; k < hi; k++ {
		if !h.Put(Word(k), Word(k)) {
			b.Fatalf("fill Put(%d) failed", k)
		}
	}
}

// BenchmarkMapGet: Gets over all 4,096 keys with half of them bound, so
// hits and misses alternate by key.
func BenchmarkMapGet(b *testing.B) {
	for _, name := range []string{"fixed", "grow"} {
		b.Run(name, func(b *testing.B) {
			h := benchMap(b, name)
			fillBench(b, h, 0, benchKeys)
			for k := 1; k < benchKeys; k += 2 {
				h.Delete(Word(k))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = h.Get(benchKey(i))
			}
		})
	}
}

// BenchmarkMapPut: overwriting Puts over all 4,096 bound keys — each one
// links a fresh node and retires the binding it shadows.
func BenchmarkMapPut(b *testing.B) {
	for _, name := range []string{"fixed", "grow"} {
		b.Run(name, func(b *testing.B) {
			h := benchMap(b, name)
			fillBench(b, h, 0, benchKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !h.Put(benchKey(i), Word(i)) {
					b.Fatal("Put failed")
				}
			}
		})
	}
}

// BenchmarkMapDelete: Deletes of bound keys; the timer stops to rebind all
// 4,096 keys once per pass over the key space.
func BenchmarkMapDelete(b *testing.B) {
	for _, name := range []string{"fixed", "grow"} {
		b.Run(name, func(b *testing.B) {
			h := benchMap(b, name)
			fillBench(b, h, 0, benchKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%benchKeys == 0 {
					b.StopTimer()
					fillBench(b, h, 0, benchKeys)
					b.StartTimer()
				}
				if !h.Delete(benchKey(i)) {
					b.Fatal("Delete missed a bound key")
				}
			}
		})
	}
}
