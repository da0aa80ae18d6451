package guard

import (
	"fmt"
	"runtime"
	"testing"

	"abadetect/internal/llsc"
	"abadetect/internal/shmem"
)

// Guard-layer benchmarks: the cost of one Load, one Load+Commit pair
// (Commit needs a fresh Load to succeed) and one Validate, per regime, on
// one guard — its handle and word stay in L1 — and on a table of 2^20
// guards hit in a random order, where every op misses cache the way a link
// of a large map does.  The constant-time regime's table holds 2^18: each
// of its guards carries n announce registers and a GetSeq picker, about
// 900 B against Figure 3's 230 B, so 2^18 of them already fill ~240 MiB
// and 2^20 would need a GiB.  Run with -cpu 1 for the cost of one process:
//
//	go test -run '^$' -bench BenchmarkGuard -cpu 1 ./internal/guard
const (
	benchProcs     = 2
	benchValueBits = 20
)

// benchRegimes names the guard constructions benchmarked: the two CAS
// baselines, Figure 3 and the constant-time LL/SC, and the default Figure 5
// detector pairing (over Figure 3).
var benchRegimes = []struct {
	name     string
	tableLog int
	mk       func(f shmem.Factory) Maker
}{
	{"raw", 20, func(f shmem.Factory) Maker { return NewMaker(f, benchProcs, Raw, 0) }},
	{"tagged", 20, func(f shmem.Factory) Maker { return NewMaker(f, benchProcs, Tagged, 16) }},
	{"fig3", 20, func(f shmem.Factory) Maker { return NewMaker(f, benchProcs, LLSC, 0) }},
	{"constant", 18, func(f shmem.Factory) Maker {
		return func(_ string, valueBits uint, init Word) (Guard, error) {
			obj, err := llsc.NewConstantTime(f, benchProcs, valueBits, init)
			if err != nil {
				return nil, err
			}
			return NewLLSC(obj)
		}
	}},
	{"detector", 20, func(f shmem.Factory) Maker { return NewMaker(f, benchProcs, Detector, 0) }},
}

// benchTable caches the last table built, so the b.N ramp of one
// sub-benchmark builds its 2^20 guards once; a different table replaces it.
var benchTable struct {
	key     string
	handles []Handle
}

// benchHandles returns pid 0's handles on 2^logN fresh guards of regime,
// each Loaded once.
func benchHandles(b *testing.B, regime string, mk func(shmem.Factory) Maker, logN int) []Handle {
	b.Helper()
	key := fmt.Sprintf("%s/%d", regime, logN)
	if benchTable.key == key {
		return benchTable.handles
	}
	benchTable.key, benchTable.handles = "", nil
	runtime.GC() // free the old table before building the next
	maker := mk(shmem.NewNativeFactory())
	hs := make([]Handle, 1<<logN)
	for i := range hs {
		g, err := maker("ref", benchValueBits, Word(i))
		if err != nil {
			b.Fatal(err)
		}
		if hs[i], err = g.Handle(0); err != nil {
			b.Fatal(err)
		}
		hs[i].Load()
	}
	benchTable.key, benchTable.handles = key, hs
	return hs
}

// runGuardBench runs op over every regime on one guard and on the table,
// the table's guards visited in a fixed pseudo-random order.
func runGuardBench(b *testing.B, op func(h Handle, i int)) {
	for _, r := range benchRegimes {
		for _, size := range []struct {
			name string
			log  int
		}{{"one", 0}, {"table", r.tableLog}} {
			b.Run(r.name+"/"+size.name, func(b *testing.B) {
				hs := benchHandles(b, r.name, r.mk, size.log)
				mask := uint32(len(hs) - 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(hs[uint32(i)*2654435761&mask], i)
				}
			})
		}
	}
}

var benchSink bool

// BenchmarkGuardLoad: one Load, clean (nothing else writes the guard).
func BenchmarkGuardLoad(b *testing.B) {
	runGuardBench(b, func(h Handle, _ int) {
		_, dirty := h.Load()
		benchSink = benchSink != dirty
	})
}

// BenchmarkGuardCommit: a Load and the Commit it arms, which succeeds.
func BenchmarkGuardCommit(b *testing.B) {
	runGuardBench(b, func(h Handle, i int) {
		h.Load()
		benchSink = h.Commit(Word(i) & (1<<benchValueBits - 1))
	})
}

// BenchmarkGuardValidate: one Validate of a standing Load.
func BenchmarkGuardValidate(b *testing.B) {
	runGuardBench(b, func(h Handle, _ int) {
		benchSink = h.Validate()
	})
}
