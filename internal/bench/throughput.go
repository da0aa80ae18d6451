package bench

import (
	"fmt"
	"sync"
	"time"

	"abadetect/internal/core"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// Word is the base-object value type.
type Word = shmem.Word

// E10Throughput measures, on the native substrate, the sequential
// throughput of every registered implementation plus the concurrent
// throughput of the sharded detecting array — the repository's scaling
// trajectory.  Every row is derived from the registry; a new
// implementation shows up here (and in abalab -json) without any edit to
// this file.
func E10Throughput() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "implementation throughput on the native substrate (registry-driven)",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s"},
	}
	const n = 8
	const valueBits = 16

	const pairs = 200_000
	for _, im := range registry.All() {
		if im.Kind == registry.KindStructure || im.Kind == registry.KindReclaimer {
			continue // structures have their own matrix (E11); reclaimers ride E12
		}
		workload, elapsed, err := SequentialProbe(im, shmem.NewNativeFactory(), n, valueBits, pairs)
		if err != nil {
			return nil, fmt.Errorf("bench: E10 %s: %w", im.ID, err)
		}
		addThroughputRow(t, im, workload, pairs, elapsed)
	}

	// The sharded array under concurrent traffic: K=1 is one contended
	// register, K=workers gives every goroutine its own striped shard.
	const workers = 4
	const perWorker = 100_000
	for _, shards := range []int{1, workers} {
		elapsed, err := shardedThroughput(n, shards, workers, perWorker)
		if err != nil {
			return nil, err
		}
		ops := workers * perWorker
		t.AddRow(
			fmt.Sprintf("sharded[fig4] K=%d", shards),
			"detector",
			fmt.Sprintf("%d goroutines, op per shard", workers),
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/float64(ops)),
			fmt.Sprintf("%.2f", float64(ops)/elapsed.Seconds()/1e6),
		)
	}
	t.AddNote("sequential rows: one handle, no contention — the constant factors behind the paper's t(n).")
	t.AddNote("sharded rows: K=1 is all goroutines on one register; K=%d gives each its own cache-line striped shard.", workers)
	return t, nil
}

// SequentialProbe times `pairs` uncontended operation pairs of im — a
// DWrite+DRead pair for detectors, an LL+SC pair for LL/SC objects — at n
// processes over base objects from f.  It returns the workload label and
// the elapsed time; abalab's -impl report shares it with E10.
func SequentialProbe(im registry.Impl, f shmem.Factory, n int, valueBits uint, pairs int) (string, time.Duration, error) {
	mask := Word(1)<<valueBits - 1
	switch im.Kind {
	case registry.KindDetector:
		d, err := im.NewDetector(f, n, valueBits, 0)
		if err != nil {
			return "", 0, err
		}
		w, err := d.Handle(0)
		if err != nil {
			return "", 0, err
		}
		r := w
		if n > 1 {
			if r, err = d.Handle(1); err != nil {
				return "", 0, err
			}
		}
		start := time.Now()
		for i := 0; i < pairs; i++ {
			w.DWrite(Word(i) & mask)
			r.DRead()
		}
		return "DWrite+DRead pair", time.Since(start), nil
	case registry.KindLLSC:
		obj, err := im.NewLLSC(f, n, valueBits, 0)
		if err != nil {
			return "", 0, err
		}
		h, err := obj.Handle(0)
		if err != nil {
			return "", 0, err
		}
		start := time.Now()
		for i := 0; i < pairs; i++ {
			v := h.LL()
			if !h.SC((v + 1) & mask) {
				return "", 0, fmt.Errorf("uncontended SC failed")
			}
		}
		return "LL+SC pair", time.Since(start), nil
	case registry.KindStructure:
		return AppSequentialProbe(im, f, n, pairs)
	case registry.KindReclaimer:
		const capacity = 64
		rec, err := im.NewReclaimer(f, im.ID, n, capacity)
		if err != nil {
			return "", 0, err
		}
		h, err := rec.Handle(0, func(int) {})
		if err != nil {
			return "", 0, err
		}
		start := time.Now()
		idx := 1
		for i := 0; i < pairs; i++ {
			h.Protect(0, idx)
			h.Clear()
			h.Retire(idx)
			idx = idx%capacity + 1
		}
		h.Drain()
		return "protect+clear+retire cycle", time.Since(start), nil
	}
	return "", 0, fmt.Errorf("unknown kind %q", im.Kind)
}

func addThroughputRow(t *Table, im registry.Impl, workload string, ops int, elapsed time.Duration) {
	kind := string(im.Kind)
	if !im.Correct {
		kind += " (foil)"
	}
	t.AddRow(
		im.ID,
		kind,
		workload,
		fmt.Sprintf("%d", ops),
		fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/float64(ops)),
		fmt.Sprintf("%.2f", float64(ops)/elapsed.Seconds()/1e6),
	)
}

// shardedThroughput times `workers` goroutines each performing ops
// operations against a padded, fig4-backed sharded array with K shards;
// worker w works shard w mod K.
func shardedThroughput(n, shards, workers, ops int) (time.Duration, error) {
	f := shmem.NewPaddedFactory()
	fig4 := registry.MustLookup("fig4")
	arr, err := core.NewShardedArray(n, shards, func(int) (core.Detector, error) {
		return fig4.NewDetector(f, n, 16, 0)
	})
	if err != nil {
		return 0, err
	}
	handles := make([]*core.ShardedHandle, workers)
	for w := range handles {
		h, err := arr.Handle(w)
		if err != nil {
			return 0, err
		}
		handles[w] = h
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, h *core.ShardedHandle) {
			defer wg.Done()
			shard := w % shards
			for i := 0; i < ops; i++ {
				if w%2 == 0 {
					h.DWrite(shard, Word(i&0xffff))
				} else {
					h.DRead(shard)
				}
			}
		}(w, handles[w])
	}
	wg.Wait()
	return time.Since(start), nil
}
