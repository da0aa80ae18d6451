package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"abadetect"
	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

const (
	// rounds is the number of fresh builds an untraced run measures.
	rounds = 4
	// warmup runs before each untraced round's measured window, so caches
	// fill and lazy set-up finishes before timing.
	warmup = 500 * time.Millisecond
	// spanCap bounds each worker's in-memory span buffer (32 B a span).
	spanCap = 1 << 19
	// spanStride records the spans of 1 op in spanStride (a multiple of
	// stride, so span ops are timed ops), sparse enough that the buffer
	// lasts the whole traced phase on every workload.
	spanStride = 32 * stride
	// replayOps is the length of the pool replay's Alloc/Release stream.
	replayOps = 1 << 18
)

// liveHeap returns the live Go heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// untracedRun measures the end-to-end metrics on the facade build, in
// rounds: each round builds the structure afresh (its set-ups are timed)
// and measures an equal share of the run.  The results are medians across
// every round's one-second slices, so no single build's memory placement
// decides them.
func (w *workload) untracedRun(seed uint64, measure time.Duration) (*report, error) {
	streams := w.streams(seed)
	base := liveHeap()
	rep := &report{}
	var setups []float64
	var heap uint64
	var objects int
	var wins []tally
	for round := 0; round < rounds; round++ {
		var t *target
		for i := 0; i < w.setups; i++ {
			t = nil
			runtime.GC()
			start := time.Now()
			var err error
			if t, err = w.setup(nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		if round == 0 {
			heap, objects = liveHeap()-base, t.objects
		}
		ledger := w.newLedger()
		res, _, err := w.drive(t, streams, phase{warmup: warmup, measure: measure / rounds, workers: workers}, ledger)
		if err != nil {
			return nil, err
		}
		if err := rep.tally(w, t, res, ledger, seed); err != nil {
			return nil, err
		}
		wins = append(wins, merged(res)...)
	}

	rep.add("throughput_ops_s", throughput(wins), "1/s")
	// Each percentile is the median of its per-slice values; the sample
	// count is the whole run's.
	for c, cls := range []string{"read", "write"} {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			vals := make([]float64, len(wins))
			var n uint64
			for i := range wins {
				vals[i] = wins[i].lat[c].quantile(q.q)
				n += wins[i].lat[c].n
			}
			rep.metrics = append(rep.metrics, metric{name: cls + "_" + q.name + "_ns", value: median(vals), unit: "ns", samples: n})
		}
	}
	rep.add("setup_s", median(setups), "s")
	rep.add("heap_mb", float64(heap)/(1<<20), "MiB")
	rep.add("footprint_objects", float64(objects), "count")
	return rep, nil
}

// snapshot is the quiescent counter state the traced run diffs.
type snapshot struct {
	audit   abadetect.StructureAudit
	guards  abadetect.GuardMetrics
	reclaim reclaim.Metrics
}

func (t *target) snapshot() snapshot {
	var s snapshot
	if t.audit != nil {
		s.audit = t.audit()
	}
	s.guards = t.guards()
	for _, r := range t.layer.reclaims {
		s.reclaim = s.reclaim.Add(r.Metrics())
	}
	return s
}

// tracedRun measures the per-layer metrics: an untraced reference phase on
// the facade build, then the same streams on the traced build.  Each phase
// measures half the run, with no warm-up, so every counter diffed between
// quiescent snapshots covers exactly the measured ops.
func (w *workload) tracedRun(seed uint64, measure time.Duration, spansDir string) (*report, error) {
	streams := w.streams(seed)
	ph := phase{measure: measure / 2, workers: workers}
	rep := &report{}
	ledger := w.newLedger()
	ref, err := w.setup(nil)
	if err != nil {
		return nil, err
	}
	res, _, err := w.drive(ref, streams, ph, ledger)
	if err != nil {
		return nil, err
	}
	if err := rep.tally(w, ref, res, ledger, seed); err != nil {
		return nil, err
	}
	refTput := throughput(merged(res))
	ref = nil
	runtime.GC()

	L := newLayers(spanCap)
	t, err := w.setup(L)
	if err != nil {
		return nil, err
	}
	ledger = w.newLedger()
	before := t.snapshot()
	res, win, err := w.drive(t, streams, ph, ledger)
	if err != nil {
		return nil, err
	}
	after := t.snapshot()
	if err := rep.tally(w, t, res, ledger, seed); err != nil {
		return nil, err
	}
	tput := throughput(merged(res))

	pool, err := w.replayPool(t, streams)
	if err != nil {
		return nil, err
	}
	w.layerMetrics(rep, L, res, win, before, after, pool)
	rep.add("trace.throughput_ops_s", tput, "1/s")
	rep.add("trace.overhead_frac", 1-tput/refTput, "fraction")
	if spansDir != "" {
		if err := writeSpans(filepath.Join(spansDir, w.name+".spans"), w, seed, L); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tally adds a phase's ops and its end-of-run checks to the report.
func (rep *report) tally(w *workload, t *target, res []workerResult, ledger *stackLedger, seed uint64) error {
	for i := range res {
		rep.attempted += res[i].ops
		rep.failed += res[i].failed
	}
	att, failed, err := w.endChecks(t, res, ledger, seed)
	rep.attempted += att
	rep.failed += failed
	return err
}

// spanStats aggregates the recorded spans: count and total duration per
// name, plus the map ops' self time (op span minus its child spans).
type spanStats struct {
	n, ns         [numSpanNames]int64
	selfN, selfNs int64
}

func aggregate(L *layers) spanStats {
	var st spanStats
	for _, t := range L.tracers {
		if t == nil {
			continue
		}
		children := make([]int64, len(t.spans))
		for _, s := range t.spans {
			d := s.end - s.start
			st.n[s.name]++
			st.ns[s.name] += d
			if s.parent >= 0 {
				children[s.parent] += d
			}
		}
		for i, s := range t.spans {
			if s.parent < 0 && (s.name == spanName(opGet) || s.name == spanName(opPut) || s.name == spanName(opDelete)) {
				st.selfN++
				st.selfNs += s.end - s.start - children[i]
			}
		}
	}
	return st
}

func (st *spanStats) mean(name spanName) float64 {
	if st.n[name] == 0 {
		return 0
	}
	return float64(st.ns[name]) / float64(st.n[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics renders every per-layer metric; a layer the workload does
// not run reads zero.
func (w *workload) layerMetrics(rep *report, L *layers, res []workerResult, win window, before, after snapshot, pool poolTimes) {
	st := aggregate(L)
	var c counts
	var kinds, kindSteps [numOpKinds]int64
	var steps pidSteps
	var ops float64
	var dirty int64
	for i := range res {
		t := L.tracers[i]
		c.loads += t.c.loads
		c.commits += t.c.commits
		c.llSteps += t.c.llSteps
		c.scSteps += t.c.scSteps
		c.drains += t.c.drains
		c.limboPeak = max(c.limboPeak, t.c.limboPeak)
		for k := range kinds {
			kinds[k] += res[i].kinds[k]
			kindSteps[k] += res[i].kindSteps[k]
		}
		steps.reads += t.steps.reads - res[i].steps0.reads
		steps.writes += t.steps.writes - res[i].steps0.writes
		steps.cas += t.steps.cas - res[i].steps0.cas
		steps.casFail += t.steps.casFail - res[i].steps0.casFail
		ops += float64(res[i].measured)
		dirty += res[i].dirtyReads
	}
	da, db := after.audit, before.audit
	dg := abadetect.GuardMetrics{
		Commits:    after.guards.Commits - before.guards.Commits,
		Rejected:   after.guards.Rejected - before.guards.Rejected,
		NearMisses: after.guards.NearMisses - before.guards.NearMisses,
		DirtyLoads: after.guards.DirtyLoads - before.guards.DirtyLoads,
	}
	dr := after.reclaim
	dr.Retired -= before.reclaim.Retired
	dr.Freed -= before.reclaim.Freed
	dr.Scans -= before.reclaim.Scans
	dr.Stalls -= before.reclaim.Stalls
	dr.SkippedScans -= before.reclaim.SkippedScans
	dr.Tightens -= before.reclaim.Tightens
	dr.Relaxes -= before.reclaim.Relaxes

	rep.add("kv.get_ns", st.mean(spanName(opGet)), "ns")
	rep.add("kv.put_ns", st.mean(spanName(opPut)), "ns")
	rep.add("kv.delete_ns", st.mean(spanName(opDelete)), "ns")
	rep.add("kv.self_ns", ratio(float64(st.selfNs), float64(st.selfN)), "ns")
	rep.add("kv.read_retry_ratio", ratio(float64(da.ReadRetries-db.ReadRetries), float64(kinds[opGet])), "ratio")
	rep.add("kv.read_fallbacks", float64(da.ReadFallbacks-db.ReadFallbacks), "count")

	rep.add("apps.push_ns", st.mean(spanName(opPush)), "ns")
	rep.add("apps.pop_ns", st.mean(spanName(opPop)), "ns")
	rep.add("apps.pool_alloc_ns", pool.allocNs, "ns")
	rep.add("apps.pool_release_ns", pool.releaseNs, "ns")
	rep.add("apps.pool_exhaustions", float64(da.PoolExhaustions-db.PoolExhaustions), "count")
	rep.add("apps.alloc_pressure", float64(da.AllocPressure-db.AllocPressure), "count")

	rep.add("guard.load_ns", st.mean(spanGuardLoad), "ns")
	rep.add("guard.commit_ns", st.mean(spanGuardCommit), "ns")
	rep.add("guard.validate_ns", st.mean(spanGuardValidate), "ns")
	rep.add("guard.loads_per_op", ratio(float64(c.loads), ops), "1/op")
	rep.add("guard.commits_per_op", ratio(float64(c.commits), ops), "1/op")
	rep.add("guard.commit_success_ratio", ratio(float64(dg.Commits), float64(dg.Commits+dg.Rejected)), "ratio")
	rep.add("guard.near_misses", float64(dg.NearMisses), "count")
	rep.add("guard.dirty_load_ratio", ratio(float64(dg.DirtyLoads), float64(c.loads)), "ratio")

	rep.add("llsc.ll_steps", ratio(float64(c.llSteps), float64(c.loads)), "steps/op")
	rep.add("llsc.sc_steps", ratio(float64(c.scSteps), float64(c.commits)), "steps/op")

	rep.add("reclaim.protect_ns", st.mean(spanProtect), "ns")
	rep.add("reclaim.retire_ns", st.mean(spanRetire), "ns")
	rep.add("reclaim.drain_ns", st.mean(spanDrain), "ns")
	rep.add("reclaim.drains_per_kop", ratio(1000*float64(c.drains), ops), "1/kop")
	rep.add("reclaim.limbo_peak", float64(c.limboPeak), "count")
	rep.add("reclaim.reclaim_ratio", ratio(float64(dr.Freed), float64(dr.Retired)), "ratio")
	rep.add("reclaim.stalls", float64(dr.Stalls), "count")
	rep.add("reclaim.skipped_scan_ratio", ratio(float64(dr.SkippedScans), float64(dr.Scans)), "ratio")
	rep.add("reclaim.cadence_moves", float64(dr.Tightens+dr.Relaxes), "count")

	rep.add("core.dwrite_ns", st.mean(spanName(opDWrite)), "ns")
	rep.add("core.dread_ns", st.mean(spanName(opDRead)), "ns")
	rep.add("core.dwrite_steps", ratio(float64(kindSteps[opDWrite]), float64(kinds[opDWrite])), "steps/op")
	rep.add("core.dread_steps", ratio(float64(kindSteps[opDRead]), float64(kinds[opDRead])), "steps/op")
	rep.add("core.dirty_read_ratio", ratio(float64(dirty), float64(kinds[opDRead])), "ratio")

	rep.add("shmem.steps_per_op", ratio(float64(steps.total()), ops), "steps/op")
	rep.add("shmem.reads_per_op", ratio(float64(steps.reads), ops), "1/op")
	rep.add("shmem.writes_per_op", ratio(float64(steps.writes), ops), "1/op")
	rep.add("shmem.cas_per_op", ratio(float64(steps.cas), ops), "1/op")
	rep.add("shmem.cas_fail_ratio", ratio(float64(steps.casFail), float64(steps.cas)), "ratio")
	rep.add("runtime.alloc_bytes_per_op", ratio(win.allocBytes, ops), "B/op")
	rep.add("runtime.gc_cycles", win.gcCycles, "count")
	rep.add("runtime.gc_cpu_frac", ratio(win.gcCPU, win.cpuSecs), "fraction")
}

// replayPool times the pool, which no seam wraps: a fresh apps.NewPool with
// the workload's resolved config replays, on one process, the Alloc/Release
// stream the workers' ops imply (a push or put allocates; a pop, a delete
// of a present key, or a put over one releases).  Releases take the path
// the structure takes: a batch of one under a reclaimer or on the stack,
// a plain Release on the unreclaimed map.
func (w *workload) replayPool(t *target, streams [][]op) (poolTimes, error) {
	if t.poolCfg == nil {
		return poolTimes{}, nil
	}
	f, cfg, err := t.poolCfg()
	if err != nil {
		return poolTimes{}, err
	}
	name := "map"
	if w.kind == stackStruct {
		name = "stack"
	}
	p, err := apps.NewPool(f, cfg, name, procs, w.capacity, shmem.BitsFor(w.capacity+1))
	if err != nil {
		return poolTimes{}, err
	}
	h, err := p.Handle(0)
	if err != nil {
		return poolTimes{}, err
	}
	batch := w.kind == stackStruct || cfg.Reclaim != nil
	buf := make([]int, 1)
	clk := clock{base: time.Now()}
	var allocs, releases, allocSum, releaseSum int64
	alloc := func() (int, error) {
		start := clk.now()
		idx := h.Alloc()
		allocSum += clk.now() - start
		allocs++
		if idx == 0 {
			return 0, fmt.Errorf("pool replay: pool exhausted after %d allocs", allocs)
		}
		return idx, nil
	}
	release := func(idx int) {
		start := clk.now()
		if batch {
			buf[0] = idx
			h.ReleaseBatch(buf)
		} else {
			h.Release(idx)
		}
		releaseSum += clk.now() - start
		releases++
	}
	if w.kind == stackStruct {
		var live []int
		for i := 0; i < w.prefill; i++ {
			idx := h.Alloc()
			live = append(live, idx)
		}
		for i := 0; i < replayOps; i++ {
			switch o := streams[i%workers][i/workers]; o.kind {
			case opPush:
				idx, err := alloc()
				if err != nil {
					return poolTimes{}, err
				}
				live = append(live, idx)
			case opPop:
				release(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
	} else {
		live := make(map[uint32]int, w.keys)
		for i := 0; i < w.prefill; i++ {
			live[uint32(i*w.keys/w.prefill)] = h.Alloc()
		}
		for i := 0; i < replayOps; i++ {
			o := streams[i%workers][i/workers]
			old, present := live[o.arg]
			switch o.kind {
			case opPut:
				idx, err := alloc()
				if err != nil {
					return poolTimes{}, err
				}
				live[o.arg] = idx
				if present {
					release(old)
				}
			case opDelete:
				if present {
					release(old)
					delete(live, o.arg)
				}
			}
		}
	}
	return poolTimes{ratio(float64(allocSum), float64(allocs)), ratio(float64(releaseSum), float64(releases))}, nil
}

// poolTimes are the replay's mean Alloc and Release times.
type poolTimes struct{ allocNs, releaseNs float64 }

// writeSpans dumps the traced run's spans: a JSON header line, then one
// little-endian record per span (worker u8, name u8, parent i32, op u64,
// start i64, end i64; times in ns since the run's clock base).
func writeSpans(path string, w *workload, seed uint64, L *layers) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	hdr, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": seed, "names": spanNames[:],
		"record": "worker u8, name u8, parent i32, op u64, start i64, end i64 (little-endian, ns)",
	})
	bw.Write(append(hdr, '\n'))
	var rec [30]byte
	for wi, t := range L.tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			rec[0], rec[1] = byte(wi), byte(s.name)
			binary.LittleEndian.PutUint32(rec[2:], uint32(s.parent))
			binary.LittleEndian.PutUint64(rec[6:], s.op)
			binary.LittleEndian.PutUint64(rec[14:], uint64(s.start))
			binary.LittleEndian.PutUint64(rec[22:], uint64(s.end))
			bw.Write(rec[:])
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
