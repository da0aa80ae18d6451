package main

import (
	"fmt"

	"abadetect"
	"abadetect/internal/apps"
	"abadetect/internal/core"
	"abadetect/internal/guard"
	"abadetect/internal/kv"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

type word = abadetect.Word

// The handle interfaces the workers drive: the facade's handles and the
// internal handles of the traced build both satisfy them, so both builds run
// the same driver code.
type mapOps interface {
	Get(k word) (word, bool)
	Put(k, v word) bool
	Delete(k word) bool
}

type stackOps interface {
	Push(v word) bool
	Pop() (word, bool)
	Peek() (word, bool)
}

type arrayOps interface {
	DWrite(i int, v word)
	DRead(i int) (word, bool)
}

// target is one built structure, from the facade or from the traced
// mirror of the facade's wiring.
type target struct {
	mapH   func(pid int) (mapOps, error)
	stackH func(pid int) (stackOps, error)
	arrayH func(pid int) (arrayOps, error)

	objects int                                              // Footprint().Objects(), the paper's m(n)
	audit   func() abadetect.StructureAudit                  // quiescent audit; nil for the array
	guards  func() abadetect.GuardMetrics                    // zero for the array
	layer   *layers                                          // per-layer probes; nil on the facade build
	poolCfg func() (shmem.Factory, apps.StructConfig, error) // the pool's resolved config, for the replay
}

// buildFacade builds the workload's structure through the public API.
func (w *workload) buildFacade() (*target, error) {
	var opts []abadetect.Option
	if w.reclaim != "" {
		opts = append(opts, abadetect.WithReclamation(w.reclaim))
	}
	switch w.kind {
	case mapStruct:
		m, err := abadetect.NewMap(procs, w.capacity, opts...)
		if err != nil {
			return nil, err
		}
		return &target{
			mapH:    handle[mapOps](m.Handle),
			objects: m.Footprint().Objects(),
			audit:   m.Audit,
			guards:  m.GuardMetrics,
		}, nil
	case stackStruct:
		s, err := abadetect.NewStack(procs, w.capacity, opts...)
		if err != nil {
			return nil, err
		}
		return &target{
			stackH:  handle[stackOps](s.Handle),
			objects: s.Footprint().Objects(),
			audit:   s.Audit,
			guards:  s.GuardMetrics,
		}, nil
	default:
		a, err := abadetect.NewShardedDetectingArray(procs, w.capacity)
		if err != nil {
			return nil, err
		}
		return &target{
			arrayH:  handle[arrayOps](a.Handle),
			objects: a.Footprint().Objects(),
			guards:  func() abadetect.GuardMetrics { return abadetect.GuardMetrics{} },
		}, nil
	}
}

// buildTraced mirrors the facade constructors' wiring (structures.go's
// NewMap/NewStack, sharded.go's NewShardedDetectingArray) through the
// internal packages, with the guard maker, the reclaim maker and the base
// object factory wrapped by L's probes.
func (w *workload) buildTraced(L *layers) (*target, error) {
	if w.kind == arrayStruct {
		f := L.countSteps(shmem.NewPaddedFactory())
		im := registry.MustLookup("fig4")
		a, err := core.NewShardedArray(procs, w.capacity, func(int) (core.Detector, error) {
			return im.NewDetector(f, procs, 32, 0)
		})
		if err != nil {
			return nil, err
		}
		return &target{
			arrayH:  handle[arrayOps](a.Handle),
			objects: f.Footprint().Objects(),
			guards:  func() abadetect.GuardMetrics { return abadetect.GuardMetrics{} },
			layer:   L,
		}, nil
	}
	f := L.countSteps(shmem.NewNativeFactory())
	// The facade's default guard: ProtectionLLSC over the registry's fig3.
	spec := registry.GuardSpec{Regime: guard.LLSC, TagBits: 16}
	mk, err := registry.NewGuardMaker(f, procs, spec)
	if err != nil {
		return nil, err
	}
	sopts := []apps.StructOption{apps.WithMaker(L.guardMaker(mk))}
	if w.reclaim != "" {
		rmk, err := registry.NewReclaimMaker(w.reclaim)
		if err != nil {
			return nil, err
		}
		sopts = append(sopts, apps.WithReclaimer(L.reclaimMaker(rmk)))
	}
	// The replay's pool gets the same resolved config, unwrapped, over a
	// factory of its own.
	poolCfg := func() (shmem.Factory, apps.StructConfig, error) {
		pf := shmem.NewNativeFactory()
		pmk, err := registry.NewGuardMaker(pf, procs, spec)
		if err != nil {
			return nil, apps.StructConfig{}, err
		}
		popts := []apps.StructOption{apps.WithMaker(pmk)}
		if w.reclaim != "" {
			rmk, err := registry.NewReclaimMaker(w.reclaim)
			if err != nil {
				return nil, apps.StructConfig{}, err
			}
			popts = append(popts, apps.WithReclaimer(rmk))
		}
		return pf, apps.ResolveStructOptions(pf, procs, 0, 0, popts), nil
	}
	if w.kind == stackStruct {
		s, err := apps.NewStack(f, procs, w.capacity, 0, 0, sopts...)
		if err != nil {
			return nil, err
		}
		return &target{
			stackH:  handle[stackOps](s.Handle),
			objects: f.Footprint().Objects(),
			audit: func() abadetect.StructureAudit {
				a := s.Audit()
				out := poolAudit(a.Corrupt(), a.String(), s.PoolStats())
				out.ElimHits, out.ElimMisses = s.ElimStats()
				return out
			},
			guards:  func() abadetect.GuardMetrics { return publicMetrics(s.GuardMetrics()) },
			layer:   L,
			poolCfg: poolCfg,
		}, nil
	}
	m, err := kv.NewMap(f, procs, w.capacity, w.capacity, 0, 0, sopts...)
	if err != nil {
		return nil, err
	}
	return &target{
		mapH:    handle[mapOps](m.Handle),
		objects: f.Footprint().Objects(),
		audit: func() abadetect.StructureAudit {
			a := m.Audit()
			out := poolAudit(a.Corrupt(), a.String(), m.PoolStats())
			out.CombineBatches, out.CombinedOps = m.CombineStats()
			out.ReadRetries, out.ReadFallbacks = a.ReadRetries, a.ReadFallbacks
			out.Splits, out.SegmentAppends, out.ResizeRetries = a.Splits, a.SegmentAppends, a.ResizeRetries
			return out
		},
		guards:  func() abadetect.GuardMetrics { return publicMetrics(m.GuardMetrics()) },
		layer:   L,
		poolCfg: poolCfg,
	}, nil
}

// handle adapts a constructor's Handle method to the driver's interface.
// Each process keeps one handle for the whole run, set-up and end-of-run
// checks included: a handle carries the process-local state (Figure 4's
// sequence recycler, the LL/SC flag) that a second handle would lose.
func handle[I any, H any](get func(int) (H, error)) func(int) (I, error) {
	var hs [procs]I
	var made [procs]bool
	return func(pid int) (I, error) {
		if pid >= 0 && pid < procs && made[pid] {
			return hs[pid], nil
		}
		h, err := get(pid)
		if err != nil {
			var zero I
			return zero, err
		}
		hs[pid], made[pid] = any(h).(I), true
		return hs[pid], nil
	}
}

// poolAudit and publicMetrics render the internal counters the way the
// facade's Audit and GuardMetrics do.
func poolAudit(corrupt bool, detail string, ps apps.PoolStats) abadetect.StructureAudit {
	return abadetect.StructureAudit{
		Corrupt:          corrupt,
		Detail:           detail,
		PoolExhaustions:  ps.Exhaustions,
		Reclaimer:        ps.Scheme,
		Retired:          ps.Reclaim.Retired,
		Reclaimed:        ps.Reclaim.Freed,
		Deferred:         ps.Reclaim.Deferred(),
		ReclaimStalls:    ps.Reclaim.Stalls,
		RetireBatches:    ps.Reclaim.Batches,
		SkippedScans:     ps.Reclaim.SkippedScans,
		AllocPressure:    ps.Reclaim.Pressure,
		CadenceTightens:  ps.Reclaim.Tightens,
		CadenceRelaxes:   ps.Reclaim.Relaxes,
		LocalCacheHits:   ps.Local.Hits,
		LocalCacheSpills: ps.Local.Spills,
	}
}

func publicMetrics(m guard.Metrics) abadetect.GuardMetrics {
	return abadetect.GuardMetrics{Commits: m.Commits, Rejected: m.Rejected, NearMisses: m.NearMisses, DirtyLoads: m.DirtyLoads}
}

// mapKey and mapVal encode the map's keys and values: every value carries
// its key in the high half, so a Get that returns another key's value is
// caught.
func mapKey(arg uint32) word         { return word(arg) + 1 }
func mapVal(k word, seq uint64) word { return k<<32 | word(uint32(seq)) }
func valKey(v word) word             { return v >> 32 }

// Stack values carry their pusher (0 = set-up prefill, 1+w = worker w) and
// the pusher's sequence number, so every popped value is traced to exactly
// one push.
const stackSeqBits = 48

func stackVal(pusher int, seq uint64) word { return word(pusher)<<stackSeqBits | word(seq) }
func stackPusher(v word) (int, uint64) {
	return int(v >> stackSeqBits), uint64(v & (1<<stackSeqBits - 1))
}

// Shard values carry their shard in the top 12 of the 32 value bits.
const shardSeqBits = 20

func shardVal(shard int, seq uint64) word {
	return word(shard)<<shardSeqBits | word(seq&(1<<shardSeqBits-1))
}
func shardOf(v word) int { return int(v >> shardSeqBits) }

// setup builds the structure and prefills it; both are part of setup_s.
func (w *workload) setup(L *layers) (*target, error) {
	var t *target
	var err error
	if L == nil {
		t, err = w.buildFacade()
	} else {
		t, err = w.buildTraced(L)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	switch w.kind {
	case mapStruct:
		h, err := t.mapH(0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < w.prefill; i++ {
			// map-churn-hot prefills every other key, so half its hot keys
			// start present.
			arg := uint32(i * w.keys / w.prefill)
			k := mapKey(arg)
			if !h.Put(k, mapVal(k, 0)) {
				return nil, fmt.Errorf("%s: prefill Put(%d) refused", w.name, k)
			}
		}
	case stackStruct:
		h, err := t.stackH(0)
		if err != nil {
			return nil, err
		}
		for i := 1; i <= w.prefill; i++ {
			if !h.Push(stackVal(0, uint64(i))) {
				return nil, fmt.Errorf("%s: prefill Push refused", w.name)
			}
		}
	}
	return t, nil
}
