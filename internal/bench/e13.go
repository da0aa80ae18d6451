package bench

import (
	"fmt"
	"strings"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/load"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// Tuning names the PR-6 fast-path knobs a traffic cell can run with:
// elimination backoff on the stack and per-worker node caches in front of
// the pool.  The zero Tuning is the
// untouched baseline structure.
type Tuning struct {
	// Elimination is the exchanger-array width (0 = off; stack only).
	Elimination int
	// LocalCache is the per-worker free-stack capacity (0 = off).
	LocalCache int
}

func (t Tuning) zero() bool {
	return t.Elimination == 0 && t.LocalCache == 0
}

// label renders the tuning as a row-label suffix, so a tuned row is told
// apart from its baseline row in the same table.
func (t Tuning) label() string {
	var b strings.Builder
	if t.Elimination > 0 {
		fmt.Fprintf(&b, "+elim%d", t.Elimination)
	}
	if t.LocalCache > 0 {
		fmt.Fprintf(&b, "+cache%d", t.LocalCache)
	}
	return b.String()
}

// tunedVariant is the canonical fast-path configuration benchmarked next to
// each structure's baseline: elimination fits the stack, and the local cache
// fits anything that allocates.
func tunedVariant(structID string) Tuning {
	switch structID {
	case "map":
		return Tuning{LocalCache: 16}
	case "stack":
		return Tuning{Elimination: 2, LocalCache: 16}
	case "queue":
		return Tuning{LocalCache: 16}
	default:
		return Tuning{}
	}
}

// E13Options parameterizes the traffic matrix beyond its three filters.
type E13Options struct {
	// Seed overrides every profile's RNG seed when nonzero, so one matrix
	// can be replayed on a different arrival/key sequence (abalab -seed).
	Seed uint64
	// Tuning, when non-nil, pins every cell to exactly this configuration
	// instead of the default baseline-plus-canonical-variant pair.
	Tuning *Tuning
}

// nonKeyedProfiles is the profile subset non-map structures run when no
// explicit profile filter is given: one closed loop, one open loop, and the
// open loop behind the admission queue.  The full profile list times the
// full structure list would square the matrix for little signal — the Zipf
// and mix parameters only bind through the Keyed seam anyway.
var nonKeyedProfiles = map[string]bool{"steady": true, "poisson": true, "poisson-shed": true}

// E13LoadMatrix measures the traffic layer: the keyed map and the stack (or
// any filtered structure; "traffic" means map+stack) driven by the load
// generator's named profiles across every canonical protection regime ×
// every registered reclaimer.  Where E11/E12 report throughput of a
// lockstep loop, E13 reports the latency *distribution* — p50/p99/p999 from
// the generator's log2 histograms — under closed-loop saturation, Poisson
// open-loop arrivals, and bursty herds, with Zipf key popularity and a
// configurable get/put/delete mix.  Each cell runs twice: the baseline
// structure and a tuned variant with the PR-6 fast paths (elimination,
// local caches) switched on.  abalab exposes it as `-load`
// (filterable with -app and -reclaim).
func E13LoadMatrix(structFilter, schemeFilter, profileFilter string) (*Table, error) {
	return E13LoadMatrixOpts(structFilter, schemeFilter, profileFilter, E13Options{})
}

// E13LoadMatrixOpts is E13LoadMatrix with a seed override and an explicit
// tuning pin (see E13Options).
func E13LoadMatrixOpts(structFilter, schemeFilter, profileFilter string, opts E13Options) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "traffic matrix: structure × regime × reclaimer × load profile, with latency percentiles",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "goodput", "p50", "p99", "p999", "shed", "fast-path", "outcome"},
	}
	const capacity = 128

	if structFilter == "" {
		structFilter = "traffic"
	}
	regimes := []registry.GuardSpec{
		{Regime: guard.Raw},
		{Regime: guard.Tagged, TagBits: 16},
		{Regime: guard.LLSC},
		{Regime: guard.Detector},
	}

	structMatched, schemeMatched, profileMatched := false, false, false
	for _, im := range registry.Structures() {
		if structFilter != "all" && structFilter != im.ID &&
			!(structFilter == "traffic" && (im.ID == "map" || im.ID == "stack")) {
			continue
		}
		structMatched = true
		variants := []Tuning{{}}
		if opts.Tuning != nil {
			variants = []Tuning{*opts.Tuning}
		} else if v := tunedVariant(im.ID); !v.zero() {
			variants = append(variants, v)
		}
		for _, spec := range regimes {
			for _, rim := range registry.Reclaimers() {
				if schemeFilter != "" && schemeFilter != "all" && schemeFilter != rim.ID {
					continue
				}
				schemeMatched = true
				for _, p := range load.Profiles() {
					if profileFilter != "" && profileFilter != "all" && profileFilter != p.ID {
						continue
					}
					// Trim non-keyed structures to the representative profile
					// subset unless a profile was named explicitly.
					if (profileFilter == "" || profileFilter == "all") &&
						im.ID != "map" && !nonKeyedProfiles[p.ID] {
						continue
					}
					// Read-mostly profiles belong to the E14 scaling matrix;
					// E13's default sweep leaves them to it.
					if (profileFilter == "" || profileFilter == "all") && p.ReadMostly {
						continue
					}
					profileMatched = true
					for _, tun := range variants {
						res, outcome, fastpath, err := loadRun(im, spec, rim, p, capacity, tun, opts.Seed)
						if err != nil {
							return nil, fmt.Errorf("bench: E13 %s/%s+%s/%s%s: %w", im.ID, spec, rim.ID, p.ID, tun.label(), err)
						}
						// An open-loop cell with no admission queue keeps
						// absorbing arrivals no matter how far behind it
						// falls, so its tail percentiles measure backlog
						// depth, not per-op service time.  Tag the row so a
						// reader does not take those tails for latency.
						if p.Arrival != load.Closed && p.Queue == 0 {
							outcome += " backlog-dominated"
						}
						p50, p99, p999 := res.Latency.Percentiles()
						nsPer, goodput := "-", "-"
						if res.Ops > 0 {
							nsPer = fmt.Sprintf("%.1f", float64(res.Elapsed.Nanoseconds())/float64(res.Ops))
							goodput = fmt.Sprintf("%.2f", res.Goodput()/1e6)
						}
						t.AddRow(
							im.ID+"/"+spec.String()+"+"+rim.ID+"/"+p.ID+tun.label(),
							string(im.Kind),
							p.Workload(),
							fmt.Sprintf("%d", res.Ops),
							nsPer,
							goodput,
							fmt.Sprintf("%v", p50),
							fmt.Sprintf("%v", p99),
							fmt.Sprintf("%v", p999),
							fmt.Sprintf("%d", res.Shed),
							fastpath,
							outcome,
						)
					}
				}
			}
		}
	}
	if !structMatched {
		return nil, fmt.Errorf("bench: unknown structure %q (registered: %s, or \"traffic\" for map+stack)", structFilter, structureIDs())
	}
	if !schemeMatched {
		return nil, fmt.Errorf("bench: unknown reclamation scheme %q (registered: %s)", schemeFilter, reclaimerIDs())
	}
	if !profileMatched {
		return nil, fmt.Errorf("bench: unknown load profile %q (try abalab -list)", profileFilter)
	}
	t.AddNote("latency percentiles come from allocation-free log2 histograms; open-loop rows measure from the *scheduled* arrival, so queueing delay counts (no coordinated omission).")
	t.AddNote("ops/ns-op/goodput (Mops/s) count *admitted* operations; shed is the count turned away at the admission queue, so goodput vs shed is the backpressure trade made explicit.")
	t.AddNote("fast-path reads elim=hits/misses (elimination exchanges), cache=hits (local free-stack allocs); tuned rows carry a +elim/+cache label suffix.")
	t.AddNote("keyed structures receive the profile's Zipf popularity and get/put/delete mix through the Keyed seam; others run their fixed op under the same arrival process.")
	t.AddNote("raw+none is the §1 victim, but these free-running rows usually audit clean (a corrupt audit is possible, not expected); the deterministic scenarios (E6's stack and queue scripts, the map script behind abalab -trace-dump) are what demonstrate the victim.  The sound regimes and the hp/epoch reclaimers must audit clean under every profile.")
	t.AddNote("rows tagged backlog-dominated are unthrottled open loops: their tails measure how deep the backlog grew, not per-op service time, and the tag is the outcome label that says so.")
	return t, nil
}

// loadRun drives one (structure, regime, reclaimer, profile, tuning) cell
// and audits at quiescence.
func loadRun(im registry.Impl, spec registry.GuardSpec, rim registry.Impl, p load.Profile, capacity int, tun Tuning, seed uint64) (load.Result, string, string, error) {
	f := shmem.NewNativeFactory()
	mk, err := registry.NewGuardMaker(f, p.Workers, spec)
	if err != nil {
		return load.Result{}, "", "", err
	}
	inst, err := im.NewStructure(f, p.Workers, capacity, mk, apps.InstanceOptions{
		Reclaim:     rim.NewReclaimer,
		Elimination: tun.Elimination,
		LocalCache:  tun.LocalCache,
	})
	if err != nil {
		return load.Result{}, "", "", err
	}
	if seed != 0 {
		p.Seed = seed
	}
	res, err := load.Run(inst, p)
	if err != nil {
		return load.Result{}, "", "", err
	}
	corrupt, detail := inst.Audit()
	prevented := inst.GuardMetrics().NearMisses
	ps := inst.PoolStats()
	outcome := fmt.Sprintf("corrupt=%v prevented-ABA=%d exhausted=%d deferred=%d",
		corrupt, prevented, ps.Exhaustions, ps.Reclaim.Deferred())
	if corrupt {
		outcome += " (" + detail + ")"
	}
	return res, outcome, fastPathColumn(inst, ps), nil
}

// fastPathColumn summarizes a cell's fast-path traffic: elimination
// exchanges and local-cache hits.  "-" means no
// fast path fired (or none was configured).
func fastPathColumn(inst apps.Instance, ps apps.PoolStats) string {
	var parts []string
	if fp, ok := inst.(apps.FastPather); ok {
		st := fp.FastPathStats()
		if st.ElimHits+st.ElimMisses > 0 {
			parts = append(parts, fmt.Sprintf("elim=%d/%d", st.ElimHits, st.ElimMisses))
		}
	}
	if ps.Local.Hits > 0 {
		parts = append(parts, fmt.Sprintf("cache=%d", ps.Local.Hits))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
