package bench

import (
	"fmt"
	"sync"
	"time"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// E12Reclaim measures the safe-memory-reclamation axis: every structure
// with a node pool driven by the fixed MPMC workload under each canonical
// protection regime × each registered reclaimer.  The table answers the
// paper's question empirically — what do you pay in time to stop paying in
// tag bits?  A raw guard plus hp/epoch reclamation must audit clean (the
// ABA is prevented below the guard), while raw+none remains the §1 victim;
// the outcome column carries the audit, the prevented-ABA count, and the
// reclaimer's retire/free/defer counters so the cost and the effect land in
// one row.  abalab exposes it as `-reclaim` (with an optional -app filter).
func E12Reclaim(structFilter, schemeFilter string) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "reclamation matrix: structure × protection regime × reclaimer (SMR as the ABA defense)",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s", "outcome"},
	}
	const workers = 4
	const perWorker = 10_000
	const capacity = 16

	regimes := []registry.GuardSpec{
		{Regime: guard.Raw},
		{Regime: guard.Tagged, TagBits: 16},
		{Regime: guard.LLSC},
		{Regime: guard.Detector},
	}

	structMatched, schemeMatched := false, false
	for _, im := range registry.Structures() {
		if structFilter != "" && structFilter != "all" && structFilter != im.ID {
			continue
		}
		structMatched = true
		for _, spec := range regimes {
			for _, rim := range registry.Reclaimers() {
				if schemeFilter != "" && schemeFilter != "all" && schemeFilter != rim.ID {
					continue
				}
				schemeMatched = true
				elapsed, outcome, err := reclaimRun(im, spec, rim, workers, perWorker, capacity)
				if err != nil {
					return nil, fmt.Errorf("bench: E12 %s/%s+%s: %w", im.ID, spec, rim.ID, err)
				}
				ops := workers * perWorker
				t.AddRow(
					im.ID+"/"+spec.String()+"+"+rim.ID,
					string(im.Kind),
					fmt.Sprintf("%d goroutines, op mix", workers),
					fmt.Sprintf("%d", ops),
					fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/float64(ops)),
					fmt.Sprintf("%.2f", float64(ops)/elapsed.Seconds()/1e6),
					outcome,
				)
			}
		}
	}
	if !structMatched {
		return nil, fmt.Errorf("bench: unknown structure %q (registered: %s)", structFilter, structureIDs())
	}
	if !schemeMatched {
		return nil, fmt.Errorf("bench: unknown reclamation scheme %q (registered: %s)", schemeFilter, reclaimerIDs())
	}
	t.AddNote("rows run on the default mutex FIFO pool so the reclaimer is the only allocator variable; the event flag has no pool and reports the same numbers on every scheme.")
	t.AddNote("raw+none is the §1 victim, but free-running traffic rarely lands the exact recycle it needs, so its rows usually audit clean; a corrupt audit there is possible and not a harness failure.  The deterministic scenarios (E6's stack and queue scripts, the map script behind abalab -trace-dump) are what demonstrate the victim.  raw+hp and raw+epoch must audit clean — the reclaimer prevents the ABA the raw guard cannot see.")
	t.AddNote("outcome: audit corruption, guards' detected-and-prevented count, then the reclaimer's retired/freed/deferred and the pool's exhaustion count.")
	return t, nil
}

// reclaimRun drives one (structure, regime, reclaimer) cell: `workers`
// goroutines, a fixed op count each, then a quiescent audit.
func reclaimRun(im registry.Impl, spec registry.GuardSpec, rim registry.Impl, workers, perWorker, capacity int) (time.Duration, string, error) {
	f := shmem.NewNativeFactory()
	mk, err := registry.NewGuardMaker(f, workers, spec)
	if err != nil {
		return 0, "", err
	}
	inst, err := im.NewStructure(f, workers, capacity, mk, apps.InstanceOptions{Reclaim: rim.NewReclaimer})
	if err != nil {
		return 0, "", err
	}
	steps := make([]func(int), workers)
	for pid := 0; pid < workers; pid++ {
		if steps[pid], err = inst.Worker(pid); err != nil {
			return 0, "", err
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < workers; pid++ {
		wg.Add(1)
		go func(step func(int)) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				step(i)
			}
		}(steps[pid])
	}
	wg.Wait()
	elapsed := time.Since(start)

	corrupt, detail := inst.Audit()
	prevented := inst.GuardMetrics().NearMisses
	ps := inst.PoolStats()
	outcome := fmt.Sprintf("corrupt=%v prevented-ABA=%d retired=%d freed=%d deferred=%d exhausted=%d",
		corrupt, prevented, ps.Reclaim.Retired, ps.Reclaim.Freed, ps.Reclaim.Deferred(), ps.Exhaustions)
	if corrupt {
		outcome += " (" + detail + ")"
	}
	return elapsed, outcome, nil
}
