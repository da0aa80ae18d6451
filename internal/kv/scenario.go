package kv

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// MapABAScenario plays the §1 corruption script against the map: a victim
// deleter marks the first node of a single-bucket run and stalls between
// the logical delete and the physical unlink, while the adversary recycles
// nodes through the allocator until the bucket's link *index* is restored
// with a different run underneath.
//
// With one bucket (the directory ceiling) every key shares one sort group,
// so the run keeps insertion order, newest first.  Concretely, on the run
// head→3→2→1 (keys 3,2,1 in nodes 3,2,1):
//
//  1. the victim begins Delete(3): it marks node 3 and stalls before the
//     unlink commit head: 3 → 2;
//  2. the adversary's Delete(2) first helps unlink the marked node 3
//     (freeing it), then unlinks and frees node 2, and Put(4, ·) allocates
//     — with immediate FIFO reuse it gets node 3 back and links it at the
//     front of the run, so the head word is 3 again while node 2 is free
//     and node 3 now carries key 4;
//  3. the victim resumes: committing head 3 → 2 swings the bucket onto the
//     freed node 2 iff the guard is fooled — a raw guard is (the §1
//     corruption: a doubled node, a lost binding), tagged/LL/SC/detector
//     guards reject with a near-miss.
//
// Under a reclaimer the victim's published protection keeps node 3 out of
// the allocator, so the adversary's Put either comes back with a different
// index (hp: the head word never repeats, the stale commit fails on plain
// inequality, zero near-misses) or starves (epoch: every free node sits in
// limbo behind the victim's pin) — prevention by allocation discipline, with
// no ABA left for the guard to see.
func MapABAScenario(f shmem.Factory, prot Protection, tagBits uint, opts ...apps.StructOption) (apps.ScenarioResult, error) {
	var r apps.ScenarioResult
	rec := trace.New(2, 128)
	rec.Watch(func(e trace.Event) bool {
		return e.Kind == trace.KindGuardNearMiss || e.Kind == trace.KindExhaust
	})
	opts = append(opts, apps.WithTrace(rec))
	m, err := NewMap(f, 2, 3, 1, prot, tagBits, opts...) // one bucket: every key collides
	if err != nil {
		return r, err
	}
	adversary, err := m.Handle(0)
	if err != nil {
		return r, err
	}
	victim, err := m.Handle(1)
	if err != nil {
		return r, err
	}
	// Setup: run 3(key 3) -> 2(key 2) -> 1(key 1).
	for i := 1; i <= 3; i++ {
		if !adversary.Put(Word(i), Word(100+i)) {
			return r, fmt.Errorf("kv: scenario setup put %d failed", i)
		}
	}
	// Victim: marks node 3 (the logical delete) and stalls before the
	// unlink — holding its reclamation protection, when one is configured.
	cur, succ, found := victim.DeleteBegin(3)
	if !found || cur != 3 || succ != 2 {
		return r, fmt.Errorf("kv: scenario DeleteBegin = (%d,%d,%v), want (3,2,true)", cur, succ, found)
	}
	// Adversary: the wait-free Get skips the marked node without helping;
	// the Delete's walk helps unlink node 3 (one head swing, node 3 freed),
	// then marks node 2 and swings the head past it.  With immediate reuse
	// the FIFO allocator hands node 3 back to the Put, so the head *word* is
	// 3 again.
	if v, ok := adversary.Get(1); !ok || v != 101 {
		return r, fmt.Errorf("kv: scenario Get(1) = (%d,%v), want (101,true)", v, ok)
	}
	if !adversary.Delete(2) {
		return r, fmt.Errorf("kv: scenario Delete(2) failed")
	}
	// The recycle leg: under a reclaimer the victim's protection blocks
	// node 3, so this put either allocates a different node or starves.
	r.Starved = !adversary.Put(4, 104)
	// Victim resumes: the unlink commit swings the bucket head to the freed
	// node 2 iff the guard is fooled.
	r.Fooled = victim.DeleteCommit()
	audit := m.Audit()
	r.Corrupt, r.Detail = audit.Corrupt(), audit.String()
	r.Guard = m.GuardMetrics()
	r.Pool = m.PoolStats()
	if inc := rec.Incident(); inc != nil {
		r.Incident = inc
	} else {
		r.Incident = rec.Merge()
	}
	return r, nil
}
