package kv

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// growScenarioKeys finds two keys that both hash even — bucket 0 once the
// directory doubles to two buckets, so both sort before bucket 1's dummy.
// The hash is fixed, so the keys are found, not chosen.
func growScenarioKeys() (ka, kb Word) {
	var even []Word
	for k := Word(1); len(even) < 2; k++ {
		if hash64(k)&1 == 0 {
			even = append(even, k)
		}
	}
	return even[0], even[1]
}

// MapGrowABAScenario plays the §1 script across a directory doubling: a
// victim deleter stalls with an unlink armed against the end of the list,
// the directory doubles inside its window — so the end of bucket 0's run is
// no longer the end of the list but bucket 1's new dummy — and the
// adversary recycles both nodes back into their old order, restoring the
// victim's armed link word.  The stale commit then cuts the new dummy off
// the list.
//
// The map starts with one bucket, a directory ceiling of two, and its node
// pool at its ceiling (capacity = maxCapacity = 2), so recycling is
// immediate.  Both keys fall in bucket 0 at either size and share its sort
// group, so the run keeps insertion order, newest first.  With the list
// d0 → 2(ka) → 1(kb):
//
//  1. the victim begins Delete(kb): its walk protects nodes 2 and 1, it
//     marks node 1 and stalls holding the armed unlink next[2]: 1 → end;
//  2. the adversary's Delete(ka) first helps the victim's stalled unlink
//     (next[2]: 1 → end, freeing node 1), then unlinks and frees node 2 —
//     the free ring is [1, 2] and the list is just d0;
//  3. the directory doubles (the split a threshold crossing would
//     perform): bucket 1's dummy is linked at the end of the list,
//     d0 → d1;
//  4. the adversary's Put(kb, ·) gets node 1 back and links it behind d0,
//     and Put(ka, ·) gets node 2 back and links it in front of node 1,
//     setting next[2] to 1 — the victim's armed word, restored
//     bit-for-bit, with d0 → 2 → 1 → d1 underneath;
//  5. the victim resumes: committing next[2]: 1 → end iff the guard is
//     fooled — a raw guard is, cutting node 1 and bucket 1's dummy off the
//     list and then freeing node 1 as its own: the live kb binding is lost
//     and the audit reports the dummy in UnlinkedDummies; tagged/LL/SC/
//     detector guards reject with a near-miss.
//
// Under a reclaimer the victim's two protection slots keep both freed nodes
// out of the allocator (hp covers them directly, epoch holds them in limbo
// behind the victim's pin), so the adversary's Put starves at the pool
// ceiling before the recycle completes, and the stale commit fails on
// plain inequality — the armed word never repeats — with zero near-misses:
// prevention by allocation discipline, before the guard ever sees an ABA.
func MapGrowABAScenario(f shmem.Factory, prot Protection, tagBits uint, opts ...apps.StructOption) (apps.ScenarioResult, error) {
	var r apps.ScenarioResult
	rec := trace.New(2, 128)
	rec.Watch(func(e trace.Event) bool {
		return e.Kind == trace.KindGuardNearMiss || e.Kind == trace.KindExhaust
	})
	opts = append(opts, apps.WithGrowth(2), apps.WithTrace(rec))
	m, err := newMap(f, 2, 2, 1, 2, prot, tagBits, opts)
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
	ka, kb := growScenarioKeys()
	// Setup: the list d0 → 2(ka) → 1(kb).
	if !adversary.Put(kb, 101) || !adversary.Put(ka, 102) {
		return r, fmt.Errorf("kv: grow scenario setup puts failed")
	}
	// Victim: marks node 1 and stalls before the unlink, holding the armed
	// commit next[2]: 1 → end — and, when configured, its protection slots
	// on nodes 2 and 1 (the two its walk traversed).
	cur, succ, found := victim.DeleteBegin(kb)
	if !found || cur != 1 || succ != 0 {
		return r, fmt.Errorf("kv: grow scenario DeleteBegin = (%d,%d,%v), want (1,0,true)", cur, succ, found)
	}
	// Adversary: one Delete(ka) clears the whole list — its walk helps the
	// victim's unlink first (freeing node 1), then removes the live ka
	// binding (freeing node 2).
	if !adversary.Delete(ka) {
		return r, fmt.Errorf("kv: grow scenario Delete(ka) failed")
	}
	// The resize: one directory doubling under the stalled delete.
	if !adversary.GrowBuckets() {
		return r, fmt.Errorf("kv: grow scenario directory doubling failed")
	}
	// The recycle leg: both nodes come back in their old order, kb first so
	// ka's insert sets next[2] to node 1.  Under a reclaimer the first Put
	// starves at the ceiling instead.
	r.Starved = !adversary.Put(kb, 103) || !adversary.Put(ka, 104)
	// Victim resumes: the unlink commit cuts node 2 and the new dummy off
	// the list iff the guard is fooled.
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
