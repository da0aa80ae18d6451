package kv

import (
	"math/bits"

	"abadetect/internal/guard"
)

// Growth: the directory doubles in place and the node space extends by
// geometric segment appends, both live under concurrent gets, puts and
// deletes, and both through the same list protocol every map runs.
//
// Because the low log2(S) hash bits pick the bucket and bit-reversal sends
// them to the top of the sort key, every key of bucket b sorts into the run
// between dummy b and the next dummy, and doubling S splits each run in
// place: bucket b+S's dummy drops into the middle of b's run and not a
// single data node moves.  growBuckets links all S new dummies — each one an
// ordinary guarded insert at its sorted position — and only then publishes
// the doubled size, so a process that hashes with the new size always finds
// its dummy linked, and a process still hashing with the old size walks
// through the new dummies on its way.  Readers are never blocked: a resize
// changes only the size word, the list (by inserts any walker tolerates),
// and the node-capacity snapshot.
//
// Every dummy insert is a guard load/commit like any other insert, so the
// split path inherits the regime ladder: raw is corruptible across a
// doubling (MapGrowABAScenario), tagged/llsc/detector reject the stale
// commit, and hp/epoch prevent the recycle leg outright.
//
// Node-space growth is the slab story one level up: registers and guards
// live in a shmem.Spine, so a segment append extends index addressing
// without relocating anything; the pool's Grow releases the new indices.
// The publication order (node spine, then the capacity snapshot, then the
// pool) means an allocator can only ever hold an index whose base objects
// are built.

const (
	// growThreshold is the average live data nodes per bucket that triggers
	// a directory doubling.
	growThreshold = 6
	// growCheckEvery spaces a handle's threshold checks (summing the striped
	// live counter on every put would reintroduce the shared-line traffic
	// the stripes remove).
	growCheckEvery = 32
)

// hash64 is the murmur3 finalizer: the bucket is its low bits, the
// split-order key its bit-reversal.
func hash64(k Word) Word {
	h := k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// sortKey is the list position of a data node whose key hashes to hk: the
// bit-reversal of the key's bucket at the directory ceiling, with the low
// bit forced to 1, so data always sorts strictly after the dummy of its
// bucket (whose reversed value has low bit 0).  Hash bits above the ceiling
// could never pick a bucket, so they take no part in the order: nodes of
// equal sort key keep insertion order, newest first.  At the ceiling a
// bucket's run is one such group — the fixed-size map's chain, head insert
// included.
func (m *Map) sortKey(hk Word) Word { return bits.Reverse64(hk&m.dirMask) | 1 }

// sortKeyData is sortKey of key k.
func (m *Map) sortKeyData(k Word) Word { return m.sortKey(hash64(k)) }

// sortKeyDummy is bucket b's dummy position: the bit-reversal of b.
func sortKeyDummy(b int) Word { return bits.Reverse64(uint64(b)) }

// floorPow2 rounds v down to a power of two (minimum 1).
func floorPow2(v int) int {
	if v < 1 {
		return 1
	}
	return 1 << (bits.Len(uint(v)) - 1)
}

// allocNode allocates a node, appending a node-space segment when the pool
// is empty below the ceiling.  A miss with kills still sitting in the
// operation's retire buffer flushes them first and retries — those nodes
// are freeable once handed to the reclaimer.  Otherwise the miss re-reads
// the capacity snapshot: if it moved since this process last looked,
// another process appended and the Alloc retries against it; if not, the
// capacity was the same before and after the failed Alloc, so the miss is
// real and growNodes may append.  That keeps the exhaustion report honest
// mid-resize without a shared read on the allocation path.
func (h *Handle) allocNode() int {
	for {
		if idx := h.pool.Alloc(); idx != 0 {
			return idx
		}
		if len(h.retireBuf) > 0 {
			h.flushRetires()
			continue
		}
		seen := h.capSeen
		if h.capSeen = h.m.capacityNow(h.pid); h.capSeen != seen {
			continue
		}
		if !h.m.growNodes(seen) {
			return 0
		}
	}
}

// growNodes appends a node-space segment: double (clamped to the ceiling),
// build the new nodes, publish the capacity snapshot, then release the
// indices through the pool.  The order is the whole protocol — a pool can
// only hand out an index whose base objects are built and whose capacity
// snapshot covers it.  `seen` is the capacity the caller failed its Alloc
// against; if the map has already grown past it, the append is skipped and
// the caller just retries.
func (m *Map) growNodes(seen int) bool {
	if seen >= m.maxCapacity {
		return false // at the ceiling: nothing to append, no lock to take
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.capacityNow(-1)
	if cur > seen {
		return true // a concurrent append beat us: retry the alloc
	}
	newCap := min(2*cur, m.maxCapacity)
	if _, err := m.nodes.Grow(newCap+1, m.newNode); err != nil {
		return false
	}
	m.capW.Write(-1, Word(newCap))
	if _, err := m.pool.Grow(newCap); err != nil {
		return false
	}
	m.appends.Add(1)
	return true
}

// growBuckets doubles the directory from s: under the resize mutex it
// builds the new dummies' link guards, links each new dummy b+s into bucket
// b's run at its sorted position, and only then CASes the size word, so any
// process that observes the doubled size finds every dummy on the list.
// A doubling that ran out of MaxSpin budget mid-way keeps the dummies it
// linked (dummyTop) and the next attempt resumes after them.
func (h *Handle) growBuckets(s int) bool {
	m := h.m
	if s >= m.maxBuckets {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(m.size.Read(h.pid)) != s {
		m.retries.Add(1) // a concurrent doubling won
		return false
	}
	if _, err := m.head.Grow(2*s, func(b int) (guard.Guard, error) { return m.newHead(b, 0) }); err != nil {
		return false
	}
	for m.dummyTop < 2*s {
		if !h.linkDummy(m.dummyTop, s) {
			h.endOp(false)
			return false
		}
		m.dummyTop++
	}
	h.endOp(false)
	if !m.size.CompareAndSwap(h.pid, Word(s), Word(2*s)) {
		m.retries.Add(1)
		return false
	}
	m.splits.Add(1)
	return true
}

// linkDummy inserts bucket d's dummy (d = b+s) into bucket b's run.  The
// dummy's link is reset to its successor and the predecessor committed to
// name it — the sorted insert every Put makes, with the dummy's own link
// guard standing in for a node's.  It reports false only when the spin
// budget ran out.
func (h *Handle) linkDummy(d, s int) bool {
	sk := sortKeyDummy(d)
	spins := 0
	for {
		prev, succ, _, _, ok := h.walk(d-s, 0, sk, true, 0, &spins)
		if !ok {
			return false
		}
		h.headH(d).Store(succ)
		if prev.Commit(dummyLink(d)) {
			return true
		}
	}
}

// GrowBuckets forces one directory doubling through this process (test and
// scenario hook; the traffic path doubles off the live-count threshold
// instead).  It reports whether the directory actually doubled.
func (h *Handle) GrowBuckets() bool {
	h.size = h.m.size.Read(h.pid)
	return h.growBuckets(int(h.size))
}

// maybeGrow is Put's amortized threshold check: every growCheckEvery puts,
// sum the striped live counter and double the directory when the average
// run would exceed growThreshold.
func (h *Handle) maybeGrow() {
	h.growTick++
	if h.growTick < growCheckEvery {
		return
	}
	h.growTick = 0
	h.size = h.m.size.Read(h.pid)
	s := int(h.size)
	if s >= h.m.maxBuckets || h.m.live.Load() <= int64(s*growThreshold) {
		return
	}
	h.growBuckets(s)
}
