// Package kv is the keyed application workload the traffic layer drives: a
// lock-free split-ordered hash map over the same Guard and reclamation
// substrate as the stack and queue of internal/apps.
//
// Every node lives on ONE list sorted by split-order key (Shalev–Shachnai
// recursive split ordering), and the bucket directory is a set of
// shortcuts into it.  Bucket b's shortcut is a *dummy*: a sentinel whose
// sort key is the bit-reversal of b, so it sorts immediately before the
// keys it owns, and which exists only as its own next link — head[b] — so a
// dummy costs one guard and no pool node.  A data node's sort key is the
// bit-reversal of its bucket at the directory ceiling with the low bit
// forced to 1, so data always sorts after the dummy of its bucket; nodes of
// equal sort key keep insertion order, newest first, so at the ceiling a
// bucket's run is an insert-at-head chain.  Every mutable link rides a
// guard.Guard: the dummies' links and each node's next pointer.  The list protocol is the
// Michael-style marked-link scheme adapted to index-based nodes:
//
//   - a link word packs (target << 2 | dummy << 1 | mark): the target is a
//     node index, or a bucket number when the dummy bit is set, so a walker
//     learns a dummy's sort key from the link that names it; word 0 is the
//     end of the list;
//   - the mark bit on a node's next pointer is the node's logical-delete
//     flag, set by a conditional commit so the link freezes before the node
//     is unlinked; dummies are never deleted;
//   - a Put always inserts a fresh node in front of its sort key's group
//     and then kills any older node of the same key behind the first live
//     match, so a node's key and value are immutable from link to
//     unlink — reads never race updates;
//   - traversals help: a walker that finds a marked node unlinks it
//     (conditionally, against the predecessor link it has loaded and, under
//     a reclaimer, protected) and releases it to the pool.
//
// The constructed directory is linked at construction (each head guard is
// born holding its successor dummy's link), so a map that never grows never
// walks from a foreign bucket.  Growth (apps.WithGrowth) doubles the
// directory by linking the new dummies into the list before publishing the
// doubled size, and extends the node space by geometric segment appends;
// no node ever moves (see grow.go).
//
// The ABA lives exactly where the paper says it lives: between loading a
// predecessor link and committing past it, the successor node can be
// deleted, recycled through the allocator, and re-linked, so a raw commit
// swings a link onto a free node.  MapABAScenario replays that
// deterministically and MapGrowABAScenario replays it across a directory
// doubling; the tagged, LL/SC, and detector regimes reject the stale commit,
// and the hp/epoch reclaimers prevent the recycle leg outright — the same
// ladder the stack and queue walk, on the keyed workload a production cache
// serves.
package kv

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Word is the key and value type.
type Word = shmem.Word

// Protection re-exports the apps regime selector.
type Protection = apps.Protection

// nodeLink is the unmarked link word naming node idx.
func nodeLink(idx int) Word { return Word(idx) << 2 }

// dummyLink is the link word naming bucket b's dummy.
func dummyLink(b int) Word { return Word(b)<<2 | 2 }

// linkIdx unpacks the target of a link word: a node index, or a bucket
// number when linkDummy reports a dummy.
func linkIdx(w Word) int { return int(w >> 2) }

// linkDummy reports whether a link word names a dummy.
func linkDummy(w Word) bool { return w&2 != 0 }

// linkMarked reports the mark bit of a link word.
func linkMarked(w Word) bool { return w&1 != 0 }

// LinkBits is the width of the map's link words for a map built with the
// given capacity, bucket count and growth ceiling (0 without
// apps.WithGrowth): the wider of a node index and a bucket number, plus the
// dummy and mark bits.  Guards, tag widths and the facade's tag-width check
// are all priced off it.  A directory ceiling derived from the growth
// ceiling never needs more bits than the node index does.
func LinkBits(capacity, buckets, growTo int) uint {
	maxCap := max(capacity, growTo)
	return shmem.BitsFor(max(maxCap+1, nextPow2(buckets))) + 2
}

// node is one pool node's base objects.
type node struct {
	key  shmem.Register // immutable while linked
	val  shmem.Register // immutable while linked
	next guard.Guard    // packed link word
}

// Map is a split-ordered lock-free hash map over a pool of index-based
// nodes, shared by n processes.  Every dummy's link and every node's next
// pointer is a Guard, so the map runs under every Protection regime, over
// any registered guard implementation, on any substrate — and its node
// recycling routes through the allocator seam, so any reclaim scheme can
// sit underneath.
type Map struct {
	n           int
	growing     bool
	maxCapacity int  // node-capacity ceiling: the capacity itself without growth
	maxBuckets  int  // directory ceiling: the constructed size without growth
	dirMask     Word // maxBuckets-1: the hash bits the sort order uses
	linkBits    uint
	hopBound    int // a walk longer than this has met a cycle
	maker       guard.Maker
	factory     shmem.Factory

	// nodes holds node i's registers and link guard (index 0 unused); head
	// holds bucket b's dummy link.  Both are Spines, so a resize extends
	// them without moving an element under a concurrent reader.
	nodes *shmem.Spine[node]
	head  *shmem.Spine[guard.Guard]

	// size is the directory size S (a power of two that only ever doubles,
	// so a plain CAS is ABA-free on it); capW is the published node
	// capacity — indices 1..capW have built base objects.
	size shmem.WritableCAS
	capW shmem.WritableCAS

	pool apps.Pool

	// live approximates the live data-node count (inserts minus logical
	// deletes), the directory-doubling trigger.
	live *shmem.StripedCounter

	mu       sync.Mutex // serializes resizes
	dummyTop int        // buckets below dummyTop have their dummy linked; guarded by mu

	splits  atomic.Int64 // directory doublings
	appends atomic.Int64 // node-space segment appends
	retries atomic.Int64 // doublings lost to a concurrent winner

	// Read-path counters (striped: retries happen exactly under the write
	// contention a shared counter would amplify).  The clean fast path bumps
	// nothing — a per-Get counter would reintroduce the shared write the
	// path exists to remove.
	readRetries   *shmem.StripedCounter // torn fast-path attempts restarted
	readFallbacks *shmem.StripedCounter // Gets that fell back to the guarded path

	// tr is the flight recorder of a map built apps.WithTrace; nil means no
	// tracing anywhere on the hot path.
	tr *trace.Recorder
}

// NewMap builds a map for n processes with the given node capacity and
// bucket count (rounded up to a power of two; pass 1 to force every key
// into one run, as the deterministic scenarios do).  tagBits is only used
// by the Tagged regime; both prot and tagBits are ignored when
// apps.WithMaker supplies the guards.  With apps.WithGrowth the capacity
// and bucket count are the initial sizes and the growth ceiling bounds
// both; without it they are fixed.
func NewMap(f shmem.Factory, n, capacity, buckets int, prot Protection, tagBits uint, opts ...apps.StructOption) (*Map, error) {
	return newMap(f, n, capacity, buckets, 0, prot, tagBits, opts)
}

// newMap is NewMap with an explicit directory ceiling (0 derives it: the
// constructed size without growth, else the size that holds the growth
// ceiling at growThreshold keys per bucket).  The resize scenario sets one
// above its tiny pool's derived ceiling so its directory can double.
func newMap(f shmem.Factory, n, capacity, buckets, maxBuckets int, prot Protection, tagBits uint, opts []apps.StructOption) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("kv: map needs n >= 1, got %d", n)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("kv: map needs capacity >= 1, got %d", capacity)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("kv: map needs buckets >= 1, got %d", buckets)
	}
	cfg := apps.ResolveStructOptions(f, n, prot, tagBits, opts)
	s0 := nextPow2(buckets)
	m := &Map{
		n:           n,
		growing:     cfg.GrowTo > 0,
		maxCapacity: capacity,
		maxBuckets:  s0,
		maker:       cfg.Maker,
		factory:     f,
		dummyTop:    s0,
		live:        shmem.NewStripedCounter(),

		readRetries:   shmem.NewStripedCounter(),
		readFallbacks: shmem.NewStripedCounter(),
		tr:            cfg.Trace,
	}
	if m.growing {
		if cfg.GrowTo < capacity {
			return nil, fmt.Errorf("kv: growth ceiling %d below initial capacity %d", cfg.GrowTo, capacity)
		}
		m.maxCapacity = cfg.GrowTo
		m.maxBuckets = max(s0, floorPow2(cfg.GrowTo/growThreshold))
	}
	if maxBuckets > 0 {
		m.maxBuckets = max(s0, nextPow2(maxBuckets))
	}
	m.dirMask = Word(m.maxBuckets - 1)
	m.linkBits = LinkBits(capacity, m.maxBuckets, cfg.GrowTo)
	m.hopBound = m.maxCapacity + m.maxBuckets
	var err error
	if m.nodes, err = shmem.NewSpine(capacity+1, m.newNode); err != nil {
		return nil, fmt.Errorf("kv: map node: %w", err)
	}
	// The constructed directory is linked here: each dummy's head guard is
	// born holding the link to the next dummy in split order, so the list
	// reads d0 → … → d(S-1) in bit-reversed order before the first Put.
	if m.head, err = shmem.NewSpine(s0, func(b int) (guard.Guard, error) {
		return m.newHead(b, dummySucc(b, s0))
	}); err != nil {
		return nil, fmt.Errorf("kv: map head: %w", err)
	}
	if !m.head.Get(0).Conditional() {
		return nil, fmt.Errorf("kv: map needs conditional guards; %s guard is detection-only", m.head.Get(0).Regime())
	}
	m.size = f.NewCAS("msize", Word(s0))
	m.capW = f.NewCAS("mcap", Word(capacity))
	if m.pool, err = apps.NewPool(f, cfg, "map", n, capacity, shmem.BitsFor(m.maxCapacity+1)); err != nil {
		return nil, err
	}
	return m, nil
}

// newNode builds node i's base objects (index 0 is the unused nil node).
func (m *Map) newNode(i int) (node, error) {
	if i == 0 {
		return node{}, nil
	}
	nd := node{
		key: m.factory.NewRegister(fmt.Sprintf("mkey[%d]", i), 0),
		val: m.factory.NewRegister(fmt.Sprintf("mval[%d]", i), 0),
	}
	var err error
	nd.next, err = m.maker(fmt.Sprintf("mnext[%d]", i), m.linkBits, 0)
	return nd, err
}

// newHead builds bucket b's dummy link guard holding init.
func (m *Map) newHead(b int, init Word) (guard.Guard, error) {
	return m.maker(fmt.Sprintf("mhead[%d]", b), m.linkBits, init)
}

// dummySucc is the link to the dummy after bucket b's in split order over
// a directory of s buckets, or 0 when b's dummy is the last one.
func dummySucc(b, s int) Word {
	step := uint64(1) << (64 - bits.Len(uint(s-1))) // 0 when s == 1
	next := bits.Reverse64(uint64(b)) + step
	if next == 0 {
		return 0 // wrapped past the last dummy (or s == 1)
	}
	return dummyLink(int(bits.Reverse64(next)))
}

// nextPow2 rounds v up to the next power of two.
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// NumProcs returns n.
func (m *Map) NumProcs() int { return m.n }

// Capacity returns the current node capacity.
func (m *Map) Capacity() int { return m.capacityNow(-1) }

func (m *Map) capacityNow(pid int) int { return int(m.capW.Read(pid)) }

// MaxCapacity returns the node-capacity ceiling: the growth ceiling for a
// map built apps.WithGrowth, the capacity otherwise.
func (m *Map) MaxCapacity() int { return m.maxCapacity }

// Growing reports whether the map was built apps.WithGrowth.
func (m *Map) Growing() bool { return m.growing }

// Buckets returns the current directory size.
func (m *Map) Buckets() int { return int(m.size.Read(-1)) }

// Protection returns the reference-guard regime.
func (m *Map) Protection() Protection { return m.head.Get(0).Regime() }

// GuardMetrics returns the aggregated audit counters of every reference
// guard (dummy links and all next pointers).
func (m *Map) GuardMetrics() guard.Metrics {
	var agg guard.Metrics
	for b := 0; b < m.head.Len(); b++ {
		agg = agg.Add(m.head.Get(b).Metrics())
	}
	for i := 1; i < m.nodes.Len(); i++ {
		agg = agg.Add(m.nodes.At(i).next.Metrics())
	}
	return agg
}

// FreelistMetrics returns the node pool's guard counters (zero unless the
// map was built apps.WithGuardedPool).
func (m *Map) FreelistMetrics() guard.Metrics { return m.pool.Metrics() }

// PoolStats returns the allocator's exhaustion and reclamation counters.
func (m *Map) PoolStats() apps.PoolStats { return m.pool.Stats() }

// CombineStats is always (0, 0): the map has no combining path.  The
// benchmark's traced build still reads it into StructureAudit's combining
// fields; a change to the benchmark may drop both.
func (m *Map) CombineStats() (batches, ops int64) { return 0, 0 }

// Handle returns process pid's handle.  Handles are single-goroutine.
func (m *Map) Handle(pid int) (*Handle, error) {
	if pid < 0 || pid >= m.n {
		return nil, fmt.Errorf("kv: pid %d out of range [0,%d)", pid, m.n)
	}
	h := &Handle{
		m:    m,
		pid:  pid,
		lane: shmem.StripeFor(pid),
		ring: m.tr.Ring(pid),
	}
	if err := h.extend(); err != nil {
		return nil, err
	}
	h.size = m.size.Read(pid)
	h.capSeen = m.capacityNow(pid)
	var err error
	if h.pool, err = m.pool.Handle(pid); err != nil {
		return nil, err
	}
	h.smr = h.pool.Reclaiming()
	// The wait-free fast path skips the hazard/epoch publish entirely; that
	// is sound whenever torn reads are detectable.  Index-based nodes make
	// the traversal memory-safe without protection (arrays are never freed),
	// and the sound regimes turn any recycle under the reader into a failed
	// Validate.  Raw cannot — its value-blind Validate is the §1 blindness —
	// so under a reclaimer a raw-guarded map keeps the protected read path,
	// which is what makes raw+hp/raw+epoch reads sound today.  Raw *without*
	// a reclaimer already reads unprotected and value-blind on the mainline,
	// so the fast path changes nothing there.
	h.fastOK = !h.smr || m.Protection() != guard.Raw
	return h, nil
}

// Handle is a per-process map endpoint.
type Handle struct {
	m      *Map
	pid    int
	lane   int  // read-counter stripe, shmem.StripeFor(pid)
	fastOK bool // wait-free read fast path is sound for this configuration
	// head and next are this process's guard handles on every dummy link and
	// node link, built by Handle and extended only after a resize.
	head []guard.Handle
	next []guard.Handle
	pool apps.PoolHandle
	smr  bool        // pool defers releases: run the protect/revalidate fence
	ring *trace.Ring // nil without apps.WithTrace; Record on nil is a no-op

	// size and capSeen are this process's last reads of the directory size
	// and the capacity snapshot.  A stale size is harmless (see bucket) and
	// refreshed whenever a walk steps through a newer dummy; capSeen only
	// matters on an allocation miss (see allocNode).  Neither word is read
	// on the operation path otherwise.
	size     Word
	capSeen  int
	growTick int // amortizes the directory-doubling check (see maybeGrow)

	// ReadStall, when non-nil, runs inside every fast-path read attempt
	// right after the key load and before the validating fence — the
	// deterministic stall point the torn-read scripts interleave a writer
	// into.  Test/experiment hook, like DeleteBegin's split.
	ReadStall func()

	// MaxSpin bounds the traversal/retry steps of one operation; 0 means
	// unbounded (the lock-free default).  A raw-guarded map that has been
	// ABA-corrupted can acquire a cycle through the list, turning a
	// traversal into a livelock — benchmark and race harnesses set a bound
	// so a corrupted foil fails operations instead of hanging.
	MaxSpin int

	// pending unlink armed by DeleteBegin (the experiment hook).
	pendingPrev guard.Handle
	pendingCur  int
	pendingSucc Word

	// retireBuf batches this operation's unlinked nodes (the helped unlinks
	// of a traversal plus the sweep's own kills) into one RetireBatch at the
	// operation boundary — one epoch stamp and one cadence check for the
	// whole kill set instead of one per node.  SMR only: without a reclaimer
	// releases stay immediate, keeping the FIFO recycling order the
	// deterministic corruption scripts depend on.
	retireBuf []int
}

// extend builds this process's guard handles for every dummy link and node
// link the spines have published beyond the current tables.
func (h *Handle) extend() error {
	h.head = slices.Grow(h.head, h.m.head.Len()-len(h.head))
	h.next = slices.Grow(h.next, h.m.nodes.Len()-len(h.next))
	for b := len(h.head); b < h.m.head.Len(); b++ {
		hh, err := h.m.head.Get(b).Handle(h.pid)
		if err != nil {
			return err
		}
		h.head = append(h.head, hh)
	}
	if len(h.next) == 0 {
		h.next = append(h.next, nil) // index 0 is the nil node
	}
	for i := len(h.next); i < h.m.nodes.Len(); i++ {
		nh, err := h.m.nodes.At(i).next.Handle(h.pid)
		if err != nil {
			return err
		}
		h.next = append(h.next, nh)
	}
	return nil
}

// mustExtend is extend after a resize published an index this handle has
// not seen; the pid was validated by Handle, so a failure is a bug.
func (h *Handle) mustExtend() {
	if err := h.extend(); err != nil {
		panic(fmt.Sprintf("kv: handle tables for pid %d: %v", h.pid, err))
	}
}

// headH returns this process's handle on bucket b's dummy link.
func (h *Handle) headH(b int) guard.Handle {
	if b >= len(h.head) {
		h.mustExtend()
	}
	return h.head[b]
}

// nextH returns this process's handle on node idx's link.
func (h *Handle) nextH(idx int) guard.Handle {
	if idx >= len(h.next) {
		h.mustExtend()
	}
	return h.next[idx]
}

// bucket hashes k under this process's last-read directory size and
// returns its bucket and split-order key.  A stale size is harmless — the
// list is fully sorted, so a walk from an older (coarser) dummy passes
// through any newer dummy in its way and still meets every node of the
// key's run — and such a step-through is exactly what re-reads the size
// (stepThrough), so the operation path pays no shared read for it.
func (h *Handle) bucket(k Word) (b int, sk Word) {
	hk := hash64(k)
	return int(hk & (h.size - 1)), h.m.sortKey(hk)
}

// stepThrough moves a walk past dummy d, which sorts before the key it is
// looking for: d belongs to a doubling newer than this process's size, so
// the size is re-read for the next operation.
func (h *Handle) stepThrough(d int) (guard.Handle, Word) {
	h.size = h.m.size.Read(h.pid)
	prev := h.headH(d)
	w, _ := prev.Load()
	return prev, w
}

// spent reports whether a bounded handle has used up its spin budget.
func (h *Handle) spent(spins int) bool { return h.MaxSpin > 0 && spins >= h.MaxSpin }

// endOp closes an operation's reclamation window: protections drop, the
// operation's buffered kills retire as one batch, and a miss — this
// process's idle moment — drains its own deferred nodes so an idle reader
// cannot strand every node in limbo while writers starve.  The flush runs
// after the Clear so this process's own protections cannot defer its own
// retirements.
func (h *Handle) endOp(miss bool) {
	if !h.smr {
		return
	}
	h.pool.Clear()
	h.flushRetires()
	if miss {
		h.pool.Drain()
	}
}

// flushRetires hands the operation's buffered kills to the pool in one
// batch.  Callers that bypass endOp (the budget-exhausted put) call it
// directly so no node is ever stranded in the private buffer.
func (h *Handle) flushRetires() {
	if len(h.retireBuf) > 0 {
		h.pool.ReleaseBatch(h.retireBuf)
		h.retireBuf = h.retireBuf[:0]
	}
}

// retire hands a node the caller exclusively owns back to the pool.  Under
// a reclaimer all protections are cleared first — this process's own hazard
// or pin must not defer the retirement (callers restart their traversal
// afterwards, so no stale trust survives the clear) — and the node joins
// the operation's retire batch, flushed at the operation boundary.
func (h *Handle) retire(idx int) {
	if h.smr {
		h.pool.Clear()
		h.retireBuf = append(h.retireBuf, idx)
		return
	}
	h.pool.Release(idx)
}

// release returns a node this process just unlinked mid-traversal.  The
// node's own protection slot is dropped first (a published index would
// defer its retirement against ourselves); the other slot — still covering
// the predecessor — stays up because the traversal continues from it.
// Under a reclaimer the node joins the operation's retire batch: it is
// unreachable and not yet allocatable (the buffer is private), so deferring
// the retirement to the operation boundary only delays reuse, never safety.
func (h *Handle) release(idx, slot int) {
	if h.smr {
		h.pool.Protect(slot, 0)
		h.retireBuf = append(h.retireBuf, idx)
		return
	}
	h.pool.Release(idx)
}

// walk runs the list from bucket b's dummy toward split-order key sk,
// helping unlink every marked node it passes.  With insert=false it looks
// for the (skip+1)-th live node holding key k; with insert=true it looks for
// the insertion point of a node (or dummy) of sort key sk: the first entry
// whose sort key is >= sk, so a fresh binding lands in front of any older
// one of its key.  On return:
//
//   - prev is the guard handle of the link naming the position (a dummy
//     link or a predecessor's next pointer), armed by its last Load — ready
//     for the caller's insert, mark or unlink commits — and prevW is the
//     word that Load returned;
//   - cur is the matching node (0 on a miss, or always with insert=true);
//   - curNext is cur's packed next word as loaded (unmarked);
//   - ok is false when the spin budget ran out.
//
// Per node hop the walk does what the paper prices for a guarded chain:
// one key read (the sort key is computed from the key, not stored), one
// next-link Load, and one Validate of the predecessor — after both reads
// without a reclaimer, before them (behind the protection publish) with
// one.  The node an insert stops at costs only its key read: the insert's
// own commit on prev is the fence.  An insert whose sort key is the first
// one a dummy's run can hold — every insert, at the directory ceiling —
// stops right behind that dummy without reading a node at all, which is the
// fixed-size map's head insert.  A dummy hop reads the dummy's sort key off
// the link word and costs one Load; dummies are never unlinked, so there is
// nothing to validate.  Under
// a reclaimer the two protection slots alternate so the predecessor stays
// covered while the next node is published.  Without one, the sound regimes
// turn a recycle between the loads into a restart; the raw regime can only
// compare values, which is the §1 vulnerability.
func (h *Handle) walk(b int, k, sk Word, insert bool, skip int, spins *int) (prev guard.Handle, prevW Word, cur int, curNext Word, ok bool) {
retry:
	for {
		if h.spent(*spins) {
			return nil, 0, 0, 0, false
		}
		*spins++
		prev = h.headH(b)
		prevW, _ = prev.Load()
		if insert && sortKeyDummy(b)|1 == sk {
			return prev, prevW, 0, 0, true // the front of b's one sort group
		}
		slot, remaining := 0, skip
		for {
			if h.spent(*spins) {
				return nil, 0, 0, 0, false
			}
			*spins++
			if prevW == 0 {
				return prev, 0, 0, 0, true // end of the list (prevW is never marked here)
			}
			if linkDummy(prevW) {
				d := linkIdx(prevW)
				if sortKeyDummy(d) >= sk {
					return prev, prevW, 0, 0, true // past the run
				}
				prev, prevW = h.stepThrough(d)
				if insert && sortKeyDummy(d)|1 == sk {
					return prev, prevW, 0, 0, true
				}
				continue
			}
			cur = linkIdx(prevW)
			if h.smr {
				h.pool.Protect(slot, cur)
				if !prev.Validate() {
					continue retry // cur moved before the protection was visible
				}
			}
			ck := h.m.nodes.At(cur).key.Read(h.pid)
			if insert && h.m.sortKeyData(ck) >= sk {
				// The insertion point.  The caller's commit on prev is the
				// fence — it fails if cur moved — so cur's own link is not
				// read here, and a marked cur is left for the sweep to help.
				return prev, prevW, 0, 0, true
			}
			curNext, _ = h.nextH(cur).Load()
			if !h.smr && !prev.Validate() {
				// Without a reclaimer the node could have been unlinked and
				// recycled between the reads; a changed predecessor link is
				// the tell (exact under the sound regimes, value-blind under
				// raw).
				continue retry
			}
			if linkMarked(curNext) {
				// cur is logically deleted: help unlink it.  The commit is
				// conditional on the predecessor link still naming cur, so
				// exactly one helper wins and releases the node.
				if !prev.Commit(curNext &^ 1) {
					continue retry
				}
				h.release(cur, slot)
				// Re-arm prev and continue in place — unless prev itself was
				// marked meanwhile: committing past a marked word would
				// clear its owner's delete mark, so restart instead.
				if prevW, _ = prev.Load(); linkMarked(prevW) {
					continue retry
				}
				continue
			}
			if !insert {
				if ck == k {
					if remaining == 0 {
						return prev, prevW, cur, curNext, true
					}
					remaining--
				} else if h.m.sortKeyData(ck) > sk {
					return prev, prevW, 0, 0, true // walked past the run: miss
				}
			}
			// Advance: cur becomes the predecessor; its next handle is
			// already armed by the Load above.  The slots alternate so the
			// new predecessor stays protected while the next node is
			// published into the slot its own predecessor vacated.
			prev = h.next[cur]
			prevW = curNext
			slot ^= 1
		}
	}
}

// Get returns the value bound to k.
//
// The common case is the wait-free seqlock fast path (tryGet): an
// unprotected walk whose key/value snapshot is accepted only if the link
// guards still validate — no hazard slot, no epoch pin, no retire drain, no
// allocation, and on a clean read not a single shared write.  After
// fastGetRetries torn attempts Get falls back to the guarded walk (counted
// in MapAudit.ReadFallbacks), which is lock-free and helps unlink, so
// progress is never worse than without the fast path.
func (h *Handle) Get(k Word) (Word, bool) {
	b, sk := h.bucket(k)
	if h.fastOK {
		for attempt := 0; attempt < fastGetRetries; attempt++ {
			if v, ok, clean := h.tryGet(b, k, sk); clean {
				return v, ok
			}
			h.m.readRetries.Add(h.lane, 1) // one bump per torn attempt
		}
		h.m.readFallbacks.Add(h.lane, 1)
	}
	spins := 0
	for {
		prev, _, cur, _, ok := h.walk(b, k, sk, false, 0, &spins)
		if !ok || cur == 0 {
			h.endOp(true)
			return 0, false
		}
		v := h.m.nodes.At(cur).val.Read(h.pid)
		if !h.smr && !prev.Validate() {
			continue // the node moved while we read it: retry
		}
		h.endOp(false)
		return v, true
	}
}

// fastGetRetries bounds the fast path's torn-read restarts before Get falls
// back to the guarded traversal: the reader stays wait-free (its step count
// is bounded regardless of writer behavior), and sustained write pressure
// degrades to the lock-free mainline instead of starving the read.
const fastGetRetries = 3

// tryGet is one wait-free read attempt: walk the run reading links, keys,
// and — on a match — the value, accepting each dependent read only if the
// link it hangs off still validates (the seqlock fence; guard.ReadConsistent
// is this protocol for a single reference, inlined here because the payload
// spans a chain).  clean=false reports a torn attempt.
//
// The walk takes no protection slot: nodes are array indices, so a recycled
// node is readable garbage, never a dangling pointer, and the validating
// fence rejects the garbage.  Marked nodes are skipped, not helped — the
// read path must not write.  The hop bound covers the one structural hazard
// validation cannot see mid-walk: a list that acquired a cycle (possible
// only after a raw-regime corruption), which just turns the attempt torn.
func (h *Handle) tryGet(b int, k, sk Word) (v Word, ok, clean bool) {
	prev := h.headH(b)
	prevW, _ := prev.Load()
	for hops := 0; ; hops++ {
		if linkIdx(prevW) == 0 || linkDummy(prevW) && sortKeyDummy(linkIdx(prevW)) > sk {
			// Miss: accept only if the final link is still current.
			return 0, false, prev.Validate()
		}
		if hops > h.m.hopBound || h.spent(hops) {
			return 0, false, false
		}
		if linkDummy(prevW) {
			prev, prevW = h.stepThrough(linkIdx(prevW))
			continue
		}
		cur := linkIdx(prevW)
		curNext, _ := h.nextH(cur).Load()
		nd := h.m.nodes.At(cur)
		ck := nd.key.Read(h.pid)
		if h.ReadStall != nil {
			h.ReadStall()
		}
		// The fence: prev's link is unchanged since its Load, so cur was
		// linked at this position across both reads and its key/next belong
		// to this list state (exact under the sound regimes; value-blind
		// under raw, the §1 caveat).
		if !prev.Validate() {
			return 0, false, false
		}
		if !linkMarked(curNext) && ck == k {
			v = nd.val.Read(h.pid)
			// Key and value are immutable while linked; a second fence on
			// prev proves cur stayed linked across the value read, so the
			// (key, value) pair is a consistent snapshot.
			if !prev.Validate() {
				return 0, false, false
			}
			return v, true, true
		}
		if h.m.sortKeyData(ck) > sk {
			return 0, false, true // walked past the run: a validated miss
		}
		// Advance: cur's next handle is armed by its Load above.
		prev, prevW = h.next[cur], curNext
	}
}

// Put binds k to v.  It returns false when the node pool is exhausted at
// its ceiling (or a MaxSpin budget ran out) — a fresh node is needed even to
// overwrite, since keys and values are immutable per node.
func (h *Handle) Put(k, v Word) bool {
	idx := h.allocNode()
	if idx == 0 {
		h.endOp(true)
		return false
	}
	nd := h.m.nodes.At(idx)
	nd.key.Write(h.pid, k)
	nd.val.Write(h.pid, v)
	b, sk := h.bucket(k)
	spins := 0
	for {
		prev, succ, _, _, ok := h.walk(b, k, sk, true, 0, &spins)
		if !ok {
			h.retire(idx) // never linked: hand the node straight back
			h.flushRetires()
			return false
		}
		// Reset the recycled node's link; only we touch an unlinked node.
		h.nextH(idx).Store(succ)
		// Committing prev from succ to idx proves succ was still prev's
		// successor — the sorted insert is the same conditional shape as the
		// unlink, and as ABA-exposed under raw.
		if prev.Commit(nodeLink(idx)) {
			break // linearized: the new binding shadows any older one
		}
	}
	h.m.live.Add(h.lane, 1)
	// Kill older duplicates: every live k-node behind the first live match
	// (which may be ours, or an even newer Put's) is marked and unlinked, so
	// the steady state is one live node per key and the pool cannot leak.
	h.sweep(b, k, sk, 1, &spins)
	h.endOp(false)
	h.maybeGrow()
	return true
}

// Delete removes k's binding.  It reports whether any binding was removed.
func (h *Handle) Delete(k Word) bool {
	b, sk := h.bucket(k)
	spins := 0
	deleted := h.sweep(b, k, sk, 0, &spins)
	h.endOp(!deleted)
	return deleted
}

// sweep marks and unlinks every live k-node past the first `keep` live
// matches, restarting from the bucket's dummy after each kill.  It reports
// whether it killed at least one node.
//
// Kill order matters: the first live match is the visible binding, and an
// older live duplicate behind it is shadowed — readers take the first match.
// Marking the binding while such a duplicate survives would promote the
// duplicate to first match, resurrecting its stale value for the window
// until the sweep reaches it.  So a keep=0 sweep first runs itself at
// keep=1, killing every shadowed duplicate (those deaths are invisible:
// the binding still shadows the position), and only then touches the
// binding.  Inserts land only in front of a key's run, so no new duplicate
// can appear *behind* the binding after that pass — the deep side of the
// run only ever shrinks.
func (h *Handle) sweep(b int, k, sk Word, keep int, spins *int) bool {
	killed := false
	for {
		if keep == 0 && h.sweep(b, k, sk, 1, spins) {
			killed = true // shadowed duplicates died first; re-probe
		}
		prev, _, cur, curNext, ok := h.walk(b, k, sk, false, keep, spins)
		if !ok || cur == 0 {
			return killed
		}
		// Logical delete: set the mark bit on cur's own next pointer.  The
		// commit is armed by walk's Load, so it fails if the link moved —
		// and the mark freezes the link, which is what makes the following
		// unlink safe against concurrent unlinks of the successor.
		if !h.next[cur].Commit(curNext | 1) {
			continue
		}
		h.m.live.Add(h.lane, -1)
		killed = true
		// Physical unlink.  On failure the node stays marked and any later
		// traversal helps; on success the node is exclusively ours.
		if prev.Commit(curNext &^ 1) {
			h.retire(cur)
		}
	}
}

// DeleteBegin performs the vulnerable first half of a delete — find the
// first live k-node and logically delete it (mark its next pointer) — and
// stops right before the physical unlink of the predecessor link, exposing
// the ABA window for the deterministic corruption experiments.  It returns
// the marked node and its successor's link target (a node index, or a
// bucket number when the successor is a dummy), or found=false if k was
// absent.
//
// Under a reclaimer the window is fenced exactly like a stalled stack pop:
// the marked node stays published in this process's protection slot through
// the stall, so it cannot re-enter the allocator — and therefore cannot be
// recycled back under the predecessor link — until the commit clears it.
func (h *Handle) DeleteBegin(k Word) (cur, succ int, found bool) {
	b, sk := h.bucket(k)
	spins := 0
	for {
		prev, _, c, curNext, ok := h.walk(b, k, sk, false, 0, &spins)
		if !ok || c == 0 {
			h.pendingPrev, h.pendingCur, h.pendingSucc = nil, 0, 0
			h.endOp(true)
			return 0, 0, false
		}
		if !h.next[c].Commit(curNext | 1) {
			continue
		}
		h.m.live.Add(h.lane, -1)
		h.pendingPrev, h.pendingCur, h.pendingSucc = prev, c, curNext&^1
		h.ring.Record(trace.KindOpBegin, "delete", uint64(c), uint64(linkIdx(curNext)))
		return c, linkIdx(curNext), true
	}
}

// DeleteCommit performs the second half of the delete begun by DeleteBegin:
// the conditional unlink of the predecessor link.  Under ProtectionRaw a
// stale commit can succeed after a remove–recycle–reinsert cycle restored
// the link word — swinging the link onto a freed node; the other regimes
// reject it.  Each DeleteBegin arms at most one DeleteCommit.  Either way
// the node was already logically deleted, so on failure the caller leaves
// the unlink to the helping traversals.
func (h *Handle) DeleteCommit() bool {
	if h.pendingPrev == nil {
		return false
	}
	prev, cur, succ := h.pendingPrev, h.pendingCur, h.pendingSucc
	h.pendingPrev, h.pendingCur, h.pendingSucc = nil, 0, 0
	if !prev.Commit(succ) {
		h.ring.Record(trace.KindOpCommit, "delete", 0, uint64(cur))
		h.endOp(false)
		return false
	}
	h.ring.Record(trace.KindOpCommit, "delete", 1, uint64(cur))
	h.retire(cur)
	h.endOp(false)
	return true
}

// MapAudit is a quiescent-state structural check.
type MapAudit struct {
	// Live is the number of unmarked nodes on the list.
	Live int
	// Marked is the number of logically deleted nodes still linked.
	Marked int
	// InFree is the number of nodes in the allocator's free set (limbo
	// included).
	InFree int
	// Doubled lists nodes that are both reachable and free, or reachable
	// twice — the smoking gun of an ABA corruption.
	Doubled []int
	// Lost is the number of nodes neither reachable nor free (leaked).
	Lost int
	// Cycle reports whether the list contains a cycle.
	Cycle bool
	// ReadRetries is the number of torn wait-free read attempts that
	// restarted (each is a write the seqlock fence caught mid-read).
	ReadRetries int64
	// ReadFallbacks is the number of Gets that exhausted the fast path's
	// retry budget and fell back to the guarded traversal.
	ReadFallbacks int64
	// Dummies is the number of dummies met on the list (bucket 0's
	// included); a healthy map has one per directory bucket.
	Dummies int
	// Disordered reports a split-order violation: some entry's sort key is
	// below its predecessor's — structural damage only an ABA (or a resize
	// bug) can cause.
	Disordered bool
	// UnlinkedDummies counts directory buckets whose dummy is not on the
	// list exactly once: a stale commit spliced it out (or in twice).
	UnlinkedDummies int
	// Splits counts directory doublings; SegmentAppends counts node-space
	// extensions; ResizeRetries counts lost resize races.
	Splits, SegmentAppends, ResizeRetries int64
}

// Corrupt reports whether the audit found structural damage.
func (a MapAudit) Corrupt() bool {
	return len(a.Doubled) > 0 || a.Lost > 0 || a.Cycle || a.Disordered || a.UnlinkedDummies > 0
}

// String renders the audit result.
func (a MapAudit) String() string {
	s := fmt.Sprintf("live=%d marked=%d inFree=%d doubled=%v lost=%d cycle=%v",
		a.Live, a.Marked, a.InFree, a.Doubled, a.Lost, a.Cycle)
	if a.ReadRetries > 0 || a.ReadFallbacks > 0 {
		s += fmt.Sprintf(" readRetries=%d readFallbacks=%d", a.ReadRetries, a.ReadFallbacks)
	}
	s += fmt.Sprintf(" dummies=%d disordered=%v unlinkedDummies=%d", a.Dummies, a.Disordered, a.UnlinkedDummies)
	if a.Splits > 0 || a.SegmentAppends > 0 || a.ResizeRetries > 0 {
		s += fmt.Sprintf(" splits=%d appends=%d resizeRetries=%d", a.Splits, a.SegmentAppends, a.ResizeRetries)
	}
	return s
}

// Audit walks the whole list once from bucket 0's dummy (walking per bucket
// would revisit runs through the dummies), checking split order, then the
// directory, then the free set.  Call only at quiescence (no handle
// mid-operation); it reads with the observer pid, taking no scheduled steps
// under the simulator.
func (m *Map) Audit() MapAudit {
	var a MapAudit
	capNow := m.capacityNow(-1)
	s := int(m.size.Read(-1))
	seen := make(map[int]int, capNow)
	dummies := make(map[int]int, s)
	dummies[0] = 1
	a.Dummies = 1
	w := m.head.Get(0).Peek(-1)
	last := Word(0)
	for hops := 0; w&^1 != 0; hops++ {
		if hops > capNow+m.head.Len() {
			a.Cycle = true
			break
		}
		x := linkIdx(w)
		var sk Word
		if linkDummy(w) {
			sk = sortKeyDummy(x)
			dummies[x]++
			a.Dummies++
			w = m.head.Get(x).Peek(-1)
		} else {
			nd := m.nodes.At(x)
			sk = m.sortKeyData(nd.key.Read(-1))
			seen[x]++
			w = nd.next.Peek(-1)
			if linkMarked(w) {
				a.Marked++
			} else {
				a.Live++
			}
		}
		if sk < last {
			a.Disordered = true
		}
		last = sk
	}
	for b := 0; b < s; b++ {
		if dummies[b] != 1 {
			a.UnlinkedDummies++
		}
	}
	for _, idx := range m.pool.Snapshot() {
		seen[idx]++
		a.InFree++
	}
	for idx, count := range seen {
		if count > 1 {
			a.Doubled = append(a.Doubled, idx)
		}
	}
	a.Lost = capNow - len(seen)
	a.Splits = m.splits.Load()
	a.SegmentAppends = m.appends.Load()
	a.ResizeRetries = m.retries.Load()
	a.ReadRetries = m.readRetries.Load()
	a.ReadFallbacks = m.readFallbacks.Load()
	return a
}
