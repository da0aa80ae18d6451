// Package guard unifies the ABA protection regimes of the paper's §1 behind
// one interface: a Guard protects a single mutable reference (a node index,
// a flag, a free-list head) and exposes exactly the three capabilities the
// motivating applications need —
//
//   - Load: read the reference and arm the guard for this process;
//   - Commit: conditionally swing the reference, succeeding only if it is
//     unchanged *in the regime's sense* since this handle's last Load;
//   - Validate: check, without writing, that the reference is unchanged in
//     the regime's sense since the last Load.
//
// The four regimes are the paper's protection ladder, executable:
//
//   - Raw (NewRaw): bare CAS on the reference word.  "Unchanged" means
//     "equal", so a remove–recycle–reinsert cycle that restores the word is
//     invisible — the ABA problem.
//   - Tagged (NewTagged): a k-bit wrap-around tag packed beside the value,
//     bumped on every write.  Safe until exactly 2^k writes land inside a
//     victim's window, then fooled — the folklore scheme Theorem 1(a)
//     refutes as a general solution.
//   - LLSC (NewLLSC): the reference lives in an LL/SC/VL object.  A stale
//     Commit fails by specification no matter how the value cycled.
//   - Detector (NewDetected / NewDetectionOnly): the reference lives behind
//     an ABA-detecting register view.  NewDetected pairs the paper's
//     Figure 5 composition with the underlying LL/SC object, so Load is a
//     DRead (it additionally reports whether any write linearized since the
//     handle's previous Load), Commit is the underlying SC, and the guard
//     counts every detected-and-prevented ABA.  NewDetectionOnly wraps any
//     core.Detector (including the register-only Figure 4); it detects but
//     cannot Commit, which is exactly the capability split the paper's
//     busy-wait scenario needs and its lock-free structures do not tolerate
//     (Conditional reports which side of the split a guard is on).
//
// Every guard aggregates Metrics across its handles: commits, rejected
// commits, near-misses (a rejected commit whose reference value compared
// equal — an ABA the regime caught; a raw guard can never record one,
// because for it an equal value means the commit succeeds), and dirty loads.
//
// Guards allocate their base objects from a shmem.Factory, so the same
// guarded structure runs on the native, slab, padded, instrumented, and
// simulator substrates unchanged.
package guard

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/llsc"
	"abadetect/internal/shmem"
)

// Word is the value type of guarded references.
type Word = shmem.Word

// Regime names a protection scheme.
type Regime int

// Protection regimes, the paper's §1 ladder.
const (
	// Raw is a bare CAS on the reference: vulnerable to ABA.
	Raw Regime = iota + 1
	// Tagged packs a k-bit wrap-around tag next to the reference:
	// vulnerable exactly when the tag wraps inside a victim's window.
	Tagged
	// LLSC keeps the reference in an LL/SC/VL object: immune by
	// specification.
	LLSC
	// Detector keeps the reference behind an ABA-detecting register view:
	// every write since a handle's last Load is reported, and (when the view
	// is the Figure 5 pairing over LL/SC) stale commits are rejected.
	Detector
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case Raw:
		return "raw-cas"
	case Tagged:
		return "tagged-cas"
	case LLSC:
		return "ll/sc"
	case Detector:
		return "detector"
	default:
		return "unknown"
	}
}

// Metrics aggregates a guard's audit counters across all of its handles.
// The counters live outside the paper's shared-memory model (they are
// instrumentation, not base objects).
type Metrics struct {
	// Commits is the number of successful Commit calls.
	Commits int64
	// Rejected is the number of failed Commit calls.
	Rejected int64
	// NearMisses is the number of rejected commits whose reference value
	// compared equal to the handle's loaded value: an ABA the regime
	// detected and prevented.  A raw guard records none by construction —
	// when the value compares equal, its CAS succeeds; that structural zero
	// is the vulnerability.
	NearMisses int64
	// DirtyLoads is the number of Loads that reported interference since
	// the handle's previous Load — plus, on a detection-only guard, each
	// Validate that consumed a detected write (its DRead is destructive,
	// so the following Load reports clean and would never count it).
	DirtyLoads int64
}

// metrics is the shared atomic backing of Metrics: four counters inline in
// the guard, which inflate to cache-line padded stripes (shmem.Stripes of
// them, one per shmem.StripeFor(pid)) the first time a bump loses a race —
// LongAdder's rule.  An uncontended guard, which is almost every link of a
// large structure, keeps its counters in 40 bytes of its own and never
// allocates a lane; a contended one (a stack head two workers fight over)
// moves its bumps to per-stripe lines on the first collision, so the
// instrumentation stops serializing the workers it observes.  Lanes are
// allocated at most once per guard: concurrent inflations race on one
// pointer CAS and the losers use the winner's lanes.  Handles cache their
// stripe at construction, so no bump pays a pid hash.
//
// The zero value is ready to use.
type metrics struct {
	base  [numCounters]atomic.Int64
	lanes atomic.Pointer[[]metricsLane] // nil until the first lost bump
}

// The four counters, by index into metrics.base and metricsLane.c.
const (
	cCommits = iota
	cRejected
	cNearMisses
	cDirty
	numCounters
)

// metricsLane is one stripe's counters, padded to a whole cache line.
type metricsLane struct {
	c [numCounters]atomic.Int64
	_ [shmem.CacheLineBytes - 8*numCounters]byte
}

// add bumps counter i: on its lane once the guard has inflated, else on
// the inline word by one CAS, inflating if that CAS loses.
func (m *metrics) add(lane, i int) {
	if l := m.lanes.Load(); l != nil {
		(*l)[lane].c[i].Add(1)
		return
	}
	c := &m.base[i]
	if v := c.Load(); c.CompareAndSwap(v, v+1) {
		return
	}
	m.inflate(lane, i)
}

// inflate is add's contended path: publish the lanes (or adopt the ones a
// concurrent inflation published first) and land the bump there.
func (m *metrics) inflate(lane, i int) {
	l := m.lanes.Load()
	if l == nil {
		fresh := make([]metricsLane, shmem.Stripes())
		if m.lanes.CompareAndSwap(nil, &fresh) {
			l = &fresh
		} else {
			l = m.lanes.Load()
		}
	}
	(*l)[lane].c[i].Add(1)
}

func (m *metrics) addCommit(lane int)   { m.add(lane, cCommits) }
func (m *metrics) addRejected(lane int) { m.add(lane, cRejected) }
func (m *metrics) addNearMiss(lane int) { m.add(lane, cNearMisses) }
func (m *metrics) addDirty(lane int)    { m.add(lane, cDirty) }

// snapshot sums the inline counters and the lanes.  Every bump lands
// exactly once, on the inline word or on one lane, so at quiescence (every
// handle parked) the sum is exact and two back-to-back snapshots are equal;
// a race-mode test at the repository root pins that contract.  Each load is
// atomic, but the sum across words is deliberately relaxed: under live
// traffic a bump can land in an already-summed word while its logical
// partner (e.g. the Rejected half of a near-miss) lands in one still to
// come, so concurrent snapshots may be mid-operation — individual counters
// are never torn, and totals are only monotone per word, not across the
// whole sum.  Making the sum linearizable would put a lock or a global
// sequence word on the hot path — the exact cost the lanes exist to remove.
func (m *metrics) snapshot() Metrics {
	var c [numCounters]int64
	for i := range c {
		c[i] = m.base[i].Load()
	}
	if l := m.lanes.Load(); l != nil {
		for j := range *l {
			for i := range c {
				c[i] += (*l)[j].c[i].Load()
			}
		}
	}
	return Metrics{Commits: c[cCommits], Rejected: c[cRejected], NearMisses: c[cNearMisses], DirtyLoads: c[cDirty]}
}

// Add returns the field-wise sum of two metrics snapshots (for aggregating
// the many guards of one structure).
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		Commits:    m.Commits + o.Commits,
		Rejected:   m.Rejected + o.Rejected,
		NearMisses: m.NearMisses + o.NearMisses,
		DirtyLoads: m.DirtyLoads + o.DirtyLoads,
	}
}

// String renders the counters.
func (m Metrics) String() string {
	return fmt.Sprintf("commits=%d rejected=%d nearMisses=%d dirtyLoads=%d",
		m.Commits, m.Rejected, m.NearMisses, m.DirtyLoads)
}

// Handle is a process's endpoint to a Guard.  A handle must be used by at
// most one goroutine at a time; distinct handles of one guard are safe to
// use concurrently.
type Handle interface {
	// Load returns the reference's current value and arms the guard.  dirty
	// reports whether the regime observed interference — a write it can
	// distinguish — since this handle's previous Load (false on the first
	// Load of a quiescent guard).  Raw and tagged guards under-report dirty
	// exactly when they are fooled; that asymmetry is the §1 story.
	Load() (v Word, dirty bool)
	// Commit writes v and reports success; it succeeds iff the reference is
	// unchanged, in the regime's sense, since this handle's last Load.
	// It panics on a detection-only guard (Conditional() == false).
	Commit(v Word) bool
	// Validate reports whether the reference is unchanged, in the regime's
	// sense, since this handle's last Load.  On detection-only guards it is
	// a destructive read: it re-arms detection at the current state.
	Validate() bool
	// Store unconditionally writes v (retrying internally where the regime
	// requires a conditional primitive).
	Store(v Word)
}

// Guard is a protected mutable reference shared by n processes.
type Guard interface {
	// Handle returns the endpoint for process pid in [0, n).
	Handle(pid int) (Handle, error)
	// NumProcs returns n.
	NumProcs() int
	// Regime names the protection scheme.
	Regime() Regime
	// Conditional reports whether Commit is supported.  Detection-only
	// guards (NewDetectionOnly) return false; they can Store and detect
	// but cannot conditionally swing, so lock-free structures must reject
	// them at construction.
	Conditional() bool
	// Peek reads the reference as the observer (no scheduled step under the
	// simulator); it is for audits and experiments, not algorithm code.
	Peek(pid int) Word
	// Metrics returns the aggregated audit counters.
	Metrics() Metrics
}

// Maker allocates guards.  A structure takes one Maker and calls it once per
// mutable reference (head, tail, next pointers, free-list head), so every
// reference of the structure is protected by the same regime over the same
// substrate.  valueBits bounds the reference's value domain.
type Maker func(name string, valueBits uint, init Word) (Guard, error)

// NewMaker returns the Maker realizing regime with this package's default
// constructions over f: raw CAS, a tagBits-wide tag, Figure 3 LL/SC, or the
// Figure 5 detector pairing over Figure 3.  The registry offers a richer,
// implementation-selecting maker (registry.NewGuardMaker); this one exists
// so internal/apps can build default-protected structures without importing
// the registry.
func NewMaker(f shmem.Factory, n int, regime Regime, tagBits uint) Maker {
	return func(name string, valueBits uint, init Word) (Guard, error) {
		switch regime {
		case Raw:
			return NewRaw(f, n, name, init)
		case Tagged:
			return NewTagged(f, n, name, valueBits, tagBits, init)
		case LLSC, Detector:
			obj, err := llsc.NewCASBased(f, n, valueBits, init)
			if err != nil {
				return nil, err
			}
			return newLLSCGuard(obj, regime)
		default:
			return nil, fmt.Errorf("guard: unknown regime %d", regime)
		}
	}
}

func checkPid(pid, n int) error {
	if pid < 0 || pid >= n {
		return fmt.Errorf("guard: pid %d out of range [0,%d)", pid, n)
	}
	return nil
}
