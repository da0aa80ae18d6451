package main

import (
	"time"

	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// This file is the traced build's instrumentation.  It sits entirely at the
// seams the constructors already accept — guard.Maker, reclaim.Maker and
// shmem.Factory — so the program under test is unchanged: the wrappers
// record a span around each call into a layer's interface and count what
// crossed it.

type spanName uint8

// Op spans use the opKind values; the layer spans follow.
const (
	spanGuardLoad spanName = spanName(numOpKinds) + iota
	spanGuardCommit
	spanGuardValidate
	spanGuardStore
	spanProtect
	spanClear
	spanRetire
	spanDrain
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"kv.get", "kv.put", "kv.delete", "apps.push", "apps.pop", "apps.peek", "core.dread", "core.dwrite",
	"guard.load", "guard.commit", "guard.validate", "guard.store",
	"reclaim.protect", "reclaim.clear", "reclaim.retire", "reclaim.drain",
}

// span is one timed call.  Spans of one op share its id; parent indexes
// the op span in the same worker's buffer (-1 for an op span).
type span struct {
	start, end int64 // ns since the run's clock base
	op         uint64
	parent     int32
	name       spanName
}

// counts are a worker's per-layer counters over the measured phase.
type counts struct {
	loads, commits   int64
	llSteps, scSteps int64 // shared steps inside LL/SC guard Load / Commit
	drains           int64
	limboPeak        int64 // largest limbo seen after a sampled Retire
}

// tracer is one worker's recorder.  Only its worker touches it.
type tracer struct {
	clock *clock
	steps *pidSteps
	on    bool  // measured phase: count
	cur   int32 // index of the open op span while sampling, else -1
	opID  uint64
	spans []span // fixed capacity; recording stops when full
	c     counts
}

func (t *tracer) active() bool { return t != nil && t.on }

// beginOp opens an op span when the op is sampled.
func (t *tracer) beginOp(name spanName, id uint64, start int64) {
	t.opID = id
	if len(t.spans) == cap(t.spans) {
		return
	}
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, span{start: start, op: id, parent: -1, name: name})
}

func (t *tracer) endOp(end int64) {
	if t.cur >= 0 {
		t.spans[t.cur].end = end
		t.cur = -1
	}
}

// sampling reports whether the current op records child spans.
func (t *tracer) sampling() bool { return t.cur >= 0 }

// start reads the clock for a child span, when the op is sampled.
func (t *tracer) start() int64 {
	if t.cur < 0 {
		return 0
	}
	return t.clock.now()
}

// child closes a child span opened by start.
func (t *tracer) child(name spanName, start int64) {
	if t.cur >= 0 && len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{start: start, end: t.clock.now(), op: t.opID, parent: t.cur, name: name})
	}
}

// clock is the run's monotonic time base.
type clock struct{ base time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// layers owns the traced build's tracers and probes.
type layers struct {
	clock    clock
	tracers  []*tracer // by pid; nil beyond the workers
	steps    *stepFactory
	reclaims []*spanReclaimer
}

func newLayers(spanCap int) *layers {
	L := &layers{clock: clock{base: time.Now()}, tracers: make([]*tracer, procs)}
	for i := 0; i < workers; i++ {
		L.tracers[i] = &tracer{clock: &L.clock, cur: -1, spans: make([]span, 0, spanCap)}
	}
	return L
}

func (L *layers) tracer(pid int) *tracer {
	if pid < 0 || pid >= len(L.tracers) {
		return nil
	}
	return L.tracers[pid]
}

// ---------------------------------------------------------------------------
// shmem: step counting per process.

// pidSteps are one process's base-object step counters, a cache line each.
// Every step a process takes runs on its own goroutine, so they are plain
// integers.
type pidSteps struct {
	reads, writes, cas, casFail int64
	_                           [shmem.CacheLineBytes - 32]byte
}

func (s *pidSteps) total() int64 { return s.reads + s.writes + s.cas }

type stepFactory struct {
	inner shmem.Factory
	pid   []pidSteps
}

func (L *layers) countSteps(inner shmem.Factory) *stepFactory {
	L.steps = &stepFactory{inner: inner, pid: make([]pidSteps, procs)}
	for i, t := range L.tracers {
		if t != nil {
			t.steps = &L.steps.pid[i]
		}
	}
	return L.steps
}

func (f *stepFactory) NewRegister(name string, init shmem.Word) shmem.Register {
	return &stepRegister{r: f.inner.NewRegister(name, init), f: f}
}

func (f *stepFactory) NewCAS(name string, init shmem.Word) shmem.WritableCAS {
	return &stepCAS{c: f.inner.NewCAS(name, init), f: f}
}

func (f *stepFactory) Footprint() shmem.Footprint { return f.inner.Footprint() }

// of returns pid's counters, or nil for the observer pid.
func (f *stepFactory) of(pid int) *pidSteps {
	if uint(pid) < uint(len(f.pid)) {
		return &f.pid[pid]
	}
	return nil
}

type stepRegister struct {
	r shmem.Register
	f *stepFactory
}

func (o *stepRegister) Read(pid int) shmem.Word {
	if s := o.f.of(pid); s != nil {
		s.reads++
	}
	return o.r.Read(pid)
}

func (o *stepRegister) Write(pid int, v shmem.Word) {
	if s := o.f.of(pid); s != nil {
		s.writes++
	}
	o.r.Write(pid, v)
}

type stepCAS struct {
	c shmem.WritableCAS
	f *stepFactory
}

func (o *stepCAS) Read(pid int) shmem.Word {
	if s := o.f.of(pid); s != nil {
		s.reads++
	}
	return o.c.Read(pid)
}

func (o *stepCAS) Write(pid int, v shmem.Word) {
	if s := o.f.of(pid); s != nil {
		s.writes++
	}
	o.c.Write(pid, v)
}

func (o *stepCAS) CompareAndSwap(pid int, old, new shmem.Word) bool {
	ok := o.c.CompareAndSwap(pid, old, new)
	if s := o.f.of(pid); s != nil {
		s.cas++
		if !ok {
			s.casFail++
		}
	}
	return ok
}

// ---------------------------------------------------------------------------
// guard: spans around Load/Commit/Validate/Store.

func (L *layers) guardMaker(mk guard.Maker) guard.Maker {
	return func(name string, valueBits uint, init guard.Word) (guard.Guard, error) {
		g, err := mk(name, valueBits, init)
		if err != nil {
			return nil, err
		}
		return &spanGuard{Guard: g, L: L, llsc: g.Regime() == guard.LLSC}, nil
	}
}

type spanGuard struct {
	guard.Guard
	L    *layers
	llsc bool
}

func (g *spanGuard) Handle(pid int) (guard.Handle, error) {
	h, err := g.Guard.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &spanGuardHandle{h: h, t: g.L.tracer(pid), llsc: g.llsc}, nil
}

type spanGuardHandle struct {
	h    guard.Handle
	t    *tracer
	llsc bool
}

func (h *spanGuardHandle) Load() (guard.Word, bool) {
	t := h.t
	if !t.active() {
		return h.h.Load()
	}
	t.c.loads++
	s0, start := t.steps.total(), t.start()
	v, dirty := h.h.Load()
	t.child(spanGuardLoad, start)
	if h.llsc {
		t.c.llSteps += t.steps.total() - s0
	}
	return v, dirty
}

func (h *spanGuardHandle) Commit(v guard.Word) bool {
	t := h.t
	if !t.active() {
		return h.h.Commit(v)
	}
	t.c.commits++
	s0, start := t.steps.total(), t.start()
	ok := h.h.Commit(v)
	t.child(spanGuardCommit, start)
	if h.llsc {
		t.c.scSteps += t.steps.total() - s0
	}
	return ok
}

func (h *spanGuardHandle) Validate() bool {
	t := h.t
	if !t.active() {
		return h.h.Validate()
	}
	start := t.start()
	ok := h.h.Validate()
	t.child(spanGuardValidate, start)
	return ok
}

func (h *spanGuardHandle) Store(v guard.Word) {
	t := h.t
	if !t.active() {
		h.h.Store(v)
		return
	}
	start := t.start()
	h.h.Store(v)
	t.child(spanGuardStore, start)
}

// ---------------------------------------------------------------------------
// reclaim: spans around Protect/Clear/Retire/Drain.

func (L *layers) reclaimMaker(mk reclaim.Maker) reclaim.Maker {
	return func(f shmem.Factory, name string, n, capacity int) (reclaim.Reclaimer, error) {
		r, err := mk(f, name, n, capacity)
		if err != nil {
			return nil, err
		}
		sr := &spanReclaimer{Reclaimer: r, L: L}
		L.reclaims = append(L.reclaims, sr)
		return sr, nil
	}
}

type spanReclaimer struct {
	reclaim.Reclaimer
	L *layers
}

// Resize forwards the pool's optional capacity seam, so the wrapper keeps
// the scheme's cadence clamps exactly as the facade build has them.
func (r *spanReclaimer) Resize(capacity int) {
	if rz, ok := r.Reclaimer.(reclaim.Resizer); ok {
		rz.Resize(capacity)
	}
}

func (r *spanReclaimer) Handle(pid int, free reclaim.Free) (reclaim.Handle, error) {
	h, err := r.Reclaimer.Handle(pid, free)
	if err != nil {
		return nil, err
	}
	press, _ := h.(reclaim.Pressured)
	return &spanReclaimHandle{h: h, press: press, r: r.Reclaimer, t: r.L.tracer(pid)}, nil
}

type spanReclaimHandle struct {
	h     reclaim.Handle
	press reclaim.Pressured
	r     reclaim.Reclaimer
	t     *tracer
}

// AllocMiss forwards the pool's optional backpressure seam.
func (h *spanReclaimHandle) AllocMiss() {
	if h.press != nil {
		h.press.AllocMiss()
	}
}

func (h *spanReclaimHandle) Protect(slot, idx int) {
	t := h.t
	if !t.active() {
		h.h.Protect(slot, idx)
		return
	}
	start := t.start()
	h.h.Protect(slot, idx)
	t.child(spanProtect, start)
}

func (h *spanReclaimHandle) Clear() {
	t := h.t
	if !t.active() {
		h.h.Clear()
		return
	}
	start := t.start()
	h.h.Clear()
	t.child(spanClear, start)
}

func (h *spanReclaimHandle) Retire(idx int) {
	t := h.t
	if !t.active() {
		h.h.Retire(idx)
		return
	}
	start := t.start()
	h.h.Retire(idx)
	h.retired(start)
}

func (h *spanReclaimHandle) RetireBatch(idxs []int) {
	t := h.t
	if !t.active() {
		h.h.RetireBatch(idxs)
		return
	}
	start := t.start()
	h.h.RetireBatch(idxs)
	h.retired(start)
}

// retired closes a Retire span; sampled retires also sample the limbo size.
func (h *spanReclaimHandle) retired(start int64) {
	t := h.t
	if t.sampling() {
		t.child(spanRetire, start)
		if d := h.r.Metrics().Deferred(); d > t.c.limboPeak {
			t.c.limboPeak = d
		}
	}
}

func (h *spanReclaimHandle) Drain() int {
	t := h.t
	if !t.active() {
		return h.h.Drain()
	}
	t.c.drains++
	start := t.start()
	n := h.h.Drain()
	t.child(spanDrain, start)
	return n
}
