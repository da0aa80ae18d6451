package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// phase selects how long the workers run.
type phase struct {
	warmup   time.Duration // unmeasured lead-in; ops-limited runs have none
	measure  time.Duration // measured window; 0 selects opsLimit
	opsLimit uint64        // ops per worker when measure == 0
	workers  int
	results  bool // fold every op's result into workerResult.results
}

// workerResult is one worker's tally.  Counts marked "measured" cover the
// measured window only; ops and failed cover the whole run.
type workerResult struct {
	ops, failed uint64
	measured    uint64
	wins        []tally // the measured window's one-second slices
	kinds       [numOpKinds]int64
	kindSteps   [numOpKinds]int64 // traced: shared steps inside measured ops
	dirtyReads  int64             // measured DReads that reported dirty
	steps0      pidSteps          // traced: step counters when measuring began
	results     uint64            // digest of every op's result (phase.results)
	pushes      uint64            // stack: pushes completed (values seq 0..pushes-1)
	pops        uint64            // stack: pops completed
}

// slice is the length of one tally; results are medians across slices, so
// a burst of interference from outside the benchmark moves few of them.
const slice = time.Second

// tally is one slice of the measured window.
type tally struct {
	dur time.Duration // the slice's length; the window's last may be short
	ops uint64
	lat [2]hist // latency samples: read, write
}

// window is the measured interval's runtime counters.
type window struct {
	allocBytes     float64
	gcCycles       float64
	gcCPU, cpuSecs float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func windowOf(r0, r1 [4]float64) window {
	return window{allocBytes: r1[0] - r0[0], gcCycles: r1[1] - r0[1], gcCPU: r1[2] - r0[2], cpuSecs: r1[3] - r0[3]}
}

func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// stackLedger records which pushed values have been taken off the stack:
// one bit per value, per pusher.  A second take of one value, or a take of
// a value never pushed, is a wrong answer.
type stackLedger struct {
	bits [workers + 1][]atomic.Uint64
}

const ledgerBits = 1 << 27 // values per pusher the ledger can track

// newLedger returns a fresh ledger for a stack workload, else nil.
func (w *workload) newLedger() *stackLedger {
	if w.kind != stackStruct {
		return nil
	}
	l := &stackLedger{}
	for i := range l.bits {
		l.bits[i] = make([]atomic.Uint64, ledgerBits/64)
	}
	return l
}

// take marks v taken and reports whether that was its first take.
func (l *stackLedger) take(v word) bool {
	p, seq := stackPusher(v)
	if p > workers || seq >= ledgerBits {
		return false
	}
	bit := uint64(1) << (seq % 64)
	return l.bits[p][seq/64].Or(bit)&bit == 0
}

func (l *stackLedger) taken(p int, seq uint64) bool {
	return l.bits[p][seq/64].Load()&(1<<(seq%64)) != 0
}

// applyFn runs op o, the worker's seq-th, and reports a wrong answer.
type applyFn func(o op, seq uint64) (ok bool, res word, fail bool)

// drive runs the workers over t and returns their tallies and the measured
// window.  The caller holds t quiescent afterwards.
func (w *workload) drive(t *target, streams [][]op, ph phase, ledger *stackLedger) ([]workerResult, window, error) {
	res := make([]workerResult, ph.workers)
	applies := make([]applyFn, ph.workers)
	for i := range applies {
		var err error
		if applies[i], err = w.applier(t, i, &res[i], ledger); err != nil {
			return nil, window{}, err
		}
	}
	var clk clock
	if t.layer != nil {
		clk = t.layer.clock
	} else {
		clk = clock{base: time.Now()}
	}
	start := clk.now()
	t0 := start + int64(ph.warmup)
	t1 := t0 + int64(ph.measure)
	var wg sync.WaitGroup
	for i := 0; i < ph.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker(&clk, streams[i], applies[i], &res[i], t.tracer(i), ph, t0, t1, uint64(i)<<40)
		}()
	}
	var win window
	if ph.measure > 0 {
		time.Sleep(time.Duration(t0 - clk.now()))
		r0 := readRuntime()
		time.Sleep(time.Duration(t1 - clk.now()))
		r1 := readRuntime()
		win = windowOf(r0, r1)
	} else {
		r0 := readRuntime()
		wg.Wait()
		win = windowOf(r0, readRuntime())
	}
	wg.Wait()
	for i := range res {
		if tr := t.tracer(i); tr != nil {
			tr.on = false
		}
	}
	return res, win, nil
}

// tracer returns worker i's tracer on the traced build, else nil.
func (t *target) tracer(i int) *tracer {
	if t.layer == nil {
		return nil
	}
	return t.layer.tracers[i]
}

// runWorker is the closed loop: the next op starts when the previous one
// returns.  One op in stride is timed; its start time also drives the
// warm-up / measure / stop transitions.
func runWorker(clk *clock, ops []op, apply applyFn, r *workerResult, tr *tracer, ph phase, t0, t1 int64, idBase uint64) {
	measuring := ph.measure == 0
	if measuring {
		r.begin(tr)
	}
	r.wins = make([]tally, max(1, int((ph.measure+slice-1)/slice)))
	for k := range r.wins {
		r.wins[k].dur = min(slice, ph.measure-time.Duration(k)*slice)
	}
	win := &r.wins[0]
	h := fnv.New64a()
	var buf [9]byte
	j := 0
	for seq := uint64(0); ph.measure > 0 || seq < ph.opsLimit; seq++ {
		o := ops[j]
		if j++; j == len(ops) {
			j = 0
		}
		timed := seq%stride == 0
		var start int64
		if timed {
			start = clk.now()
			if ph.measure > 0 {
				if start >= t1 {
					break
				}
				if !measuring && start >= t0 {
					measuring = true
					r.begin(tr)
				}
				if measuring {
					win = &r.wins[min(int((start-t0)/int64(slice)), len(r.wins)-1)]
				}
			}
		}
		counted := measuring && tr != nil
		var s0 int64
		if counted {
			s0 = tr.steps.total()
			if seq%spanStride == 0 {
				tr.beginOp(spanName(o.kind), idBase|seq, start)
			}
		}
		ok, v, fail := apply(o, seq)
		if timed && measuring {
			end := clk.now()
			if tr != nil {
				tr.endOp(end)
			}
			cls := 1
			if o.kind.isRead() {
				cls = 0
			}
			win.lat[cls].add(end - start)
		}
		r.ops++
		if fail {
			r.failed++
		}
		if measuring {
			r.measured++
			win.ops++
			r.kinds[o.kind]++
			if o.kind == opDRead && ok {
				r.dirtyReads++
			}
		}
		if counted {
			r.kindSteps[o.kind] += tr.steps.total() - s0
		}
		if ph.results {
			buf[0] = 0
			if ok {
				buf[0] = 1
			}
			binary.LittleEndian.PutUint64(buf[1:], v)
			h.Write(buf[:])
		}
	}
	r.results = h.Sum64()
}

// merged sums the workers' tallies slice by slice.
func merged(res []workerResult) []tally {
	out := make([]tally, len(res[0].wins))
	for j := range out {
		out[j].dur = res[0].wins[j].dur
	}
	for i := range res {
		for j := range out {
			out[j].ops += res[i].wins[j].ops
			out[j].lat[0].merge(&res[i].wins[j].lat[0])
			out[j].lat[1].merge(&res[i].wins[j].lat[1])
		}
	}
	return out
}

// throughput is the median slice's ops per second.
func throughput(wins []tally) float64 {
	rates := make([]float64, len(wins))
	for i, w := range wins {
		rates[i] = float64(w.ops) / w.dur.Seconds()
	}
	return median(rates)
}

func (r *workerResult) begin(tr *tracer) {
	if tr != nil {
		tr.on = true
		r.steps0 = *tr.steps
	}
}

// applier builds worker i's op function, with its output checks.
func (w *workload) applier(t *target, i int, r *workerResult, ledger *stackLedger) (applyFn, error) {
	switch w.kind {
	case mapStruct:
		h, err := t.mapH(i)
		if err != nil {
			return nil, err
		}
		return func(o op, seq uint64) (bool, word, bool) {
			k := mapKey(o.arg)
			switch o.kind {
			case opGet:
				v, ok := h.Get(k)
				return ok, v, ok && valKey(v) != k
			case opPut:
				ok := h.Put(k, mapVal(k, seq))
				return ok, 0, !ok
			default:
				return h.Delete(k), 0, false
			}
		}, nil
	case stackStruct:
		h, err := t.stackH(i)
		if err != nil {
			return nil, err
		}
		pusher := i + 1
		return func(o op, seq uint64) (bool, word, bool) {
			switch o.kind {
			case opPush:
				ok := h.Push(stackVal(pusher, r.pushes))
				if ok {
					r.pushes++
				}
				return ok, 0, !ok || r.pushes >= ledgerBits
			case opPop:
				v, ok := h.Pop()
				if ok {
					r.pops++
				}
				return ok, v, !ok || !ledger.take(v)
			default:
				v, ok := h.Peek()
				p, _ := stackPusher(v)
				return ok, v, !ok || p > workers
			}
		}, nil
	default:
		h, err := t.arrayH(i)
		if err != nil {
			return nil, err
		}
		return func(o op, seq uint64) (bool, word, bool) {
			shard := int(o.arg)
			if o.kind == opDWrite {
				h.DWrite(shard, shardVal(shard, seq))
				return true, 0, false
			}
			// ok reports the DRead's dirty flag.
			v, dirty := h.DRead(shard)
			return dirty, v, v != 0 && shardOf(v) != shard
		}, nil
	}
}

// endChecks runs the quiescent output checks after the workers stop and
// returns (attempted, failed) for them plus any fatal corruption.
func (w *workload) endChecks(t *target, res []workerResult, ledger *stackLedger, seed uint64) (attempted, failed uint64, corrupt error) {
	check := func(ok bool, format string, args ...any) {
		attempted++
		if !ok {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
			}
		}
	}
	r := rand.New(rand.NewPCG(seed, 0xc4ec))
	switch w.kind {
	case mapStruct:
		h, err := t.mapH(0)
		if err != nil {
			return attempted, failed, err
		}
		for i := 0; i < 64; i++ {
			k := mapKey(uint32(r.IntN(w.keys)))
			v := mapVal(k, uint64(i)+1<<31)
			check(h.Put(k, v), "probe Put(%d) refused", k)
			got, ok := h.Get(k)
			check(ok && got == v, "probe Get(%d) = %d,%v after Put %d", k, got, ok, v)
			check(h.Delete(k), "probe Delete(%d) found nothing", k)
			_, ok = h.Get(k)
			check(!ok, "probe Get(%d) hit after Delete", k)
		}
	case stackStruct:
		h, err := t.stackH(0)
		if err != nil {
			return attempted, failed, err
		}
		// Pop everything: each value must come off exactly once overall, and
		// the depth must equal prefill + pushes - pops.
		var pushes, pops uint64
		for i := range res {
			pushes += res[i].pushes
			pops += res[i].pops
		}
		depth := 0
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			depth++
			check(ledger.take(v), "drained value %#x was already taken", v)
		}
		missing := 0
		for seq := uint64(1); seq <= uint64(w.prefill); seq++ {
			if !ledger.taken(0, seq) {
				missing++
			}
		}
		for i := range res {
			for seq := uint64(0); seq < res[i].pushes; seq++ {
				if !ledger.taken(i+1, seq) {
					missing++
				}
			}
		}
		check(missing == 0, "%d pushed values never came off the stack", missing)
		check(uint64(depth) == uint64(w.prefill)+pushes-pops,
			"final depth %d != prefill %d + pushes %d - pops %d", depth, w.prefill, pushes, pops)
		check(depth >= w.prefill && depth <= w.prefill+workers*64,
			"final depth %d outside [%d, %d]", depth, w.prefill, w.prefill+workers*64)
	case arrayStruct:
		h0, err := t.arrayH(0)
		if err != nil {
			return attempted, failed, err
		}
		h1, err := t.arrayH(1)
		if err != nil {
			return attempted, failed, err
		}
		for i := 0; i < 64; i++ {
			shard := r.IntN(w.keys)
			v := shardVal(shard, uint64(i))
			h1.DRead(shard)
			h0.DWrite(shard, v)
			got, dirty := h1.DRead(shard)
			check(dirty && got == v, "probe shard %d: DRead after another pid's DWrite = %d,dirty=%v", shard, got, dirty)
			got, dirty = h1.DRead(shard)
			check(!dirty && got == v, "probe shard %d: second DRead = %d,dirty=%v", shard, got, dirty)
		}
	}
	if t.audit != nil {
		if a := t.audit(); a.Corrupt {
			return attempted, failed, fmt.Errorf("quiescent audit reports corruption: %s", a.Detail)
		}
	}
	return attempted, failed, nil
}
