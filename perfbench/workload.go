package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
)

const (
	// procs is n, the process count every structure is built for: Figure 3's
	// n-bit LL/SC field, the hp scan over n slots and epoch's minimum over n
	// all run at the size the paper's bounds are about.
	procs = 8
	// workers is the number of closed-loop clients, one per core of the
	// two-core machines the benchmark was sized on.
	workers = 2
	// stride times 1 op in stride, on both the traced and untraced runs.
	stride = 8
	// streamLen is the length of each worker's generated op stream; workers
	// cycle through it until the run ends.
	streamLen = 1 << 20
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opPush
	opPop
	opPeek
	opDRead
	opDWrite
	numOpKinds
)

// isRead reports whether k counts toward the read latency class.
func (k opKind) isRead() bool { return k == opGet || k == opPeek || k == opDRead }

// op is one generated operation: arg is a map key or a shard index.
type op struct {
	kind opKind
	arg  uint32
}

type structKind int

const (
	mapStruct structKind = iota
	stackStruct
	arrayStruct
)

// workload is one seeded closed-loop input set.
type workload struct {
	name string
	why  string
	kind structKind

	capacity int    // node capacity (map, stack) or shard count (array)
	reclaim  string // WithReclamation scheme; "" leaves the option out
	keys     int    // key space (map) or shard space (array)
	prefill  int    // keys (map) or items (stack) inserted during set-up
	zipf     bool   // Zipf(1.1) over keys instead of uniform
	mix      []int  // percent per kind in kinds, summing to 100
	kinds    []opKind
	setups   int // set-ups per untraced round, about a second's worth; setup_s is their median
}

var workloads = []*workload{
	{
		name:     "map-read-large",
		why:      "LL/SC map of 2^18 keys, 1.3M base objects and over 200 MiB of heap, far past L3: kv's wait-free read path, node chasing and GC dominate; pool and reclaimer barely run",
		kind:     mapStruct,
		capacity: 1<<18 + 1024,
		keys:     1 << 18,
		prefill:  1 << 18,
		mix:      []int{90, 5, 5},
		kinds:    []opKind{opGet, opPut, opDelete},
		setups:   1,
	},
	{
		name: "map-churn-hot",
		why:  "L3-resident Zipf(1.1) map with 70% writes under epoch:auto: guard commits on hot buckets, pool Alloc/Release and epoch Retire/Drain do the work",
		kind: mapStruct,
		// 16x the key space.  Epoch reclamation frees nothing while a
		// pinned worker is descheduled, so limbo grows by the other worker's
		// retires for the whole stall; at 2x and 4x, stalls on a shared
		// two-core machine exhausted the pool and Puts were refused.
		capacity: 65536,
		reclaim:  "epoch:auto",
		keys:     4096,
		prefill:  2048,
		zipf:     true,
		mix:      []int{30, 40, 30},
		kinds:    []opKind{opGet, opPut, opDelete},
		setups:   6,
	},
	{
		name:     "stack-pairs",
		why:      "push/pop bursts on one head word contended by both cores under hp: guard rejects, LL/SC steps, hazard scans and the pool dominate",
		kind:     stackStruct,
		capacity: 4096,
		reclaim:  "hp",
		prefill:  1024,
		setups:   25,
	},
	{
		name:     "detector-array",
		why:      "Figure 4 registers per shard, Zipf(1.1) shards, 80/20 DRead/DWrite: only core works; guard, apps, reclaim and kv are bypassed",
		kind:     arrayStruct,
		capacity: 4096,
		keys:     4096,
		zipf:     true,
		mix:      []int{80, 20},
		kinds:    []opKind{opDRead, opDWrite},
		setups:   13,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rng returns the generator of one worker's stream: a pure function of the
// workload, the seed and the worker.
func (w *workload) rng(seed uint64, worker int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return rand.New(rand.NewPCG(seed, h.Sum64()^uint64(worker+1)*0x9e3779b97f4a7c15))
}

// streams generates every worker's op stream.
func (w *workload) streams(seed uint64) [][]op {
	out := make([][]op, workers)
	for i := range out {
		out[i] = w.stream(seed, i)
	}
	return out
}

func (w *workload) stream(seed uint64, worker int) []op {
	r := w.rng(seed, worker)
	if w.kind == stackStruct {
		return pairStream(r)
	}
	pick := func() uint32 { return uint32(r.IntN(w.keys)) }
	if w.zipf {
		z := rand.NewZipf(r, 1.1, 1, uint64(w.keys-1))
		pick = func() uint32 { return uint32(z.Uint64()) }
	}
	ops := make([]op, streamLen)
	for i := range ops {
		roll := r.IntN(100)
		k := w.kinds[len(w.kinds)-1]
		for j, pct := range w.mix {
			if roll < pct {
				k = w.kinds[j]
				break
			}
			roll -= pct
		}
		ops[i] = op{kind: k, arg: pick()}
	}
	return ops
}

// pairStream is a stack worker's stream: bursts of 1-64 pushes, each
// followed by as many pops, with a Peek before 10% of the ops.  Every burst
// is complete, so cycling the stream keeps the depth within
// [prefill, prefill + workers*64].
func pairStream(r *rand.Rand) []op {
	ops := make([]op, 0, streamLen+256)
	emit := func(k opKind) {
		if r.IntN(10) == 0 {
			ops = append(ops, op{kind: opPeek})
		}
		ops = append(ops, op{kind: k})
	}
	for len(ops) < streamLen {
		burst := 1 + r.IntN(64)
		for i := 0; i < burst; i++ {
			emit(opPush)
		}
		for i := 0; i < burst; i++ {
			emit(opPop)
		}
	}
	return ops
}

// digest fingerprints the generated streams.
func digest(streams [][]op) uint64 {
	h := fnv.New64a()
	var buf [5]byte
	for _, s := range streams {
		for _, o := range s {
			buf[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(buf[1:], o.arg)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
