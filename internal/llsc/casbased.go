package llsc

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/shmem"
)

// CASBased is the paper's Figure 3: a linearizable wait-free LL/SC/VL object
// built from a single bounded CAS object, with O(n) step complexity
// (Theorem 2).
//
// The CAS object X holds a pair (x, a) where x is the object's value and a
// is an n-bit string with one bit per process.  A successful SC installs its
// value with *all* bits set; process p's LL tries to clear p's own bit with
// a CAS.  p's bit therefore means "an SC linearized since p's last LL".  If
// p's CAS fails n times in a row, a counting argument (paper, Claim 6) shows
// at least one of the interfering successful CASes belonged to an SC — other
// LLs can only clear bits, and there are only n of them — so p may linearize
// its LL early and remember in the local flag b that its link is already
// invalid.
// On the direct substrates (native, slab, padded) every read and CAS of X
// binds to a raw *atomic.Uint64 at construction time; on instrumented or
// simulated substrates each step stays a dynamic call.
type CASBased struct {
	n       int
	codec   shmem.MaskCodec
	x       shmem.CAS
	xd      *atomic.Uint64 // devirtualized X, nil on indirect substrates
	initial Word
}

var _ Object = (*CASBased)(nil)

// NewCASBased builds the Figure 3 object for n processes over base objects
// from f.  Values are valueBits wide; valueBits + n must fit in one 64-bit
// word (the price of a genuinely bounded single-word CAS object).
func NewCASBased(f shmem.Factory, n int, valueBits uint, initial Word) (*CASBased, error) {
	if n < 1 {
		return nil, fmt.Errorf("llsc: CASBased needs n >= 1, got %d", n)
	}
	codec, err := shmem.NewMaskCodec(n, valueBits)
	if err != nil {
		return nil, fmt.Errorf("llsc: CASBased: %w", err)
	}
	if initial > codec.MaxValue() {
		return nil, fmt.Errorf("llsc: initial value %d exceeds %d-bit domain", initial, valueBits)
	}
	o := &CASBased{
		n:       n,
		codec:   codec,
		x:       f.NewCAS("X", codec.Encode(initial, 0)),
		initial: initial,
	}
	o.xd = shmem.Direct(o.x)
	return o, nil
}

// NumProcs returns n.
func (o *CASBased) NumProcs() int { return o.n }

// Initial returns the value held before any successful SC.
func (o *CASBased) Initial() Word { return o.initial }

// Peek returns the current value without linking.
func (o *CASBased) Peek(pid int) Word { return o.codec.Value(o.x.Read(pid)) }

// Handle returns process pid's handle.
func (o *CASBased) Handle(pid int) (Handle, error) {
	h := new(CASBasedHandle)
	if err := o.Bind(pid, h); err != nil {
		return nil, err
	}
	return h, nil
}

// Bind initializes *h as process pid's handle, in place: a caller that
// holds the handle by value (the guard adaptor) pays no allocation of its
// own for it.
func (o *CASBased) Bind(pid int, h *CASBasedHandle) error {
	if pid < 0 || pid >= o.n {
		return fmt.Errorf("llsc: pid %d out of range [0,%d)", pid, o.n)
	}
	*h = CASBasedHandle{
		xd:    o.xd,
		o:     o,
		bit:   Word(1) << uint(pid),
		max:   o.codec.MaxValue(),
		pid:   int32(pid),
		shift: uint8(o.n),
	}
	return nil
}

// CASBasedHandle is process p's handle on a CASBased object: the paper's
// local flag b plus p's projection of the codec — its mask bit, the value
// shift n, the value bound — and the direct accessor to X, all bound by
// Bind the way ConstantTime binds its layout.  LL, SC and VL therefore
// reach X in one hop from the handle and never read the shared object
// descriptor on the devirtualized path.  The zero value is unbound; use
// CASBased.Handle or CASBased.Bind.
type CASBasedHandle struct {
	xd    *atomic.Uint64 // direct X, nil on indirect substrates
	o     *CASBased
	bit   Word // 1 << p: p's bit of the mask
	max   Word // largest encodable value
	pid   int32
	shift uint8 // n: the value sits above the n-bit mask
	b     bool
}

var _ Handle = (*CASBasedHandle)(nil)

// read performs one shared read of X.
func (h *CASBasedHandle) read() Word {
	if h.xd != nil {
		return h.xd.Load()
	}
	return h.o.x.Read(int(h.pid))
}

// cas performs one shared CAS of X.
func (h *CASBasedHandle) cas(old, new Word) bool {
	if h.xd != nil {
		return h.xd.CompareAndSwap(old, new)
	}
	return h.o.x.CompareAndSwap(int(h.pid), old, new)
}

// LL implements Figure 3 lines 14-25.
func (h *CASBasedHandle) LL() Word {
	w := h.read()     // line 14
	if w&h.bit == 0 { // line 15: p's bit is 0
		h.b = false         // line 16
		return w >> h.shift // line 17
	}
	for i := 0; i < int(h.shift); i++ { // line 19: n attempts
		w2 := h.read()            // line 20
		if h.cas(w2, w2&^h.bit) { // line 21: a - 2^p
			h.b = false          // line 22
			return w2 >> h.shift // line 23
		}
	}
	// n CAS failures: some SC succeeded while we spun (Claim 6).  Linearize
	// at the line 14 read and remember the link is already invalid.
	h.b = true          // line 24
	return w >> h.shift // line 25
}

// SC implements Figure 3 lines 1-8.
func (h *CASBasedHandle) SC(v Word) bool {
	if h.b { // line 1
		return false
	}
	if v > h.max {
		h.o.codec.Encode(v, 0) // cold: renders the panic
	}
	next := v<<h.shift | (Word(1)<<h.shift - 1) // (v, 2^n - 1)
	for i := 0; i < int(h.shift); i++ {         // line 2
		w := h.read()     // line 3
		if w&h.bit != 0 { // line 4: p's bit is 1
			return false // line 5
		}
		if h.cas(w, next) { // line 6
			return true // line 7
		}
	}
	return false // line 8
}

// VL implements Figure 3 lines 9-13.
func (h *CASBasedHandle) VL() bool {
	w := h.read()               // line 9
	return w&h.bit == 0 && !h.b // lines 10-13
}
