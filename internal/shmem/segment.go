package shmem

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Spine is a growable array with lock-free reads: a fixed directory of
// geometrically sized segments, each published once with an atomic pointer
// store and never moved afterwards.  It is the substrate-side half of the
// map's online resize story — a plain Go slice cannot grow under
// unsynchronized readers because append moves the backing array, while a
// Spine extends the address space of node indices without relocating a
// single element, exactly like the slab factory's never-moving chunks.
//
// Segment s≥1 covers indices [base<<(s-1), base<<s) and segment 0 covers
// [0, base), so the directory needs at most 64 entries for any length and
// locating an index is one bits.Len, no loop.  Grow serializes writers under
// a mutex (growth is a rare, amortized event — the hot paths only read),
// builds every new element, publishes the segment pointers, and only then
// advances the length word, so a reader that observes an index below Len
// always finds its element fully constructed.
type Spine[T any] struct {
	base int64
	segs [64]atomic.Pointer[[]T]
	n    atomic.Int64

	mu sync.Mutex // serializes Grow; Get/Len never take it
}

// NewSpine builds a spine of the given initial length, constructing each
// element with build (called for indices 0..initial-1, in order).
func NewSpine[T any](initial int, build func(i int) (T, error)) (*Spine[T], error) {
	base := initial
	if base < 1 {
		base = 1
	}
	s := &Spine[T]{base: int64(base)}
	if _, err := s.Grow(initial, build); err != nil {
		return nil, err
	}
	return s, nil
}

// seg locates index i: segment number and offset within it.
func (s *Spine[T]) seg(i int64) (int, int64) {
	if i < s.base {
		return 0, i
	}
	k := bits.Len64(uint64(i / s.base))
	return k, i - s.base<<(k-1)
}

// Len returns the published length.  Elements below Len are fully built and
// safe to read concurrently with any Grow.
func (s *Spine[T]) Len() int { return int(s.n.Load()) }

// Get returns element i.  Lock-free; i must be below Len.
func (s *Spine[T]) Get(i int) T {
	k, off := s.seg(int64(i))
	return (*s.segs[k].Load())[off]
}

// Grow extends the spine to newLen elements, building each new one (in index
// order) and publishing complete segments before advancing Len.  It returns
// the resulting length; a newLen at or below the current length is a no-op,
// so concurrent growers are idempotent.  On a build error the spine keeps
// its old length — every published element stays valid.
func (s *Spine[T]) Grow(newLen int, build func(i int) (T, error)) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.n.Load()
	if int64(newLen) <= cur {
		return int(cur), nil
	}
	// Materialize segments covering [cur, newLen).  A partially filled last
	// segment allocates its full directory slot (zero values beyond newLen);
	// readers never index past Len, and a later Grow fills the tail in place
	// before republishing Len.
	for i := cur; i < int64(newLen); i++ {
		k, off := s.seg(i)
		segp := s.segs[k].Load()
		if segp == nil {
			size := s.base
			if k > 0 {
				size = s.base << (k - 1)
			}
			fresh := make([]T, size)
			segp = &fresh
			s.segs[k].Store(segp)
		}
		v, err := build(int(i))
		if err != nil {
			s.n.Store(i) // everything below i is built: keep it reachable
			return int(i), err
		}
		(*segp)[off] = v
	}
	s.n.Store(int64(newLen))
	return newLen, nil
}

// At returns a pointer to element i, for element types too wide to copy on
// a hot path.  Lock-free; i must be below Len.
func (s *Spine[T]) At(i int) *T {
	k, off := s.seg(int64(i))
	return &(*s.segs[k].Load())[off]
}
