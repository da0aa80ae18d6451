package main

import "math/bits"

// hist is a log-linear latency histogram: exact below 64 ns, then 64
// sub-buckets per power of two (under 1.6% relative width).
type hist struct {
	counts [64 * 42]uint64
	n      uint64
}

const subBits = 6

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	i := (shift+1)<<subBits + int(v>>uint(shift)) - 1<<subBits
	if i >= len(hist{}.counts) {
		i = len(hist{}.counts) - 1
	}
	return i
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	sub := i&(1<<subBits-1) + 1<<subBits
	return float64(uint64(sub) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates linearly inside the bucket holding quantile q.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := bucketRange(i)
			return lo + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketRange(len(h.counts) - 1)
	return lo + width
}
