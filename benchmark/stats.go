package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a latency histogram of fixed size: 64 linear sub-buckets per
// power of two, so a bucket is at most 1.6 % wide. The window records
// millions of latencies into it; keeping them all would make the heap grow
// through the window, and with it the garbage collector's pace and the
// throughput being measured.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSub     = 6 // log2 of the sub-buckets per power of two
	histBuckets = (64 - histSub + 1) << histSub
)

func histBucket(v int64) int {
	if v < 1<<histSub {
		return int(max(v, 0))
	}
	exp := bits.Len64(uint64(v)) - 1 - histSub // v >> exp has histSub+1 bits
	return (exp+1)<<histSub | int(v>>exp)&(1<<histSub-1)
}

// histLow is the smallest value of bucket b, and the width of the bucket.
func histLow(b int) (low, width int64) {
	if b < 1<<histSub {
		return int64(b), 1
	}
	exp := b>>histSub - 1
	return (1<<histSub | int64(b)&(1<<histSub-1)) << exp, 1 << exp
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// at returns the value of the rank-th smallest sample (0-based),
// interpolated within its bucket.
func (h *hist) at(rank int) float64 {
	seen := 0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+int(c) {
			low, width := histLow(b)
			return float64(low) + float64(width)*(float64(rank-seen)+0.5)/float64(c)
		}
		seen += int(c)
	}
	return 0
}

// median is the middle sample; 0 when empty.
func (h *hist) median() float64 {
	if h.n == 0 {
		return 0
	}
	return (h.at((h.n-1)/2) + h.at(h.n/2)) / 2
}

// tailRank is the rank of the 99th percentile among n ascending samples,
// or, with fewer than a thousand, of the highest percentile that still has
// ten samples beyond it, and the percentile that is.
func tailRank(n int) (rank int, pct float64) {
	switch {
	case n == 0:
		return 0, 0
	case n >= 1000:
		return (n*99+99)/100 - 1, 99
	case n > 10:
		return n - 11, 100 * float64(n-10) / float64(n)
	default:
		return n - 1, 100
	}
}

func (h *hist) tail() (float64, float64) {
	if h.n == 0 {
		return 0, 0
	}
	rank, pct := tailRank(h.n)
	return h.at(rank), pct
}

func sortedInts(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of an ascending slice; 0 when empty.
func median(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return float64(sorted[(n-1)/2]+sorted[n/2]) / 2
}

// tail of an ascending slice: see tailRank.
func tail(sorted []int64) (float64, float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank, pct := tailRank(len(sorted))
	return float64(sorted[rank]), pct
}

func medianDur(d []time.Duration) float64 {
	v := make([]int64, len(d))
	for i, x := range d {
		v[i] = int64(x)
	}
	return median(sortedInts(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
