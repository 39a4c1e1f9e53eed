package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Log2Hist is a fixed-bucket base-2 histogram over non-negative samples
// (nanoseconds, typically). Bucket b counts samples v with
// bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b); bucket 0 counts zeros.
// The value array is inline — no pointers, no heap — so the record path
// is a bounds-checked increment and stays allocation-free, which the obs
// latency instrumentation depends on (it records inside hot paths).
//
// Quantiles are deterministic: Quantile walks the cumulative counts and
// reports the upper bound of the bucket holding the q-th sample (clamped
// to the observed maximum), so two runs observing the same multiset of
// samples report identical quantiles regardless of arrival order.
//
// Observe and every reader use atomic operations, so concurrent
// recorders (deploys on disjoint dependency cones) and readers need no
// lock. The sample count is the sum of the buckets rather than a
// counter of its own, so a record costs one atomic add (plus a
// compare-and-swap on a new maximum). A reader racing recorders sees
// each bucket at some recent value; Quantile and Merge work on one
// Snapshot.
type Log2Hist struct {
	counts [65]uint64
	max    int64
}

// log2Buckets is the number of buckets (bits.Len64 range is 0..64).
const log2Buckets = 65

// Observe records one sample; negative samples clamp to zero. It never
// allocates.
func (h *Log2Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	atomic.AddUint64(&h.counts[bits.Len64(uint64(v))], 1)
	for {
		m := atomic.LoadInt64(&h.max)
		if v <= m || atomic.CompareAndSwapInt64(&h.max, m, v) {
			return
		}
	}
}

// Snapshot returns a copy of the histogram, read atomically bucket by
// bucket.
func (h *Log2Hist) Snapshot() Log2Hist {
	var s Log2Hist
	for b := range h.counts {
		s.counts[b] = atomic.LoadUint64(&h.counts[b])
	}
	s.max = atomic.LoadInt64(&h.max)
	return s
}

// Count reports the number of recorded samples.
func (h *Log2Hist) Count() uint64 {
	var n uint64
	for b := range h.counts {
		n += atomic.LoadUint64(&h.counts[b])
	}
	return n
}

// Max reports the largest recorded sample (0 when empty).
func (h *Log2Hist) Max() int64 { return atomic.LoadInt64(&h.max) }

// Bucket reports the count in bucket b (0 <= b < NumBuckets).
func (h *Log2Hist) Bucket(b int) uint64 {
	if b < 0 || b >= log2Buckets {
		return 0
	}
	return atomic.LoadUint64(&h.counts[b])
}

// NumBuckets reports the fixed bucket count.
func (h *Log2Hist) NumBuckets() int { return log2Buckets }

// BucketRange reports the half-open sample range [lo, hi) of bucket b.
// Bucket 0 is the degenerate [0, 1).
func (h *Log2Hist) BucketRange(b int) (lo, hi int64) {
	if b <= 0 {
		return 0, 1
	}
	if b >= 63 {
		// The top buckets saturate at the int64 maximum.
		return 1 << 62, int64(^uint64(0) >> 1)
	}
	return 1 << (b - 1), 1 << b
}

// Quantile reports a deterministic upper bound for the q-quantile
// (0 <= q <= 1): the upper edge of the bucket containing the ceil(q*n)-th
// smallest sample, clamped to the observed maximum. Returns 0 when empty.
func (h *Log2Hist) Quantile(q float64) int64 {
	s := h.Snapshot()
	var total uint64
	for _, c := range s.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for b := 0; b < log2Buckets; b++ {
		cum += s.counts[b]
		if cum >= rank {
			_, hi := s.BucketRange(b)
			if hi > s.max {
				hi = s.max
			}
			return hi
		}
	}
	return s.max
}

// Merge folds another histogram into this one. The receiver must not
// be recorded into concurrently; o may be.
func (h *Log2Hist) Merge(o *Log2Hist) {
	if o == nil {
		return
	}
	s := o.Snapshot()
	for b := 0; b < log2Buckets; b++ {
		h.counts[b] += s.counts[b]
	}
	if s.max > h.max {
		h.max = s.max
	}
}

// Render draws the occupied buckets as an ASCII histogram, width columns
// wide at the largest bucket.
func (h *Log2Hist) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	s := h.Snapshot()
	h = &s
	var peak uint64
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, _ := h.BucketRange(i)
		bar := 0
		if peak > 0 {
			bar = int(float64(c) / float64(peak) * float64(width))
		}
		fmt.Fprintf(&b, "%14d %8d %s\n", lo, c, strings.Repeat("#", bar))
	}
	return b.String()
}
