package telemetry

// Fixed-footprint log-linear latency histogram (HDR-style). Each power of
// two is split into histSub linear sub-buckets, giving a worst-case
// relative resolution of 1/histSub (12.5%) across the full int64 range in
// histBuckets counters — no allocation per sample, one atomic add.

import (
	"math/bits"
	"sync/atomic"
)

// Hist is the recorder-side histogram: every field atomic so concurrent
// snapshots are race-clean.
type Hist struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Add records one sample (negative values clamp to zero). Single-writer:
// the simulation records from one goroutine; atomics make concurrent
// snapshot reads race-clean, not concurrent writers.
//
//rfp:hotpath
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	n := h.count.Add(1)
	h.sum.Add(v)
	if n == 1 || v < h.min.Load() {
		h.min.Store(v)
	}
	if v > h.max.Load() {
		h.max.Store(v)
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Snap returns the histogram's plain-value snapshot, for callers that use
// a bare Hist outside a Recorder (e.g. per-phase latency accounting in the
// scenario harness).
func (h *Hist) Snap() HistSnap {
	var out HistSnap
	h.snapshot(&out)
	return out
}

// snapshot copies the histogram into its plain-value snapshot form. It
// loads the fields in the reverse of the order Add stores them, so a
// snapshot taken during a concurrent Add never sees a sample's bucket
// without its count: Σbuckets ≤ Count always holds.
func (h *Hist) snapshot(out *HistSnap) {
	for i := range h.buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	out.Max = h.max.Load()
	out.Min = h.min.Load()
	out.Sum = h.sum.Load()
	out.Count = h.count.Load()
}

// HistSnap is the immutable snapshot of a Hist.
type HistSnap struct {
	Count   uint64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [histBuckets]uint64
}

// Mean returns the average sample, 0 when empty.
func (h *HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile returns the value at quantile q in [0,1] (clamped), using the
// bucket midpoint tightened by the recorded min/max. Returns 0 when empty.
func (h *HistSnap) Percentile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			v := bucketMid(i)
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
	}
	return h.Max
}

// Delta returns the samples h accumulated since prev, where prev is an
// earlier snapshot of the same histogram (its counts are a prefix of h's).
// Count, Sum and the buckets subtract exactly; Min and Max of just the new
// samples are not recoverable from counters, so they are tightened to the
// occupied delta-bucket range (clamped into [prev-unseen lower bound,
// h.Max]) — Percentile stays within one sub-bucket (12.5%) of exact, and
// is exact when all delta samples share a value.
func (h HistSnap) Delta(prev HistSnap) HistSnap {
	var d HistSnap
	if h.Count <= prev.Count {
		return d
	}
	d.Count = h.Count - prev.Count
	d.Sum = h.Sum - prev.Sum
	lo, hi := -1, -1
	for i := range h.Buckets {
		d.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
		if d.Buckets[i] > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo >= 0 {
		d.Min = bucketLow(lo)
		if h.Min > d.Min {
			d.Min = h.Min
		}
		d.Max = bucketHigh(hi)
		if d.Max > h.Max {
			d.Max = h.Max
		}
	}
	return d
}

// Merge accumulates another snapshot into h.
func (h *HistSnap) Merge(o *HistSnap) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	histBuckets = (64-histSubBits)*histSub + histSub
)

// bucketOf maps a non-negative value to its bucket index. Values below
// histSub map exactly; above, the top histSubBits bits under the leading
// one select the sub-bucket.
//
//rfp:hotpath
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	sub := int((v >> uint(msb-histSubBits)) & (histSub - 1))
	idx := (msb-histSubBits)*histSub + histSub + sub
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(idx int) int64 {
	if idx < 2*histSub {
		return int64(idx)
	}
	low, width := bucketBounds(idx)
	return low + width/2
}

// bucketLow returns the smallest value a bucket can hold.
func bucketLow(idx int) int64 {
	if idx < 2*histSub {
		return int64(idx)
	}
	low, _ := bucketBounds(idx)
	return low
}

// bucketHigh returns the largest value a bucket can hold.
func bucketHigh(idx int) int64 {
	if idx < 2*histSub {
		return int64(idx)
	}
	low, width := bucketBounds(idx)
	return low + width - 1
}

// bucketBounds returns a log-linear bucket's lower edge and width.
func bucketBounds(idx int) (low, width int64) {
	msb := (idx-histSub)/histSub + histSubBits
	sub := int64((idx - histSub) % histSub)
	low = int64(1)<<uint(msb) | sub<<uint(msb-histSubBits)
	return low, int64(1) << uint(msb-histSubBits)
}
