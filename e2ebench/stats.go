package main

import (
	"math/bits"
	"slices"
	"time"
)

// histBits sets the histogram's resolution: 2^histBits buckets per power of
// two, so a quantile is reported within 1/512 (0.2%) of the true sample.
const histBits = 9

// histMax is the largest duration the histogram distinguishes (about 18
// minutes); longer requests land in its last bucket.
const histMax = 1<<41 - 1

// hist is a log-linear latency histogram. Its size is fixed, so recording
// allocates nothing and memory does not grow with the number of requests.
type hist struct {
	counts []uint32
	n      int64
}

func newHist() hist { return hist{counts: make([]uint32, histBucket(histMax)+1)} }

// histBucket maps a duration in ns to its bucket: exact below 2^histBits,
// then histBits significant bits.
func histBucket(ns int64) int {
	ns = max(0, min(ns, histMax))
	if ns < 1<<histBits {
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 1 - histBits
	return shift<<histBits + int(ns>>shift)
}

// histValue is the midpoint of bucket i, in ns.
func histValue(i int) float64 {
	if i < 1<<histBits {
		return float64(i)
	}
	shift := i>>histBits - 1
	lower := int64(i-shift<<histBits) << shift
	return float64(lower) + float64(int64(1)<<shift-1)/2
}

func (h *hist) record(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) add(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile is the nearest-rank q-quantile, 0 for an empty histogram.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(1, int64(q*float64(h.n)+0.999999999))
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return time.Duration(histValue(i))
		}
	}
	return histMax
}

// beyond counts the samples ranked above the q-quantile.
func (h *hist) beyond(q float64) int64 { return h.n - int64(q*float64(h.n)) }

// median of values, 0 when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
