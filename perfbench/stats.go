package main

import (
	"math"
	"math/bits"
	"sort"
)

// Hist is a log-linear histogram of non-negative nanosecond values: 16
// sub-buckets per power of two, so a quantile read from it is within ~6%
// of the exact value. It aggregates calls too hot to store one span each.
type Hist struct {
	counts [histBuckets]int64
	n, sum int64
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)*histSub + int(uint64(v)>>e)&(histSub-1)
}

// histLow returns the smallest value that lands in bucket i.
func histLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub - 1
	return int64(histSub+i%histSub) << e
}

// Add records one value.
func (h *Hist) Add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

// Merge adds every value of o.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// N returns the number of values recorded.
func (h *Hist) N() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Quantile returns the midpoint of the bucket holding the q-th quantile
// (0 < q < 1), or 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := histLow(i)
			if i == histBuckets-1 {
				return float64(lo)
			}
			return float64(lo+histLow(i+1)-1) / 2
		}
	}
	return float64(histLow(histBuckets - 1))
}

// tailPercentiles are the candidates a timing's tail is reported at.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile, at most max, that
// has at least ten of n samples beyond it, or 0 when n is too small for any.
// A p99 read from fewer than 1000 samples is decided by a handful of values,
// so the reported tail steps down until it is backed by ten.
func tailPercentile(n int64, max float64) float64 {
	for _, p := range tailPercentiles {
		if p > max {
			continue
		}
		// Samples beyond p, in thousandths: exact for one-decimal p.
		if n*int64(math.Round((100-p)*10)) >= 10*1000 {
			return p
		}
	}
	return 0
}

// tail reads h at tailPercentile(h.N(), max) and returns the percentile
// used and the value there (both 0 when h has too few samples).
func tail(h *Hist, max float64) (p, v float64) {
	if h == nil {
		return 0, 0
	}
	p = tailPercentile(h.n, max)
	if p == 0 {
		return 0, 0
	}
	return p, h.Quantile(p / 100)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides num by den, returning 0 when den is zero (a run that did no
// accesses, or one the clock's granularity swallowed, has no rate; the
// benchmark reports it as 0 rather than an infinity JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) || math.IsNaN(den) {
		return 0
	}
	r := num / den
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return 0
	}
	return r
}
