package stats

import (
	"math"
	"math/bits"
	"sort"
)

// selectPercentile returns what percentileSorted returns on xs sorted
// ascending by sort.Float64s (NaNs first), without sorting: it reads at
// most two order statistics, found by selection in expected O(n). xs is
// reordered. len(xs) must be at least 1.
func selectPercentile(xs []float64, p float64) float64 {
	n := len(xs)
	// sort.Float64s orders NaN before every number; move them to the
	// front so the selection below compares numbers only.
	nans := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], xs[i]
			nans++
		}
	}
	// kth returns sorted[k] and leaves every number before position k no
	// larger, every number after it no smaller.
	kth := func(k int) float64 {
		if k >= nans {
			quickselect(xs[nans:], k-nans)
		}
		return xs[k]
	}
	// The branches mirror percentileSorted's.
	if n == 1 || p <= 0 {
		return kth(0)
	}
	if p >= 100 {
		return kth(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	if hi >= n {
		return kth(n - 1)
	}
	a := kth(lo)
	// sorted[hi] is the smallest of what the selection left above
	// position lo — or a NaN, which no comparison replaces.
	b := xs[hi]
	for _, x := range xs[hi+1:] {
		if x < b {
			b = x
		}
	}
	return a*(1-frac) + b*frac
}

// quickselect reorders xs (no NaNs) so that xs[k] holds the value a full
// sort would put there, nothing before it is larger and nothing after it
// smaller. Median-of-three pivots and a three-way partition keep it
// linear on the sorted, constant and tie-heavy windows the detectors
// produce; a run of bad pivots falls back to sorting what is left.
func quickselect(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi > lo; budget-- {
		if hi-lo < 12 || budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		pivot := median3(xs[lo], xs[mid], xs[hi])
		// Invariant: xs[lo:lt] < pivot, xs[lt:i] == pivot, xs[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				xs[gt], xs[i] = x, xs[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
