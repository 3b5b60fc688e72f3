package main

import (
	"math"
	"sort"
	"time"
)

// sample stores one duration in nanoseconds. 32 bits hold 4.29 s, above any
// latency a run that passes its checks can see; longer ones saturate.
type sample = uint32

func toSample(d time.Duration) sample {
	switch {
	case d < 0:
		return 0
	case d > math.MaxUint32:
		return math.MaxUint32
	}
	return sample(d)
}

// percentile returns the p-quantile (0 < p <= 1) of sorted samples by
// nearest rank, in nanoseconds.
func percentile(sorted []sample, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowPercentiles is the benchmark's percentile estimator: each quantile
// is taken inside every non-empty sub-window and the median of those values
// is reported, so one bad window moves a tail percentile less than it moves
// the whole-run value. It sorts the windows in place and returns one value
// per quantile, in nanoseconds, and the total number of samples.
func windowPercentiles(windows [][]sample, ps ...float64) ([]float64, int) {
	perWindow := make([][]float64, len(ps))
	n := 0
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		n += len(w)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		for i, p := range ps {
			perWindow[i] = append(perWindow[i], percentile(w, p))
		}
	}
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = median(perWindow[i])
	}
	return out, n
}

// mergeWindows concatenates per-source windows: out[w] holds every source's
// samples of window w.
func mergeWindows(sources ...[][]sample) [][]sample {
	var out [][]sample
	for _, src := range sources {
		for w, s := range src {
			for len(out) <= w {
				out = append(out, nil)
			}
			out[w] = append(out[w], s...)
		}
	}
	return out
}

func us(ns float64) float64 { return ns / 1e3 }
