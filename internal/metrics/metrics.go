// Package metrics implements the measurement machinery of the FRAME
// evaluation (§VI): end-to-end latency distributions, modeled CPU
// utilization accounting (Fig. 7), and confidence intervals across repeated
// runs. Per-topic loss accounting lives in client.DeliveryLog.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// LatencyRecorder accumulates a latency distribution with reservoir-free
// exact percentiles (it keeps all samples; evaluation runs record at most a
// few million). The zero value is ready to use. All methods are safe for
// concurrent use: Percentile sorts the sample slice in place, so without
// the lock a concurrent Record could observe (or corrupt) the mid-sort
// slice. Runtime hot paths should prefer obsv.Histogram, which streams
// into fixed buckets instead of keeping every sample.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	sorted  bool
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, d)
	r.sum += d
	r.sorted = false
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Mean returns the mean latency, or zero with no samples.
func (r *LatencyRecorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / time.Duration(len(r.samples))
}

// Max returns the maximum sample, or zero with no samples.
func (r *LatencyRecorder) Max() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var m time.Duration
	for _, s := range r.samples {
		if s > m {
			m = s
		}
	}
	return m
}

// Percentile returns the p-quantile (0 < p ≤ 1) by nearest-rank, or zero
// with no samples.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 1 {
		return r.samples[len(r.samples)-1]
	}
	rank := int(math.Ceil(p*float64(len(r.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return r.samples[rank]
}

// Utilization models CPU accounting for one module (Fig. 7): busy time
// accumulated against a core budget.
type Utilization struct {
	Cores int
	busy  time.Duration
}

// NewUtilization returns an accumulator for a module running on cores.
func NewUtilization(cores int) *Utilization {
	if cores <= 0 {
		panic(fmt.Sprintf("metrics: cores %d must be positive", cores))
	}
	return &Utilization{Cores: cores}
}

// AddBusy charges d of CPU work to the module.
func (u *Utilization) AddBusy(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative busy time %v", d))
	}
	u.busy += d
}

// Busy returns the accumulated busy time.
func (u *Utilization) Busy() time.Duration { return u.busy }

// Percent returns utilization over the window as a percentage of the
// module's total core capacity. It can exceed 100 only if accounting
// over-charges; callers treat ≥100 as saturated.
func (u *Utilization) Percent(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return 100 * float64(u.busy) / (float64(window) * float64(u.Cores))
}

// Series is a set of repeated-run measurements of one quantity.
type Series []float64

// Mean returns the arithmetic mean (zero for an empty series).
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// StdDev returns the sample standard deviation (zero for n < 2).
func (s Series) StdDev() float64 {
	if len(s) < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s)-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using the normal approximation the paper's error bars imply (1.96·σ/√n).
func (s Series) CI95() float64 {
	if len(s) < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(len(s)))
}

// FormatMeanCI renders "mean ± ci" the way the paper's tables do: plain
// mean when the interval is zero, scientific notation for tiny intervals.
func (s Series) FormatMeanCI() string {
	m, ci := s.Mean(), s.CI95()
	if ci == 0 {
		return fmt.Sprintf("%.1f", m)
	}
	if ci < 0.1 {
		return fmt.Sprintf("%.1f ± %.1E", m, ci)
	}
	return fmt.Sprintf("%.1f ± %.1f", m, ci)
}
