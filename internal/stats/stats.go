// Package stats provides the small statistical toolkit used throughout the
// repository: streaming summaries with exact percentiles, histograms, and
// human-readable formatting for byte counts and data rates. The experiment
// harness uses it to compute the aggregate and per-stage rows reported in
// the paper's Table 1 and Figure 4.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary accumulates float64 samples and reports order statistics. Samples
// are retained so percentiles are exact, which is appropriate for the
// experiment scales in this repository (at most a few thousand flow runs).
type Summary struct {
	samples []float64
	sum     float64
	sumSq   float64
	sorted  bool
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{} }

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.samples = append(s.samples, x)
	s.sum += x
	s.sumSq += x * x
	s.sorted = false
}

// AddDuration records a duration sample in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Count returns the number of samples.
func (s *Summary) Count() int { return len(s.samples) }

// Sum returns the sum of all samples.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Std returns the population standard deviation, or 0 with fewer than two
// samples.
func (s *Summary) Std() float64 {
	n := float64(len(s.samples))
	if n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/n - m*m
	if v < 0 { // guard against floating-point cancellation
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks, or 0 with no samples.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// Samples returns a copy of the recorded samples in insertion order is not
// guaranteed once order statistics have been computed; the copy is sorted.
func (s *Summary) Samples() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.samples))
	copy(out, s.samples)
	return out
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// DurationStats is a convenience view of a Summary in time.Duration units.
type DurationStats struct{ S *Summary }

// NewDurationStats returns an empty duration summary.
func NewDurationStats() DurationStats { return DurationStats{S: NewSummary()} }

// Add records one duration sample.
func (d DurationStats) Add(v time.Duration) { d.S.AddDuration(v) }

// Count returns the number of samples.
func (d DurationStats) Count() int { return d.S.Count() }

// Min returns the smallest duration.
func (d DurationStats) Min() time.Duration { return secsToDur(d.S.Min()) }

// Max returns the largest duration.
func (d DurationStats) Max() time.Duration { return secsToDur(d.S.Max()) }

// Mean returns the mean duration.
func (d DurationStats) Mean() time.Duration { return secsToDur(d.S.Mean()) }

// Median returns the median duration.
func (d DurationStats) Median() time.Duration { return secsToDur(d.S.Median()) }

// Percentile returns the p-th percentile duration.
func (d DurationStats) Percentile(p float64) time.Duration {
	return secsToDur(d.S.Percentile(p))
}

// Sum returns the total of all samples.
func (d DurationStats) Sum() time.Duration { return secsToDur(d.S.Sum()) }

func secsToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// FormatRate renders a data rate in decimal bits per second ("940 Mbit/s").
func FormatRate(bitsPerSec float64) string {
	switch {
	case bitsPerSec >= 1e12:
		return fmt.Sprintf("%.2f Tbit/s", bitsPerSec/1e12)
	case bitsPerSec >= 1e9:
		return fmt.Sprintf("%.2f Gbit/s", bitsPerSec/1e9)
	case bitsPerSec >= 1e6:
		return fmt.Sprintf("%.2f Mbit/s", bitsPerSec/1e6)
	case bitsPerSec >= 1e3:
		return fmt.Sprintf("%.2f kbit/s", bitsPerSec/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", bitsPerSec)
	}
}
