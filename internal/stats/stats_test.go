package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Median() != 3 {
		t.Errorf("Median = %v", s.Median())
	}
	if s.Sum() != 15 {
		t.Errorf("Sum = %v", s.Sum())
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if math.Abs(s.Std()-wantStd) > 1e-9 {
		t.Errorf("Std = %v, want %v", s.Std(), wantStd)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Median() != 0 || s.Std() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	if got := s.Percentile(50); got != 25 {
		t.Errorf("P50 = %v, want 25", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Errorf("P0 = %v, want 10", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Errorf("P100 = %v, want 40", got)
	}
	if got := s.Percentile(25); got != 17.5 {
		t.Errorf("P25 = %v, want 17.5", got)
	}
}

func TestAddAfterSortedQuery(t *testing.T) {
	s := NewSummary()
	s.Add(3)
	s.Add(1)
	_ = s.Median() // forces sort
	s.Add(2)
	if s.Median() != 2 {
		t.Errorf("Median after interleaved Add = %v, want 2", s.Median())
	}
}

// Property: median and percentiles agree with a brute-force sorted
// computation, and min <= p25 <= median <= p75 <= max.
func TestPropertyPercentilesAgainstBruteForce(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSummary()
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
			s.Add(float64(r))
		}
		sort.Float64s(vals)
		if s.Min() != vals[0] || s.Max() != vals[len(vals)-1] {
			return false
		}
		p25, p50, p75 := s.Percentile(25), s.Percentile(50), s.Percentile(75)
		return s.Min() <= p25 && p25 <= p50 && p50 <= p75 && p75 <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Std is invariant under shifting and scales with |c| under
// scaling (within floating-point tolerance).
func TestPropertyStdShiftInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		a, b := NewSummary(), NewSummary()
		shift := rng.Float64()*100 - 50
		for i := 0; i < 100; i++ {
			v := rng.Float64() * 10
			a.Add(v)
			b.Add(v + shift)
		}
		if math.Abs(a.Std()-b.Std()) > 1e-6 {
			t.Fatalf("Std not shift invariant: %v vs %v", a.Std(), b.Std())
		}
	}
}

func TestDurationStats(t *testing.T) {
	d := NewDurationStats()
	d.Add(1 * time.Second)
	d.Add(3 * time.Second)
	if d.Mean() != 2*time.Second {
		t.Errorf("Mean = %v", d.Mean())
	}
	if d.Min() != time.Second || d.Max() != 3*time.Second {
		t.Errorf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if d.Sum() != 4*time.Second {
		t.Errorf("Sum = %v", d.Sum())
	}
}

func TestFormatRate(t *testing.T) {
	cases := map[float64]string{
		500:    "500 bit/s",
		1e3:    "1.00 kbit/s",
		1e9:    "1.00 Gbit/s",
		6.5e11: "650.00 Gbit/s",
		2e12:   "2.00 Tbit/s",
	}
	for in, want := range cases {
		if got := FormatRate(in); got != want {
			t.Errorf("FormatRate(%v) = %q, want %q", in, got, want)
		}
	}
}
