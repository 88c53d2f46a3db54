package detect

import (
	"math"
	"math/rand"
	"testing"
)

// checkRobustStats compares robustStats with the selection path it
// replaced on the primary route, bit for bit (NaN equal to NaN).
func checkRobustStats(t *testing.T, name string, pixels []float64) {
	t.Helper()
	stride := 1
	if len(pixels) > 1<<16 {
		stride = len(pixels) / (1 << 16)
	}
	wantMean, wantSigma := robustStatsSelection(pixels, stride, new(scratch))
	gotMean, gotSigma := robustStats(pixels, new(scratch))
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	if !same(gotMean, wantMean) || !same(gotSigma, wantSigma) {
		t.Errorf("%s (n=%d): robustStats = (%v, %v), selection = (%v, %v)",
			name, len(pixels), gotMean, gotSigma, wantMean, wantSigma)
	}
}

// TestRobustStatsMatchesSelection is the histogram median's oracle test:
// the same two float64s as two quickselects over copies, on every shape of
// sample that changes how the buckets fill or whether they can be used.
func TestRobustStatsMatchesSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(20231112))
	generators := map[string]func(n int) []float64{
		"normal": func(n int) []float64 {
			mean, sd := rng.Float64()*1e3-500, math.Exp(rng.Float64()*20-10)
			s := make([]float64, n)
			for i := range s {
				s[i] = mean + sd*rng.NormFloat64()
			}
			return s
		},
		"duplicates": func(n int) []float64 { // integer counts, a handful of distinct values
			levels := 2 + rng.Intn(6)
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(levels))
			}
			return s
		},
		"constant": func(n int) []float64 {
			v := rng.NormFloat64()
			s := make([]float64, n)
			for i := range s {
				s[i] = v
			}
			return s
		},
		"exponential": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.ExpFloat64() * 40
			}
			return s
		},
		"outlier": func(n int) []float64 { // every other sample lands in bucket 0
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.Float64()
			}
			s[rng.Intn(n)] = 1e9
			return s
		},
	}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 64, 255, 1000, 1001, 128 * 128}
	trials := 0
	for round := 0; round < 8; round++ {
		for name, gen := range generators {
			for _, n := range sizes {
				if n == 128*128 && round > 1 {
					continue
				}
				checkRobustStats(t, name, gen(n))
				trials++
			}
		}
	}
	if trials < 400 {
		t.Fatalf("%d trials, want at least 400", trials)
	}

	// Above 64k pixels only every stride-th one is sampled (here 1 in 4
	// and, for a length that is no multiple of the stride, 1 in 2).
	big := generators["normal"](512 * 512)
	checkRobustStats(t, "strided", big)
	checkRobustStats(t, "strided-ragged", big[:150_001])
	for i := 0; i < len(big); i += 4 {
		big[i] = math.Floor(big[i]) // duplicates among exactly the sampled pixels
	}
	checkRobustStats(t, "strided-duplicates", big)

	// Ranges that leave the histogram nothing to work with: two adjacent
	// floats, and a span whose reciprocal overflows.
	ulp := make([]float64, 1001)
	sub := make([]float64, 1000)
	for i := range ulp {
		ulp[i] = 1
		if rng.Intn(2) == 0 {
			ulp[i] = math.Nextafter(1, 2)
		}
	}
	for i := range sub {
		sub[i] = float64(rng.Intn(4)) * 5e-324
	}
	checkRobustStats(t, "one-ulp", ulp)
	checkRobustStats(t, "subnormal", sub)
	checkRobustStats(t, "huge-span", []float64{-1.7e308, 0, 1, 2, 1.7e308})
	checkRobustStats(t, "empty", nil)

	// Pixels that are not numbers: the selection path decides.
	for name, bad := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		s := generators["normal"](1000)
		s[rng.Intn(len(s))] = bad
		checkRobustStats(t, name, s)
		s[0], s[len(s)-1] = bad, bad
		checkRobustStats(t, name+"-ends", s)
	}

	// And the frames the detector actually sees — on which the histogram
	// must be the path taken, or everything above compared selection with
	// itself.
	frame := blobFrame().Data()
	checkRobustStats(t, "blob-frame", frame)
	if _, ok := histogramMedian(frame, 1, 0, false, -1e6, 1e6, new(scratch)); !ok {
		t.Error("histogramMedian declined an ordinary frame")
	}
	for name, span := range map[string][2]float64{"constant": {3, 3}, "subnormal": {0, 1e-320}, "infinite": {0, math.Inf(1)}, "nan": {math.NaN(), 1}} {
		if _, ok := histogramMedian(frame, 1, 0, false, span[0], span[1], new(scratch)); ok {
			t.Errorf("histogramMedian accepted a %s range", name)
		}
	}
}

// BenchmarkRobustStats times the background statistics of one 128×128
// frame by selection (the oracle) and by histogram (make bench-analysis).
func BenchmarkRobustStats(b *testing.B) {
	pixels := blobFrame().Data()
	sc := new(scratch)
	b.Run("selection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			robustStatsSelection(pixels, 1, sc)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			robustStats(pixels, sc)
		}
	})
}
