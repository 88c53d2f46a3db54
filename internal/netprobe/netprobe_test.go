package netprobe

import (
	"math"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/sim"
)

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d, want 8", w.Count())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := w.Std(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", got)
	}
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 || w.Std() != 0 {
		t.Errorf("Reset left state: %+v", w)
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{alpha: 0.5}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update seeds: got %v", got)
	}
	if got := e.Update(20); got != 15 {
		t.Errorf("second update = %v, want 15", got)
	}
	if got := e.Value(); got != 15 {
		t.Errorf("Value = %v, want 15", got)
	}
}

func TestScoreFormula(t *testing.T) {
	w := Weights{
		RTTWeight: 1, JitterWeight: 1, LossWeight: 2,
		RTTGood: 0, RTTBad: 100 * time.Millisecond,
		JitterGood: 0, JitterBad: 100 * time.Millisecond,
		LossGood: 0, LossBad: 0.1,
	}
	// All dimensions at their good anchors: perfect score.
	if got := w.Score(0, 0, 0); got != 100 {
		t.Errorf("perfect score = %v, want 100", got)
	}
	// Any dimension at its bad anchor zeros the product.
	if got := w.Score(100*time.Millisecond, 0, 0); got != 0 {
		t.Errorf("bad RTT score = %v, want 0", got)
	}
	// Midpoints: 100 · 0.5 · 0.5 · 0.5² = 6.25.
	got := w.Score(50*time.Millisecond, 50*time.Millisecond, 0.05)
	if math.Abs(got-6.25) > 1e-9 {
		t.Errorf("midpoint score = %v, want 6.25", got)
	}
	// Zero-weight dimensions drop out.
	w2 := w
	w2.JitterWeight, w2.LossWeight = 0, 0
	got = w2.Score(50*time.Millisecond, 100*time.Millisecond, 1)
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("RTT-only score = %v, want 50", got)
	}
}

func TestGaugeWindowFoldAndHistory(t *testing.T) {
	g := newGauge(DefaultWeights(), 3, 4, 0.5)
	base := time.Unix(0, 0)

	// Score is optimistic (100) before any window closes.
	if q := g.Quality(); q.Score != 100 || q.Windows != 0 {
		t.Fatalf("pre-window quality = %+v", q)
	}

	for i := 0; i < 3; i++ {
		g.Observe(base.Add(time.Duration(i)*time.Second), Measurement{
			RTT: 20 * time.Millisecond, Loss: 0.0, GoodputBps: 1e9,
		})
	}
	q := g.Quality()
	if q.Windows != 1 || q.Samples != 3 {
		t.Fatalf("after one window: %+v", q)
	}
	if q.RTT != 20*time.Millisecond || q.Jitter != 0 || q.Loss != 0 || q.GoodputBps != 1e9 {
		t.Errorf("first window EWMAs seed with window stats: %+v", q)
	}
	if q.LastSample != base.Add(2*time.Second) {
		t.Errorf("LastSample = %v", q.LastSample)
	}

	// A degraded window halves in via alpha=0.5.
	for i := 3; i < 6; i++ {
		g.Observe(base.Add(time.Duration(i)*time.Second), Measurement{
			RTT: 100 * time.Millisecond, Loss: 0.04, GoodputBps: 2e8,
		})
	}
	q = g.Quality()
	if q.Windows != 2 {
		t.Fatalf("Windows = %d, want 2", q.Windows)
	}
	if q.RTT != 60*time.Millisecond {
		t.Errorf("RTT EWMA = %v, want 60ms", q.RTT)
	}
	if math.Abs(q.Loss-0.02) > 1e-12 {
		t.Errorf("Loss EWMA = %v, want 0.02", q.Loss)
	}
	if q.Score >= 100 || q.Score <= 0 {
		t.Errorf("degraded score = %v, want in (0, 100)", q.Score)
	}

	h := g.History()
	if len(h) != 2 {
		t.Fatalf("history len = %d, want 2", len(h))
	}
	if !h[0].At.Before(h[1].At) {
		t.Errorf("history not oldest-first: %v, %v", h[0].At, h[1].At)
	}

	// The ring caps at its capacity, keeping the newest windows.
	for w := 0; w < 10; w++ {
		for i := 0; i < 3; i++ {
			g.Observe(base.Add(time.Duration(100+w*3+i)*time.Second), Measurement{RTT: time.Millisecond, GoodputBps: 1e9})
		}
	}
	h = g.History()
	if len(h) != 4 {
		t.Fatalf("ring len = %d, want cap 4", len(h))
	}
	for i := 1; i < len(h); i++ {
		if !h[i-1].At.Before(h[i].At) {
			t.Errorf("ring order broken at %d", i)
		}
	}
}

// fakeTarget replays a schedule of measurements.
type fakeTarget struct {
	mu sync.Mutex
	ms []Measurement
	i  int
}

func (f *fakeTarget) Measure(now time.Time) Measurement {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.ms[f.i%len(f.ms)]
	f.i++
	return m
}

func TestProberSamplesOnKernel(t *testing.T) {
	k := sim.NewKernel()
	p := New(k, Config{Interval: time.Second, WindowSamples: 4})
	tgt := &fakeTarget{ms: []Measurement{{RTT: 30 * time.Millisecond, Loss: 0.01, GoodputBps: 5e8}}}
	if _, err := p.Register("alcf", tgt); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("alcf", tgt); err == nil {
		t.Fatal("duplicate Register should fail")
	}
	epoch := k.Now()
	p.Start(epoch.Add(20 * time.Second))
	k.Run()
	if got := k.Now(); got.After(epoch.Add(21 * time.Second)) {
		t.Fatalf("prober did not honor its until bound: kernel at %v", got)
	}
	q, ok := p.Quality("alcf")
	if !ok {
		t.Fatal("path not found")
	}
	// 19 ticks (1s..19s) → 4 closed windows of 4 samples.
	if q.Samples != 19 || q.Windows != 4 {
		t.Fatalf("samples/windows = %d/%d, want 19/4", q.Samples, q.Windows)
	}
	if q.RTT != 30*time.Millisecond || q.Loss != 0.01 || q.GoodputBps != 5e8 {
		t.Errorf("steady-state EWMAs: %+v", q)
	}
	if _, ok := p.Quality("nope"); ok {
		t.Error("unknown path should miss")
	}
}

func TestProberStop(t *testing.T) {
	k := sim.NewKernel()
	p := New(k, Config{Interval: time.Second})
	tgt := &fakeTarget{ms: []Measurement{{RTT: time.Millisecond, GoodputBps: 1e9}}}
	if _, err := p.Register("a", tgt); err != nil {
		t.Fatal(err)
	}
	epoch := k.Now()
	p.Start(time.Time{}) // unbounded: only Stop ends it
	k.At(epoch.Add(5*time.Second+time.Millisecond), func() { p.Stop() })
	k.Run()
	q, _ := p.Quality("a")
	if q.Samples != 5 {
		t.Fatalf("samples = %d, want 5 (stopped)", q.Samples)
	}
}

func TestTunerBDPRule(t *testing.T) {
	q := &stubQuality{}
	tn := &Tuner{
		Quality: q, PathID: "p",
		StreamCapBps: 100e6, MaxStreams: 8,
		MinChunkBytes: 1 << 20, MaxChunkBytes: 64 << 20, ChunkQuantum: 1 << 20,
		BDPMultiple:     4,
		FallbackStreams: 2, FallbackChunkBytes: 8 << 20,
	}

	// Unknown path / no closed window yet: fallback flags.
	if s, c := tn.Tune(); s != 2 || c != 8<<20 {
		t.Fatalf("fallback = %d/%d", s, c)
	}
	q.set(Quality{Windows: 1, GoodputBps: 950e6, RTT: 40 * time.Millisecond})

	// 950 Mbps / 100 Mbps cap → 10 streams, clamped to 8.
	// BDP = 950e6 · 0.04 / 8 = 4.75 MB; ×4 = 19 MB, quantized to 19 MiB-ish.
	s, c := tn.Tune()
	if s != 8 {
		t.Errorf("streams = %d, want 8 (clamped)", s)
	}
	want := int64(4*950e6*0.04/8) / (1 << 20) * (1 << 20)
	if c != want {
		t.Errorf("chunk = %d, want %d", c, want)
	}

	// Thin degraded path: one stream, chunk clamped to the minimum.
	q.set(Quality{Windows: 5, GoodputBps: 4e6, RTT: 200 * time.Millisecond})
	if s, c := tn.Tune(); s != 1 || c != 1<<20 {
		t.Errorf("thin path = %d/%d, want 1/%d", s, c, 1<<20)
	}

	// Fat path with huge RTT: chunk clamped to the maximum.
	q.set(Quality{Windows: 5, GoodputBps: 10e9, RTT: time.Second})
	if _, c := tn.Tune(); c != 64<<20 {
		t.Errorf("chunk = %d, want max clamp", c)
	}
}

type stubQuality struct {
	mu sync.Mutex
	q  Quality
	ok bool
}

func (s *stubQuality) set(q Quality) {
	s.mu.Lock()
	s.q, s.ok = q, true
	s.mu.Unlock()
}

func (s *stubQuality) Quality(string) (Quality, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q, s.ok
}

// TestObserveAllocationFree is the alloc regression for the sampling hot
// path: a probe round must not allocate, or a long-lived deployment
// sampling every couple of seconds churns the heap forever.
func TestObserveAllocationFree(t *testing.T) {
	g := newGauge(DefaultWeights(), 5, 64, ewmaAlpha)
	base := time.Unix(0, 0)
	m := Measurement{RTT: 25 * time.Millisecond, Loss: 0.002, GoodputBps: 8e8}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		i++
		g.Observe(base.Add(time.Duration(i)*time.Second), m)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
}

// TestConcurrentObserveAndRead hammers one prober with concurrent probe
// writers and quality readers; run under -race this is the data-race
// gate for the gauge and prober locking.
func TestConcurrentObserveAndRead(t *testing.T) {
	p := New(sim.NewKernel(), Config{})
	g, err := p.Register("p", &fakeTarget{ms: []Measurement{{RTT: time.Millisecond, GoodputBps: 1e9}}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := time.Unix(int64(w)*1e6, 0)
			for i := 0; i < 5000; i++ {
				g.Observe(base.Add(time.Duration(i)*time.Second), Measurement{
					RTT: time.Duration(i) * time.Microsecond, Loss: 0.001, GoodputBps: 1e9,
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if q, ok := p.Quality("p"); ok && q.Score < 0 {
					t.Error("impossible score")
				}
				g.History()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func BenchmarkNetprobeSampler(b *testing.B) {
	g := newGauge(DefaultWeights(), 5, historyLen, ewmaAlpha)
	base := time.Unix(0, 0)
	m := Measurement{RTT: 25 * time.Millisecond, Loss: 0.002, GoodputBps: 8e8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Observe(base.Add(time.Duration(i)*time.Second), m)
	}
}

func BenchmarkNetprobeScore(b *testing.B) {
	w := DefaultWeights()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = w.Score(40*time.Millisecond, 5*time.Millisecond, 0.01)
	}
}
