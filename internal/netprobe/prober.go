package netprobe

import (
	"fmt"
	"sync"
	"time"

	"picoprobe/internal/sim"
)

// Config parameterizes a Prober. The zero value gets sensible defaults
// from withDefaults.
type Config struct {
	// Interval is the per-path sampling period.
	Interval time.Duration
	// WindowSamples is how many raw samples close one Welford window.
	WindowSamples int
}

const (
	// ewmaAlpha is the EWMA smoothing factor applied per closed window.
	ewmaAlpha = 0.4
	// historyLen bounds each gauge's closed-window history ring.
	historyLen = 128
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.WindowSamples <= 0 {
		c.WindowSamples = 5
	}
	return c
}

// Prober drives periodic measurements of registered paths on a
// sim.Runtime — the simulation kernel in experiments (deterministic
// virtual-time sampling) or the live runtime in a real deployment — and
// serves the smoothed results through PathQuality. All methods are safe
// for concurrent use.
type Prober struct {
	rt  sim.Runtime
	cfg Config

	mu      sync.Mutex
	order   []string
	paths   map[string]*probePath
	running bool
	stopped bool
	until   time.Time
}

type probePath struct {
	target Target
	gauge  *Gauge
}

// New returns an idle Prober; Register paths, then Start it.
func New(rt sim.Runtime, cfg Config) *Prober {
	return &Prober{rt: rt, cfg: cfg.withDefaults(), paths: map[string]*probePath{}}
}

// Register adds a path and returns its gauge. Registering after Start is
// allowed; the new path joins the next probe round.
func (p *Prober) Register(pathID string, t Target) (*Gauge, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.paths[pathID]; dup {
		return nil, fmt.Errorf("netprobe: duplicate path %q", pathID)
	}
	g := newGauge(DefaultWeights(), p.cfg.WindowSamples, historyLen, ewmaAlpha)
	p.paths[pathID] = &probePath{target: t, gauge: g}
	p.order = append(p.order, pathID)
	return g, nil
}

// Start begins the sampling loop. until bounds the loop in virtual or
// wall time — essential under the simulation kernel, whose Run drains the
// event queue and would never return with an unbounded periodic event
// chain; the zero time samples until Stop. Start is idempotent.
func (p *Prober) Start(until time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return
	}
	p.running = true
	p.until = until
	p.rt.AfterFunc(p.cfg.Interval, p.tick)
}

// Stop halts sampling after any in-flight round. Gauges keep serving
// their last smoothed state.
func (p *Prober) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

// tick samples every registered path once, then reschedules itself.
func (p *Prober) tick() {
	p.mu.Lock()
	if p.stopped {
		p.running = false
		p.mu.Unlock()
		return
	}
	now := p.rt.Now()
	ids := append([]string(nil), p.order...)
	paths := make([]*probePath, len(ids))
	for i, id := range ids {
		paths[i] = p.paths[id]
	}
	until := p.until
	p.mu.Unlock()

	for _, pp := range paths {
		pp.gauge.Observe(now, pp.target.Measure(now))
	}

	if !until.IsZero() && !now.Add(p.cfg.Interval).Before(until) {
		p.mu.Lock()
		p.running = false
		p.mu.Unlock()
		return
	}
	p.rt.AfterFunc(p.cfg.Interval, p.tick)
}

// Quality implements PathQuality.
func (p *Prober) Quality(pathID string) (Quality, bool) {
	p.mu.Lock()
	pp, ok := p.paths[pathID]
	p.mu.Unlock()
	if !ok {
		return Quality{}, false
	}
	return pp.gauge.Quality(), true
}

// Gauge returns the registered path's gauge (history access).
func (p *Prober) Gauge(pathID string) (*Gauge, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp, ok := p.paths[pathID]
	if !ok {
		return nil, false
	}
	return pp.gauge, true
}

// Paths returns the registered path IDs in registration order.
func (p *Prober) Paths() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.order...)
}
