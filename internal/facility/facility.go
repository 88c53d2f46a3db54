// Package facility is the multi-facility federation layer: it models N
// compute facilities (each with its own batch-scheduled node pool, network
// path from the instrument, and planned outage windows) and places flow
// work across them. The placement policy is least-estimated-completion-time
// over live queue-wait statistics (scheduler.Scheduler.EstimateWait), with
// sticky placement for multi-state runs so data staged at one facility is
// not re-staged gratuitously, and automatic failover to the next-best
// facility when a run's target is down or its queue-wait estimate exceeds
// the configured budget — the queue-wait-aware federation strategy of
// Bicer et al. and the transfer-failover resilience of Welborn et al.
// (PAPERS.md). With a single registered facility the registry degenerates
// to today's pinned behavior: every decision lands on that facility and
// the event timeline is unchanged.
package facility

import (
	"fmt"
	"time"

	"picoprobe/internal/netsim"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/sim"
)

// Window is a half-open interval [Start, End) during which a facility is
// unreachable: no new placements are routed to it, and runs placed there
// fail over at their next state entry. Work already executing drains
// normally (in-flight transfers and jobs complete).
type Window struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// Config describes one facility.
type Config struct {
	// ID uniquely names the facility; it is also the ID of the transfer
	// endpoint its data lands on and of its path in an attached
	// link-quality provider.
	ID string
	// Name is the human-readable label.
	Name string
	// Sched sizes the facility's compute node pool.
	Sched scheduler.Config
	// Path is the network route from the instrument to the facility's
	// storage ingest.
	Path []*netsim.Link
	// StreamCapBps is the effective per-transfer stream throughput toward
	// this facility.
	StreamCapBps float64
	// TransferSetup is the per-task fixed transfer cost.
	TransferSetup time.Duration
	// Outages lists planned unavailability windows.
	Outages []Window
}

// Facility is one member of a federation: a compute pool plus the network
// profile used to reach it.
type Facility struct {
	cfg Config
	// Sched is the facility's batch scheduler; the compute executor for
	// this facility submits jobs to it.
	Sched *scheduler.Scheduler
}

// New builds a facility and its scheduler on the given runtime.
func New(rt sim.Runtime, cfg Config) (*Facility, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("facility: config missing ID")
	}
	if cfg.Name == "" {
		cfg.Name = cfg.ID
	}
	return &Facility{cfg: cfg, Sched: scheduler.New(rt, cfg.Sched)}, nil
}

// ID returns the facility's unique identifier.
func (f *Facility) ID() string { return f.cfg.ID }

// Name returns the facility's display name.
func (f *Facility) Name() string { return f.cfg.Name }

// Endpoint returns the transfer endpoint ID data lands on.
func (f *Facility) Endpoint() string { return f.cfg.ID }

// Path returns the network route from the instrument to the facility.
func (f *Facility) Path() []*netsim.Link { return f.cfg.Path }

// PathID returns the facility's path name in a link-quality provider.
func (f *Facility) PathID() string { return f.cfg.ID }

// StreamCap returns the per-transfer stream cap in bits per second.
func (f *Facility) StreamCap() float64 { return f.cfg.StreamCapBps }

// TransferSetup returns the fixed per-task transfer cost.
func (f *Facility) TransferSetup() time.Duration { return f.cfg.TransferSetup }

// Up reports whether the facility is reachable at t (outside every outage
// window).
func (f *Facility) Up(t time.Time) bool {
	for _, w := range f.cfg.Outages {
		if w.Contains(t) {
			return false
		}
	}
	return true
}

// Status is a point-in-time snapshot of one facility, as served by the
// portal's /facilities view.
type Status struct {
	ID       string       `json:"id"`
	Name     string       `json:"name"`
	Up       bool         `json:"up"`
	Nodes    int          `json:"nodes"`
	Busy     int          `json:"busy"`
	Idle     int          `json:"idle"`
	Queued   int          `json:"queue_depth"`
	EstWaitS float64      `json:"est_queue_wait_s"`
	JobsRun  int          `json:"jobs_run"`
	Waits    WaitSummary  `json:"queue_wait"`
	Placed   int          `json:"placements"`
	Failed   int          `json:"failovers_from"`
	Stream   float64      `json:"stream_cap_bps"`
	Outages  []WindowJSON `json:"outages,omitempty"`
	// Quality is the path's smoothed link-quality view; nil when no
	// quality provider is attached (probing disabled) or the path is not
	// yet measured.
	Quality *QualityStatus `json:"quality,omitempty"`
	// Health is the facility's heartbeat liveness verdict; nil when no
	// health monitor is attached or the facility is not watched.
	Health *HealthStatus `json:"health,omitempty"`
}

// QualityStatus is the wire form of a path's link quality.
type QualityStatus struct {
	Score      float64 `json:"score"`
	RTTMs      float64 `json:"rtt_ms"`
	JitterMs   float64 `json:"jitter_ms"`
	Loss       float64 `json:"loss"`
	GoodputBps float64 `json:"goodput_bps"`
	// AgeS is how long ago the last raw sample landed.
	AgeS float64 `json:"last_sample_age_s"`
	// Degraded reports whether the score is below the registry's low-water
	// mark (always false in observe-only mode).
	Degraded bool `json:"degraded"`
}

// HealthStatus is the wire form of a facility's heartbeat verdict.
type HealthStatus struct {
	// State is "up", "suspect" or "down".
	State string `json:"state"`
	// SinceS is how long the facility has held the current state.
	SinceS float64 `json:"since_s"`
	// LastCheckAgeS is how long ago the last check completed.
	LastCheckAgeS float64 `json:"last_check_age_s"`
	// LastErr is the most recent check failure ("" when healthy).
	LastErr string `json:"last_err,omitempty"`
	// Checks/Fails count lifetime checks and failures.
	Checks uint64 `json:"checks"`
	Fails  uint64 `json:"fails"`
	// RTTMs is the most recent successful check's round trip.
	RTTMs float64 `json:"rtt_ms"`
}

// WaitSummary is the queue-wait distribution of completed jobs.
type WaitSummary struct {
	P50S float64 `json:"p50_s"`
	P95S float64 `json:"p95_s"`
	MaxS float64 `json:"max_s"`
}

// WindowJSON is a Window with wire-friendly timestamps.
type WindowJSON struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// snapshot builds the facility's Status at time now. quality and
// health may be nil (probing or heartbeat monitoring disabled).
func (f *Facility) snapshot(now time.Time, placed, failedFrom int, quality *QualityStatus, health *HealthStatus) Status {
	st := f.Sched.Stats()
	w := f.Sched.QueueWaits()
	out := Status{
		ID:       f.cfg.ID,
		Name:     f.cfg.Name,
		Up:       f.Up(now),
		Nodes:    st.Busy + st.Idle + st.Cold + st.Provisioning,
		Busy:     st.Busy,
		Idle:     st.Idle,
		Queued:   st.Queued,
		EstWaitS: f.Sched.EstimateWait().Seconds(),
		JobsRun:  st.JobsRun,
		Placed:   placed,
		Failed:   failedFrom,
		Stream:   f.cfg.StreamCapBps,
	}
	if w.Count() > 0 {
		out.Waits = WaitSummary{
			P50S: w.Percentile(50).Seconds(),
			P95S: w.Percentile(95).Seconds(),
			MaxS: w.Max().Seconds(),
		}
	}
	for _, o := range f.cfg.Outages {
		out.Outages = append(out.Outages, WindowJSON{Start: o.Start, End: o.End})
	}
	out.Quality = quality
	out.Health = health
	return out
}
