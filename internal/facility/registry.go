package facility

import (
	"fmt"
	"sync"
	"time"

	"picoprobe/internal/durable"
	"picoprobe/internal/health"
	"picoprobe/internal/netprobe"
	"picoprobe/internal/sim"
)

// Reason explains a placement decision.
type Reason string

// Placement reasons.
const (
	// ReasonLeastECT is a fresh placement by minimum estimated completion
	// time (transfer estimate + queue-wait estimate).
	ReasonLeastECT Reason = "least-ect"
	// ReasonSticky keeps a run at its previously placed facility.
	ReasonSticky Reason = "sticky"
	// ReasonConstraint honors an explicit facility constraint.
	ReasonConstraint Reason = "constraint"
	// ReasonFailoverOutage re-routes because the target facility is down.
	ReasonFailoverOutage Reason = "failover-outage"
	// ReasonFailoverBudget re-routes because the target's queue-wait
	// estimate exceeds the budget.
	ReasonFailoverBudget Reason = "failover-budget"
	// ReasonFailoverDegraded re-routes because the target path's link
	// score fell below the low-water mark (AttachQuality) — the link is
	// degrading but has not timed anything out yet.
	ReasonFailoverDegraded Reason = "failover-degraded"
	// ReasonFailoverUnhealthy re-routes because the heartbeat monitor
	// declared the target Down (AttachHealth) — a detected outage,
	// treated exactly like a planned one except nobody scheduled it.
	ReasonFailoverUnhealthy Reason = "failover-unhealthy"
)

// Decision is the outcome of one placement call.
type Decision struct {
	Facility *Facility
	Reason   Reason
	// Wait is the chosen facility's queue-wait estimate at decision time.
	Wait time.Duration
	// From names the facility the run was re-routed away from (failovers
	// only).
	From string
}

// Stats aggregates registry activity.
type Stats struct {
	// Decisions counts Place calls.
	Decisions int
	// Failovers counts re-routed placements, split by cause.
	Failovers          int
	OutageFailovers    int
	BudgetFailovers    int
	DegradedFailovers  int
	UnhealthyFailovers int
	// Restages counts runs whose staged data had to move to another
	// facility after a failover.
	Restages int
	// RunsByFacility counts distinct runs routed to each facility; a run
	// that fails over is counted at both its facilities.
	RunsByFacility map[string]int
	// FailoversFrom counts re-routes away from each facility.
	FailoversFrom map[string]int
}

// Registry holds the federation's facilities and places runs across them.
// All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	rt     sim.Runtime
	budget time.Duration
	order  []*Facility
	byID   map[string]*Facility
	sticky map[string]string // run key -> facility ID
	landed map[string]string // run key -> facility holding its staged data
	stats  Stats

	// journal, when attached via OpenJournal, records every mutation so
	// failover history survives a restart; journalErr is the last append
	// failure (see JournalErr).
	journal    *durable.Store
	journalErr error

	// quality, when attached via AttachQuality, scores each facility's
	// path; a facility whose score is below lowWater sheds new runs
	// (lowWater <= 0 keeps quality observe-only).
	quality  netprobe.PathQuality
	lowWater float64

	// health, when attached via AttachHealth, supplies heartbeat
	// liveness verdicts per facility (keyed by PathID, like quality).
	health health.Provider

	// sink, when set via SetEventSink, receives placement transitions
	// (sticky moves, failovers, landings, re-stages) as they commit.
	sink func(Event)
}

// Event is one placement-side status transition, published to the
// optional event sink (the portal's SSE hub fans these out to watching
// clients). Kind mirrors the journal op vocabulary.
type Event struct {
	Kind     string    `json:"kind"` // "sticky" | "failover" | "landing" | "move"
	Run      string    `json:"run,omitempty"`
	Facility string    `json:"facility,omitempty"`
	Why      string    `json:"why,omitempty"` // failover cause
	At       time.Time `json:"at"`
}

// SetEventSink registers fn to receive placement transitions. fn is
// called synchronously while the registry lock is held, so it must be
// fast, must not block, and must not call back into the registry — the
// portal hub's non-blocking Publish satisfies all three.
func (r *Registry) SetEventSink(fn func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = fn
}

// NewRegistry returns an empty registry. budget bounds the queue-wait
// estimate a sticky or constrained target may accumulate before the run
// fails over to the next-best facility; 0 disables budget failover.
func NewRegistry(rt sim.Runtime, budget time.Duration) *Registry {
	return &Registry{
		rt:     rt,
		budget: budget,
		byID:   map[string]*Facility{},
		sticky: map[string]string{},
		landed: map[string]string{},
		stats: Stats{
			RunsByFacility: map[string]int{},
			FailoversFrom:  map[string]int{},
		},
	}
}

// Add registers a facility. Registration order breaks placement ties.
func (r *Registry) Add(f *Facility) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[f.ID()]; dup {
		return fmt.Errorf("facility: duplicate facility %q", f.ID())
	}
	r.byID[f.ID()] = f
	r.order = append(r.order, f)
	return nil
}

// AttachQuality wires a link-quality provider into placement. Each
// facility's path (Config.PathID) is scored by q; a facility whose score
// falls below lowWater sheds *new* runs — fresh placements avoid it and
// sticky or constrained runs fail over with ReasonFailoverDegraded —
// exactly as an outage window does, except the facility itself stays up,
// so work already executing there drains normally. The measured goodput
// also refines the transfer half of the completion-time estimate, so a
// partially degraded path loses placements proportionally even above the
// low-water mark. lowWater <= 0 is observe-only: quality appears in
// Snapshot but placement is untouched. With no quality attached every
// decision is bit-identical to a registry built before this subsystem
// existed.
func (r *Registry) AttachQuality(q netprobe.PathQuality, lowWater float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quality = q
	r.lowWater = lowWater
}

// AttachHealth wires a heartbeat liveness provider into placement. Each
// facility's verdict is read by PathID (the same key quality uses). A
// facility the monitor declares Down is treated exactly like one inside
// a planned outage window: fresh placements skip it and sticky or
// constrained runs fail over with ReasonFailoverUnhealthy (journaled as
// "unhealthy", replayed like every other failover). A Suspect facility
// is soft-avoided the way a degraded path is — new runs go elsewhere
// while any healthy facility is up, but sticky runs stay put, because
// one lost heartbeat is usually a blip and a re-stage is not free. With
// no provider attached every decision is bit-identical to a registry
// built before this subsystem existed.
func (r *Registry) AttachHealth(h health.Provider) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health = h
}

// cause is why a facility should not be handed a run right now. The
// failover Reason is "failover-"+cause and the journal records the cause
// itself, so the vocabulary below is also the on-disk one.
type cause string

const (
	causeNone      cause = ""
	causeOutage    cause = "outage"    // inside a planned outage window
	causeUnhealthy cause = "unhealthy" // the heartbeat monitor declared it Down
	causeDegraded  cause = "degraded"  // path score below the low-water mark
	causeSuspect   cause = "suspect"   // the heartbeat monitor holds it Suspect
	// causeBudget is Place's own check on a sticky or constrained target
	// (queue-wait estimate over the budget), never an availability verdict.
	causeBudget cause = "budget"
)

// hard reports whether the facility is unreachable — skipped outright and
// never stayed on — rather than merely worse than a healthy alternative.
func (c cause) hard() bool { return c == causeOutage || c == causeUnhealthy }

// belowLowWater reports whether a measured path scores under the mark.
// Unmeasured paths never do (healthy until proven otherwise — shedding on
// ignorance would strand a cold-started federation), and lowWater <= 0 is
// observe-only.
func belowLowWater(q netprobe.Quality, lowWater float64) bool {
	return lowWater > 0 && q.Windows > 0 && q.Score < lowWater
}

// availabilityLocked is the one availability verdict: it folds the three
// signal sources — outage windows, the heartbeat provider and the quality
// provider, each read once — into the strongest cause that applies, in
// the precedence outage > unhealthy > degraded > suspect (an outage is
// absolute, a detected outage just as absolute, a measured bad link
// outranks one lost heartbeat). Unwatched and unmeasured facilities are
// available.
func (r *Registry) availabilityLocked(f *Facility, now time.Time) cause {
	if !f.Up(now) {
		return causeOutage
	}
	var hb health.State
	if r.health != nil {
		if st, ok := r.health.Health(f.PathID()); ok {
			hb = st.State
		}
	}
	if hb == health.Down {
		return causeUnhealthy
	}
	if r.quality != nil {
		if q, ok := r.quality.Quality(f.PathID()); ok && belowLowWater(q, r.lowWater) {
			return causeDegraded
		}
	}
	if hb == health.Suspect {
		return causeSuspect
	}
	return causeNone
}

// estimateTransferLocked returns the transfer half of f's completion-time
// estimate, substituting the measured path goodput for the static stream
// cap when it is lower — a degrading link loses placements before it
// crosses the low-water mark.
func (r *Registry) estimateTransferLocked(f *Facility, bytes int64) time.Duration {
	d := f.TransferSetup()
	if bytes <= 0 {
		return d
	}
	rate := f.StreamCap()
	if r.quality != nil {
		if q, ok := r.quality.Quality(f.PathID()); ok && q.Windows > 0 && q.GoodputBps > 0 {
			if rate <= 0 || q.GoodputBps < rate {
				rate = q.GoodputBps
			}
		}
	}
	if rate > 0 {
		d += time.Duration(float64(bytes) * 8 / rate * float64(time.Second))
	}
	return d
}

// Get looks up a facility by ID.
func (r *Registry) Get(id string) (*Facility, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byID[id]
	return f, ok
}

// Facilities returns the registered facilities in registration order.
func (r *Registry) Facilities() []*Facility {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Facility(nil), r.order...)
}

// Place decides where one flow state of run runKey executes. constraint,
// when non-empty, pins the state to a named facility; otherwise the run's
// sticky placement is reused, and a run seen for the first time is placed
// at the facility with the least estimated completion time for moving
// bytes and queueing a job. A sticky or constrained target that is down,
// or whose queue-wait estimate exceeds the budget, triggers failover to
// the next-best up facility (re-routing is recorded and the run's sticky
// placement moves with it); a budget violation moves the run only when
// the destination is itself under budget and waiting less, since a
// re-route also costs a re-stage. Place returns an error only when every
// facility is down.
func (r *Registry) Place(runKey, constraint string, bytes int64) (Decision, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteLocked(journalOp{Op: opDecision})
	now := r.rt.Now()

	want, reason := "", Reason("")
	if constraint != "" {
		want, reason = constraint, ReasonConstraint
	} else if id, ok := r.sticky[runKey]; ok {
		want, reason = id, ReasonSticky
	}
	if want != "" {
		f, ok := r.byID[want]
		if !ok {
			return Decision{}, fmt.Errorf("facility: unknown facility %q", want)
		}
		wait := f.Sched.EstimateWait()
		why := r.availabilityLocked(f, now)
		if why == causeSuspect {
			// Suspect diverts fresh placements only: one lost heartbeat is
			// usually a blip, and moving a placed run costs a re-stage.
			why = causeNone
		}
		if why == causeNone && r.budget > 0 && wait > r.budget {
			why = causeBudget
		}
		if why == causeNone {
			r.commitLocked(runKey, f)
			return Decision{Facility: f, Reason: reason, Wait: wait}, nil
		}
		best, bestWait, bestSoft := r.bestLocked(now, bytes, want)
		switch why {
		case causeBudget:
			// A budget violation only justifies moving when the
			// destination is actually better: under the budget itself and
			// waiting less than the over-budget target. Re-routing to a
			// facility with an even longer queue would add a re-stage on
			// top of a worse wait.
			if best != nil && (bestWait > r.budget || bestWait >= wait) {
				best = nil
			}
		case causeDegraded:
			// A degraded link is soft — the facility still works, just
			// badly. Shed only onto a healthy path; when every alternative
			// is down or equally degraded, staying put beats paying a
			// re-stage for no improvement.
			if bestSoft {
				best = nil
			}
		}
		if best == nil {
			if !why.hard() {
				// Nowhere better to go: stay put rather than stall the run.
				// (Never for an outage or a Down heartbeat verdict — staying
				// on an unreachable facility stalls the run by definition.)
				r.commitLocked(runKey, f)
				return Decision{Facility: f, Reason: reason, Wait: wait}, nil
			}
			return Decision{}, fmt.Errorf("facility: all facilities down at %v", now)
		}
		r.noteLocked(journalOp{Op: opFailover, Fac: want, Why: string(why)})
		r.commitLocked(runKey, best)
		return Decision{Facility: best, Reason: Reason("failover-" + why), Wait: bestWait, From: want}, nil
	}

	best, bestWait, _ := r.bestLocked(now, bytes, "")
	if best == nil {
		return Decision{}, fmt.Errorf("facility: all facilities down at %v", now)
	}
	r.commitLocked(runKey, best)
	return Decision{Facility: best, Reason: ReasonLeastECT, Wait: bestWait}, nil
}

// bestLocked returns the reachable facility (excluding exclude) with the
// least estimated completion time and its queue-wait component, or nil
// when none is reachable. A facility whose verdict is hard (outage, Down)
// is skipped outright. Facilities with a soft verdict (degraded path,
// Suspect heartbeat) are passed over while any fully available facility
// exists; when there is none the least-ECT soft one is returned with
// soft=true — a slow link still beats no link. Ties go to registration
// order. EstimateWait is an O(queue × nodes) replay, so the wait is
// computed once per candidate and returned for reuse.
func (r *Registry) bestLocked(now time.Time, bytes int64, exclude string) (best *Facility, bestWait time.Duration, soft bool) {
	var bestECT time.Duration
	var softBest *Facility
	var softECT, softWait time.Duration
	for _, f := range r.order {
		why := r.availabilityLocked(f, now)
		if f.ID() == exclude || why.hard() {
			continue
		}
		wait := f.Sched.EstimateWait()
		ect := r.estimateTransferLocked(f, bytes) + wait
		if why != causeNone {
			if softBest == nil || ect < softECT {
				softBest, softECT, softWait = f, ect, wait
			}
			continue
		}
		if best == nil || ect < bestECT {
			best, bestECT, bestWait = f, ect, wait
		}
	}
	if best == nil && softBest != nil {
		return softBest, softWait, true
	}
	return best, bestWait, false
}

// commitLocked records the run's (possibly new) sticky placement.
func (r *Registry) commitLocked(runKey string, f *Facility) {
	if r.sticky[runKey] != f.ID() {
		r.noteLocked(journalOp{Op: opSticky, Run: runKey, Fac: f.ID()})
	}
}

// RecordLanding notes that runKey's staged data now lives at facilityID
// (the transfer provider's initial landing), so later states can detect
// cross-facility re-staging. Re-stages themselves go through MoveLanding,
// which also does the accounting.
func (r *Registry) RecordLanding(runKey, facilityID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteLocked(journalOp{Op: opLanding, Run: runKey, Fac: facilityID})
}

// Landed returns the facility holding runKey's staged data ("" if none).
func (r *Registry) Landed(runKey string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.landed[runKey]
}

// MoveLanding atomically relocates runKey's staged data to facilityID and
// reports where it moved from. It returns moved=false — and records
// nothing — when no data has landed yet or it already lives there, so
// concurrent states of one run (a fan-out's parallel branches) charge at
// most one re-stage per physical move.
func (r *Registry) MoveLanding(runKey, facilityID string) (from string, moved bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.landed[runKey]
	if !ok || old == facilityID {
		return "", false
	}
	r.noteLocked(journalOp{Op: opMove, Run: runKey, Fac: facilityID})
	return old, true
}

// Stats returns a copy of the registry's placement counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stats
	out.RunsByFacility = make(map[string]int, len(r.stats.RunsByFacility))
	for k, v := range r.stats.RunsByFacility {
		out.RunsByFacility[k] = v
	}
	out.FailoversFrom = make(map[string]int, len(r.stats.FailoversFrom))
	for k, v := range r.stats.FailoversFrom {
		out.FailoversFrom[k] = v
	}
	return out
}

// Snapshot returns every facility's current Status in registration order.
func (r *Registry) Snapshot() []Status {
	r.mu.Lock()
	order := append([]*Facility(nil), r.order...)
	placed := make(map[string]int, len(r.stats.RunsByFacility))
	for k, v := range r.stats.RunsByFacility {
		placed[k] = v
	}
	failed := make(map[string]int, len(r.stats.FailoversFrom))
	for k, v := range r.stats.FailoversFrom {
		failed[k] = v
	}
	now := r.rt.Now()
	quality, lowWater := r.quality, r.lowWater
	hp := r.health
	r.mu.Unlock()
	out := make([]Status, 0, len(order))
	for _, f := range order {
		var qs *QualityStatus
		if quality != nil {
			if q, ok := quality.Quality(f.PathID()); ok {
				qs = &QualityStatus{
					Score:      q.Score,
					RTTMs:      q.RTT.Seconds() * 1e3,
					JitterMs:   q.Jitter.Seconds() * 1e3,
					Loss:       q.Loss,
					GoodputBps: q.GoodputBps,
					Degraded:   belowLowWater(q, lowWater),
				}
				if !q.LastSample.IsZero() {
					qs.AgeS = now.Sub(q.LastSample).Seconds()
				}
			}
		}
		var hs *HealthStatus
		if hp != nil {
			if h, ok := hp.Health(f.PathID()); ok {
				hs = &HealthStatus{
					State:   h.State.String(),
					LastErr: h.LastErr,
					Checks:  h.Checks,
					Fails:   h.Fails,
					RTTMs:   h.LastRTT.Seconds() * 1e3,
				}
				if !h.Since.IsZero() {
					hs.SinceS = now.Sub(h.Since).Seconds()
				}
				if !h.LastCheck.IsZero() {
					hs.LastCheckAgeS = now.Sub(h.LastCheck).Seconds()
				}
			}
		}
		out = append(out, f.snapshot(now, placed[f.ID()], failed[f.ID()], qs, hs))
	}
	return out
}
