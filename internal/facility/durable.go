package facility

import (
	"encoding/json"
	"fmt"
	"io"

	"picoprobe/internal/durable"
)

// journalOp is one journaled registry mutation. The five ops cover
// exactly the state that must survive a restart: sticky placements, data
// landings, and the placement/failover/re-stage counters the federated
// experiment reports.
type journalOp struct {
	Op  string `json:"op"`
	Run string `json:"run,omitempty"`
	Fac string `json:"fac,omitempty"`
	Why string `json:"why,omitempty"` // failover cause: "outage", "budget", "degraded" or "unhealthy"
}

const (
	opDecision = "decision" // one Place call
	opFailover = "failover" // a re-route away from Fac (Why = cause)
	opSticky   = "sticky"   // Run's sticky placement moved to Fac
	opLanding  = "landing"  // Run's staged data initially landed at Fac
	opMove     = "move"     // Run's staged data re-staged to Fac
)

// registryState is the snapshot payload: the full replayable state.
type registryState struct {
	Sticky map[string]string `json:"sticky"`
	Landed map[string]string `json:"landed"`
	Stats  Stats             `json:"stats"`
}

// applyLocked performs op's state change. It is the single mutation path
// shared by live operation and journal replay, so a restored registry is
// field-for-field identical to the one that crashed.
func (r *Registry) applyLocked(op journalOp) {
	switch op.Op {
	case opDecision:
		r.stats.Decisions++
	case opFailover:
		r.stats.Failovers++
		switch cause(op.Why) {
		case causeBudget:
			r.stats.BudgetFailovers++
		case causeDegraded:
			r.stats.DegradedFailovers++
		case causeUnhealthy:
			r.stats.UnhealthyFailovers++
		default:
			r.stats.OutageFailovers++
		}
		r.stats.FailoversFrom[op.Fac]++
	case opSticky:
		r.sticky[op.Run] = op.Fac
		r.stats.RunsByFacility[op.Fac]++
	case opLanding:
		r.landed[op.Run] = op.Fac
	case opMove:
		r.landed[op.Run] = op.Fac
		r.stats.Restages++
	}
}

// noteLocked applies op and, when a journal is attached, appends it.
// Journaling is best-effort: placement must keep working on a full disk,
// so failures surface through JournalErr instead of failing Place.
func (r *Registry) noteLocked(op journalOp) {
	r.applyLocked(op)
	if r.sink != nil && op.Op != opDecision {
		// Placement transitions fan out to the event sink; bare decision
		// ticks carry no run/facility payload and are skipped.
		r.sink(Event{Kind: op.Op, Run: op.Run, Facility: op.Fac, Why: op.Why, At: r.rt.Now()})
	}
	if r.journal == nil {
		return
	}
	raw, err := json.Marshal(op)
	if err == nil {
		_, err = r.journal.Append(raw)
	}
	r.journalErr = err
}

// OpenJournal attaches a durable journal in dir to the registry and
// replays any existing history into it, so sticky placements, landings
// and failover/re-stage counters survive a restart. Call it after Add-ing
// the facilities and before the first Place. Replayed ops may reference
// facilities by ID only, so the facility set need not match exactly — a
// reconfigured federation keeps its history.
func (r *Registry) OpenJournal(dir string, opts durable.Options) (durable.RecoveryStats, error) {
	r.mu.Lock()
	attached := r.journal != nil
	r.mu.Unlock()
	if attached {
		return durable.RecoveryStats{}, fmt.Errorf("facility: journal already attached")
	}
	log, stats, err := durable.Open(dir, opts,
		func(rd io.Reader) error {
			var st registryState
			if err := json.NewDecoder(rd).Decode(&st); err != nil {
				return err
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			for k, v := range st.Sticky {
				r.sticky[k] = v
			}
			for k, v := range st.Landed {
				r.landed[k] = v
			}
			if st.Stats.RunsByFacility == nil {
				st.Stats.RunsByFacility = map[string]int{}
			}
			if st.Stats.FailoversFrom == nil {
				st.Stats.FailoversFrom = map[string]int{}
			}
			r.stats = st.Stats
			return nil
		},
		func(p []byte) error {
			var op journalOp
			if err := json.Unmarshal(p, &op); err != nil {
				return fmt.Errorf("facility: bad journal record: %w", err)
			}
			r.mu.Lock()
			r.applyLocked(op)
			r.mu.Unlock()
			return nil
		})
	if err != nil {
		return stats, err
	}
	r.mu.Lock()
	r.journal = log
	r.mu.Unlock()
	return stats, nil
}

// CompactJournal snapshots the registry's replayable state and reclaims
// the WAL segments it covers.
func (r *Registry) CompactJournal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return fmt.Errorf("facility: no journal attached")
	}
	state := registryState{Sticky: r.sticky, Landed: r.landed, Stats: r.stats}
	return r.journal.Snapshot(func(w io.Writer) error {
		return json.NewEncoder(w).Encode(state)
	})
}

// JournalErr returns the most recent journaling failure (nil after a
// successful append).
func (r *Registry) JournalErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journalErr
}

// CloseJournal flushes and detaches the journal. The registry keeps
// working in memory.
func (r *Registry) CloseJournal() error {
	r.mu.Lock()
	log := r.journal
	r.journal = nil
	r.mu.Unlock()
	if log == nil {
		return nil
	}
	return log.Close()
}
