package lab

import (
	"fmt"
	"maps"
	"strings"
	"sync"

	"picoprobe/internal/compute"
	"picoprobe/internal/core"
	"picoprobe/internal/facility"
	"picoprobe/internal/flows"
)

// Placement is a wrapper around the plain transfer and compute providers,
// not a second provider pair: Invoke asks the facility registry where the
// run belongs (sticky, constrained, or least-ECT — DESIGN.md §6), routes
// the params there and delegates; Status delegates and adds where the
// action went and why. A deployment with one facility registers the plain
// providers and never pays for any of this.

// placementKeys are the params the wrapper reads; everything else passes
// through to the plain provider untouched.
type placementKeys struct {
	// Run is the placement key shared by all states of one flow run.
	Run string `json:"run"`
	// Facility optionally pins the state (normally injected from
	// StateDef.Facility).
	Facility string `json:"facility"`
	// Bytes sizes a transfer for the completion-time estimate.
	Bytes int64 `json:"bytes"`
	// Args are a compute action's function arguments.
	Args compute.Args `json:"args"`
}

// placer is what both wrappers share: the registry, and per action the
// result keys Status adds (facility, placement, failed_over_from,
// restaged_bytes).
type placer struct {
	reg   *facility.Registry
	mu    sync.Mutex
	notes map[string]map[string]any
}

func (p *placer) place(params map[string]any) (placementKeys, facility.Decision, error) {
	var k placementKeys
	if err := flows.Unpack(params, &k); err != nil {
		return k, facility.Decision{}, err
	}
	if k.Run == "" {
		return k, facility.Decision{}, fmt.Errorf("core: placed params need run")
	}
	dec, err := p.reg.Place(k.Run, k.Facility, k.Bytes)
	return k, dec, err
}

// remember notes the decision behind actionID; restaged is the data volume
// re-staged from the facility the transfer landed on, when the run failed
// over in between.
func (p *placer) remember(actionID string, dec facility.Decision, restaged int64) {
	note := map[string]any{"facility": dec.Facility.ID(), "placement": string(dec.Reason)}
	if dec.From != "" {
		note["failed_over_from"] = dec.From
	}
	if restaged > 0 {
		note["restaged_bytes"] = restaged
	}
	p.mu.Lock()
	p.notes[actionID] = note
	p.mu.Unlock()
}

// annotate merges the action's note into the plain provider's result. A
// resumed run polls through a freshly built wrapper that never saw the
// action: the task is still valid, only the annotation is blank (facID,
// when the action ID carries it, still names the facility).
func (p *placer) annotate(actionID, facID string, st flows.ActionStatus) flows.ActionStatus {
	st.Result["facility"], st.Result["placement"] = facID, ""
	p.mu.Lock()
	maps.Copy(st.Result, p.notes[actionID])
	p.mu.Unlock()
	return st
}

// placedTransfer routes each transfer to the placed facility's endpoint
// and records the landing for later re-stage accounting.
type placedTransfer struct {
	placer
	inner flows.ActionProvider
}

func (t *placedTransfer) Name() string { return "transfer" }

func (t *placedTransfer) Invoke(token string, params map[string]any) (string, error) {
	k, dec, err := t.place(params)
	if err != nil {
		return "", err
	}
	routed := maps.Clone(params)
	routed["dst"] = dec.Facility.Endpoint()
	id, err := t.inner.Invoke(token, routed)
	if err != nil {
		return "", err
	}
	t.reg.RecordLanding(k.Run, dec.Facility.ID())
	t.remember(id, dec, 0)
	return id, nil
}

func (t *placedTransfer) Status(token, actionID string) (flows.ActionStatus, error) {
	st, err := t.inner.Status(token, actionID)
	if err != nil {
		return st, err
	}
	return t.annotate(actionID, "", st), nil
}

// placedCompute submits each compute action to the placed facility's
// backend (normally sticky with the run's transfer). Action IDs take the
// form "<facility>/<backend task>" so Status finds the backend again.
type placedCompute struct {
	placer
	inner map[string]flows.ActionProvider // by facility ID
}

func (c *placedCompute) Name() string { return "compute" }

func (c *placedCompute) Invoke(token string, params map[string]any) (string, error) {
	k, dec, err := c.place(params)
	if err != nil {
		return "", err
	}
	facID := dec.Facility.ID()
	inner, ok := c.inner[facID]
	if !ok {
		return "", fmt.Errorf("core: no compute service for facility %q", facID)
	}
	routed := maps.Clone(params)
	var restaged int64
	// Atomic move: concurrent sibling states (fan-out branches) charge at
	// most one re-stage per physical relocation. The re-staged volume is
	// what actually landed (the wire bytes, post-compression), not the
	// uncompressed analysis size; the "restage_bytes" argument lets the
	// cost model charge the cross-facility copy.
	if _, moved := c.reg.MoveLanding(k.Run, facID); moved {
		b, _ := k.Args["staged_bytes"].(float64)
		if b <= 0 {
			b, _ = k.Args["bytes"].(float64)
		}
		if b > 0 {
			args := maps.Clone(k.Args)
			args["restage_bytes"] = b
			routed["args"] = args
			restaged = int64(b)
		}
	}
	id, err := inner.Invoke(token, routed)
	if err != nil {
		return "", err
	}
	actionID := facID + "/" + id
	c.remember(actionID, dec, restaged)
	return actionID, nil
}

func (c *placedCompute) Status(token, actionID string) (flows.ActionStatus, error) {
	facID, rest, _ := strings.Cut(actionID, "/")
	inner, ok := c.inner[facID]
	if !ok {
		return flows.ActionStatus{}, fmt.Errorf("core: no facility for placed action %q", actionID)
	}
	st, err := inner.Status(token, rest)
	if err != nil {
		return st, err
	}
	return c.annotate(actionID, facID, st), nil
}

// placedProviders wraps the plain transfer provider and one plain compute
// provider per facility backend with placement by reg.
func placedProviders(transfer flows.ActionProvider, backends map[string]core.ComputeBackend, reg *facility.Registry) (flows.ActionProvider, flows.ActionProvider) {
	inner := make(map[string]flows.ActionProvider, len(backends))
	for id, b := range backends {
		inner[id] = core.NewComputeProvider(b)
	}
	return &placedTransfer{placer{reg: reg, notes: map[string]map[string]any{}}, transfer},
		&placedCompute{placer{reg: reg, notes: map[string]map[string]any{}}, inner}
}
