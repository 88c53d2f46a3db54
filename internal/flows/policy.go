package flows

import (
	"math"
	"time"
)

// Policy decides how long to wait before the n-th status poll of an action
// (n starts at 0). Policies must be stateless: the engine resets n per
// action.
type Policy interface {
	Name() string
	Next(poll int) time.Duration
}

// Exponential is the paper's production policy: the interval starts at
// Initial and multiplies by Factor each poll, capped at Cap. The paper
// measures this policy (1 s doubling to 10 min) causing 49.2% / 21.1%
// median overhead on the two flows.
type Exponential struct {
	Initial time.Duration
	Factor  float64
	Cap     time.Duration
}

// DefaultExponential returns the deployed Globus policy from the paper.
func DefaultExponential() Exponential {
	return Exponential{Initial: time.Second, Factor: 2, Cap: 10 * time.Minute}
}

// Name implements Policy.
func (e Exponential) Name() string { return "exponential" }

// Next implements Policy.
func (e Exponential) Next(poll int) time.Duration {
	d := float64(e.Initial) * math.Pow(e.Factor, float64(poll))
	if d > float64(e.Cap) {
		return e.Cap
	}
	return time.Duration(d)
}

// Constant polls at a fixed interval — the chatty lower bound on detection
// lag at the cost of many service round trips.
type Constant struct{ Interval time.Duration }

// Name implements Policy.
func (c Constant) Name() string { return "constant" }

// Next implements Policy.
func (c Constant) Next(int) time.Duration { return c.Interval }

// Linear grows the interval by Step each poll up to Cap.
type Linear struct {
	Step time.Duration
	Cap  time.Duration
}

// Name implements Policy.
func (l Linear) Name() string { return "linear" }

// Next implements Policy.
func (l Linear) Next(poll int) time.Duration {
	d := time.Duration(poll+1) * l.Step
	if l.Cap > 0 && d > l.Cap {
		return l.Cap
	}
	return d
}

// Push idealizes an event-driven (webhook/AMQP) completion signal: the
// engine learns of completion one notification latency after it happens.
// It bounds how much of the paper's measured overhead a push-based flows
// service could recover. Push is also the one policy under which the
// engine takes real signals: an action whose provider is a Watcher is
// read as soon as it signals, and Latency is the poll interval of the
// actions whose providers cannot signal.
type Push struct{ Latency time.Duration }

// Name implements Policy.
func (p Push) Name() string { return "push" }

// Next implements Policy.
func (p Push) Next(int) time.Duration {
	if p.Latency <= 0 {
		return 50 * time.Millisecond
	}
	return p.Latency
}
