package flows

import (
	"fmt"
	"time"
)

// TypedStatus is the strongly typed counterpart of ActionStatus: a
// provider's report with its result still in struct form.
type TypedStatus[R any] struct {
	State  State
	Result R
	Error  string
	// Started/Completed bound the provider-side active window.
	Started   time.Time
	Completed time.Time
}

// TypedProvider adapts a strongly typed action implementation to the
// engine's map-based ActionProvider wire interface. A service declares
// its param and result structs once — with the same json-tagged fields
// the v1 providers documented as map keys — and the codec replaces the
// per-provider type-switch coercion: incoming params are Unpacked into P
// (with weak numeric conversion), outgoing results are Packed from R.
type TypedProvider[P, R any] struct {
	name   string
	invoke func(token string, params P) (string, error)
	status func(token, actionID string) (TypedStatus[R], error)
	watch  func(actionID string, done func())
}

// NewTypedProvider wraps typed invoke/status implementations as an
// ActionProvider named name.
func NewTypedProvider[P, R any](
	name string,
	invoke func(token string, params P) (string, error),
	status func(token, actionID string) (TypedStatus[R], error),
) *TypedProvider[P, R] {
	return &TypedProvider[P, R]{name: name, invoke: invoke, status: status}
}

// WithWatch gives the provider a completion signal: watch calls done
// exactly once, once the action's terminal status is readable (at once if
// it already is). Without one the provider is polled.
func (p *TypedProvider[P, R]) WithWatch(watch func(actionID string, done func())) *TypedProvider[P, R] {
	p.watch = watch
	return p
}

// Watch implements Watcher: it reports false when the provider has no
// watch function.
func (p *TypedProvider[P, R]) Watch(actionID string, done func()) bool {
	if p.watch == nil {
		return false
	}
	p.watch(actionID, done)
	return true
}

// Name implements ActionProvider.
func (p *TypedProvider[P, R]) Name() string { return p.name }

// Invoke implements ActionProvider: it decodes the wire params into P
// and hands them to the typed implementation.
func (p *TypedProvider[P, R]) Invoke(token string, params map[string]any) (string, error) {
	var tp P
	if err := Unpack(params, &tp); err != nil {
		return "", fmt.Errorf("flows: %s params: %w", p.name, err)
	}
	return p.invoke(token, tp)
}

// Status implements ActionProvider: it encodes the typed result back
// onto the wire.
func (p *TypedProvider[P, R]) Status(token, actionID string) (ActionStatus, error) {
	ts, err := p.status(token, actionID)
	if err != nil {
		return ActionStatus{}, err
	}
	return ActionStatus{
		State:     ts.State,
		Result:    Pack(ts.Result),
		Error:     ts.Error,
		Started:   ts.Started,
		Completed: ts.Completed,
	}, nil
}
