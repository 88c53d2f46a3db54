package wire

import (
	"time"
)

// HealthTarget adapts a facility daemon's status endpoint to the
// health monitor's Target: one Check is one authenticated status round
// trip. It is the liveness sibling of lab.ProbeTarget — the prober asks
// "how good is this path", the health check asks only "does anyone
// answer" — and shares the short-timeout discipline: the Client's
// Timeout bounds the check, so a hung daemon costs one short deadline
// per probe interval, never a transfer-sized timeout.
type HealthTarget struct {
	// Client talks to the daemon; its Timeout bounds one check.
	Client *Client
}

// DefaultHealthTimeout bounds one liveness check. It must sit well
// under any transfer attempt timeout — detection has to win the race
// against the first burned attempt (DESIGN.md §12).
const DefaultHealthTimeout = 2 * time.Second

// NewHealthTarget builds a liveness check for one daemon address with
// the check-appropriate short timeout.
func NewHealthTarget(addr, token string) *HealthTarget {
	return &HealthTarget{Client: &Client{Addr: addr, Token: token, Timeout: DefaultHealthTimeout}}
}

// Check implements health.Target: a bare status exchange. Any failure
// — refused dial, dead socket, torn frame, deadline — is a liveness
// failure; the health monitor's hysteresis decides what it means.
func (t *HealthTarget) Check() error {
	_, _, err := t.Client.Status(0)
	return err
}

// Close drops the target's pooled sessions.
func (t *HealthTarget) Close() error { return t.Client.Close() }
