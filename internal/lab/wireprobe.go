package lab

import (
	"time"

	"picoprobe/internal/netprobe"
	"picoprobe/internal/wire"
)

// DefaultProbeFill is the opaque payload a ProbeTarget requests per
// goodput sample: big enough to dominate per-frame overhead on a real
// path, small enough that a probe round stays far cheaper than a chunk.
const DefaultProbeFill = 256 << 10

// ProbeTarget adapts a facility daemon's status endpoint to
// netprobe.Target: one Measure is a bare status round trip (RTT) plus a
// filled one (goodput). A failed round — dead socket, timeout, torn
// frame — reports Loss 1 with no RTT sample, which is exactly how the
// prober's loss dimension learns a path has gone dark.
type ProbeTarget struct {
	// Client talks to the daemon. Give it a short Timeout (seconds, not
	// DefaultTimeout) so a dead facility costs one probe interval, not
	// thirty.
	Client *wire.Client
	// Fill is the goodput payload size (0 = DefaultProbeFill).
	Fill int
}

// NewProbeTarget builds a probe target for one daemon address with a
// probe-appropriate 2s timeout.
func NewProbeTarget(addr, token string) *ProbeTarget {
	return &ProbeTarget{Client: &wire.Client{Addr: addr, Token: token, Timeout: 2 * time.Second}}
}

// Measure implements netprobe.Target against the daemon's status
// endpoint.
func (t *ProbeTarget) Measure(now time.Time) netprobe.Measurement {
	fill := t.Fill
	if fill <= 0 {
		fill = DefaultProbeFill
	}
	start := time.Now()
	if _, _, err := t.Client.Status(0); err != nil {
		return netprobe.Measurement{Loss: 1}
	}
	rtt := time.Since(start)

	start = time.Now()
	_, got, err := t.Client.Status(fill)
	if err != nil || got == 0 {
		// The bare round trip succeeded, so the path is up; report the
		// RTT but no goodput sample rather than a fake zero.
		return netprobe.Measurement{RTT: rtt}
	}
	dur := time.Since(start)
	if dur <= 0 {
		dur = time.Nanosecond
	}
	return netprobe.Measurement{
		RTT:        rtt,
		GoodputBps: float64(got*8) / dur.Seconds(),
	}
}
