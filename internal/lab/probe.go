package lab

import (
	"math/rand"
	"time"

	"picoprobe/internal/netprobe"
	"picoprobe/internal/netsim"
	"picoprobe/internal/sim"
)

// This file wires the link-quality subsystem (internal/netprobe) into the
// federated harness: a simulated probe target per facility path, the
// probe/placement/tuning configuration, and the squall specs that make
// the simulated wide-area links degrade mid-experiment. DESIGN.md §10.

// ProbeConfig enables and parameterizes link-quality probing in a
// federated run. The nil ProbeConfig (FederatedConfig.Probe == nil) is
// the degeneracy contract: no prober is built, the registry never sees a
// quality provider, and every placement and timeline is bit-identical to
// a build without the subsystem.
type ProbeConfig struct {
	// LowWater is the score below which a facility sheds new runs
	// (Registry.AttachQuality); <= 0 keeps probing observe-only — scores
	// appear in snapshots and portals but placement is untouched.
	LowWater float64
	// AdaptiveTransfer derives each route's stream count and chunk size
	// from the measured path (netprobe.Tuner) instead of the fixed
	// ParallelStreams/TransferChunkBytes flags, re-evaluated between
	// chunks mid-task.
	AdaptiveTransfer bool
}

// SquallSpec describes one time-varying degradation episode on a
// facility's wide-area link (its WAN link when it has one, its ingest
// link otherwise), relative to the experiment start: capacity collapses
// by CapacityFactor at peak while probes observe Loss, Jitter and
// ExtraRTT, with linear ramps of Ramp on both edges.
type SquallSpec struct {
	Start, End time.Duration
	// Ramp is the build-up and recovery span inside [Start, End]; 0 makes
	// the squall a step.
	Ramp           time.Duration
	CapacityFactor float64
	Loss           float64
	Jitter         time.Duration
	ExtraRTT       time.Duration
}

// degradation converts the spec to a netsim episode anchored at epoch.
func (s SquallSpec) degradation(epoch time.Time) netsim.Degradation {
	return netsim.Degradation{
		Start:          epoch.Add(s.Start),
		End:            epoch.Add(s.End),
		PeakStart:      epoch.Add(s.Start + s.Ramp),
		PeakEnd:        epoch.Add(s.End - s.Ramp),
		CapacityFactor: s.CapacityFactor,
		Loss:           s.Loss,
		Jitter:         s.Jitter,
		ExtraRTT:       s.ExtraRTT,
	}
}

// simProbeTarget measures one facility path by reading the netsim
// conditions at the probe instant — the simulated stand-in for a real
// socket prober behind the netprobe.Target seam. The jitter spread the
// network reports becomes a seeded random draw added to the RTT, so the
// gauge's Welford window reconstructs it as a standard deviation the way
// a real prober would.
type simProbeTarget struct {
	path []*netsim.Link
	rng  *rand.Rand
}

func (t *simProbeTarget) Measure(now time.Time) netprobe.Measurement {
	ps := netsim.PathStateAt(t.path, now)
	rtt := ps.RTT
	if ps.Jitter > 0 {
		// NormFloat64 spread scaled to the path's jitter, folded positive:
		// RTT samples scatter but never undercut the base propagation time.
		d := time.Duration(t.rng.NormFloat64() * float64(ps.Jitter))
		if d < 0 {
			d = -d
		}
		rtt += d
	}
	return netprobe.Measurement{
		RTT:        rtt,
		Loss:       ps.Loss,
		GoodputBps: ps.BottleneckBps * (1 - ps.Loss),
	}
}

// buildProber constructs and registers the per-facility probe targets
// (netprobe's default cadence and score weights; facility i's jitter draws
// are seeded 1+i) plus, when AdaptiveTransfer, one tuner per facility
// endpoint.
func (pc *ProbeConfig) buildProber(rt sim.Runtime, facs []probedFacility) (*netprobe.Prober, map[string]*netprobe.Tuner, error) {
	prober := netprobe.New(rt, netprobe.Config{})
	tuners := map[string]*netprobe.Tuner{}
	for i, f := range facs {
		target := &simProbeTarget{path: f.path, rng: rand.New(rand.NewSource(1 + int64(i)))}
		if _, err := prober.Register(f.pathID, target); err != nil {
			return nil, nil, err
		}
		if pc.AdaptiveTransfer {
			tuners[f.endpoint] = &netprobe.Tuner{
				Quality:            prober,
				PathID:             f.pathID,
				StreamCapBps:       f.streamCap,
				FallbackStreams:    f.fallbackStreams,
				FallbackChunkBytes: f.fallbackChunk,
			}
		}
	}
	return prober, tuners, nil
}

// probedFacility carries the per-facility wiring buildProber needs.
type probedFacility struct {
	pathID, endpoint string
	path             []*netsim.Link
	streamCap        float64
	fallbackStreams  int
	fallbackChunk    int64
}
