// Command picoprobe-experiment regenerates the paper's evaluation (Table 1
// and the Fig 4 stage decomposition) on the simulated facility, printing
// measured values side by side with the published ones. With -facilities
// N > 1 it runs the federated evaluation instead: flows are placed across
// N facilities by least estimated completion time (queue-wait aware),
// with sticky placement and automatic failover; -outage takes the primary
// facility down mid-experiment, -pin restores the single-implicit-backend
// baseline over the same facility set, and -budget bounds the queue wait
// a placed run tolerates before failing over.
//
// Usage:
//
// -squall degrades the primary facility's wide-area link mid-experiment
// (capacity collapse plus probe-visible loss/jitter/bufferbloat) instead
// of taking the facility down; -probe attaches link-quality probing so
// placement sheds the degraded path, -lowwater tunes the shed threshold,
// and -adaptive derives each transfer's stream count and chunk size from
// the measured path instead of fixed flags. -degraded runs the canned
// WAN-squall scenario (lab.FederatedDegradedScenario) in both arms and
// prints them side by side.
//
//	picoprobe-experiment [-kind both|hyperspectral|spatiotemporal]
//	    [-duration 1h] [-policy exponential|constant|linear|push]
//	    [-split] [-noreuse] [-detail]
//	    [-facilities 1] [-pin] [-outage] [-budget 0]
//	    [-squall] [-probe] [-lowwater 50] [-adaptive] [-degraded]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
)

func main() {
	kind := flag.String("kind", "both", "hyperspectral, spatiotemporal or both")
	duration := flag.Duration("duration", time.Hour, "experiment window")
	policy := flag.String("policy", "exponential", "polling policy: exponential, constant, linear or push")
	split := flag.Bool("split", false, "run metadata extraction and image processing as separate compute states (ablation)")
	noreuse := flag.Bool("noreuse", false, "release compute nodes after every task (ablation)")
	detail := flag.Bool("detail", false, "print the per-stage Fig 4 decomposition")
	facilities := flag.Int("facilities", 1, "number of simulated facilities (1-3); >1 enables federated placement")
	pin := flag.Bool("pin", false, "pin every flow to the first facility (the single-backend baseline ablation)")
	outage := flag.Bool("outage", false, "take the primary facility down from minute 20:30 to 40:00")
	budget := flag.Duration("budget", 0, "queue-wait budget before a placed run fails over (0 = disabled)")
	squall := flag.Bool("squall", false, "degrade the primary facility's WAN link from minute 5 to 15 (capacity collapse + probe-visible loss/jitter)")
	probe := flag.Bool("probe", false, "attach link-quality probing; placement sheds paths scoring below -lowwater")
	lowWater := flag.Float64("lowwater", 50, "link score below which a facility sheds new runs (with -probe; 0 = observe-only)")
	adaptive := flag.Bool("adaptive", false, "derive transfer streams and chunk size from measured path quality (requires -probe)")
	degraded := flag.Bool("degraded", false, "run the canned WAN-squall scenario in both arms (static vs probe-aware) and exit")
	wireMode := flag.Bool("wire", false, "run a federated campaign over real sockets: spawn -wire-facilities localhost facility daemons and move every byte over TCP")
	wireFacilities := flag.Int("wire-facilities", 2, "daemons to spawn with -wire")
	wireFiles := flag.Int("wire-files", 6, "files in the -wire campaign")
	wireDegrade := flag.Duration("wire-degrade", 0, "with -wire and -probe: inject this read delay on facility 0 and show the probe seeing it")
	wireHealth := flag.Bool("wire-health", false, "with -wire: heartbeat-monitor every daemon and wire Up/Suspect/Down verdicts into placement")
	flag.Parse()

	if *wireMode {
		wireKind := *kind
		if wireKind == "both" {
			wireKind = "hyperspectral"
		}
		dir, err := os.MkdirTemp("", "picoprobe-wire-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		res, err := lab.RunWireCampaign(lab.WireCampaignConfig{
			Facilities: *wireFacilities,
			Files:      *wireFiles,
			Kind:       wireKind,
			Probe:      *probe,
			Health:     *wireHealth,
			Degrade:    *wireDegrade,
			Dir:        dir,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(lab.FormatWireCampaign(res))
		return
	}

	var pol flows.Policy
	switch *policy {
	case "exponential":
		pol = flows.DefaultExponential()
	case "constant":
		pol = flows.Constant{Interval: time.Second}
	case "linear":
		pol = flows.Linear{Step: time.Second, Cap: time.Minute}
	case "push":
		pol = flows.Push{Latency: 100 * time.Millisecond}
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	if *degraded {
		// The label is output a parent/change cmp pins: it keeps the scenario's
		// pre-move name.
		fmt.Println("WAN-squall scenario (core.FederatedDegradedScenario): static placement vs probe-aware shedding")
		for _, arm := range []bool{false, true} {
			res, err := lab.RunFederatedExperiment(lab.FederatedDegradedScenario(arm))
			if err != nil {
				log.Fatal(err)
			}
			label := "static"
			if arm {
				label = "probe-aware (lowwater 50, adaptive transfer)"
			}
			fmt.Printf("\n--- %s ---\n", label)
			fmt.Println(lab.FormatFacilities(res))
		}
		os.Exit(0)
	}
	if *adaptive && !*probe {
		log.Fatal("-adaptive requires -probe: the tuner has no measurements to derive framing from")
	}
	if *squall && *facilities < 2 {
		log.Fatal("-squall requires -facilities >= 2: degrading the only facility's path leaves placement nowhere to shed to")
	}
	if *outage && *facilities < 2 {
		log.Fatal("-outage requires -facilities >= 2: taking down the only facility has nowhere to fail over and simply fails the runs launched during the window")
	}
	if *pin && *budget > 0 {
		log.Fatal("-pin and -budget are contradictory: budget failover re-routes pinned runs, so the numbers would no longer measure the single-backend baseline")
	}
	federated := *facilities > 1 || *pin || *outage || *budget > 0 || *squall || *probe
	run := func(cfg lab.ExperimentConfig) *lab.FederatedResult {
		cfg.Duration = *duration
		cfg.Policy = pol
		cfg.SplitCompute = *split
		cfg.DisableNodeReuse = *noreuse
		fcfg := lab.FederatedConfig{
			ExperimentConfig: cfg,
			Facilities:       lab.DefaultFederationSpecs(*facilities),
			QueueWaitBudget:  *budget,
		}
		if *outage {
			fcfg.Facilities[0].OutageStart = 20*time.Minute + 30*time.Second
			fcfg.Facilities[0].OutageEnd = 40 * time.Minute
		}
		if *squall {
			fcfg.Facilities[0].Squalls = []lab.SquallSpec{{
				Start: 5 * time.Minute, End: 15 * time.Minute, Ramp: 2 * time.Minute,
				CapacityFactor: 0.004, Loss: 0.08,
				Jitter: 60 * time.Millisecond, ExtraRTT: 150 * time.Millisecond,
			}}
		}
		if *probe {
			fcfg.Probe = &lab.ProbeConfig{LowWater: *lowWater, AdaptiveTransfer: *adaptive}
		}
		if *pin {
			fcfg.PinTo = fcfg.Facilities[0].ID
		}
		res, err := lab.RunFederatedExperiment(fcfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	var rows []lab.Table1Row
	var details, federation []string
	collect := func(label string, cfg lab.ExperimentConfig, paper lab.Table1Row) {
		res := run(cfg)
		rows = append(rows, res.Table1(), paper)
		details = append(details, lab.FormatStages(label, res.Stages()))
		if federated {
			federation = append(federation, lab.FormatFacilities(res))
		}
	}
	if *kind == "both" || *kind == "hyperspectral" {
		collect("hyperspectral", lab.HyperspectralExperiment(), lab.PaperTable1Hyperspectral)
	}
	if *kind == "both" || *kind == "spatiotemporal" {
		collect("spatiotemporal", lab.SpatiotemporalExperiment(), lab.PaperTable1Spatiotemporal)
	}
	if len(rows) == 0 {
		log.Fatalf("unknown kind %q", *kind)
	}

	fmt.Printf("Simulated %v evaluation (policy=%s split=%v noreuse=%v facilities=%d pin=%v outage=%v budget=%v squall=%v probe=%v adaptive=%v)\n\n",
		*duration, *policy, *split, *noreuse, *facilities, *pin, *outage, *budget, *squall, *probe, *adaptive)
	fmt.Println(lab.FormatTable1(rows...))
	if *detail {
		for _, d := range details {
			fmt.Println()
			fmt.Println(d)
		}
	}
	for _, f := range federation {
		fmt.Println()
		fmt.Println(f)
	}
	os.Exit(0)
}
