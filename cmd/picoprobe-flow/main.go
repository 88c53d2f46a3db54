// Command picoprobe-flow runs one live end-to-end data flow on a local EMD
// file: transfer to the storage root, analysis on the landed copy,
// publication to the search index. With -flow fanout the analysis and a
// thumbnail render run concurrently after the transfer (the DAG flow).
// It prints the executed DAG with per-state timings and the produced
// artifacts.
//
// With -facility the transfer and compute states carry an explicit
// facility constraint (flows.StateDef.Facility): federation-aware
// providers honor it, and the single-facility live deployment validates
// it against its one facility.
//
// Usage:
//
//	picoprobe-flow -kind hyperspectral -file sample.emdg [-flow fanout]
//	    [-facility alcf-eagle] [-workdir ./picoprobe-work]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"picoprobe/internal/core"
	"picoprobe/internal/flows"
)

func main() {
	kind := flag.String("kind", "hyperspectral", "hyperspectral or spatiotemporal")
	file := flag.String("file", "", "EMD file to process (required)")
	flowShape := flag.String("flow", "linear", "flow shape: linear (Transfer→Analysis→Publication) or fanout (Transfer→{Analysis∥Thumbnail}→Publication)")
	facilityID := flag.String("facility", "", "facility constraint for the transfer/compute states (live deployments have one facility: "+core.EndpointEagle+")")
	workdir := flag.String("workdir", "picoprobe-work", "working directory (instrument/eagle/artifact roots)")
	flag.Parse()
	if *file == "" {
		log.Fatal("-file is required (generate one with picoprobe-datagen)")
	}

	instrument := filepath.Join(*workdir, "instrument")
	eagle := filepath.Join(*workdir, "eagle")
	outDir := filepath.Join(*workdir, "artifacts")
	dep, err := core.NewLiveDeployment(core.LiveOptions{
		InstrumentRoot: instrument,
		EagleRoot:      eagle,
		OutDir:         outDir,
	})
	if err != nil {
		log.Fatal(err)
	}

	var def flows.Definition
	switch *flowShape {
	case "linear":
		def = dep.LiveDefinition(*kind)
	case "fanout":
		def = dep.FanOutDefinition(*kind)
	default:
		log.Fatalf("unknown -flow %q (want linear or fanout)", *flowShape)
	}
	if *facilityID != "" {
		if *facilityID != core.EndpointEagle {
			log.Fatalf("unknown facility %q (this live deployment has one facility: %s)", *facilityID, core.EndpointEagle)
		}
		for i := range def.States {
			if def.States[i].Provider != "search" {
				def.States[i].Facility = *facilityID
			}
		}
		fmt.Printf("placement: constrained to facility %s\n", *facilityID)
	}

	// Stage the file into the instrument's transfer directory, as the
	// acquisition software would.
	rel := filepath.Base(*file)
	if err := copyFile(*file, filepath.Join(instrument, rel)); err != nil {
		log.Fatal(err)
	}

	rec, err := dep.RunDefinition(def, rel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow %s (%s) %s in %v\n", rec.RunID, rec.Flow, rec.Status, rec.Runtime().Round(1e6))
	for _, st := range rec.States {
		after := "-"
		if len(st.After) > 0 {
			after = strings.Join(st.After, ",")
		}
		fmt.Printf("  %-12s after=%-20s action=%s active=%v overhead=%v polls=%d\n",
			st.Name, after, st.ActionID, st.Active().Round(1e6), st.Overhead().Round(1e6), st.Polls)
	}
	stats := dep.Engine.PollStats()
	fmt.Printf("completion detection: %d wakeups, %d sweeps, %d status calls, %d signals\n",
		stats.Wakeups, stats.Sweeps, stats.StatusCalls, stats.Signals)
	fmt.Printf("indexed records: %d\n", dep.Index.Count())
	fmt.Printf("artifacts under %s:\n", outDir)
	filepath.Walk(outDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			fmt.Printf("  %s (%d bytes)\n", path, info.Size())
		}
		return nil
	})
}

func copyFile(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
