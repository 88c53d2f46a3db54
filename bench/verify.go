package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"picoprobe/internal/core"
	"picoprobe/internal/detect"
	"picoprobe/internal/metadata"
)

// reference is what a correct analysis of the workload's template
// yields, computed in set-up by calling the analysis function directly.
type reference struct {
	subjects   []string // hyperspectral: kind, signal and the element list
	detections int      // spatiotemporal: detections summed over frames
	products   int
}

func analyze(wl *workload, path, outDir string) (*core.AnalysisOutput, error) {
	if wl.kind == metadata.KindSpatiotemporal {
		return core.AnalyzeSpatiotemporal(path, outDir, detect.DefaultParams())
	}
	return core.AnalyzeHyperspectral(path, outDir)
}

func referenceAnalysis(wl *workload, path, outDir string) (reference, error) {
	out, err := analyze(wl, path, outDir)
	if err != nil {
		return reference{}, fmt.Errorf("reference analysis: %w", err)
	}
	ref := reference{subjects: out.Experiment.Subjects, products: len(out.Experiment.Products)}
	for _, n := range out.Detections {
		ref.detections += n
	}
	return ref, nil
}

// verifyOutputs checks, untimed, everything the pipeline produced: the
// landed bytes, the catalog, and the analysis results inside the
// records. It returns one line per mismatch.
func verifyOutputs(r *rig, wl *workload, files []*fileRec, ref reference) []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	// Every landed file hashes to its staged SHA-256 and to the digest
	// the transfer task reported.
	reported := map[string]string{}
	for _, view := range r.dep.Transfer.Tasks() {
		for rel, sum := range view.Checksums {
			reported[rel] = sum
		}
	}
	for _, f := range files {
		sum, size, err := hashFile(filepath.Join(r.landRoot, f.name))
		switch {
		case err != nil:
			bad("%s: not landed: %v", f.name, err)
		case sum != f.sha || size != f.size:
			bad("%s: landed bytes differ from staged (%d bytes, sha %.12s; staged %d, %.12s)", f.name, size, sum, f.size, f.sha)
		case reported[f.name] != f.sha:
			bad("%s: transfer task reported checksum %.12q, staged %.12s", f.name, reported[f.name], f.sha)
		}
	}

	// One record per file on top of the seeded catalog, each of the right
	// kind, with products, carrying the reference analysis.
	if got, want := r.dep.Index.Count(), wl.seedRecords+len(files); got != want {
		bad("catalog holds %d records, want %d seeded + %d files", got, wl.seedRecords, len(files))
	}
	for _, f := range files {
		entry, ok := r.dep.Index.Get(f.id, "")
		if !ok {
			bad("%s: record %s missing", f.name, f.id)
			continue
		}
		if kind := entry.Fields["kind"]; kind != wl.kind {
			bad("%s: record kind %q, want %q", f.name, kind, wl.kind)
		}
		var exp metadata.Experiment
		if err := json.Unmarshal(entry.Payload, &exp); err != nil {
			bad("%s: record payload does not parse: %v", f.name, err)
			continue
		}
		if len(exp.Products) == 0 || len(exp.Products) != ref.products {
			bad("%s: record has %d products, reference %d", f.name, len(exp.Products), ref.products)
		}
		if wl.kind == metadata.KindHyperspectral && !slices.Equal(exp.Subjects, ref.subjects) {
			bad("%s: elements %v, reference %v", f.name, exp.Subjects, ref.subjects)
		}
		if wl.kind == metadata.KindSpatiotemporal {
			got, err := sumCounts(filepath.Join(r.outDir, f.id, "counts.csv"))
			if err != nil || got != ref.detections {
				bad("%s: %d detections (%v), reference %d", f.name, got, err, ref.detections)
			}
		}
	}
	return problems
}

// sumCounts totals the per-frame particle counts the spatiotemporal
// analysis wrote beside its videos.
func sumCounts(path string) (int, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	total := 0
	sc := bufio.NewScanner(fh)
	sc.Scan() // header
	for sc.Scan() {
		_, count, ok := strings.Cut(sc.Text(), ",")
		n, err := strconv.Atoi(count)
		if !ok || err != nil {
			return 0, fmt.Errorf("bad row %q", sc.Text())
		}
		total += n
	}
	return total, sc.Err()
}
