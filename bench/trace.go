package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval. Spans of one file share its record ID as
// the trace identifier; parent names the span that caused this one.
type span struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // Unix nanoseconds
	End    int64  `json:"end"`
}

func (s span) interval() interval { return interval{time.Unix(0, s.Start), time.Unix(0, s.End)} }

// buildSpans records, for every measured file, the boundary stamps the
// harness owns and the state windows of the run record:
//
//	file ⊃ watcher.settle, watcher.batch_wait,
//	       flows.run ⊃ {transfer, analysis, publication}, portal.visible
//
// It also checks that the blocking chain tiles the file span — settle,
// batch wait, batch → publication completed, publication → visible — and
// leaves each part's mean share of time-to-queryable in res.shares.
func buildSpans(r *rig, byFile map[string]fileBatch, files []*fileRec, res *result) []span {
	var spans []span
	sums := map[string]float64{}
	counted := 0
	for _, f := range files {
		fb, ok := byFile[f.name]
		ev, stamped := r.announced(f.name)
		if !ok || !stamped || f.failed || fb.b.err != nil {
			continue
		}
		add := func(name, parent string, start, end time.Time) {
			spans = append(spans, span{
				Trace: f.id, Span: f.id + "/" + name, Parent: parent, Name: name,
				Start: start.UnixNano(), End: end.UnixNano(),
			})
		}
		root := f.id + "/file"
		add("file", "", f.due, f.visible)
		add("watcher.settle", root, f.due, ev)
		add("watcher.batch_wait", root, ev, fb.b.received)
		add("flows.run", root, fb.b.received, fb.b.done)
		run := f.id + "/flows.run"
		if s, ok := state(fb.b.rec, "Transfer"); ok {
			add("transfer", run, s.Started, s.Completed)
		}
		if s, ok := state(fb.b.rec, fmt.Sprintf("Analysis-%02d", fb.idx)); ok {
			add("analysis", run, s.Started, s.Completed)
		}
		published := fb.b.received
		if s, ok := state(fb.b.rec, "Publication"); ok {
			published = r.toWall(s.Completed)
			add("publication", run, r.toWall(s.Started), published)
		}
		add("portal.visible", root, published, f.visible)

		parts := map[string]time.Duration{
			"watcher.settle":     ev.Sub(f.due),
			"watcher.batch_wait": fb.b.received.Sub(ev),
			"flows.to_publish":   published.Sub(fb.b.received),
			"portal.visible":     f.visible.Sub(published),
		}
		total := f.visible.Sub(f.due)
		var sum time.Duration
		for name, d := range parts {
			sum += d
			if d < -pollStep {
				res.problems = append(res.problems, fmt.Sprintf("%s: span %s runs backwards (%v)", f.name, name, d))
			}
			sums[name] += float64(d) / float64(total)
		}
		if gap := (total - sum).Abs(); gap > pollStep {
			res.problems = append(res.problems, fmt.Sprintf("%s: blocking chain misses the file span by %v", f.name, gap))
		}
		counted++
	}
	res.shares = map[string]float64{}
	for name, s := range sums {
		res.shares[name] = 100 * s / float64(counted)
	}
	return spans
}

// spanSelfTimes is each span's duration minus the part its children
// cover, keyed by span identifier.
func spanSelfTimes(spans []span) map[string]time.Duration {
	children := map[string][]interval{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	self := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		self[s.Span] = selfTime(s.interval(), children[s.Span])
	}
	return self
}

// writeTrace dumps the spans, each with its self time, when the run ends.
func writeTrace(path string, spans []span) error {
	self := spanSelfTimes(spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, int64(self[s.Span])}
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
