package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0, 1}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// A percentile is trusted only with at least ten samples beyond it.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{100, 0.90, 10}, {99, 0.90, 9}, {48, 0.90, 4}, {120, 0.90, 12}, {1000, 0.99, 10}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	if note := tailNote(100, 0.90); note != "" {
		t.Errorf("100 samples at p90 flagged: %q", note)
	}
	if note := tailNote(48, 0.90); note == "" {
		t.Error("48 samples at p90 not flagged as a thin tail")
	}
	// The steady workloads must stay above the rule at the ledger's run
	// length; the bursts are allowed to be thin and say so.
	for _, wl := range workloads {
		if wl.openLoop() && samplesBeyond(wl.measuredFiles(20), 0.90) < 10 {
			t.Errorf("%s closes %d files in 20 s: fewer than ten beyond p90", wl.name, wl.measuredFiles(20))
		}
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	due := schedule(start, 190*time.Millisecond, 4)
	if len(due) != 4 || !due[0].Equal(start) || due[3].Sub(start) != 570*time.Millisecond {
		t.Fatalf("schedule = %v", due)
	}
	actual := []time.Time{
		due[0].Add(2 * time.Millisecond),
		due[1].Add(-time.Millisecond), // early counts as on time
		due[2],
		due[3].Add(30 * time.Millisecond),
	}
	late := lateness(due, actual)
	want := []float64{2, 0, 0, 30}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, late[i], want[i])
		}
	}
	// An open loop measures from the due instant, so a late issue is
	// charged to the latency, never hidden.
	if got := backlogRatio([]float64{10, 10, 10, 10, 10, 10, 10, 10}); got != 1 {
		t.Errorf("flat series backlog ratio = %v, want 1", got)
	}
	if got := backlogRatio([]float64{10, 10, 20, 20, 30, 30, 40, 40}); got != 4 {
		t.Errorf("growing series backlog ratio = %v, want 4", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(40)},
		{at(30), at(60)},   // overlaps the first: the union is 10–60
		{at(90), at(130)},  // runs past the parent: clipped to 90–100
		{at(-20), at(-10)}, // wholly outside
	}
	if got := selfTime(parent, children); got != 40*time.Millisecond {
		t.Errorf("selfTime = %v, want 40ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime with no children = %v, want 100ms", got)
	}
	spans := []span{
		{Span: "f", Name: "file", Start: 0, End: 100},
		{Span: "a", Parent: "f", Name: "a", Start: 0, End: 50},
		{Span: "b", Parent: "f", Name: "b", Start: 40, End: 70},
		{Span: "c", Parent: "b", Name: "c", Start: 45, End: 55},
	}
	self := spanSelfTimes(spans)
	for id, want := range map[string]time.Duration{"f": 30, "a": 50, "b": 20, "c": 10} {
		if self[id] != want {
			t.Errorf("self time of %s = %d, want %d", id, self[id], want)
		}
	}
}

func TestPlanIsSeeded(t *testing.T) {
	wl := workloadByName("steady-small")
	a, b := planFiles(wl, 7, 8, 100), planFiles(wl, 7, 8, 100)
	ids := map[string]bool{}
	for i := range a {
		if a[i].id != b[i].id || a[i].name != b[i].name {
			t.Fatalf("file %d differs between two plans of one seed", i)
		}
		if ids[a[i].id] {
			t.Fatalf("record ID %s planned twice: files would collapse into one record", a[i].id)
		}
		ids[a[i].id] = true
		if a[i].measured != (i >= 8) {
			t.Errorf("file %d measured = %v", i, a[i].measured)
		}
	}
	if other := planFiles(wl, 8, 8, 100); other[0].id == a[0].id {
		t.Error("another seed planned the same record ID")
	}
	q1, q2 := querySequence(7, 500), querySequence(7, 500)
	hot := 0
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("request %d differs between two sequences of one seed", i)
		}
		for _, h := range hotSet {
			if q1[i].path == h {
				hot++
			}
		}
	}
	if share := float64(hot) / 500; share < 0.75 || share > 0.95 {
		t.Errorf("hot-set share %.2f, want about %.2f", share, hotShare)
	}
	c1, c2 := seedCorpus(7, 50), seedCorpus(7, 50)
	for i := range c1 {
		if c1[i].ID != c2[i].ID || c1[i].Text != c2[i].Text {
			t.Fatalf("corpus record %d differs between two builds of one seed", i)
		}
	}
}

// ledger mirrors BENCHMARK.json.
type ledger struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []ledgerMetric `json:"end_to_end"`
	PerLayer   []ledgerMetric `json:"per_layer"`
}

type ledgerMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

// BENCHMARK.json and the program must name the same workloads and
// metrics: -list prints the program's, this compares them both ways.
func TestLedgerMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	if l.RunSeconds < 1 || l.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", l.RunSeconds)
	}
	if len(l.Paths) != 1 || l.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", l.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(l.Workloads) != 4 || len(l.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the ledger, %d in the program, want 4", len(l.Workloads), len(workloads))
	}
	for i, w := range l.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: ledger has %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}

	match := func(kind string, got []ledgerMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the ledger, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better(want[i]) {
				t.Errorf("%s metric %d: ledger has %s %s %s, program %s %s %s",
					kind, i, m.Name, m.Unit, m.Better, want[i].name, want[i].unit, better(want[i]))
			}
			switch {
			case kind == "per_layer" && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			case kind == "end_to_end" && (m.Bound == nil || *m.Bound != want[i].bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, program %v, at most 0.25", m.Name, m.Bound, want[i].bound)
			}
		}
	}
	match("end_to_end", l.EndToEnd, endToEnd)
	match("per_layer", l.PerLayer, perLayer)
	if len(l.PerLayer) > 128 || len(l.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics: over the ledger's limits", len(l.EndToEnd), len(l.PerLayer))
	}
	if !seen["setup_s"] {
		t.Error("the ledger must carry setup_s")
	}
}
