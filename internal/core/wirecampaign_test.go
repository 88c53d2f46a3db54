package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
)

// TestWireCampaign drives the -wire experiment end to end: two facility
// daemons on loopback sockets, four placed flows spread across them,
// link probing and heartbeat monitoring attached.
func TestWireCampaign(t *testing.T) {
	const facilities, files = 2, 4
	res, err := lab.RunWireCampaign(lab.WireCampaignConfig{
		Facilities: facilities,
		Files:      files,
		Probe:      true,
		Health:     true,
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Runs) != files {
		t.Fatalf("runs = %d, want %d", len(res.Runs), files)
	}
	for _, run := range res.Runs {
		if run.Status != flows.StateSucceeded {
			t.Errorf("run %s: status %s (%s)", run.RunID, run.Status, run.Error)
		}
		if len(run.States) != 3 {
			t.Errorf("run %s: %d states, want Transfer, Analysis, Publication", run.RunID, len(run.States))
		}
	}
	if res.IndexedRecords != files {
		t.Errorf("indexed records = %d, want %d", res.IndexedRecords, files)
	}

	if len(res.Facilities) != facilities {
		t.Fatalf("facility snapshots = %d, want %d", len(res.Facilities), facilities)
	}
	jobs := 0
	for _, f := range res.Facilities {
		if f.Placed < 1 {
			t.Errorf("facility %s placed %d runs, want >= 1", f.ID, f.Placed)
		}
		jobs += res.Jobs[f.ID]
		if res.HealthChecks[f.ID] == 0 {
			t.Errorf("facility %s: no completed heartbeat check", f.ID)
		}
		if f.Health == nil || f.Quality == nil {
			t.Errorf("facility %s: snapshot lacks health (%v) or quality (%v)", f.ID, f.Health, f.Quality)
		}
	}
	if jobs != files {
		t.Errorf("daemon-served jobs = %d, want %d", jobs, files)
	}
	if len(res.HealthChecks) != facilities {
		t.Errorf("health checks = %v, want %d entries", res.HealthChecks, facilities)
	}

	staged, err := filepath.Glob(filepath.Join(res.Dir, "instrument", "*.emdg"))
	if err != nil || len(staged) != files {
		t.Fatalf("staged files = %v (err %v), want %d", staged, err, files)
	}
	var stagedBytes int64
	for _, path := range staged {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		stagedBytes += st.Size()
	}
	if res.BytesMoved != stagedBytes {
		t.Errorf("bytes moved = %d, staged %d", res.BytesMoved, stagedBytes)
	}
	// One placement per Transfer and per Analysis state (more only if a
	// state retried), none of them a failover on a healthy loopback.
	if res.Placement.Decisions < 2*files || res.Placement.Failovers != 0 {
		t.Errorf("placement = %+v, want >= %d decisions and no failover", res.Placement, 2*files)
	}

	if lab.FormatWireCampaign(res) == "" {
		t.Error("FormatWireCampaign rendered nothing")
	}
}
