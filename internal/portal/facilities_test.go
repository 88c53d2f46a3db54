package portal

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/facility"
	"picoprobe/internal/netprobe"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
)

func federationFixture(t *testing.T) (*facility.Registry, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel()
	reg := facility.NewRegistry(k, 0)
	mk := func(id string, outage bool) *facility.Facility {
		cfg := facility.Config{
			ID:   id,
			Name: strings.ToUpper(id),
			Sched: scheduler.Config{
				Nodes:          2,
				ProvisionDelay: 45 * time.Second,
				CacheWarmup:    30 * time.Second,
				ReuseNodes:     true,
			},
			StreamCapBps:  82e6,
			TransferSetup: 2 * time.Second,
		}
		if outage {
			cfg.Outages = []facility.Window{{Start: k.Now(), End: k.Now().Add(time.Hour)}}
		}
		f, err := facility.New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := mk("alcf-eagle", false)
	mk("olcf-orion", true)
	reg.Place("run-1", "", 91_000_000)
	a.Sched.Submit("env", 10*time.Second, func(scheduler.JobReport) {})
	k.Run()
	return reg, k
}

func TestFacilitiesView(t *testing.T) {
	reg, _ := federationFixture(t)
	srv, err := NewServer(Config{Index: search.NewIndex(), Facilities: reg.View(Title)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/facilities", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"ALCF-EAGLE", "OLCF-ORION", "DOWN", "Runs placed"} {
		if !strings.Contains(body, want) {
			t.Errorf("facilities page missing %q", want)
		}
	}
}

func TestFacilitiesAPI(t *testing.T) {
	reg, _ := federationFixture(t)
	srv, err := NewServer(Config{Index: search.NewIndex(), Facilities: reg.View(Title)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/facilities", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Total      int               `json:"total"`
		Facilities []facility.Status `json:"facilities"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 2 || len(resp.Facilities) != 2 {
		t.Fatalf("total = %d, facilities = %d", resp.Total, len(resp.Facilities))
	}
	eagle := resp.Facilities[0]
	if eagle.ID != "alcf-eagle" || !eagle.Up || eagle.JobsRun != 1 || eagle.Placed != 1 {
		t.Errorf("eagle status = %+v", eagle)
	}
	orion := resp.Facilities[1]
	if orion.Up || len(orion.Outages) != 1 {
		t.Errorf("orion status = %+v", orion)
	}
}

// stubQuality feeds fixed per-path scores into the registry snapshot.
type stubQuality map[string]netprobe.Quality

func (s stubQuality) Quality(id string) (netprobe.Quality, bool) {
	q, ok := s[id]
	return q, ok
}

// TestFacilitiesQualityColumns: with a quality provider attached, the
// HTML view grows link columns (score, degraded marker, RTT, loss,
// goodput) and the JSON twin carries the quality block; unmeasured paths
// render as dashes and omit the block — the nil-safety contract.
func TestFacilitiesQualityColumns(t *testing.T) {
	reg, _ := federationFixture(t)
	reg.AttachQuality(stubQuality{
		"alcf-eagle": {Score: 12.5, RTT: 80 * time.Millisecond, Jitter: 9 * time.Millisecond,
			Loss: 0.034, GoodputBps: 41e6, Windows: 3},
		// olcf-orion deliberately unmeasured.
	}, 50)

	srv, err := NewServer(Config{Index: search.NewIndex(), Facilities: reg.View(Title)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/facilities", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Link score", "12.5", "degraded", "80.0 ms", "3.40%", "&mdash;"} {
		if !strings.Contains(body, want) {
			t.Errorf("facilities page missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/facilities", nil))
	var resp struct {
		Facilities []facility.Status `json:"facilities"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Facilities) != 2 {
		t.Fatalf("facilities = %d", len(resp.Facilities))
	}
	eq := resp.Facilities[0].Quality
	if eq == nil || eq.Score != 12.5 || !eq.Degraded || eq.Loss != 0.034 {
		t.Errorf("eagle quality = %+v", eq)
	}
	if resp.Facilities[1].Quality != nil {
		t.Errorf("unmeasured orion has quality block: %+v", resp.Facilities[1].Quality)
	}
}

// TestFacilitiesQualityAbsentWithoutProvider pins the probe-disabled
// rendering: no quality provider, no quality block in JSON, dash-only
// link columns in HTML — the routes must stay fully functional.
func TestFacilitiesQualityAbsentWithoutProvider(t *testing.T) {
	reg, _ := federationFixture(t)
	srv, err := NewServer(Config{Index: search.NewIndex(), Facilities: reg.View(Title)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/facilities", nil))
	if strings.Contains(rec.Body.String(), "\"quality\"") {
		t.Error("probe-disabled JSON leaked a quality block")
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/facilities", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "&mdash;") {
		t.Errorf("probe-disabled HTML view broken: status %d", rec.Code)
	}
}

func TestFacilitiesRoutesAbsentWithoutRegistry(t *testing.T) {
	srv, err := NewServer(Config{Index: search.NewIndex()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/facilities", nil))
	if rec.Code != 404 {
		t.Errorf("facilities without registry: status = %d, want 404", rec.Code)
	}
}

// TestFacilitiesAPIEmptyRegistry: a registry with no facility answers
// "facilities":[] — an array a client can iterate, never null.
func TestFacilitiesAPIEmptyRegistry(t *testing.T) {
	reg := facility.NewRegistry(sim.NewKernel(), 0)
	srv, err := NewServer(Config{Index: search.NewIndex(), Facilities: reg.View(Title)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/facilities", nil))
	if got, want := rec.Body.String(), `{"total":0,"facilities":[]}`+"\n"; rec.Code != 200 || got != want {
		t.Errorf("empty registry: status %d body %q, want 200 %q", rec.Code, got, want)
	}
}

// TestFacilitiesBehindAdmission: the mounted view is admitted like every
// other route — rate-limited per principal (429 + Retry-After) and shed
// past the in-flight cap (503) while another facilities request holds
// the only slot.
func TestFacilitiesBehindAdmission(t *testing.T) {
	reg, _ := federationFixture(t)
	srv, err := NewServer(Config{Index: search.NewIndex(), Facilities: reg.View(Title),
		Limits: &LimitConfig{RatePerSec: 0.25, Burst: 1, Now: newFakeClock().Now}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/facilities", nil))
	if rec.Code != 200 {
		t.Fatalf("first request: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/facilities", nil))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "4" {
		t.Errorf("past the burst: status %d Retry-After %q, want 429 and 4", rec.Code, rec.Header().Get("Retry-After"))
	}

	hold, inside := make(chan struct{}), make(chan struct{})
	srv, err = NewServer(Config{Index: search.NewIndex(), Limits: &LimitConfig{MaxInFlight: 1},
		Facilities: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			close(inside)
			<-hold
		})})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/facilities", nil))
	}()
	<-inside
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/facilities", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("over the in-flight cap: status %d Retry-After %q, want 503 with a Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	close(hold)
	<-done
}
