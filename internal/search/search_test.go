package search

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"
)

func day(d int) time.Time {
	return time.Date(2023, 6, d, 12, 0, 0, 0, time.UTC)
}

func seedIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	entries := []Entry{
		{
			ID: "e1", Text: "hyperspectral polyamide film lead capture",
			Fields:  map[string]string{"kind": "hyperspectral", "sample": "film-1"},
			Numbers: map[string]float64{"beam_kev": 300},
			Date:    day(1),
		},
		{
			ID: "e2", Text: "spatiotemporal gold nanoparticles carbon background",
			Fields:  map[string]string{"kind": "spatiotemporal", "sample": "au-7"},
			Numbers: map[string]float64{"beam_kev": 200},
			Date:    day(2),
		},
		{
			ID: "e3", Text: "hyperspectral gold reference grid",
			Fields:    map[string]string{"kind": "hyperspectral", "sample": "ref-9"},
			Numbers:   map[string]float64{"beam_kev": 80},
			Date:      day(3),
			VisibleTo: []string{"zaluzec@anl.gov"},
		},
	}
	for _, e := range entries {
		if err := ix.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestFreeTextRanking(t *testing.T) {
	ix := seedIndex(t)
	hits, total, err := ix.Search(Query{Text: "gold nanoparticles"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("total = %d (ACL should hide e3 from anonymous)", total)
	}
	if hits[0].Entry.ID != "e2" {
		t.Errorf("top hit = %s", hits[0].Entry.ID)
	}
	if hits[0].Score <= 0 {
		t.Error("score should be positive")
	}
}

func TestMatchAllOrderedByRecency(t *testing.T) {
	ix := seedIndex(t)
	hits, total, err := ix.Search(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("total = %d", total)
	}
	if hits[0].Entry.ID != "e2" || hits[1].Entry.ID != "e1" {
		t.Errorf("order = %s, %s; want e2, e1", hits[0].Entry.ID, hits[1].Entry.ID)
	}
}

func TestACLVisibility(t *testing.T) {
	ix := seedIndex(t)
	// The owner sees the restricted record.
	hits, total, _ := ix.Search(Query{Text: "gold", Principal: "zaluzec@anl.gov"})
	if total != 2 {
		t.Fatalf("owner total = %d", total)
	}
	seen := map[string]bool{}
	for _, h := range hits {
		seen[h.Entry.ID] = true
	}
	if !seen["e3"] {
		t.Error("owner cannot see own record")
	}
	// A different principal cannot.
	_, total, _ = ix.Search(Query{Text: "gold", Principal: "someone@else.org"})
	if total != 1 {
		t.Errorf("stranger total = %d", total)
	}
	// Get honors the ACL too.
	if _, ok := ix.Get("e3", ""); ok {
		t.Error("anonymous Get of restricted record succeeded")
	}
	if _, ok := ix.Get("e3", "zaluzec@anl.gov"); !ok {
		t.Error("owner Get failed")
	}
}

func TestFieldFilters(t *testing.T) {
	ix := seedIndex(t)
	_, total, _ := ix.Search(Query{Filters: map[string]string{"kind": "hyperspectral"}})
	if total != 1 { // e1 only; e3 hidden by ACL
		t.Errorf("total = %d", total)
	}
	_, total, _ = ix.Search(Query{
		Filters:   map[string]string{"kind": "hyperspectral"},
		Principal: "zaluzec@anl.gov",
	})
	if total != 2 {
		t.Errorf("owner total = %d", total)
	}
	_, total, _ = ix.Search(Query{Filters: map[string]string{"kind": "nope"}})
	if total != 0 {
		t.Errorf("bogus filter total = %d", total)
	}
}

func TestNumericAndDateRanges(t *testing.T) {
	ix := seedIndex(t)
	_, total, _ := ix.Search(Query{NumRange: map[string][2]float64{"beam_kev": {150, 400}}})
	if total != 2 {
		t.Errorf("beam range total = %d", total)
	}
	_, total, _ = ix.Search(Query{From: day(2), To: day(2)})
	if total != 1 {
		t.Errorf("date range total = %d", total)
	}
	// Missing numeric field excludes the record.
	ix.Ingest(Entry{ID: "e4", Text: "no beam", Date: day(4)})
	_, total, _ = ix.Search(Query{NumRange: map[string][2]float64{"beam_kev": {0, 1000}}})
	if total != 2 {
		t.Errorf("missing-field total = %d", total)
	}
}

func TestPagination(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 25; i++ {
		ix.Ingest(Entry{ID: fmt.Sprintf("d%02d", i), Text: "record", Date: day(1).Add(time.Duration(i) * time.Hour)})
	}
	hits, total, _ := ix.Search(Query{Text: "record", Limit: 10})
	if total != 25 || len(hits) != 10 {
		t.Fatalf("page1: total=%d len=%d", total, len(hits))
	}
	hits2, _, _ := ix.Search(Query{Text: "record", Limit: 10, Offset: 20})
	if len(hits2) != 5 {
		t.Errorf("page3 len = %d", len(hits2))
	}
	hits3, _, _ := ix.Search(Query{Text: "record", Limit: 10, Offset: 100})
	if len(hits3) != 0 {
		t.Errorf("beyond-end len = %d", len(hits3))
	}
}

func TestReingestReplaces(t *testing.T) {
	ix := seedIndex(t)
	if err := ix.Ingest(Entry{ID: "e1", Text: "completely different words", Date: day(5)}); err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 3 {
		t.Errorf("count = %d", ix.Count())
	}
	_, total, _ := ix.Search(Query{Text: "polyamide"})
	if total != 0 {
		t.Error("stale postings survived reingest")
	}
	_, total, _ = ix.Search(Query{Text: "different"})
	if total != 1 {
		t.Error("new postings missing")
	}
}

func TestDelete(t *testing.T) {
	ix := seedIndex(t)
	if !ix.Delete("e1") {
		t.Error("delete existing returned false")
	}
	if ix.Delete("e1") {
		t.Error("delete missing returned true")
	}
	_, total, _ := ix.Search(Query{Text: "polyamide"})
	if total != 0 {
		t.Error("deleted record still searchable")
	}
}

func TestIngestValidation(t *testing.T) {
	ix := NewIndex()
	if err := ix.Ingest(Entry{}); err == nil {
		t.Error("entry without ID accepted")
	}
}

func TestFacets(t *testing.T) {
	ix := seedIndex(t)
	f := ix.Facets(Query{Principal: "zaluzec@anl.gov"}, "kind")
	if f["hyperspectral"] != 2 || f["spatiotemporal"] != 1 {
		t.Errorf("facets = %v", f)
	}
	// Facets respect the ACL.
	f = ix.Facets(Query{}, "kind")
	if f["hyperspectral"] != 1 {
		t.Errorf("anonymous facets = %v", f)
	}
	// Facets respect text matching.
	f = ix.Facets(Query{Text: "polyamide"}, "kind")
	if f["hyperspectral"] != 1 || f["spatiotemporal"] != 0 {
		t.Errorf("text facets = %v", f)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix := seedIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Count() != ix.Count() {
		t.Fatalf("count = %d, want %d", loaded.Count(), ix.Count())
	}
	// Query behavior is preserved, including ACLs.
	_, total, _ := loaded.Search(Query{Text: "gold"})
	if total != 1 {
		t.Errorf("total = %d", total)
	}
	_, total, _ = loaded.Search(Query{Text: "gold", Principal: "zaluzec@anl.gov"})
	if total != 2 {
		t.Errorf("owner total = %d", total)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Gold-Nanoparticles, 300keV; X")
	want := []string{"gold", "nanoparticles", "300kev"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// Property: every ingested public document is findable by each of its
// distinct tokens, and never findable after deletion.
func TestPropertyIngestQueryRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	words := []string{"gold", "lead", "film", "carbon", "probe", "beam", "stage", "vacuum"}
	ix := NewIndex()
	docs := map[string][]string{}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("doc-%d", i)
		n := rng.Intn(4) + 1
		var ws []string
		for j := 0; j < n; j++ {
			ws = append(ws, words[rng.Intn(len(words))])
		}
		docs[id] = ws
		var text string
		for _, w := range ws {
			text += w + " "
		}
		if err := ix.Ingest(Entry{ID: id, Text: text, Date: day(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for id, ws := range docs {
		for _, w := range ws {
			hits, _, _ := ix.Search(Query{Text: w, Limit: 1000})
			found := false
			for _, h := range hits {
				if h.Entry.ID == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("doc %s not found for its own token %q", id, w)
			}
		}
	}
	for id := range docs {
		ix.Delete(id)
	}
	_, total, _ := ix.Search(Query{Text: "gold", Limit: 1000})
	if total != 0 {
		t.Errorf("deleted docs still searchable: %d", total)
	}
}

func TestDeleteAfterCallerMutatesFields(t *testing.T) {
	ix := NewIndex()
	fields := map[string]string{"kind": "hyperspectral"}
	if err := ix.Ingest(Entry{ID: "a", Text: "gold film", Fields: fields}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Ingest(Entry{ID: "b", Text: "lead film", Fields: map[string]string{"kind": "spatiotemporal"}}); err != nil {
		t.Fatal(err)
	}
	// Memoise the kind counts, so the publishes below carry them forward
	// by what each document enters and leaves with.
	if got := ix.Facets(Query{}, "kind"); got["hyperspectral"] != 1 || got["spatiotemporal"] != 1 {
		t.Fatalf("kind facets = %v", got)
	}
	// The caller mutates its map after ingest; removal must still delete
	// the postings created from the original values, and take the original
	// value out of the carried counts.
	fields["kind"] = "spatiotemporal"
	if !ix.Delete("a") {
		t.Fatal("delete failed")
	}
	for _, q := range []string{"hyperspectral", "gold"} {
		if hits, total, _ := ix.Search(Query{Text: q}); total != 0 || len(hits) != 0 {
			t.Errorf("query %q after delete: total=%d hits=%v", q, total, hits)
		}
	}
	if ix.Count() != 1 {
		t.Errorf("count = %d after delete", ix.Count())
	}
	if got, want := ix.Facets(Query{}, "kind"), rebuilt(t, ix).Facets(Query{}, "kind"); !maps.Equal(got, want) {
		t.Errorf("kind facets after delete = %v, a rebuilt index counts %v", got, want)
	}
}
