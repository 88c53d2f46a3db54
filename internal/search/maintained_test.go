package search

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// The answers the index maintains across publishes — the unfiltered
// anonymous page and total (shardSnap.recent, anon) and the public facet
// counts (facetTable.carry) — are checked here against the code that
// recomputes them: the same query with a To bound far in the future takes
// topPage's scan, and an index rebuilt from Save/Load has memoised
// nothing and recounts.

var farFuture = time.Date(9000, 1, 1, 0, 0, 0, 0, time.UTC)

// opEntry decodes one entry from three bytes: a small ID space (so
// re-ingests and in-batch repeats happen), four dates (ties), two facet
// fields of which one is optional, and ACLs — none, a named principal, or
// one naming the empty principal, which is on the anonymous page and was
// never in the public facet counts.
func opEntry(id, shape, acl byte) Entry {
	e := Entry{
		ID:     fmt.Sprintf("d%02d", id%32),
		Text:   "gold film",
		Fields: map[string]string{"kind": []string{"hyperspectral", "spatiotemporal", "calibration"}[(shape>>2)%3]},
		Date:   time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(shape&3)),
	}
	if shape&16 != 0 {
		e.Fields["sample"] = fmt.Sprintf("s-%d", shape>>5)
	}
	switch acl % 6 {
	case 3:
		e.VisibleTo = []string{"alice@anl.gov"}
	case 4:
		e.VisibleTo = []string{""}
	case 5:
		e.VisibleTo = []string{"", "bob@anl.gov"}
	}
	return e
}

// runIndexOps interprets data as a sequence of Ingest / IngestBatch /
// Delete steps on a fresh index, checks the maintained answers against
// their oracles after every step, and returns the number of steps run.
// "kind" facets are read on every step and "sample" only on some, so a
// snapshot's table holds one field, both or (just published, nothing
// carried) neither when the next publish carries it.
func runIndexOps(t *testing.T, data []byte) int {
	t.Helper()
	ix := NewIndex()
	steps := 0
	for len(data) >= 4 {
		op := data[0]
		switch op % 8 {
		case 4, 5:
			n := int(data[1]%6) + 1
			data = data[2:]
			var batch []Entry
			for ; n > 0 && len(data) >= 3; n-- {
				batch = append(batch, opEntry(data[0], data[1], data[2]))
				data = data[3:]
			}
			if err := ix.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		case 6, 7:
			ix.Delete(fmt.Sprintf("d%02d", data[1]%32))
			data = data[2:]
		default:
			if err := ix.Ingest(opEntry(data[1], data[2], data[3])); err != nil {
				t.Fatal(err)
			}
			data = data[4:]
		}
		steps++
		checkMaintained(t, ix, steps, op&8 != 0)
	}
	return steps
}

func checkMaintained(t *testing.T, ix *Index, step int, sampleToo bool) {
	t.Helper()
	for _, pg := range [][2]int{{0, 1}, {0, 5}, {3, 4}, {20, 10}, {0, 1000}} {
		q := Query{Offset: pg[0], Limit: pg[1]}
		fast, fastTotal, _ := ix.Search(q)
		q.To = farFuture
		scan, scanTotal, _ := ix.Search(q)
		if fastTotal != scanTotal || !slices.Equal(hitIDs(fast), hitIDs(scan)) {
			t.Fatalf("step %d, offset %d limit %d: maintained page %v (total %d), scan %v (total %d)",
				step, pg[0], pg[1], hitIDs(fast), fastTotal, hitIDs(scan), scanTotal)
		}
	}
	for _, sh := range ix.shards {
		sn := sh.snap.Load()
		anon := 0
		for i, ord := range sn.recent {
			if sn.docs[ord].entry.visible("") {
				anon++
			}
			if i > 0 && recencyCmp(sn.docs[sn.recent[i-1]], sn.docs[ord]) >= 0 {
				t.Fatalf("step %d: recency order broken at %d: %v", step, i, sn.recent)
			}
		}
		if len(sn.recent) != sn.live || anon != sn.anon {
			t.Fatalf("step %d: recent holds %d of %d live, anon %d counted %d", step, len(sn.recent), sn.live, sn.anon, anon)
		}
	}
	fields := []string{"kind"}
	if sampleToo {
		fields = append(fields, "sample")
	}
	fresh := rebuilt(t, ix)
	for _, f := range fields {
		if got, want := ix.Facets(Query{}, f), fresh.Facets(Query{}, f); !maps.Equal(got, want) {
			t.Fatalf("step %d: facets %q = %v, a rebuilt index counts %v", step, f, got, want)
		}
	}
}

func hitIDs(hits []Hit) []string {
	ids := make([]string, len(hits))
	for i, h := range hits {
		ids[i] = h.Entry.ID
	}
	return ids
}

// rebuilt is ix saved and loaded again: same records, nothing memoised.
func rebuilt(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

func TestMaintainedAnswersMatchOracles(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(data)
		if steps := runIndexOps(t, data); steps < 600 {
			t.Fatalf("seed %d ran %d steps, want ≥ 600", seed, steps)
		}
	}
}

func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	// One ID ingested, replaced twice inside a batch with its ACL changing,
	// then deleted.
	f.Add([]byte{8, 7, 0x14, 0, 4, 2, 7, 0x34, 4, 7, 0x18, 3, 7, 0x10, 0, 14, 7, 0, 0})
	seed := make([]byte, 400)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2000 {
			data = data[:2000]
		}
		runIndexOps(t, data)
	})
}

// TestCarriedFacetsStayBounded: what a publish carries forward is bounded
// by maxCarriedFields × maxCarriedValues, not by what clients asked for
// between publishes — names no document has, a field with more values
// than the cap, more small fields than the cap — and the answers still
// equal a recount.
func TestCarriedFacetsStayBounded(t *testing.T) {
	ix := NewIndex()
	const small = maxCarriedFields + 4
	entry := func(i int) Entry {
		e := Entry{
			ID:     fmt.Sprintf("doc-%05d", i),
			Date:   day(1 + i%5),
			Fields: map[string]string{"kind": []string{"hyperspectral", "spatiotemporal"}[i%2], "uid": fmt.Sprint(i)},
		}
		for f := 0; f < small; f++ {
			e.Fields[fmt.Sprintf("f%d", f)] = fmt.Sprint(i % 3)
		}
		return e
	}
	// The shard the single-record publishes below all go to; exactly
	// maxCarriedValues of its documents have an "edge" value, each its own.
	target := ix.shards[0]
	var seed []Entry
	edge := 0
	for i := 0; i < len(ix.shards)*(maxCarriedValues+150); i++ {
		e := entry(i)
		if edge < maxCarriedValues && ix.shardFor(e.ID) == target {
			e.Fields["edge"] = e.ID
			edge++
		}
		seed = append(seed, e)
	}
	if err := ix.IngestBatch(seed); err != nil {
		t.Fatal(err)
	}
	if edge != maxCarriedValues {
		t.Fatalf("the target shard holds %d edge values, want maxCarriedValues = %d", edge, maxCarriedValues)
	}
	for _, sh := range ix.shards {
		if n := len(sh.snap.Load().publicFacets("uid")); n <= maxCarriedValues {
			t.Fatalf("a shard holds %d uid values: the test needs more than maxCarriedValues = %d", n, maxCarriedValues)
		}
	}

	// carried is the table a shard's newest snapshot was published with.
	carried := func(sh *shard) map[string]map[string]int {
		tb := sh.snap.Load().facets.Load()
		if tb == nil {
			return nil
		}
		if len(tb.byField) > maxCarriedFields {
			t.Fatalf("%d fields carried, cap %d", len(tb.byField), maxCarriedFields)
		}
		for f, m := range tb.byField {
			if len(m) == 0 || len(m) > maxCarriedValues {
				t.Fatalf("field %q carried with %d values, cap %d", f, len(m), maxCarriedValues)
			}
		}
		return tb.byField
	}
	ask := func(fields ...string) {
		fresh := rebuilt(t, ix)
		for _, f := range fields {
			if got, want := ix.Facets(Query{}, f), fresh.Facets(Query{}, f); !maps.Equal(got, want) {
				t.Fatalf("facets %q = %v, a recount gives %v", f, got, want)
			}
		}
	}

	// Single-record publishes all go to one shard, so what its snapshots
	// carry is a function of this loop alone (the other shards keep the
	// snapshot, and the memoised table, they had).
	next := len(seed)
	onTarget := func() Entry {
		for ix.shardFor(entry(next).ID) != target {
			next++
		}
		next++
		return entry(next - 1)
	}
	for round := 0; round < 4; round++ {
		// What anonymous clients can make the portal ask for: names no
		// document has (1000 of them once — memoising the n-th copies a
		// table of n), the high-cardinality field, and the sidebar's own.
		junk := 1000
		if round > 0 {
			junk = 100
		}
		for i := 0; i < junk; i++ {
			ix.Facets(Query{}, fmt.Sprintf("no-such-field-%d-%d", round, i))
		}
		ask("uid", "kind")
		e := onTarget()
		if err := ix.Ingest(e); err != nil {
			t.Fatal(err)
		}
		if got := carried(target); len(got) != 1 || got["kind"] == nil {
			t.Fatalf("round %d: carried %v, want exactly the kind counts", round, slices.Collect(maps.Keys(got)))
		}
		ask("uid", "kind")

		// More qualifying fields than the cap: the table is dropped whole.
		var names []string
		for f := 0; f < small; f++ {
			names = append(names, fmt.Sprintf("f%d", f))
		}
		ask(append(names, "kind")...)
		if round%2 == 0 {
			ix.Delete(e.ID)
		} else if err := ix.Ingest(e); err != nil {
			t.Fatal(err)
		}
		if got := carried(target); got != nil {
			t.Fatalf("round %d: %d fields qualified and %d were carried, want none", round, small+1, len(got))
		}
		ask("kind", "uid")
	}

	// A batch publishes every shard, and the bound holds on all of them:
	// the first drops what the rounds above left memoised on the shards
	// they did not publish, the second carries what was asked since.
	for range 2 {
		ask("kind", "f0", "uid")
		var batch []Entry
		for i := 0; i < 4*len(ix.shards); i++ {
			batch = append(batch, entry(next))
			next++
		}
		if err := ix.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range ix.shards {
		if got := carried(sh); len(got) != 2 {
			t.Fatalf("after the batch a shard carries %v, want kind and f0", slices.Collect(maps.Keys(got)))
		}
	}
	ask("kind", "f0", "uid")

	// A field at the cap is carried; the publish whose delta takes it past
	// the cap leaves it behind.
	ask("edge")
	if err := ix.Ingest(onTarget()); err != nil {
		t.Fatal(err)
	}
	if got := carried(target); len(got["edge"]) != maxCarriedValues {
		t.Fatalf("edge carried with %d values, want it carried at the cap of %d", len(got["edge"]), maxCarriedValues)
	}
	e := onTarget()
	e.Fields["edge"] = e.ID
	if err := ix.Ingest(e); err != nil {
		t.Fatal(err)
	}
	if got := carried(target); got["edge"] != nil || got["kind"] == nil {
		t.Fatalf("carried %v after edge passed the cap, want kind and f0 only", slices.Collect(maps.Keys(got)))
	}
	ask("edge", "kind")
}

// TestPagingWhilePublishing: readers page through the maintained order
// while a writer publishes single records (run under -race in CI). Every
// page is sorted, duplicate-free and anonymous-visible, and no longer
// than its total.
func TestPagingWhilePublishing(t *testing.T) {
	ix := NewIndex()
	entry := func(i int) Entry {
		e := Entry{ID: fmt.Sprintf("doc-%04d", i%600), Date: day(1 + (i*7)%9), Fields: map[string]string{"kind": "hyperspectral"}}
		switch i % 5 {
		case 3:
			e.VisibleTo = []string{"alice@anl.gov"}
		case 4:
			e.VisibleTo = []string{"", "bob@anl.gov"}
		}
		return e
	}
	var seed []Entry
	for i := 0; i < 400; i++ {
		seed = append(seed, entry(i))
	}
	if err := ix.IngestBatch(seed); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{Offset: (i * (r + 1)) % 50, Limit: 1 + i%25}
				hits, total, _ := ix.Search(q)
				if total < q.Offset+len(hits) {
					errc <- fmt.Errorf("offset %d: %d hits of a total of %d", q.Offset, len(hits), total)
					return
				}
				for j, h := range hits {
					if !h.Entry.visible("") {
						errc <- fmt.Errorf("anonymous page holds %s, visible to %q", h.Entry.ID, h.Entry.VisibleTo)
						return
					}
					// Strictly ordered pages are duplicate-free.
					if j > 0 && recencyCmp(&sdoc{entry: hits[j-1].Entry}, &sdoc{entry: h.Entry}) >= 0 {
						errc <- fmt.Errorf("page out of order at %d: %v", j, hitIDs(hits))
						return
					}
				}
				ix.Facets(Query{}, "kind")
			}
		}(r)
	}
	for i := 400; i < 2400; i++ {
		if i%7 == 0 {
			ix.Delete(fmt.Sprintf("doc-%04d", (i*13)%600))
		} else if err := ix.Ingest(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	checkMaintained(t, ix, 2400, true)
}

// BenchmarkColdFirstPage is the portal's landing page at a fresh epoch:
// one record published into a 100 000-record catalog, then the match-all
// first page and the sidebar's facet counts — the two answers every
// publish makes cold. read_us/op is the two reads alone; what is left of
// an iteration is the Ingest's own copy-on-write publish.
func BenchmarkColdFirstPage(b *testing.B) {
	ix := NewIndex()
	kinds := []string{"hyperspectral", "spatiotemporal"}
	entry := func(i int) Entry {
		return Entry{
			ID:     fmt.Sprintf("rec-%06d", i),
			Text:   "gold film on carbon grid",
			Fields: map[string]string{"kind": kinds[i%2], "sample": fmt.Sprintf("s-%d", i%50)},
			Date:   time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		}
	}
	const catalog = 100_000
	seed := make([]Entry, catalog)
	for i := range seed {
		seed[i] = entry(i)
	}
	if err := ix.IngestBatch(seed); err != nil {
		b.Fatal(err)
	}
	ix.Facets(Query{}, "kind")
	var reads time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Ingest(entry(catalog + i)); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		hits, total, _ := ix.Search(Query{Limit: 20})
		facets := ix.Facets(Query{}, "kind")
		reads += time.Since(start)
		if len(hits) != 20 || total != catalog+i+1 || facets["hyperspectral"]+facets["spatiotemporal"] != total {
			b.Fatalf("page of %d, total %d, facets %v", len(hits), total, facets)
		}
	}
	b.ReportMetric(float64(reads.Microseconds())/float64(b.N), "read_us/op")
}
