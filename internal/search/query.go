package search

import (
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
)

// The read path. A query grabs every shard's current snapshot (one atomic
// load each) and runs entirely against those immutable structures: no
// lock, no coordination with writers. Ranked retrieval accumulates
// TF-IDF scores per shard into pooled scratch arrays, in query-term
// order, producing bit-identical sums to the historical map-based
// implementation; selection keeps only the requested page (offset+limit)
// in a bounded top-k heap instead of materializing and sorting every
// match, and the total is counted without building hits.

// scored pairs a matched document with its accumulated score.
type scored struct {
	d     *sdoc
	score float64
}

// better reports whether a ranks strictly before b: score descending,
// then date descending, then ID ascending — the index's historical result
// order, a strict total order because IDs are unique.
func better(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return recencyCmp(a.d, b.d) < 0
}

// recencyCmp orders documents as unranked results are listed — date
// descending, then ID ascending — and is the order of shardSnap.recent.
func recencyCmp(a, b *sdoc) int {
	if c := b.entry.Date.Compare(a.entry.Date); c != 0 {
		return c
	}
	return strings.Compare(a.entry.ID, b.entry.ID)
}

// matchesAllPublic reports whether q, whose text tokenised to terms,
// selects exactly the records an anonymous caller may see: no text, no
// filters, no ranges, no dates, no principal. It is the portal's landing
// page and sidebar, the one query asked again at every epoch, and the
// only one answered from what the index maintains across publishes
// (topPage, Facets).
func (q *Query) matchesAllPublic(terms []string) bool {
	return len(terms) == 0 && len(q.Filters) == 0 && len(q.NumRange) == 0 &&
		q.From.IsZero() && q.To.IsZero() && q.Principal == ""
}

// topkHeap keeps the k best candidates seen so far; the root is the worst
// of the kept, so each non-qualifying candidate costs one comparison.
type topkHeap struct {
	items []scored
	k     int
}

// worse is the heap order: the root is the candidate that ranks last.
func worse(a, b scored) bool { return better(b, a) }

func (h *topkHeap) offer(c scored) {
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h.items[i], h.items[p]) {
				break
			}
			h.items[i], h.items[p] = h.items[p], h.items[i]
			i = p
		}
		return
	}
	if !better(c, h.items[0]) {
		return
	}
	h.items[0] = c
	i, n := 0, len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && worse(h.items[r], h.items[l]) {
			j = r
		}
		if !worse(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}

// queryScratch recycles every per-query buffer so a steady-state query
// allocates only its result page.
type queryScratch struct {
	snaps   []*shardSnap
	terms   []string
	tids    []int32
	idf     []float64
	acc     []float64
	gen     []uint32
	touched []int32
	cur     uint32
	cand    []scored
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch { return queryScratchPool.Get().(*queryScratch) }

func putScratch(sc *queryScratch) {
	// Drop pointers the pool would otherwise pin: doc references in the
	// candidate buffer, snapshot pointers, token views of the query text.
	clear(sc.cand)
	clear(sc.snaps)
	clear(sc.terms)
	queryScratchPool.Put(sc)
}

// grabSnaps loads every shard's current snapshot into the scratch.
func (ix *Index) grabSnaps(sc *queryScratch) []*shardSnap {
	if cap(sc.snaps) < len(ix.shards) {
		sc.snaps = make([]*shardSnap, len(ix.shards))
	}
	sc.snaps = sc.snaps[:len(ix.shards)]
	for i, sh := range ix.shards {
		sc.snaps[i] = sh.snap.Load()
	}
	return sc.snaps
}

// nextGen advances the scratch generation marker, clearing the mark array
// on wrap-around so stale generations can never alias.
func (sc *queryScratch) nextGen() uint32 {
	sc.cur++
	if sc.cur == 0 {
		clear(sc.gen)
		sc.cur = 1
	}
	return sc.cur
}

// sizeFor grows the accumulator arrays to cover a shard's ordinal space.
func (sc *queryScratch) sizeFor(n int) {
	if cap(sc.acc) < n {
		sc.acc = make([]float64, n)
		sc.gen = make([]uint32, n)
		sc.cur = 0
	}
	sc.acc = sc.acc[:cap(sc.acc)]
	sc.gen = sc.gen[:cap(sc.gen)]
}

// Search returns the page of hits selected by q plus the total number of
// matching entries. It never blocks on writers.
func (ix *Index) Search(q Query) ([]Hit, int, error) {
	sc := getScratch()
	defer putScratch(sc)
	page, total := ix.topPage(&q, sc)
	if page == nil {
		return nil, total, nil
	}
	hits := make([]Hit, len(page))
	for i, c := range page {
		hits[i] = Hit{Entry: c.d.entry, Score: c.score}
	}
	return hits, total, nil
}

// SearchProjected is Search returning payload-free projected hits: no
// per-hit Entry copy (and in particular no Payload slice per hit), just
// the columns list pages render.
func (ix *Index) SearchProjected(q Query) ([]ProjectedHit, int, error) {
	sc := getScratch()
	defer putScratch(sc)
	page, total := ix.topPage(&q, sc)
	if page == nil {
		return nil, total, nil
	}
	hits := make([]ProjectedHit, len(page))
	for i, c := range page {
		hits[i] = ProjectedHit{
			ID:     c.d.entry.ID,
			Score:  c.score,
			Date:   c.d.entry.Date,
			Fields: c.d.entry.Fields,
		}
	}
	return hits, total, nil
}

// topPage selects q's result page: rank (or recency-order) every match,
// keep offset+limit candidates in a top-k heap, count the rest. The
// returned slice aliases scratch and must be copied out before putScratch.
func (ix *Index) topPage(q *Query, sc *queryScratch) ([]scored, int) {
	limit := q.Limit
	if limit <= 0 {
		limit = 10
	}
	if q.Offset < 0 {
		q.Offset = 0
	}
	snaps := ix.grabSnaps(sc)
	n := 0
	for _, sn := range snaps {
		n += sn.live
	}

	sc.terms = appendTokens(sc.terms[:0], q.Text)
	ranked := len(sc.terms) > 0
	if ranked {
		// Per-term IDs and IDFs, computed once from global document
		// frequencies (the per-shard posting lengths sum to the df the
		// historical single-map implementation used).
		dict := ix.dict.Load()
		sc.tids = sc.tids[:0]
		sc.idf = sc.idf[:0]
		for _, t := range sc.terms {
			tid, ok := dict.lookup(t)
			df := 0
			if ok {
				for _, sn := range snaps {
					if int(tid) < len(sn.post) {
						df += len(sn.post[tid])
					}
				}
			}
			if df == 0 {
				tid = -1
			}
			sc.tids = append(sc.tids, tid)
			sc.idf = append(sc.idf, math.Log(1+float64(n)/float64(df)))
		}
	}

	k := q.Offset + limit
	if k < limit { // offset near MaxInt: keep everything, as the sort-all implementation did
		k = math.MaxInt
	}
	h := topkHeap{items: sc.cand[:0], k: k}
	total := 0
	maintained := q.matchesAllPublic(sc.terms)
	for _, sn := range snaps {
		if maintained {
			// The k newest anonymous-visible documents of the shard are
			// the first k such entries of its recency order, and the count
			// was kept at publish: O(page) per shard, not O(shard). The
			// scan below is this path's oracle.
			total += sn.anon
			offered := 0
			for _, ord := range sn.recent {
				if offered == k {
					break
				}
				if d := sn.docs[ord]; d.entry.visible("") {
					h.offer(scored{d: d})
					offered++
				}
			}
			continue
		}
		if !ranked {
			for _, d := range sn.docs {
				if d != nil && match(&d.entry, q) {
					total++
					h.offer(scored{d: d})
				}
			}
			continue
		}
		sc.sizeFor(len(sn.docs))
		gen := sc.nextGen()
		sc.touched = sc.touched[:0]
		for qi, tid := range sc.tids {
			if tid < 0 || int(tid) >= len(sn.post) {
				continue
			}
			idf := sc.idf[qi]
			for _, p := range sn.post[tid] {
				if sc.gen[p.ord] != gen {
					sc.gen[p.ord] = gen
					sc.acc[p.ord] = 0
					sc.touched = append(sc.touched, p.ord)
				}
				dl := float64(sn.docs[p.ord].dl)
				if dl == 0 {
					dl = 1
				}
				sc.acc[p.ord] += float64(p.tf) / dl * idf
			}
		}
		for _, ord := range sc.touched {
			d := sn.docs[ord]
			if match(&d.entry, q) {
				total++
				h.offer(scored{d: d, score: sc.acc[ord]})
			}
		}
	}
	sc.cand = h.items // hand the (possibly grown) buffer back to scratch

	if q.Offset >= total {
		return nil, total
	}
	sort.Slice(h.items, func(i, j int) bool { return better(h.items[i], h.items[j]) })
	page := h.items[q.Offset:]
	if len(page) > limit {
		page = page[:limit]
	}
	return page, total
}

// Facets counts the distinct values of a field across every entry matching
// q (ignoring pagination), for the portal's sidebar. Unfiltered anonymous
// queries — the portal's default sidebar — are served from per-snapshot
// memoized public counts in O(distinct values); everything else scans the
// snapshot's matches.
func (ix *Index) Facets(q Query, field string) map[string]int {
	sc := getScratch()
	defer putScratch(sc)
	snaps := ix.grabSnaps(sc)
	sc.terms = appendTokens(sc.terms[:0], q.Text)
	out := map[string]int{}

	if q.matchesAllPublic(sc.terms) {
		for _, sn := range snaps {
			for v, c := range sn.publicFacets(field) {
				out[v] += c
			}
		}
		return out
	}

	dict := ix.dict.Load()
	for _, sn := range snaps {
		if len(sc.terms) == 0 {
			for _, d := range sn.docs {
				if d == nil || !match(&d.entry, &q) {
					continue
				}
				if v, ok := d.entry.Fields[field]; ok {
					out[v]++
				}
			}
			continue
		}
		// Candidate union of the query terms' postings, then filter.
		sc.sizeFor(len(sn.docs))
		gen := sc.nextGen()
		sc.touched = sc.touched[:0]
		for _, t := range sc.terms {
			tid, ok := dict.lookup(t)
			if !ok || int(tid) >= len(sn.post) {
				continue
			}
			for _, p := range sn.post[tid] {
				if sc.gen[p.ord] != gen {
					sc.gen[p.ord] = gen
					sc.touched = append(sc.touched, p.ord)
				}
			}
		}
		for _, ord := range sc.touched {
			d := sn.docs[ord]
			if !match(&d.entry, &q) {
				continue
			}
			if v, ok := d.entry.Fields[field]; ok {
				out[v]++
			}
		}
	}
	return out
}

// publicFacets returns this snapshot's public (ACL-free) value counts for
// field, computing them on first use and memoizing on the immutable
// snapshot — repeat queries pay O(values), and the next publish carries
// the counts forward (facetTable.carry: writers pay O(delta), bounded)
// instead of leaving them to be recounted.
func (sn *shardSnap) publicFacets(field string) map[string]int {
	for {
		t := sn.facets.Load()
		if t != nil {
			if m, ok := t.byField[field]; ok {
				return m
			}
		}
		counts := map[string]int{}
		for _, d := range sn.docs {
			if d == nil || len(d.entry.VisibleTo) != 0 {
				continue
			}
			if v, ok := d.entry.Fields[field]; ok {
				counts[v]++
			}
		}
		nt := &facetTable{byField: map[string]map[string]int{field: counts}}
		if t != nil {
			maps.Copy(nt.byField, t.byField)
			nt.byField[field] = counts
		}
		if sn.facets.CompareAndSwap(t, nt) {
			return counts
		}
	}
}
