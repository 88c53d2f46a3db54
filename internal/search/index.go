package search

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The write path. Documents are sharded by ID hash. Each shard keeps
// mutable build state that only writers touch (serialized by Index.mu)
// and an immutable snapshot published through an atomic pointer that
// queries read lock-free. Every mutation of reader-visible data is
// copy-on-write: posting slices are cloned before modification, the
// ord-indexed doc array and the posting directory are cloned at publish.
// A batch ingest clones each touched posting slice once, appends freely
// into the build-owned copy, and sorts + publishes at the end, so bulk
// loads pay the copy-on-write cost once per term instead of once per
// document.
//
// Two answers are maintained rather than recomputed, because the portal
// asks for them once per epoch and they change by one record per publish:
// each shard's recency order (shardSnap.recent, the unfiltered anonymous
// page in topPage) and the memoised public facet counts (facetTable,
// carried from snapshot to snapshot by the publish's own delta). What is
// carried between publishes is bounded by the constants below, never by
// what clients asked for. See DESIGN.md §7.

const (
	// minShards bounds the per-write copy-on-write cost even on small
	// hosts (a publish clones O(shard) headers); maxShards bounds the
	// per-query fan-in.
	minShards = 8
	maxShards = 256

	// maxCarriedFields and maxCarriedValues bound the facet counts a
	// publish carries forward (facetTable.carry): the writer clones at
	// most fields × values map entries per publish under Index.mu,
	// whatever field names the portal's clients memoised. The portal's
	// sidebar needs one field of two values.
	maxCarriedFields = 8
	maxCarriedValues = 256
)

// posting records one document's term frequency inside a shard, keyed by
// the document's shard-local ordinal. Published posting slices are sorted
// by ord and never mutated.
type posting struct {
	ord int32
	tf  int32
}

// termCount is one unique term of a document with its frequency, kept on
// the document so removal deletes exactly the postings its ingest created
// — O(document terms) — however the caller mutates its own maps after
// Ingest.
type termCount struct {
	id int32
	tf int32
}

// sdoc is one stored record. It is immutable once published; re-ingesting
// an ID builds a fresh sdoc.
type sdoc struct {
	entry Entry
	dl    int32 // total indexed token count (the ranking length norm)
	terms []termCount
}

// termDict interns term strings to dense int32 IDs. The base map is
// immutable; newly-interned terms land in the concurrent spill map (O(1)
// per new term) and are folded into a fresh base once the spill grows
// past a fraction of the base — amortized O(1) per insert, so the live
// one-record-per-flow ingest path never pays an O(vocabulary) copy.
type termDict struct {
	ids   map[string]int32
	extra *sync.Map // term -> int32, recent additions
}

// lookup resolves a term against base-then-spill.
func (d *termDict) lookup(t string) (int32, bool) {
	if id, ok := d.ids[t]; ok {
		return id, true
	}
	if v, ok := d.extra.Load(t); ok {
		return v.(int32), true
	}
	return 0, false
}

// shardSnap is one shard's immutable epoch snapshot.
type shardSnap struct {
	docs []*sdoc     // ord-indexed; nil holes where ordinals were freed
	post [][]posting // termID-indexed (may lag the dictionary); sorted by ord
	live int
	// recent lists the live ordinals as unranked results are ordered
	// (recencyCmp) and anon counts the documents an anonymous caller may
	// see: the unfiltered anonymous page reads offset+limit entries of
	// each shard's recent instead of visiting every document. Immutable
	// once published, like the inner posting slices.
	recent []int32
	anon   int
	// facets memoizes public facet counts per field for this snapshot:
	// built on first use (publicFacets), then carried to the next
	// snapshot by publishLocked. Queries that hit it are O(values).
	facets atomic.Pointer[facetTable]
}

type facetTable struct {
	byField map[string]map[string]int
}

// facetDelta is one ACL-free document entering (n = +1) or leaving
// (n = −1) a shard between two publishes.
type facetDelta struct {
	d *sdoc
	n int
}

// carry returns the table for the next snapshot: each memoised field's
// counts moved by delta, applied in order with a value deleted at zero,
// so a carried map equals a recount. The documents in delta are the
// index's own (ingestLocked detaches Fields), so the value a document
// leaves with is the value it entered with. Only what the caps admit is
// carried: a field with no counts (a name no document has) or more than
// maxCarriedValues of them — before the delta, so it is not even cloned,
// or after it — is left to be recounted on demand, and with more than
// maxCarriedFields candidates the table is dropped whole (nil).
func (t *facetTable) carry(delta []facetDelta) *facetTable {
	nt := &facetTable{byField: map[string]map[string]int{}}
	for field, counts := range t.byField {
		if len(counts) == 0 || len(counts) > maxCarriedValues {
			continue
		}
		m := maps.Clone(counts)
		for _, fd := range delta {
			if v, ok := fd.d.entry.Fields[field]; ok {
				if m[v] += fd.n; m[v] == 0 {
					delete(m, v)
				}
			}
		}
		if len(m) == 0 || len(m) > maxCarriedValues {
			continue
		}
		if len(nt.byField) == maxCarriedFields {
			return nil
		}
		nt.byField[field] = m
	}
	if len(nt.byField) == 0 {
		return nil
	}
	return nt
}

// shard pairs a published snapshot with writer-private build state.
type shard struct {
	snap atomic.Pointer[shardSnap]

	// Build state below is guarded by Index.mu and never read by queries.
	ords     map[string]int32 // entry ID -> ordinal
	free     []int32          // freed ordinals for reuse
	docs     []*sdoc          // working array, cloned at publish
	post     [][]posting      // working directory; inner slices immutable once published
	batching bool
	dirty    map[int32]bool // batch mode: terms whose slices are build-owned
	// recent and anon become the next snapshot's (see shardSnap). recent
	// is never modified in place: Ingest and Delete build a new slice, a
	// batch leaves it alone and rebuilds it once at its publish.
	recent []int32
	anon   int
	delta  []facetDelta // ACL-free documents in and out since the last publish
}

// Index is an in-memory inverted index, safe for concurrent use: one
// writer at a time mutates it while any number of readers query the last
// published snapshots without locking.
type Index struct {
	mu     sync.Mutex // serializes writers; readers never take it
	shards []*shard
	mask   uint32
	dict   atomic.Pointer[termDict]
	ids    sync.Map // entry ID -> *sdoc, O(1) lock-free Get

	// Writer-only dictionary bookkeeping (guarded by mu).
	nextTerm int32 // next term ID to assign
	spilled  int   // entries in the current dict's spill map

	// epoch counts completed mutations (one per Ingest/Delete, one per
	// IngestBatch). It is bumped after the snapshot publish, while mu is
	// still held, so by the time a mutator returns the epoch a reader
	// loads is at least as new as that mutation. The portal keys its
	// response cache and ETags off this value: an unchanged epoch means
	// no mutation has completed, so a memoized response is still valid.
	epoch atomic.Uint64
}

// NewIndex returns an empty index sized to the host (a power-of-two shard
// count derived from GOMAXPROCS).
func NewIndex() *Index {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	n = min(max(n, minShards), maxShards)
	ix := &Index{shards: make([]*shard, n), mask: uint32(n - 1)}
	for i := range ix.shards {
		sh := &shard{ords: map[string]int32{}}
		sh.snap.Store(&shardSnap{})
		ix.shards[i] = sh
	}
	ix.dict.Store(&termDict{ids: map[string]int32{}, extra: &sync.Map{}})
	return ix
}

// shardFor hashes an entry ID to its shard (FNV-1a).
func (ix *Index) shardFor(id string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return ix.shards[h&ix.mask]
}

// Epoch returns the index-wide mutation epoch: a monotonic counter that
// advances exactly once per completed mutation (Ingest, IngestBatch,
// Delete). Two Epoch reads returning the same value bracket a window in
// which no mutation completed. Lock-free.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// Count returns the number of indexed entries.
func (ix *Index) Count() int {
	n := 0
	for _, sh := range ix.shards {
		n += sh.snap.Load().live
	}
	return n
}

// intern resolves or assigns a term ID. New terms go straight into the
// published dictionary's spill map — safe because a term with no
// published postings is invisible to ranking — so a single-record ingest
// pays O(1) per new term, not an O(vocabulary) dictionary copy. Callers
// hold ix.mu.
func (ix *Index) intern(d *termDict, tok string) int32 {
	if id, ok := d.lookup(tok); ok {
		return id
	}
	id := ix.nextTerm
	ix.nextTerm++
	// tok is usually a substring view of the caller's text; clone so the
	// dictionary does not pin the whole source string.
	d.extra.Store(strings.Clone(tok), id)
	ix.spilled++
	return id
}

// compactDict folds the spill map into a fresh immutable base once it
// outgrows a quarter of the base (minimum 1024 entries), keeping inserts
// amortized O(1). Readers holding the previous dictionary still resolve
// every term: its base and spill map are never mutated destructively.
func (ix *Index) compactDict() {
	d := ix.dict.Load()
	if ix.spilled <= max(1024, len(d.ids)/4) {
		return
	}
	m := make(map[string]int32, len(d.ids)+ix.spilled)
	maps.Copy(m, d.ids)
	d.extra.Range(func(k, v any) bool {
		m[k.(string)] = v.(int32)
		return true
	})
	ix.dict.Store(&termDict{ids: m, extra: &sync.Map{}})
	ix.spilled = 0
}

// tokenScratch recycles the per-write token buffers so (re)indexing a
// record allocates no intermediate slices.
var tokenScratch = sync.Pool{New: func() any { return new(tokenBuf) }}

type tokenBuf struct {
	toks []string
	tids []int32
}

// Ingest adds or replaces an entry. The new record is visible to queries
// and Get before Ingest returns.
func (ix *Index) Ingest(e Entry) error {
	if e.ID == "" {
		return fmt.Errorf("search: entry missing id")
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	sh := ix.shardFor(e.ID)
	sh.ingestLocked(ix, e, ix.dict.Load())
	ix.compactDict()
	sh.publishLocked()
	ix.epoch.Add(1)
	return nil
}

// IngestBatch adds or replaces many entries with one snapshot publish per
// touched shard, amortizing the copy-on-write cost of Ingest across the
// batch. Either every entry is applied or none (the only error, a missing
// ID, is checked up front). Use it for bulk seeding and snapshot loads.
func (ix *Index) IngestBatch(entries []Entry) error {
	for i := range entries {
		if entries[i].ID == "" {
			return fmt.Errorf("search: entry %d missing id", i)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	dict := ix.dict.Load()
	var touched []*shard
	for i := range entries {
		sh := ix.shardFor(entries[i].ID)
		if !sh.batching {
			sh.batching = true
			sh.dirty = map[int32]bool{}
			touched = append(touched, sh)
		}
		sh.ingestLocked(ix, entries[i], dict)
	}
	ix.compactDict()
	for _, sh := range touched {
		for tid := range sh.dirty {
			slices.SortFunc(sh.post[tid], func(a, b posting) int {
				return cmp.Compare(a.ord, b.ord)
			})
		}
		sh.batching = false
		sh.dirty = nil
		sh.mergeRecent()
		sh.publishLocked()
	}
	ix.epoch.Add(1)
	return nil
}

// Delete removes an entry, reporting whether it existed.
func (ix *Index) Delete(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	sh := ix.shardFor(id)
	ord, ok := sh.ords[id]
	if !ok {
		return false
	}
	sh.removeLocked(id, ord)
	ix.ids.Delete(id)
	sh.publishLocked()
	ix.epoch.Add(1)
	return true
}

// Get returns an entry by ID, honoring the ACL.
func (ix *Index) Get(id, principal string) (Entry, bool) {
	v, ok := ix.ids.Load(id)
	if !ok {
		return Entry{}, false
	}
	d := v.(*sdoc)
	if !d.entry.visible(principal) {
		return Entry{}, false
	}
	return d.entry, true
}

// ingestLocked indexes one entry into the shard's build state.
func (sh *shard) ingestLocked(ix *Index, e Entry, dict *termDict) {
	if ord, ok := sh.ords[e.ID]; ok {
		sh.removeLocked(e.ID, ord)
	}
	d := &sdoc{entry: e}
	// The ACL is load-bearing for every future read of this record, and
	// the facet counts carried across publishes are moved by the Fields a
	// document enters and leaves with: detach both from the caller's
	// memory, so the index answers from ingest-time values — what the
	// journal recorded. Numbers stay aliased to the caller's map.
	d.entry.VisibleTo = append([]string(nil), e.VisibleTo...)
	d.entry.Fields = maps.Clone(e.Fields)

	sc := tokenScratch.Get().(*tokenBuf)
	toks := docTokens(sc.toks[:0], &d.entry)
	d.dl = int32(len(toks))
	tids := sc.tids[:0]
	for _, t := range toks {
		tids = append(tids, ix.intern(dict, t))
	}
	slices.Sort(tids)
	for i := 0; i < len(tids); {
		j := i
		for j < len(tids) && tids[j] == tids[i] {
			j++
		}
		d.terms = append(d.terms, termCount{id: tids[i], tf: int32(j - i)})
		i = j
	}
	sc.toks, sc.tids = toks, tids
	clear(sc.toks) // token views pin the caller's text; drop them
	tokenScratch.Put(sc)

	var ord int32
	if n := len(sh.free); n > 0 {
		ord = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.docs[ord] = d
	} else {
		ord = int32(len(sh.docs))
		sh.docs = append(sh.docs, d)
	}
	sh.ords[e.ID] = ord
	for _, tc := range d.terms {
		sh.addPosting(tc.id, posting{ord: ord, tf: tc.tf})
	}
	if !sh.batching {
		i := sh.searchRecent(d)
		nr := make([]int32, 0, len(sh.recent)+1)
		nr = append(nr, sh.recent[:i]...)
		nr = append(nr, ord)
		sh.recent = append(nr, sh.recent[i:]...)
	}
	sh.noteDoc(d, +1)
	ix.ids.Store(d.entry.ID, d)
}

// searchRecent finds d's position in the shard's recency order: where it
// is, or where it belongs.
func (sh *shard) searchRecent(d *sdoc) int {
	i, _ := slices.BinarySearchFunc(sh.recent, d, func(ord int32, d *sdoc) int {
		return recencyCmp(sh.docs[ord], d)
	})
	return i
}

// noteDoc moves the anonymous-visible count and, for an ACL-free document,
// records the facet delta. The two predicates differ on purpose: an ACL
// that names the empty principal is on the anonymous page (visible("")),
// as it always was, and was never in the public facet counts.
func (sh *shard) noteDoc(d *sdoc, n int) {
	if d.entry.visible("") {
		sh.anon += n
	}
	if len(d.entry.VisibleTo) == 0 && len(d.entry.Fields) > 0 {
		sh.delta = append(sh.delta, facetDelta{d, n})
	}
}

// mergeRecent rebuilds the recency order after a batch. Against the last
// published snapshot an ordinal's document is either the same *sdoc
// (untouched: its entry in recent stands) or not — added, replaced, or
// the ordinal reused — so the batch keeps no list of its own and an entry
// replaced twice within it needs no special case. Each new document finds
// its place by binary search, so a few records landing anywhere in a
// large shard cost a few comparisons each and one pass of copying, and a
// bulk load stays linear in what it loads.
func (sh *shard) mergeRecent() {
	prev := sh.snap.Load().docs
	same := func(ord int32) bool { return int(ord) < len(prev) && prev[ord] == sh.docs[ord] }
	var fresh []int32
	for ord, d := range sh.docs {
		if d != nil && !same(int32(ord)) {
			fresh = append(fresh, int32(ord))
		}
	}
	slices.SortFunc(fresh, func(a, b int32) int { return recencyCmp(sh.docs[a], sh.docs[b]) })

	merged := make([]int32, 0, len(sh.ords))
	old := sh.recent
	keep := func(n int) { // the next n old entries, less those the batch replaced or removed
		for _, ord := range old[:n] {
			if same(ord) {
				merged = append(merged, ord)
			}
		}
		old = old[n:]
	}
	for _, ord := range fresh {
		// old is ordered by the documents it was published with, and the
		// batch may have emptied or refilled their ordinals: compare prev's.
		i, _ := slices.BinarySearchFunc(old, sh.docs[ord], func(o int32, d *sdoc) int {
			return recencyCmp(prev[o], d)
		})
		keep(i)
		merged = append(merged, ord)
	}
	keep(len(old))
	sh.recent = merged
}

// removeLocked unindexes the entry by deleting exactly the postings its
// ingest created — O(document terms), independent of index size. It does
// NOT touch the lock-free ids map: on the re-ingest path the final Store
// must atomically replace the old doc (a Delete here would open a window
// where concurrent Gets 404 a record that exists before and after);
// Delete() removes the ids entry itself.
func (sh *shard) removeLocked(id string, ord int32) {
	d := sh.docs[ord]
	if !sh.batching {
		i := sh.searchRecent(d)
		nr := make([]int32, 0, len(sh.recent)-1)
		nr = append(nr, sh.recent[:i]...)
		sh.recent = append(nr, sh.recent[i+1:]...)
	}
	sh.noteDoc(d, -1)
	sh.docs[ord] = nil
	sh.free = append(sh.free, ord)
	delete(sh.ords, id)
	for _, tc := range d.terms {
		sh.delPosting(tc.id, ord)
	}
}

// addPosting records (ord, tf) under tid. Outside a batch the published
// slice is cloned with the posting inserted at its sorted position; in a
// batch the first touch clones and later touches append (sorted at batch
// publish).
func (sh *shard) addPosting(tid int32, p posting) {
	for int(tid) >= len(sh.post) {
		sh.post = append(sh.post, nil)
	}
	old := sh.post[tid]
	if sh.batching {
		if !sh.dirty[tid] {
			old = slices.Clone(old)
			sh.dirty[tid] = true
		}
		sh.post[tid] = append(old, p)
		return
	}
	i, _ := slices.BinarySearchFunc(old, p, func(a, b posting) int {
		return cmp.Compare(a.ord, b.ord)
	})
	np := make([]posting, 0, len(old)+1)
	np = append(np, old[:i]...)
	np = append(np, p)
	np = append(np, old[i:]...)
	sh.post[tid] = np
}

// delPosting removes ord's posting under tid via clone-without-element.
func (sh *shard) delPosting(tid, ord int32) {
	old := sh.post[tid]
	i := -1
	if sh.batching && sh.dirty[tid] {
		// Build-owned batch slices may be unsorted until batch publish.
		for j := range old {
			if old[j].ord == ord {
				i = j
				break
			}
		}
	} else {
		j, ok := slices.BinarySearchFunc(old, posting{ord: ord}, func(a, b posting) int {
			return cmp.Compare(a.ord, b.ord)
		})
		if ok {
			i = j
		}
	}
	if i < 0 {
		return
	}
	np := make([]posting, 0, len(old)-1)
	np = append(np, old[:i]...)
	np = append(np, old[i+1:]...)
	sh.post[tid] = np
	if sh.batching {
		sh.dirty[tid] = true
	}
}

// publishLocked snapshots the build state: clone the ord-indexed doc
// array and the posting directory (headers only — the inner slices are
// immutable) and swap the shard's epoch pointer. Readers that already
// grabbed the previous snapshot keep a fully consistent view. Whatever
// facet counts readers memoised on the previous snapshot move to the new
// one by the delta since it was published (facetTable.carry): the writer
// pays O(delta) plus a clone the two caps bound.
func (sh *shard) publishLocked() {
	sn := &shardSnap{
		docs:   slices.Clone(sh.docs),
		post:   slices.Clone(sh.post),
		live:   len(sh.ords),
		recent: sh.recent,
		anon:   sh.anon,
	}
	if t := sh.snap.Load().facets.Load(); t != nil {
		if nt := t.carry(sh.delta); nt != nil {
			sn.facets.Store(nt)
		}
	}
	sh.delta = nil
	sh.snap.Store(sn)
}

// Save writes a JSON-lines snapshot of every entry, ordered by ID. It
// reads published snapshots only and can run concurrently with writers.
func (ix *Index) Save(w io.Writer) error {
	var docs []*sdoc
	for _, sh := range ix.shards {
		for _, d := range sh.snap.Load().docs {
			if d != nil {
				docs = append(docs, d)
			}
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].entry.ID < docs[j].entry.ID })
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range docs {
		if err := enc.Encode(&d.entry); err != nil {
			return fmt.Errorf("search: save: %w", err)
		}
	}
	return bw.Flush()
}

// Load replaces the index contents with a snapshot written by Save,
// batch-ingesting it (one snapshot publish per shard).
func Load(r io.Reader) (*Index, error) {
	var entries []Entry
	dec := json.NewDecoder(r)
	for {
		var e Entry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("search: load: %w", err)
		}
		entries = append(entries, e)
	}
	ix := NewIndex()
	if err := ix.IngestBatch(entries); err != nil {
		return nil, err
	}
	return ix, nil
}
