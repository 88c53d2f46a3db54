package search

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"picoprobe/internal/durable"
)

// DurableOptions configures a DurableIndex.
type DurableOptions struct {
	// Durable are the underlying WAL/snapshot options: the filesystem the
	// torn-write tests substitute.
	Durable durable.Options
	// CompactEvery snapshots the index and reclaims WAL segments after
	// this many journaled records (0 = only on explicit Compact calls).
	CompactEvery int
}

// catalogOp is one journaled catalog mutation.
type catalogOp struct {
	Op string  `json:"op"` // "i" ingest, "b" batch, "d" delete
	E  *Entry  `json:"e,omitempty"`
	Es []Entry `json:"es,omitempty"`
	ID string  `json:"id,omitempty"`
}

// DurableIndex journals every catalog mutation — Ingest, IngestBatch,
// Delete — through a durable.Store before applying it to the wrapped
// Index, so a crashed portal reboots with the catalog intact. Recovery
// replays the whole journal into ONE IngestBatch (plus the deletions), so
// boot pays one copy-on-write publish per touched shard no matter how
// many mutations the campaign accumulated. Reads go straight to Index()
// — the wrapped index's lock-free query path is untouched.
type DurableIndex struct {
	mu   sync.Mutex // serializes journal-append-then-apply
	ix   *Index
	log  *durable.Store
	opts DurableOptions

	sinceCompact int
}

// OpenDurable opens (creating if needed) the journaled catalog in dir and
// recovers it: newest snapshot loaded via Load, WAL tail folded into one
// IngestBatch. The returned stats describe the recovery.
func OpenDurable(dir string, opts DurableOptions) (*DurableIndex, durable.RecoveryStats, error) {
	var ix *Index

	// Fold the replay tail: keep each ID's final entry (first-write order,
	// deduped) and the set of IDs whose last op was a delete. Query results
	// are content-deterministic (scores from tf/idf, ties by date then ID),
	// so folding N mutations into one batch yields bit-identical serving.
	var order []string
	inOrder := map[string]bool{}
	entries := map[string]Entry{}
	deleted := map[string]bool{}
	add := func(e Entry) {
		if !inOrder[e.ID] {
			inOrder[e.ID] = true
			order = append(order, e.ID)
		}
		entries[e.ID] = e
		delete(deleted, e.ID)
	}

	log, stats, err := durable.Open(dir, opts.Durable,
		func(r io.Reader) error {
			loaded, err := Load(r)
			if err != nil {
				return err
			}
			ix = loaded
			return nil
		},
		func(p []byte) error {
			var op catalogOp
			if err := json.Unmarshal(p, &op); err != nil {
				return fmt.Errorf("search: bad journal record: %w", err)
			}
			switch op.Op {
			case "i":
				if op.E == nil {
					return fmt.Errorf("search: ingest record without entry")
				}
				add(*op.E)
			case "b":
				for _, e := range op.Es {
					add(e)
				}
			case "d":
				delete(entries, op.ID)
				deleted[op.ID] = true
			default:
				return fmt.Errorf("search: unknown journal op %q", op.Op)
			}
			return nil
		})
	if err != nil {
		return nil, stats, err
	}
	if ix == nil {
		ix = NewIndex()
	}
	for id := range deleted {
		ix.Delete(id)
	}
	batch := make([]Entry, 0, len(entries))
	for _, id := range order {
		if e, live := entries[id]; live {
			batch = append(batch, e)
		}
	}
	if len(batch) > 0 {
		if err := ix.IngestBatch(batch); err != nil {
			log.Close()
			return nil, stats, fmt.Errorf("search: replay: %w", err)
		}
	}
	return &DurableIndex{ix: ix, log: log, opts: opts}, stats, nil
}

// Index returns the wrapped in-memory index for queries (Search, Get,
// Facets...). Reads are lock-free snapshots and never touch the journal.
func (d *DurableIndex) Index() *Index { return d.ix }

// Count reports the number of live entries.
func (d *DurableIndex) Count() int { return d.ix.Count() }

// journalLocked appends one op. Caller holds d.mu.
func (d *DurableIndex) journalLocked(op catalogOp) error {
	raw, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("search: marshal journal record: %w", err)
	}
	_, err = d.log.Append(raw)
	return err
}

// maybeCompactLocked triggers auto-compaction when due. It must run only
// AFTER the journaled op has been applied to the index — the snapshot
// covers the op's LSN, so snapshotting first would drop that mutation on
// recovery. Caller holds d.mu.
func (d *DurableIndex) maybeCompactLocked(records int) error {
	d.sinceCompact += records
	if d.opts.CompactEvery > 0 && d.sinceCompact >= d.opts.CompactEvery {
		return d.compactLocked()
	}
	return nil
}

// Ingest journals then applies one entry; the entry is on disk before it
// becomes visible to queries.
func (d *DurableIndex) Ingest(e Entry) error {
	if e.ID == "" {
		return fmt.Errorf("search: entry missing id")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.journalLocked(catalogOp{Op: "i", E: &e}); err != nil {
		return err
	}
	if err := d.ix.Ingest(e); err != nil {
		return err
	}
	return d.maybeCompactLocked(1)
}

// IngestBatch journals the whole batch as one WAL record, then applies it
// with one publish per touched shard.
func (d *DurableIndex) IngestBatch(entries []Entry) error {
	for i := range entries {
		if entries[i].ID == "" {
			return fmt.Errorf("search: entry %d missing id", i)
		}
	}
	if len(entries) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.journalLocked(catalogOp{Op: "b", Es: entries}); err != nil {
		return err
	}
	if err := d.ix.IngestBatch(entries); err != nil {
		return err
	}
	return d.maybeCompactLocked(len(entries))
}

// Delete journals then applies a deletion, reporting whether the entry
// existed.
func (d *DurableIndex) Delete(id string) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.journalLocked(catalogOp{Op: "d", ID: id}); err != nil {
		return false, err
	}
	ok := d.ix.Delete(id)
	return ok, d.maybeCompactLocked(1)
}

// Compact snapshots the full index (the same JSON-lines format Save
// writes) and reclaims the WAL segments it covers.
func (d *DurableIndex) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

func (d *DurableIndex) compactLocked() error {
	if err := d.log.Snapshot(d.ix.Save); err != nil {
		return err
	}
	d.sinceCompact = 0
	return nil
}

// Close flushes and closes the journal. The in-memory index stays
// queryable; further mutations fail.
func (d *DurableIndex) Close() error { return d.log.Close() }
