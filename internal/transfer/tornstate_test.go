package transfer

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/fsutil"
)

// findManifest returns the single persisted chunk manifest in dir.
func findManifest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".manifest.json") {
			if found != "" {
				t.Fatalf("more than one manifest in %s", dir)
			}
			found = filepath.Join(dir, e.Name())
		}
	}
	if found == "" {
		t.Fatalf("no manifest in %s", dir)
	}
	return found
}

// A chunk manifest whose tail was torn (truncated mid-JSON) must not be
// silently replaced by a fresh one — the destination file's contents can
// no longer be accounted for. The attempt fails loudly, the corrupt file
// is quarantined as .corrupt, and only then does a retry start clean.
func TestTornManifestQuarantinedAndFailsLoudly(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot, manDir := t.TempDir(), t.TempDir(), t.TempDir()
	const chunk = 8 << 10
	payload := writeRandom(t, filepath.Join(srcRoot, "f.emdg"), 8*chunk, 11)

	svc1 := NewService(iss, &ChunkMover{
		ChunkBytes: chunk, Streams: 1,
		ManifestDir: manDir, KillAfterChunks: 3,
	}, time.Now, Options{MaxAttempts: 1})
	svc1.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc1.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id1, err := svc1.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, svc1, tok, id1, StatusFailed)

	// Tear the persisted manifest's tail mid-JSON.
	manPath := findManifest(t, manDir)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(manPath, int64(len(raw)/2)); err != nil {
		t.Fatal(err)
	}

	// A new service over the torn manifest must refuse loudly, not resume
	// from zero over an unaccounted-for destination.
	svc2 := NewService(iss, &ChunkMover{
		ChunkBytes: chunk, Streams: 1, ManifestDir: manDir,
	}, time.Now, Options{MaxAttempts: 1})
	svc2.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc2.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id2, err := svc2.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitFor(t, svc2, tok, id2, StatusFailed)
	if !strings.Contains(v2.Error, "corrupt chunk manifest") {
		t.Errorf("error = %q, want corrupt-manifest mention", v2.Error)
	}
	if _, err := os.Stat(manPath + ".corrupt"); err != nil {
		t.Errorf("corrupt manifest not quarantined: %v", err)
	}
	if _, err := os.Stat(manPath); !os.IsNotExist(err) {
		t.Errorf("torn manifest still in place (err=%v)", err)
	}

	// With the quarantine done, a third service starts from a fresh
	// manifest and completes correctly.
	svc3 := NewService(iss, &ChunkMover{
		ChunkBytes: chunk, Streams: 1, ManifestDir: manDir,
	}, time.Now, Options{})
	svc3.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc3.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id3, err := svc3.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	if err != nil {
		t.Fatal(err)
	}
	v3 := waitFor(t, svc3, tok, id3, StatusSucceeded)
	if v3.ChunksSkipped != 0 {
		t.Errorf("fresh-after-quarantine run skipped %d chunks, want 0", v3.ChunksSkipped)
	}
	got, err := os.ReadFile(filepath.Join(dstRoot, "f.emdg"))
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("content mismatch after quarantine recovery (err=%v)", err)
	}
}

// manifestTask is the task the manifest-load tests persist manifests for:
// a three-chunk file beside an empty one.
func manifestTask() (files []FileSpec, chunk int64, key string) {
	files = []FileSpec{{RelPath: "a.bin", Bytes: 3000}, {RelPath: "empty.bin"}}
	return files, 1024, taskKey("src", "dst", files, 1024, nil)
}

// persistManifest writes raw as the persisted manifest under key in a
// fresh directory and returns a store over it.
func persistManifest(t *testing.T, key string, raw []byte) *manifestStore {
	t.Helper()
	ms := newManifestStore(t.TempDir(), nil)
	if err := os.WriteFile(ms.path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestManifestThatDoesNotTileIsCorrupt: a persisted manifest that parses
// and describes this task, but whose chunks leave a gap, overlap, run past
// the file or do not reach its end, is corrupt resume state like a torn
// one — quarantined as .corrupt with a loud error, the next load starting
// clean — not a plan every attempt would fail on. The intact manifest
// still resumes.
func TestManifestThatDoesNotTileIsCorrupt(t *testing.T) {
	files, chunk, key := manifestTask()
	for name, damage := range map[string]func(f []manifestFile){
		"intact":        func([]manifestFile) {},
		"gap":           func(f []manifestFile) { f[0].Chunks[1].Off, f[0].Chunks[1].N = 1100, 948 },
		"overlap":       func(f []manifestFile) { f[0].Chunks[1].Off, f[0].Chunks[1].N = 1000, 1048 },
		"overrun":       func(f []manifestFile) { f[0].Chunks[2].N++ },
		"short":         func(f []manifestFile) { f[0].Chunks = f[0].Chunks[:2] },
		"empty chunk":   func(f []manifestFile) { f[0].Chunks = append(f[0].Chunks, manifestChunk{Off: 3000}) },
		"no empty span": func(f []manifestFile) { f[1].Chunks = nil },
	} {
		m := newManifest(key, files, chunk)
		m.Files[0].Chunks[0].Done, m.Files[0].Chunks[0].SHA256 = true, strings.Repeat("ab", 32)
		damage(m.Files)
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		ms := persistManifest(t, key, raw)
		got, err := ms.load(key, files, chunk, false)
		if name == "intact" {
			if err != nil || !got.Files[0].Chunks[0].Done {
				t.Errorf("intact manifest: err=%v, want its done chunk resumed", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "corrupt chunk manifest") {
			t.Errorf("%s: load err = %v, want a corrupt-manifest error", name, err)
		}
		if _, err := os.Stat(ms.path(key) + ".corrupt"); err != nil {
			t.Errorf("%s: not quarantined: %v", name, err)
		}
		if fresh, err := ms.load(key, files, chunk, false); err != nil || !fresh.tiles() || fresh.Files[0].Chunks[0].Done {
			t.Errorf("%s: the load after the quarantine did not start clean (err=%v)", name, err)
		}
	}
}

// FuzzManifestLoad writes arbitrary bytes as a task's persisted chunk
// manifest and loads it. Load never panics, and either fails with the
// bytes quarantined as .corrupt or returns a plan whose spans tile every
// file of the task exactly — the only plan the engine can move and merge.
func FuzzManifestLoad(f *testing.F) {
	files, chunk, key := manifestTask()
	seed := func(damage func(m *manifest)) {
		m := newManifest(key, files, chunk)
		damage(m)
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, false)
		f.Add(raw, true)
	}
	seed(func(*manifest) {})
	seed(func(m *manifest) { m.Files[0].Chunks[0].Done, m.Files[0].Chunks[0].SHA256 = true, "ab" })
	seed(func(m *manifest) { m.Files[0].Chunks[1].Off++ })
	seed(func(m *manifest) { m.Files[0].Chunks[2].N = 1 << 62 })
	seed(func(m *manifest) { m.ChunkBytes = 512 })
	f.Add([]byte(`{"version":1,"key":"`+key+`"`), false) // torn
	f.Add([]byte("{}"), false)

	f.Fuzz(func(t *testing.T, raw []byte, adaptive bool) {
		ms := persistManifest(t, key, raw)
		m, err := ms.load(key, files, chunk, adaptive)
		if err != nil {
			if _, serr := os.Stat(ms.path(key) + ".corrupt"); serr != nil {
				t.Fatalf("load failed (%v) without quarantining the manifest: %v", err, serr)
			}
			return
		}
		byFile := make([][]chunkSpan, len(files))
		for _, sp := range m.spans() {
			byFile[sp.File] = append(byFile[sp.File], sp)
		}
		for fi, spans := range byFile {
			size := files[fi].Bytes
			if size == 0 {
				if len(spans) != 1 || spans[0].Off != 0 || spans[0].N != 0 || !spans[0].Whole {
					t.Fatalf("%s: spans %+v, want the one empty span", files[fi].RelPath, spans)
				}
				continue
			}
			var end int64
			for i, sp := range spans {
				if sp.Index != i || sp.Off != end || sp.N <= 0 || sp.N > size-end || sp.Whole != (len(spans) == 1) {
					t.Fatalf("%s: span %+v does not continue the plan at %d", files[fi].RelPath, sp, end)
				}
				end += sp.N
			}
			if end != size {
				t.Fatalf("%s: spans cover %d of %d bytes", files[fi].RelPath, end, size)
			}
		}
	})
}

// A crash in the middle of a manifest persist (injected via FaultFS on
// the mover's manifest filesystem) must never leave a torn manifest on
// disk: the atomic write leaves either the previous snapshot or the new
// one, both valid JSON. The payload copy itself — real filesystem — is
// unaffected.
func TestManifestCrashMidPersistNeverTorn(t *testing.T) {
	for _, crashAt := range []int{1, 2, 3, 5} {
		iss, tok := issuerAndToken(t)
		srcRoot, dstRoot, manDir := t.TempDir(), t.TempDir(), t.TempDir()
		const chunk = 8 << 10
		payload := writeRandom(t, filepath.Join(srcRoot, "f.emdg"), 8*chunk, 12)

		fs := &fsutil.FaultFS{CrashAtWrite: crashAt}
		svc := NewService(iss, &ChunkMover{
			ChunkBytes: chunk, Streams: 1,
			ManifestDir: manDir, FS: fs,
		}, time.Now, Options{})
		svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
		svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
		id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		if err != nil {
			t.Fatal(err)
		}
		v := waitFor(t, svc, tok, id, StatusSucceeded)
		if v.ChunksMoved != 8 {
			t.Errorf("crashAt=%d: moved %d chunks, want 8", crashAt, v.ChunksMoved)
		}
		got, err := os.ReadFile(filepath.Join(dstRoot, "f.emdg"))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("crashAt=%d: content mismatch (err=%v)", crashAt, err)
		}
		if !fs.Crashed() {
			t.Fatalf("crashAt=%d: crash never fired", crashAt)
		}

		// Whatever manifests remain (forget may have failed post-crash)
		// must parse — the crash may cost a resume point, never leave a
		// torn file.
		entries, err := os.ReadDir(manDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".manifest.json") {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(manDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Errorf("crashAt=%d: torn manifest %s on disk: %v", crashAt, e.Name(), err)
			}
		}
	}
}
