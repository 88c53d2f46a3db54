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
