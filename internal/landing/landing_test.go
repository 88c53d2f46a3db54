package landing

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestInvalidRequestsRefused: every argument the store refuses on sight
// is ErrInvalid (what the daemon answers bad-request for), and a refused
// request creates nothing. Non-local paths through Stat, Prepare, Write,
// Hash and Merge are covered from above, by the transfer package's sink
// table and the wire server's test (both named TestPathConfinement).
func TestInvalidRequestsRefused(t *testing.T) {
	outer := t.TempDir()
	s := Store{Root: filepath.Join(outer, "root")}
	for _, rel := range []string{"../escape.bin", "a/../../escape.bin", filepath.Join(outer, "abs.bin"), ""} {
		if _, err := s.Resolve(rel); !errors.Is(err, ErrInvalid) {
			t.Errorf("Resolve(%q) err = %v, want ErrInvalid", rel, err)
		}
	}
	if err := s.Prepare("f.bin", -1); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative prepare size: err = %v, want ErrInvalid", err)
	}
	if _, _, err := s.Write("f.bin", -1, bytes.NewReader(nil)); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative write offset: err = %v, want ErrInvalid", err)
	}
	if _, _, err := s.Hash("f.bin", -1, 4); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative hash offset: err = %v, want ErrInvalid", err)
	}
	if _, _, err := s.Hash("f.bin", 0, -4); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative hash length: err = %v, want ErrInvalid", err)
	}
	if entries, err := os.ReadDir(outer); err != nil || len(entries) != 0 {
		t.Errorf("refused requests left %d entries behind (err=%v)", len(entries), err)
	}

	// A merge plan must tile the file exactly and give every chunk a
	// digest (d is the right one for 256 zero bytes: only the shape, or the
	// missing digest, is wrong with each plan).
	if err := s.Prepare("f.bin", 512); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(make([]byte, 256))
	d := hex.EncodeToString(sum[:])
	for name, plan := range map[string][]Chunk{
		"gapped":     {{Off: 0, N: 256, SHA256: d}, {Off: 300, N: 212, SHA256: d}},
		"short":      {{Off: 0, N: 256, SHA256: d}},
		"long":       {{Off: 0, N: 256, SHA256: d}, {Off: 256, N: 512, SHA256: d}},
		"shifted":    {{Off: 1, N: 511, SHA256: d}},
		"undigested": {{Off: 0, N: 256, SHA256: d}, {Off: 256, N: 256}},
	} {
		if _, bad, err := s.Merge("f.bin", plan); !errors.Is(err, ErrInvalid) || bad != -1 {
			t.Errorf("%s plan: bad=%d err=%v, want ErrInvalid", name, bad, err)
		}
	}
}

// TestWriteReportsWholeFile: Write says the file is exactly its bytes only
// when it began at offset 0 and nothing lies beyond them — a fresh file,
// or a shorter one it overwrote — never for a write into a longer file or
// at an offset.
func TestWriteReportsWholeFile(t *testing.T) {
	s := Store{Root: t.TempDir()}
	body := []byte("one chunk is the whole file")
	for _, tc := range []struct {
		name    string
		prepare int64 // -1: no file before the write
		off     int64
		whole   bool
	}{
		{"fresh file", -1, 0, true},
		{"prepared to its size", int64(len(body)), 0, true},
		{"shorter file", 4, 0, true},
		{"longer file", int64(len(body)) + 1, 0, false},
		{"at an offset", -1, 1, false},
	} {
		rel := tc.name + ".bin"
		if tc.prepare >= 0 {
			if err := s.Prepare(rel, tc.prepare); err != nil {
				t.Fatal(err)
			}
		}
		n, whole, err := s.Write(rel, tc.off, bytes.NewReader(body))
		if err != nil || n != int64(len(body)) || whole != tc.whole {
			t.Errorf("%s: n=%d whole=%v err=%v, want %d %v", tc.name, n, whole, err, len(body), tc.whole)
		}
	}
}

// TestMergeOneChunkPlan: a one-chunk plan, hashed once, yields the
// whole-file digest; the file corrupted behind the store's back names
// chunk 0 and yields no digest.
func TestMergeOneChunkPlan(t *testing.T) {
	s := Store{Root: t.TempDir()}
	body := bytes.Repeat([]byte{0x5A}, 300<<10) // more than one copy buffer
	sum := sha256.Sum256(body)
	d := hex.EncodeToString(sum[:])
	if _, _, err := s.Write("one.bin", 0, bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	plan := []Chunk{{Off: 0, N: int64(len(body)), SHA256: d}}
	if got, bad, err := s.Merge("one.bin", plan); err != nil || bad != -1 || got != d {
		t.Fatalf("merge = %q bad=%d err=%v, want %s", got, bad, err, d)
	}
	path := filepath.Join(s.Root, "one.bin")
	body[200<<10] ^= 0xFF
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, bad, err := s.Merge("one.bin", plan); err != nil || bad != 0 || got != "" {
		t.Fatalf("corrupted merge = %q bad=%d err=%v, want chunk 0 named", got, bad, err)
	}
}
