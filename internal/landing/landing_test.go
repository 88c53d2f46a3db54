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
		if _, err := s.Read(rel, 0, 4); !errors.Is(err, ErrInvalid) {
			t.Errorf("Read(%q) err = %v, want ErrInvalid", rel, err)
		}
	}
	if err := s.Prepare("f.bin", -1); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative prepare size: err = %v, want ErrInvalid", err)
	}
	if _, err := s.Write("f.bin", -1, bytes.NewReader(nil)); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative write offset: err = %v, want ErrInvalid", err)
	}
	if _, _, err := s.Hash("f.bin", -1, 4); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative hash offset: err = %v, want ErrInvalid", err)
	}
	if _, err := s.Read("f.bin", 0, -4); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative read length: err = %v, want ErrInvalid", err)
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
