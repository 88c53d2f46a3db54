package transfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/landing"
	"picoprobe/internal/wire"
)

// forBothSinks runs fn against the local sink and the wire sink (an
// in-process wire.Server on loopback), each rooted at root — a fresh
// directory one level below a parent the test can inspect for escapes.
func forBothSinks(t *testing.T, fn func(t *testing.T, sk sink, root string)) {
	t.Run("local", func(t *testing.T) {
		root := filepath.Join(t.TempDir(), "root")
		fn(t, localSink{landing.Store{Root: root}}, root)
	})
	t.Run("wire", func(t *testing.T) {
		root := filepath.Join(t.TempDir(), "root")
		srv := &wire.Server{Root: root, Facility: "test"}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl := &wire.Client{Addr: addr, Timeout: 10 * time.Second}
		t.Cleanup(func() { cl.Close() })
		fn(t, wireSink{Client: cl}, root)
	})
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSinkConformance is the sink contract (DESIGN.md §8), run against
// both sinks: what the engine's resume and merge decisions rely on must
// hold identically in-process and across a socket.
func TestSinkConformance(t *testing.T) {
	const chunk = 1024
	forBothSinks(t, func(t *testing.T, sk sink, root string) {
		srcDir := t.TempDir()
		data := writeRandom(t, filepath.Join(srcDir, "f.bin"), 2*chunk+100, 21)
		src, err := os.Open(filepath.Join(srcDir, "f.bin"))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		spans := planFile(0, int64(len(data)), chunk)
		const rel = "runs/f.bin"

		// Absent files size as -1, nested or not.
		sizes, err := sk.Stat([]string{rel, "missing.bin"})
		if err != nil || sizes[0] != -1 || sizes[1] != -1 {
			t.Fatalf("absent sizes = %v (err=%v), want -1s", sizes, err)
		}
		if _, present, err := sk.Hash(rel, spans[0].Off, spans[0].N); err != nil || present {
			t.Fatalf("hash of an absent file: present=%v err=%v", present, err)
		}

		// Land only the first chunk into a file exactly one chunk long: the
		// pre-attempt size a resuming engine would read.
		if err := sk.Prepare(rel, chunk); err != nil {
			t.Fatal(err)
		}
		sum0, _, err := sk.Write(rel, spans[0], src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum0 != hexSum(data[:chunk]) {
			t.Fatalf("write digest %s, want the source bytes' %s", sum0, hexSum(data[:chunk]))
		}
		pre, err := sk.Stat([]string{rel})
		if err != nil || pre[0] != chunk {
			t.Fatalf("pre-attempt size = %v (err=%v), want %d", pre, err, chunk)
		}
		if _, present, err := sk.Hash(rel, spans[1].Off, spans[1].N); err != nil || present {
			t.Fatalf("hash past EOF: present=%v err=%v", present, err)
		}

		// The attempt prepares the file to full length. Chunk 1 now hashes
		// as present (zeros) — but a range past the pre-attempt size never
		// counts as survived, even when the recorded digest matches what is
		// there, while chunk 0 inside the bound does.
		if err := sk.Prepare(rel, int64(len(data))); err != nil {
			t.Fatal(err)
		}
		zeros := hexSum(make([]byte, chunk))
		if got, present, err := sk.Hash(rel, spans[1].Off, spans[1].N); err != nil || !present || got != zeros {
			t.Fatalf("prepared range: present=%v sum=%s err=%v, want zeros", present, got, err)
		}
		if survived(sk, rel, spans[1], zeros, pre[0]) {
			t.Error("chunk past the pre-attempt size counted as survived")
		}
		if !survived(sk, rel, spans[0], sum0, pre[0]) {
			t.Error("intact chunk inside the pre-attempt size not counted as survived")
		}
		// A wrong recorded digest is never verified, and a done chunk with
		// none — what a parent-format manifest written with verification off
		// holds — cannot be.
		if survived(sk, rel, spans[0], strings.Repeat("ab", 32), pre[0]) {
			t.Error("chunk with a wrong recorded digest counted as survived")
		}
		if survived(sk, rel, spans[0], "", pre[0]) {
			t.Error("chunk with no recorded digest counted as survived")
		}

		// Land the rest; the happy-path merge yields the whole-file digest
		// of the source bytes (so the two sinks agree with each other).
		plan := []landing.Chunk{{Off: 0, N: chunk, SHA256: sum0}}
		for _, sp := range spans[1:] {
			sum, _, err := sk.Write(rel, sp, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan = append(plan, landing.Chunk{Off: sp.Off, N: sp.N, SHA256: sum})
		}
		whole, bad, err := sk.Merge(rel, plan)
		if err != nil || bad != -1 || whole != hexSum(data) {
			t.Fatalf("merge = %s bad=%d err=%v, want %s", whole, bad, err, hexSum(data))
		}
		landed, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil || !bytes.Equal(landed, data) {
			t.Fatalf("landed bytes differ from the source (err=%v)", err)
		}
		// A plan that leaves one chunk without a digest is refused outright:
		// no sink merges bytes it cannot verify.
		undigested := append([]landing.Chunk(nil), plan...)
		undigested[1].SHA256 = ""
		if whole, _, err := sk.Merge(rel, undigested); err == nil {
			t.Fatalf("merge accepted a plan with an empty chunk digest (digest %q)", whole)
		}

		// Corrupt one byte of chunk 1 behind the sink's back: the merge
		// names exactly that chunk and returns no digest.
		f, err := os.OpenFile(filepath.Join(root, rel), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{landed[chunk+7] ^ 0xFF}, chunk+7); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if whole, bad, err := sk.Merge(rel, plan); err != nil || bad != 1 || whole != "" {
			t.Fatalf("corrupted merge = %q bad=%d err=%v, want chunk 1 named", whole, bad, err)
		}

		// A one-chunk file: its whole span is merged by the write that lands
		// it, the digest being the file's; a separate merge of the one-chunk
		// plan agrees, and names chunk 0 once the file is corrupted.
		const one = "runs/one.bin"
		wholeSpan := planFile(0, chunk, 0)[0]
		if err := sk.Prepare(one, chunk); err != nil {
			t.Fatal(err)
		}
		sum, merged, err := sk.Write(one, wholeSpan, src, nil)
		if err != nil || !merged || sum != hexSum(data[:chunk]) {
			t.Fatalf("whole write = %s merged=%v err=%v, want merged with %s", sum, merged, err, hexSum(data[:chunk]))
		}
		onePlan := []landing.Chunk{{Off: 0, N: chunk, SHA256: sum}}
		if got, bad, err := sk.Merge(one, onePlan); err != nil || bad != -1 || got != sum {
			t.Fatalf("one-chunk merge = %s bad=%d err=%v, want %s", got, bad, err, sum)
		}
		if err := os.WriteFile(filepath.Join(root, one), data[1:chunk+1], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, bad, err := sk.Merge(one, onePlan); err != nil || bad != 0 || got != "" {
			t.Fatalf("corrupted one-chunk merge = %q bad=%d err=%v, want chunk 0 named", got, bad, err)
		}
		// A whole span landing into a longer file is not its merge.
		if err := sk.Prepare(one, 2*chunk); err != nil {
			t.Fatal(err)
		}
		if _, merged, err := sk.Write(one, wholeSpan, src, nil); err != nil || merged {
			t.Fatalf("whole write into a longer file: merged=%v err=%v, want not merged", merged, err)
		}
	})
}

// TestPathConfinement: a RelPath that is not local to the endpoint roots
// is rejected once, at Submit, for every mover — and should one reach a
// sink anyway, no sink operation touches anything outside its root (the
// landing store's confinement in-process, the same store behind the
// daemon over the wire). Same cases as the wire server's test of the name.
func TestPathConfinement(t *testing.T) {
	escapes := []string{"../escape.bin", "a/../../escape.bin", filepath.Join(t.TempDir(), "abs-escape.bin"), ""}

	forBothMovers(t, func(t *testing.T, w *world) {
		svc := w.service(t, &ChunkMover{}, Options{MaxAttempts: 1})
		for _, rel := range escapes {
			if id, err := svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "ok.bin"}, {RelPath: rel}}); err == nil {
				t.Errorf("Submit accepted RelPath %q as task %s", rel, id)
			}
		}
		if n := len(svc.Tasks()); n != 0 {
			t.Errorf("rejected submits started %d task(s)", n)
		}
	})

	forBothSinks(t, func(t *testing.T, sk sink, root string) {
		srcDir := t.TempDir()
		writeRandom(t, filepath.Join(srcDir, "f.bin"), 64, 22)
		src, err := os.Open(filepath.Join(srcDir, "f.bin"))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		sp := chunkSpan{Off: 0, N: 64}
		for _, rel := range escapes {
			if _, err := sk.Stat([]string{rel}); err == nil {
				t.Errorf("Stat accepted %q", rel)
			}
			if err := sk.Prepare(rel, 64); err == nil {
				t.Errorf("Prepare accepted %q", rel)
			}
			if _, _, err := sk.Write(rel, sp, src, nil); err == nil {
				t.Errorf("Write accepted %q", rel)
			}
			if _, _, err := sk.Hash(rel, sp.Off, sp.N); err == nil {
				t.Errorf("Hash accepted %q", rel)
			}
			if _, _, err := sk.Merge(rel, []landing.Chunk{{Off: 0, N: 64}}); err == nil {
				t.Errorf("Merge accepted %q", rel)
			}
		}
		// Nothing was created beside (or above) the root.
		entries, err := os.ReadDir(filepath.Dir(root))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "root" {
				t.Errorf("sink op created %s outside its root", e.Name())
			}
		}
	})
}
