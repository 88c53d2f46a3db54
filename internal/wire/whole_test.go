package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteWholeMergesAtTheDoor: a whole-file Write that leaves the file
// exactly its body is answered with the body's digest — the merge — and
// the status endpoint counts it.
func TestWriteWholeMergesAtTheDoor(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	body := bytes.Repeat([]byte{0x42}, 3<<10)
	digest := hexSHA256(body)
	for i, rel := range []string{"fresh.bin", "prepared.bin"} {
		if i == 1 {
			if err := cl.Prepare(rel, int64(len(body))); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := cl.WriteWhole(rel, body, digest)
		if err != nil || merged != digest {
			t.Fatalf("%s: merged %q err=%v, want the body's digest %s", rel, merged, err, digest)
		}
		if landed, err := os.ReadFile(filepath.Join(srv.Root, rel)); err != nil || !bytes.Equal(landed, body) {
			t.Fatalf("%s: landed bytes differ from the body (err=%v)", rel, err)
		}
	}
	if st, _, err := cl.Status(0); err != nil || st.Merged != 2 {
		t.Fatalf("status merged = %d (err=%v), want 2", st.Merged, err)
	}
}

// TestWriteWholeChecksumRejection: the door check is the same for a
// whole-file Write — a wrong digest is CodeChecksum and nothing lands, a
// missing one CodeBadRequest — and nothing is counted as merged.
func TestWriteWholeChecksumRejection(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	body := []byte("whole file bytes")
	if merged, err := cl.WriteWhole("x.bin", body, hexSHA256([]byte("other bytes"))); !IsRemoteCode(err, CodeChecksum) || merged != "" {
		t.Fatalf("wrong digest: merged %q err=%v, want CodeChecksum", merged, err)
	}
	if _, err := cl.WriteWhole("x.bin", body, ""); !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("no digest: err=%v, want CodeBadRequest", err)
	}
	if _, err := os.Stat(filepath.Join(srv.Root, "x.bin")); !os.IsNotExist(err) {
		t.Fatalf("a refused whole write landed (stat err=%v)", err)
	}
	if st, _, err := cl.Status(0); err != nil || st.Merged != 0 {
		t.Fatalf("status merged = %d (err=%v), want 0", st.Merged, err)
	}
}

// TestWriteWholeNotTheWholeFile: a Write marked whole that does not leave
// the file exactly its body — at an offset, or into a longer file — lands
// as an ordinary chunk and is answered with a WriteOK without a digest,
// which is not an error: the client merges separately.
func TestWriteWholeNotTheWholeFile(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	body := []byte("not the whole file")
	digest := hexSHA256(body)
	if err := cl.Prepare("longer.bin", int64(len(body))+1); err != nil {
		t.Fatal(err)
	}
	for _, req := range []Write{
		{Rel: "offset.bin", Off: 4, SHA256: digest, Whole: true},
		{Rel: "longer.bin", Off: 0, SHA256: digest, Whole: true},
	} {
		var resp WriteOK
		if _, err := cl.do(MsgWrite, req, body, MsgWriteOK, &resp); err != nil || resp.SHA256 != "" {
			t.Fatalf("%s: answer %+v err=%v, want a WriteOK without a digest", req.Rel, resp, err)
		}
		landed, err := os.ReadFile(filepath.Join(srv.Root, req.Rel))
		if err != nil || !bytes.Equal(landed[req.Off:req.Off+int64(len(body))], body) {
			t.Fatalf("%s: body not landed at %d (err=%v)", req.Rel, req.Off, err)
		}
	}
	if st, _, err := cl.Status(0); err != nil || st.Merged != 0 {
		t.Fatalf("status merged = %d (err=%v), want 0", st.Merged, err)
	}
}
