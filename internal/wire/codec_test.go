package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
)

// everyMessage is one instance of every message type's header struct,
// with bodies where the protocol carries them — the conformance corpus
// the round-trip test walks.
func everyMessage() []struct {
	typ  byte
	head any
	body []byte
} {
	return []struct {
		typ  byte
		head any
		body []byte
	}{
		{MsgError, ErrFrame{Code: CodeChecksum, Msg: "declared digest mismatch", Chunk: 3}, nil},
		{MsgHello, Hello{Magic: Magic, Version: ProtocolVersion, Token: "tok.sig"}, nil},
		{MsgHelloOK, HelloOK{Facility: "alcf-eagle", Version: ProtocolVersion}, nil},
		{MsgStat, Stat{Rels: []string{"a/b.emdg", "c.emdg"}}, nil},
		{MsgStatOK, StatOK{Sizes: []int64{12345, -1}}, nil},
		{MsgPrepare, Prepare{Rel: "a/b.emdg", Size: 1 << 20}, nil},
		{MsgPrepareOK, PrepareOK{}, nil},
		{MsgWrite, Write{Rel: "a/b.emdg", Off: 4096, SHA256: "deadbeef"}, []byte("chunk bytes")},
		{MsgWriteOK, WriteOK{}, nil},
		{MsgWrite, Write{Rel: "a/b.emdg", SHA256: "deadbeef", Whole: true}, []byte("whole file")},
		{MsgWriteOK, WriteOK{SHA256: "deadbeef"}, nil},
		{MsgHash, Hash{Rel: "a/b.emdg", Off: 1024, N: 1024}, nil},
		{MsgHashOK, HashOK{Present: true, SHA256: "f00d"}, nil},
		{MsgMerge, Merge{Rel: "a/b.emdg", Chunks: []MergeChunk{{Off: 0, N: 512, SHA256: "aa"}, {Off: 512, N: 512, SHA256: "bb"}}}, nil},
		{MsgMergeOK, MergeOK{SHA256: "whole"}, nil},
		{MsgDispatch, Dispatch{Function: "picoprobe_hyperspectral_analysis", Args: map[string]any{"path": "a/b.emdg", "bytes": float64(91e6)}}, nil},
		{MsgDispatchOK, DispatchOK{Task: "task-000001"}, nil},
		{MsgJob, Job{Task: "task-000001"}, nil},
		{MsgJob, Job{Task: "task-000001", WaitMs: 10000}, nil},
		{MsgJobOK, JobOK{Status: "SUCCEEDED", Result: map[string]any{"record_id": "exp-1"}, NodeID: 2, Started: 100, Completed: 200}, nil},
		{MsgStatus, Status{Fill: 65536}, nil},
		{MsgStatusOK, StatusOK{Facility: "alcf-eagle", Queued: 1, Busy: 2, Jobs: 17, UnixNano: 42}, make([]byte, 65536)},
		{MsgStatusOK, StatusOK{Facility: "alcf-eagle", Jobs: 17, Held: 3, UnixNano: 42}, nil},
		{MsgStatusOK, StatusOK{Facility: "alcf-eagle", Merged: 5, UnixNano: 42}, nil},
	}
}

// TestCodecRoundTripEveryMessageType writes one frame of every message
// type into a buffer and reads them all back: types, headers and bodies
// must survive bit-exactly, and the stream must end with a clean io.EOF.
func TestCodecRoundTripEveryMessageType(t *testing.T) {
	msgs := everyMessage()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteFrame(&buf, m.typ, m.head, m.body); err != nil {
			t.Fatalf("write type %d: %v", m.typ, err)
		}
	}
	for i, m := range msgs {
		typ, head, body, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if typ != m.typ {
			t.Fatalf("frame %d: type %d, want %d", i, typ, m.typ)
		}
		want := m.body
		if want == nil {
			want = []byte{}
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("frame %d (type %d): body %d bytes, want %d", i, typ, len(body), len(want))
		}
		// Decode into a fresh instance of the same header type and
		// compare through a JSON round trip of the original (numbers in
		// maps decode as float64, so compare decoded-to-decoded).
		got := reflect.New(reflect.TypeOf(m.head)).Interface()
		if err := DecodeHead(head, got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, m.typ, reflect.ValueOf(got).Elem().Interface(), m.body); err != nil {
			t.Fatal(err)
		}
		_, head2, _, err := ReadFrame(&again, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(head, head2) {
			t.Fatalf("frame %d (type %d): header not stable under re-encode:\n %s\n %s", i, typ, head, head2)
		}
	}
	if _, _, _, err := ReadFrame(&buf, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestWriteFrameGoldenBytes pins the bytes on the wire, one frame of each
// shape (no header, header only, header and body), against what the
// encoder produced before its assembly buffer was recycled — and a
// chunk-sized frame assembled in a dirty recycled buffer against an
// independent encoding, so nothing of the buffer's previous tenant leaks.
func TestWriteFrameGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		typ  byte
		head any
		body []byte
		want string
	}{
		{MsgPrepareOK, nil, nil, "05000000717804ed0700000000"},
		{MsgStat, Stat{Rels: []string{"a/b.emdg"}}, nil,
			"1a000000b06caeef04150000007b2272656c73223a5b22612f622e656d6467225d7d"},
		{MsgWrite, Write{Rel: "x", Off: 8, SHA256: "ab"}, []byte("chunk bytes"),
			"31000000983fe33308210000007b2272656c223a2278222c226f6666223a382c22736861323536223a226162227d6368756e6b206279746573"},
	} {
		if got := hex.EncodeToString(frameBytes(t, g.typ, g.head, g.body)); got != g.want {
			t.Errorf("type %d frame:\n got %s\nwant %s", g.typ, got, g.want)
		}
	}

	dirty := bytes.Repeat([]byte{0xFF}, 2*pooledFrameMin)
	frameBytes(t, MsgWrite, Write{Rel: "dirty"}, dirty) // leaves a buffer of 0xFF in the pool
	body := bytes.Repeat([]byte{0x00, 0x5A}, pooledFrameMin/2)
	head := []byte(`{"rel":"x","off":0}`)
	payload := append([]byte{MsgWrite}, binary.LittleEndian.AppendUint32(nil, uint32(len(head)))...)
	payload = append(append(payload, head...), body...)
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, castagnoli))
	want = append(want, payload...)
	if got := frameBytes(t, MsgWrite, Write{Rel: "x"}, body); !bytes.Equal(got, want) {
		t.Error("chunk-sized frame assembled in a recycled buffer differs from its independent encoding")
	}
}

// frameBytes encodes one frame for corruption tests.
func frameBytes(t *testing.T, typ byte, head any, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, head, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecTornFrames: a stream cut anywhere inside a frame must
// surface io.ErrUnexpectedEOF (mid-payload) or io.EOF (clean boundary),
// never a mis-parse and never ErrCorrupt — truncation is not damage.
func TestCodecTornFrames(t *testing.T) {
	full := frameBytes(t, MsgWrite, Write{Rel: "x", Off: 8}, []byte("payload bytes here"))
	for cut := 1; cut < len(full); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(full[:cut]), 0)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: err = %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
	if _, _, _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestCodecCRCCorruption: flipping any single byte of the payload (or
// the stored CRC) must be rejected as ErrCorrupt, loudly.
func TestCodecCRCCorruption(t *testing.T) {
	full := frameBytes(t, MsgWrite, Write{Rel: "x", Off: 0, SHA256: "ab"}, []byte("sixty-four bytes of body padding...!"))
	for i := 4; i < len(full); i++ { // every byte except the length prefix
		cp := append([]byte(nil), full...)
		cp[i] ^= 0x01
		_, _, _, err := ReadFrame(bytes.NewReader(cp), 0)
		if err == nil {
			t.Fatalf("flipped byte %d: frame accepted", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestCodecImplausibleLength: a length prefix below the structural
// minimum or beyond maxFrame is ErrCorrupt before any allocation.
func TestCodecImplausibleLength(t *testing.T) {
	for _, plen := range []uint32{0, 1, 4, 1 << 30, ^uint32(0)} {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], plen)
		_, _, _, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload length %d: err = %v, want ErrCorrupt", plen, err)
		}
	}
}

// TestCodecHeaderLengthOverrun: a header length field pointing past the
// payload is structural damage, even with a valid CRC.
func TestCodecHeaderLengthOverrun(t *testing.T) {
	full := frameBytes(t, MsgStat, Stat{Rels: []string{"a"}}, nil)
	// Rewrite headLen (payload bytes 1..4, i.e. stream bytes 9..12) to
	// overrun, then fix the CRC so only the structure is wrong.
	binary.LittleEndian.PutUint32(full[9:13], 1<<20)
	binary.LittleEndian.PutUint32(full[4:8], crc32.Checksum(full[8:], castagnoli))
	_, _, _, err := ReadFrame(bytes.NewReader(full), 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header overrun: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeHeadEmpty: an empty header decodes to the zero value.
func TestDecodeHeadEmpty(t *testing.T) {
	var s StatusOK
	if err := DecodeHead(nil, &s); err != nil {
		t.Fatal(err)
	}
	if s != (StatusOK{}) {
		t.Fatalf("zero-value decode: %+v", s)
	}
}

// TestCodecMaxFrameEnforced: a frame bigger than the reader's budget is
// rejected (the sender's budget may be larger; the receiver defends
// itself).
func TestCodecMaxFrameEnforced(t *testing.T) {
	full := frameBytes(t, MsgWrite, Write{Rel: "x"}, make([]byte, 4096))
	_, _, _, err := ReadFrame(bytes.NewReader(full), 1024)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: err = %v, want ErrCorrupt", err)
	}
}

// TestRemoteErrorString pins the error rendering clients surface.
func TestRemoteErrorString(t *testing.T) {
	err := &RemoteError{Code: CodeChecksum, Msg: "nope"}
	if got := err.Error(); got != "wire: remote checksum: nope" {
		t.Fatalf("RemoteError = %q", got)
	}
	if !IsRemoteCode(err, CodeChecksum) || IsRemoteCode(err, CodeIO) || IsRemoteCode(errors.New("x"), CodeIO) {
		t.Fatal("IsRemoteCode misclassifies")
	}
}
