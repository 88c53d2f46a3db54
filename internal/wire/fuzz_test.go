package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzCodec throws arbitrary byte streams at ReadFrame. The invariants
// under fuzz are the protocol's whole safety story: never panic, never
// allocate past the frame budget, and classify every outcome as exactly
// one of {clean decode, io.EOF at a boundary, io.ErrUnexpectedEOF
// mid-frame, ErrCorrupt} — a torn or damaged stream must never
// silently mis-parse into a plausible frame. Cleanly decoded frames
// must additionally re-encode byte-identically (the codec is
// canonical), and their headers must be decodable without panicking.
//
// The seed corpus under testdata/fuzz/FuzzCodec/ is checked in:
// hand-written structural mutants that previously mattered (empty
// stream, torn header, zero-length payload) — f.Add below contributes
// the valid-frame seeds, which are easier to build in code than to
// hand-maintain as corpus literals.
func FuzzCodec(f *testing.F) {
	// Valid single frames of the important shapes.
	seed := func(typ byte, head any, body []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, head, body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(MsgHello, Hello{Magic: Magic, Version: ProtocolVersion, Token: "t"}, nil)
	seed(MsgHello, Hello{Magic: Magic, Version: 1, Token: "t"}, nil) // a v1 client's
	seed(MsgJob, Job{Task: "task-000001", WaitMs: 10000}, nil)       // held
	seed(MsgWrite, Write{Rel: "a/b", Off: 4096, SHA256: "ff"}, []byte("chunk"))
	// A digest-less Write: the codec carries it; the server's door refuses it.
	seed(MsgWrite, Write{Rel: "a/b", Off: 4096}, []byte("chunk"))
	// A whole-file Write and the WriteOK that merges it.
	seed(MsgWrite, Write{Rel: "a/b", SHA256: "ff", Whole: true}, []byte("file"))
	seed(MsgWriteOK, WriteOK{SHA256: "ff"}, nil)
	seed(MsgStatusOK, StatusOK{Facility: "alcf-eagle", Jobs: 3}, make([]byte, 128))
	seed(MsgError, ErrFrame{Code: CodeChecksum, Msg: "m", Chunk: 1}, nil)
	seed(MsgMerge, Merge{Rel: "a", Chunks: []MergeChunk{{Off: 0, N: 4, SHA256: "aa"}}}, nil)
	// Two frames back to back — boundary handling.
	{
		var buf bytes.Buffer
		WriteFrame(&buf, MsgStat, Stat{Rels: []string{"x"}}, nil)
		WriteFrame(&buf, MsgStatOK, StatOK{Sizes: []int64{-1}}, nil)
		f.Add(buf.Bytes())
	}

	const maxFrame = 1 << 16 // keep fuzz allocations small
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, head, body, err := ReadFrame(r, maxFrame)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified error: %v", err)
				}
				return
			}
			// A clean decode must re-encode byte-identically: rebuild the
			// payload by hand and compare against a fresh encoding of the
			// same frame (canonical form).
			var re bytes.Buffer
			payloadLen := 1 + 4 + len(head) + len(body)
			buf := make([]byte, 8+payloadLen)
			binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
			buf[8] = typ
			binary.LittleEndian.PutUint32(buf[9:13], uint32(len(head)))
			copy(buf[13:], head)
			copy(buf[13+len(head):], body)
			binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], castagnoli))
			re.Write(buf)
			typ2, head2, body2, err := ReadFrame(&re, maxFrame)
			if err != nil || typ2 != typ || !bytes.Equal(head2, head) || !bytes.Equal(body2, body) {
				t.Fatalf("decode/re-encode not canonical: %v", err)
			}
			// Header decoding must never panic, whatever the bytes.
			var m map[string]any
			_ = DecodeHead(head, &m)
		}
	})
}
