// Package wire is the facility data+control plane on plain TCP: a
// length-prefixed, CRC-framed session protocol connecting the
// acquisition side (transfer.WireLanding, the probe target) to a facility
// daemon (picoprobe-facilityd, or an in-process Server in tests). One
// frame is one request or one response; a session is one authenticated
// connection carrying a strict request/response sequence, so N parallel
// transfer streams are N sessions.
//
// The frame discipline reuses internal/durable's WAL framing (DESIGN.md
// §11): a fixed header of [u32 length][u32 CRC32-C] followed by the
// payload the length counts and the CRC covers. The payload is
// [u8 type][u32 headerLen][header JSON][body]: a small JSON header for
// the op's parameters and an opaque body for bulk bytes (chunk data,
// probe fill). Torn and truncated frames surface as
// io.ErrUnexpectedEOF, CRC or structural damage as ErrCorrupt — both
// loud, never a silent mis-parse.
//
// Three services ride the same session: ranged chunk I/O mapping 1:1
// onto the transfer manifest machinery (Stat/Prepare/Write/Hash/Merge —
// a Write that carries a whole file is also its merge, so a one-chunk
// file takes no Merge, nor does a multi-chunk file whose chunks one
// attempt landed, which the client digests as they are accepted), compute dispatch against the facility's pool (Dispatch/Job — a Job may
// ask the daemon to hold its answer until the task ends, which is how the
// acquisition side learns of completion without polling), and a status
// endpoint (Status) cheap enough for netprobe's prober to measure RTT and
// goodput against.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"picoprobe/internal/landing"
)

// ProtocolVersion gates sessions: a Hello carrying a version the server
// does not speak is rejected before any other op. Version 2 added the
// held Job (Job.WaitMs); a v2 server still serves v1 sessions, whose Jobs
// never ask to be held (DESIGN.md §11). The whole-file Write moved no
// version: a server that ignores Write.Whole answers a WriteOK without a
// digest, which the client can tell from a merge.
const ProtocolVersion = 2

// minProtocolVersion is the oldest Hello version a server accepts.
const minProtocolVersion = 1

// MaxJobHold caps how long the server holds one Job answer (less when
// its IdleTimeout is shorter): a held session is tied up, and a watcher
// simply asks again.
const MaxJobHold = 10 * time.Second

// Magic identifies the protocol in the Hello header; anything else on
// the socket is not a picoprobe wire client.
const Magic = "picowire"

// DefaultMaxFrame bounds one frame (header + body). Chunk bodies are
// the largest payloads; 256 MiB comfortably exceeds any sane chunk
// size while keeping an implausible length prefix from allocating
// gigabytes (the durable WAL's maxRecordBytes guard, scaled to frames).
const DefaultMaxFrame = 256 << 20

// MaxChunkBytes is the largest body a Write frame is sure to carry
// under DefaultMaxFrame: the payload also holds the type byte, the
// header length and the JSON header (rel path, offset, digest), which
// 64 KiB covers with room to spare.
const MaxChunkBytes = DefaultMaxFrame - 64<<10

// frameHead is the fixed per-frame header: u32 payload length,
// u32 CRC32-C of the payload.
const frameHead = 8

// castagnoli is the CRC32-C table (the durable WAL's polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a structurally damaged frame: CRC mismatch, an
// implausible length, or a header that does not fit its payload. It is
// never returned for a cleanly closed or merely truncated stream —
// those are io.EOF and io.ErrUnexpectedEOF.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Message types. Requests are even-positioned with their responses
// adjacent; MsgError answers any request.
const (
	MsgError byte = iota + 1
	MsgHello
	MsgHelloOK
	MsgStat
	MsgStatOK
	MsgPrepare
	MsgPrepareOK
	MsgWrite
	MsgWriteOK
	_ // 10 and 11 were Read/ReadOK, retired in version 2: reserved, never
	_ // reused, and answered as unknown message types.
	MsgHash
	MsgHashOK
	MsgMerge
	MsgMergeOK
	MsgDispatch
	MsgDispatchOK
	MsgJob
	MsgJobOK
	MsgStatus
	MsgStatusOK
)

// Error codes carried by MsgError frames.
const (
	CodeAuth          = "auth"           // bad or missing token / magic / version
	CodeBadRequest    = "bad-request"    // malformed header or parameters
	CodeNotFound      = "not-found"      // unknown file, task or function
	CodeIO            = "io"             // server-side filesystem failure
	CodeChecksum      = "checksum"       // declared chunk digest != received bytes
	CodeChunkMismatch = "chunk-mismatch" // merge found a chunk whose landed bytes differ
	CodeBusy          = "busy"           // admission cap reached or server draining; back off and retry
	CodeCorrupt       = "corrupt"        // the inbound stream was torn or CRC-damaged; retry on a fresh session
)

// Hello opens a session.
type Hello struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Token   string `json:"token,omitempty"`
}

// HelloOK accepts a session.
type HelloOK struct {
	Facility string `json:"facility"`
	Version  int    `json:"version"`
}

// Stat asks for the sizes of files under the facility root.
type Stat struct {
	Rels []string `json:"rels"`
}

// StatOK answers Stat; Sizes is parallel to Rels, -1 for absent files.
type StatOK struct {
	Sizes []int64 `json:"sizes"`
}

// Prepare creates (and truncates to Size) one destination file.
type Prepare struct {
	Rel  string `json:"rel"`
	Size int64  `json:"size"`
}

// PrepareOK answers Prepare.
type PrepareOK struct{}

// Write lands one chunk: the frame body is the chunk's bytes, written
// at Off. SHA256 is the hex digest of the body the sender computed; the
// server re-hashes and rejects a mismatch with CodeChecksum and a Write
// without a digest with CodeBadRequest — a corrupted or unverifiable
// chunk is refused at the door, never merged. Whole says the body is the
// whole file: a server that finds the file is exactly the body after
// landing it merges it at the door (WriteOK.SHA256).
type Write struct {
	Rel    string `json:"rel"`
	Off    int64  `json:"off"`
	SHA256 string `json:"sha256,omitempty"`
	Whole  bool   `json:"whole,omitempty"`
}

// WriteOK answers Write. SHA256 is the whole-file digest when the write
// merged the file — Whole was set, Off was 0 and the landed file is
// exactly the door-checked body — and empty otherwise (a server older
// than the field never sets it); the client then merges separately.
type WriteOK struct {
	SHA256 string `json:"sha256,omitempty"`
}

// Hash asks for the digest of a byte range without moving the bytes —
// the cheap remote verification chunk resume rides on.
type Hash struct {
	Rel string `json:"rel"`
	Off int64  `json:"off"`
	N   int64  `json:"n"`
}

// HashOK answers Hash. Present is false when the file is absent or
// shorter than the range (no digest then).
type HashOK struct {
	Present bool   `json:"present"`
	SHA256  string `json:"sha256,omitempty"`
}

// MergeChunk is one chunk of a Merge request's recorded plan — the
// landing store's own plan entry, whose JSON tags are this wire format.
type MergeChunk = landing.Chunk

// Merge runs the verified merge server-side: one sequential pass over
// the landed file computing the whole-file digest while re-checking
// every chunk against the recorded plan. A mismatched chunk fails the
// merge with CodeChunkMismatch and its index, so the client can demote
// exactly that chunk in its manifest; a plan entry without a digest is
// CodeBadRequest.
type Merge struct {
	Rel    string       `json:"rel"`
	Chunks []MergeChunk `json:"chunks"`
}

// MergeOK answers Merge with the whole-file digest.
type MergeOK struct {
	SHA256 string `json:"sha256"`
}

// Dispatch submits one function invocation to the facility's compute
// pool. A relative "path" argument is resolved under the facility root
// server-side — the client addresses data it staged by the same
// relative path it transferred.
type Dispatch struct {
	Function string         `json:"function"`
	Args     map[string]any `json:"args,omitempty"`
}

// DispatchOK answers Dispatch with the facility-side task ID.
type DispatchOK struct {
	Task string `json:"task"`
}

// Job asks for one dispatched task's state. With WaitMs > 0 (version 2)
// the server holds the answer until the task is terminal or the hold
// ends — WaitMs, capped by MaxJobHold and half the server's IdleTimeout —
// and then answers as for a plain Job: ACTIVE means the hold ran out.
type Job struct {
	Task   string `json:"task"`
	WaitMs int64  `json:"wait_ms,omitempty"`
}

// JobOK answers Job with the task's current state (timestamps are the
// facility's clock, unix nanoseconds, zero when not yet reached).
type JobOK struct {
	Status    string         `json:"status"`
	Error     string         `json:"error,omitempty"`
	Result    map[string]any `json:"result,omitempty"`
	NodeID    int            `json:"node_id"`
	Started   int64          `json:"started,omitempty"`
	Completed int64          `json:"completed,omitempty"`
}

// Status asks for the facility's status; Fill > 0 requests that many
// opaque body bytes in the response, which is how a prober turns one
// round trip into a goodput sample.
type Status struct {
	Fill int `json:"fill,omitempty"`
}

// StatusOK answers Status.
type StatusOK struct {
	Facility string `json:"facility"`
	// Queued/Busy describe the compute pool when the server can tell;
	// Jobs counts dispatches served this process lifetime.
	Queued int `json:"queued"`
	Busy   int `json:"busy"`
	Jobs   int `json:"jobs"`
	// Held is the number of Jobs the server is holding right now.
	Held int `json:"held,omitempty"`
	// Merged counts the whole-file Writes merged at the door this process
	// lifetime.
	Merged int `json:"merged,omitempty"`
	// UnixNano is the facility clock at response time.
	UnixNano int64 `json:"unix_nano"`
}

// ErrFrame is the header of a MsgError response.
type ErrFrame struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
	// Chunk is the offending chunk index for CodeChunkMismatch.
	Chunk int `json:"chunk,omitempty"`
}

// RemoteError is a server-reported failure surfaced to client callers.
type RemoteError struct {
	Code  string
	Msg   string
	Chunk int
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote %s: %s", e.Code, e.Msg)
}

// framePool recycles the chunk-sized buffers of the byte path: the frame
// WriteFrame assembles and the payload a server session reads a request
// into (DESIGN.md §11, buffer ownership). Frames under pooledFrameMin are
// plainly allocated — they cost nothing to make and would only seed the
// pool with buffers too small for a chunk. Pooled capacities are rounded
// up to frameBufQuantum, so frames of one chunk size whose JSON headers
// differ by a digit (and a frame and its payload, 8 bytes apart) fit each
// other's buffers.
var framePool sync.Pool

const (
	pooledFrameMin  = 64 << 10
	frameBufQuantum = 4 << 10
)

// getFrameBuf returns an n-byte buffer with arbitrary contents; the
// caller overwrites all of it and hands it back to putFrameBuf once no
// byte of it is referenced. A pooled buffer too small for n is dropped.
func getFrameBuf(n int) *[]byte {
	if n < pooledFrameMin {
		b := make([]byte, n)
		return &b
	}
	if p, _ := framePool.Get().(*[]byte); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, (n+frameBufQuantum-1)/frameBufQuantum*frameBufQuantum)
	return &b
}

func putFrameBuf(p *[]byte) {
	if cap(*p) >= pooledFrameMin {
		framePool.Put(p)
	}
}

// WriteFrame encodes and writes one frame. head is marshaled to JSON
// (nil means an empty header); body may be nil. The frame is assembled
// in one (recycled) buffer and written with a single Write, so a wrapped
// conn's per-write fault injection sees whole frames; w must not keep
// the slice past Write, the io.Writer contract.
func WriteFrame(w io.Writer, typ byte, head any, body []byte) error {
	var hj []byte
	if head != nil {
		var err error
		if hj, err = json.Marshal(head); err != nil {
			return fmt.Errorf("wire: marshal header: %w", err)
		}
	}
	payloadLen := 1 + 4 + len(hj) + len(body)
	bufp := getFrameBuf(frameHead + payloadLen)
	defer putFrameBuf(bufp)
	buf := *bufp
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
	buf[8] = typ
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(hj)))
	copy(buf[13:], hj)
	copy(buf[13+len(hj):], body)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[frameHead:], castagnoli))
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, returning its type, raw header JSON and
// body. maxFrame bounds the payload (0 = DefaultMaxFrame). A clean EOF
// at a frame boundary is io.EOF; a stream cut mid-frame is
// io.ErrUnexpectedEOF; CRC or structural damage is ErrCorrupt. head and
// body alias one freshly allocated payload the caller owns.
func ReadFrame(r io.Reader, maxFrame uint32) (typ byte, head, body []byte, err error) {
	return readFrame(r, maxFrame, func(n int) []byte { return make([]byte, n) })
}

// readFrame is ReadFrame with the payload buffer supplied by alloc, which
// is called at most once, after the length prefix has passed its bound.
func readFrame(r io.Reader, maxFrame uint32, alloc func(n int) []byte) (typ byte, head, body []byte, err error) {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	var fh [frameHead]byte
	if _, err = io.ReadFull(r, fh[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, nil, io.EOF
		}
		return 0, nil, nil, err
	}
	payloadLen := binary.LittleEndian.Uint32(fh[0:4])
	wantCRC := binary.LittleEndian.Uint32(fh[4:8])
	if payloadLen < 5 || payloadLen > maxFrame {
		return 0, nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, payloadLen)
	}
	payload := alloc(int(payloadLen))
	if _, err = io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, nil, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return 0, nil, nil, fmt.Errorf("%w: CRC mismatch (want %08x, got %08x)", ErrCorrupt, wantCRC, got)
	}
	typ = payload[0]
	headLen := binary.LittleEndian.Uint32(payload[1:5])
	if int(headLen) > len(payload)-5 {
		return 0, nil, nil, fmt.Errorf("%w: header length %d exceeds payload", ErrCorrupt, headLen)
	}
	head = payload[5 : 5+headLen]
	body = payload[5+headLen:]
	return typ, head, body, nil
}

// DecodeHead unmarshals a frame's raw header JSON into dst. An empty
// header decodes into the zero value. Numbers decode as float64 (the
// same convention the flows codec's weak coercion assumes), so compute
// args survive the wire the way they survive a flows checkpoint.
func DecodeHead(head []byte, dst any) error {
	if len(head) == 0 {
		return nil
	}
	if err := json.Unmarshal(head, dst); err != nil {
		return fmt.Errorf("wire: decode header: %w", err)
	}
	return nil
}
