package transfer

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/landing"
	"picoprobe/internal/wire"
)

// mergingSink is a memSink whose Write of a whole span reports the file
// merged, as both real sinks do when the landed file is exactly the span.
type mergingSink struct{ *memSink }

func (s mergingSink) Write(rel string, sp chunkSpan, src io.ReaderAt, f *fold) (string, bool, error) {
	sum, _, err := s.memSink.Write(rel, sp, src, f)
	return sum, err == nil && sp.Whole, err
}

// TestEngineMergedWriteSendsNoMerge: a file whose one chunk the sink
// reports merged is never handed to Merge, yet its checksum and bytes are
// reported as a merged file's; a multi-chunk file beside it is merged as
// before.
func TestEngineMergedWriteSendsNoMerge(t *testing.T) {
	const chunk = 1024
	fx, payloads := newEngineBatch(t, 3, chunk)
	payloads = append(payloads, writeRandom(t, filepath.Join(fx.src.Root, "big.bin"), 2*chunk+7, 50))
	fx.task.Files = append(fx.task.Files, FileSpec{RelPath: "big.bin"})
	sk := mergingSink{newMemSink()}
	rep, err := (&ChunkMover{ChunkBytes: chunk, Streams: 2}).run(fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksMoved != 6 || rep.BytesMoved != 3*chunk+2*chunk+7 {
		t.Errorf("moved/bytes = %d/%d, want 6/%d", rep.ChunksMoved, rep.BytesMoved, 3*chunk+2*chunk+7)
	}
	for fi, f := range fx.task.Files {
		want := 0
		if f.RelPath == "big.bin" {
			want = 1
		}
		if n := sk.count("m " + f.RelPath); n != want {
			t.Errorf("%s merged %d times, want %d", f.RelPath, n, want)
		}
		if rep.Checksums[f.RelPath] != hexSum(payloads[fi]) {
			t.Errorf("%s: whole-file checksum wrong", f.RelPath)
		}
	}
}

// TestEngineMergedWriteKillAndResume: the kill latch counts a merged
// chunk like any other — the attempt it trips reports no checksum and no
// bytes — and the chunk, marked done before the latch, survives into the
// next attempt, which skips it and merges its file as a merge-only job.
func TestEngineMergedWriteKillAndResume(t *testing.T) {
	const size = 1024
	fx, payloads := newEngineBatch(t, 3, size)
	sk := mergingSink{newMemSink()}
	e := &ChunkMover{Streams: 1, KillAfterChunks: 1}

	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
	if err == nil || !strings.Contains(err.Error(), "killed after 1 chunks") {
		t.Fatalf("err = %v, want the injected kill", err)
	}
	if rep.Checksums != nil || rep.BytesMoved != 0 || rep.ChunksMoved != 1 {
		t.Errorf("killed attempt reported sums=%v bytes=%d moved=%d, want nil/0/1", rep.Checksums, rep.BytesMoved, rep.ChunksMoved)
	}
	if n := doneChunks(t, e); n != 1 {
		t.Errorf("manifest records %d chunks done, want 1", n)
	}

	sk.events = nil
	rep, err = e.run(fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksSkipped != 1 || rep.ChunksMoved != 2 || rep.BytesMoved != 3*size {
		t.Errorf("resumed skipped/moved/bytes = %d/%d/%d, want 1/2/%d", rep.ChunksSkipped, rep.ChunksMoved, rep.BytesMoved, 3*size)
	}
	if got := strings.Join(sk.events, ","); got != "m f0.bin,w f1.bin,w f2.bin" {
		t.Errorf("resumed events = %q, want f0's merge-only job and two merged writes", got)
	}
	for fi, f := range fx.task.Files {
		if rep.Checksums[f.RelPath] != hexSum(payloads[fi]) {
			t.Errorf("%s: whole-file checksum wrong after resume", f.RelPath)
		}
	}
}

// readCountingSink counts what a sink reads back of what landed.
type readCountingSink struct {
	sink
	hashes, merges atomic.Int64
}

func (s *readCountingSink) Hash(rel string, off, n int64) (string, bool, error) {
	s.hashes.Add(1)
	return s.sink.Hash(rel, off, n)
}

func (s *readCountingSink) Merge(rel string, chunks []landing.Chunk) (string, int, error) {
	s.merges.Add(1)
	return s.sink.Merge(rel, chunks)
}

// TestLocalSinkOneChunkFileNeverReadBack: on the local landing a
// one-chunk file is merged by its write — no Hash, no Merge — with the
// right checksum; a two-chunk file is still merged by a read-back.
func TestLocalSinkOneChunkFileNeverReadBack(t *testing.T) {
	const chunk = 1024
	for _, tc := range []struct {
		size   int
		merges int64
	}{{chunk, 0}, {2 * chunk, 1}} {
		fx := newEngineFixture(t, tc.size)
		fx.dst.Root = t.TempDir()
		sk := &readCountingSink{sink: localSink{landing.Store{Root: fx.dst.Root}}}
		rep, err := (&ChunkMover{ChunkBytes: chunk}).run(fx.task, fx.src, fx.dst, sk)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Checksums["f.bin"] != hexSum(fx.payload) || rep.BytesMoved != int64(tc.size) {
			t.Errorf("%d bytes: checksum/bytes wrong (%d)", tc.size, rep.BytesMoved)
		}
		if h, m := sk.hashes.Load(), sk.merges.Load(); h != 0 || m != tc.merges {
			t.Errorf("%d bytes: %d hash(es) and %d merge(s), want 0 and %d", tc.size, h, m, tc.merges)
		}
		if landed, err := os.ReadFile(filepath.Join(fx.dst.Root, "f.bin")); err != nil || !bytes.Equal(landed, fx.payload) {
			t.Errorf("%d bytes: landed bytes differ from the source (err=%v)", tc.size, err)
		}
	}
}

// relay forwards raw frames between clients and the daemon at addr and
// counts the Merge requests that pass. With strip it deletes the "whole"
// field of every Write on the way, so the daemon behind it answers as one
// that predates the field: a plain WriteOK. hold, when set, is called
// with each Write's offset before the daemon's answer to it is passed on,
// and may block to delay that answer.
func relay(t *testing.T, addr string, strip bool, hold func(off int64)) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	merges := new(atomic.Int64)
	// forward copies one frame, its header re-encoded from raw JSON, and
	// returns its type and, for a Write, its offset.
	forward := func(dst, src net.Conn, request bool) (byte, int64, error) {
		typ, head, body, err := wire.ReadFrame(src, 0)
		if err != nil {
			return 0, 0, err
		}
		var h any
		if len(head) > 0 {
			h = json.RawMessage(head)
		}
		var w wire.Write
		if request && typ == wire.MsgWrite {
			if err := wire.DecodeHead(head, &w); err != nil {
				return 0, 0, err
			}
			if strip {
				var fields map[string]any
				if err := wire.DecodeHead(head, &fields); err != nil {
					return 0, 0, err
				}
				delete(fields, "whole")
				h = fields
			}
		}
		if request && typ == wire.MsgMerge {
			merges.Add(1)
		}
		return typ, w.Off, wire.WriteFrame(dst, typ, h, body)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				up, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer up.Close()
				for {
					typ, off, err := forward(up, c, true)
					if err != nil {
						return
					}
					if hold != nil && typ == wire.MsgWrite {
						hold(off)
					}
					if _, _, err := forward(c, up, false); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), merges
}

// TestWholeWriteOnDaemonWithoutIt: against a daemon that ignores the
// whole-file Write (a relay strips the field from the frames a current
// client sends), every one-chunk file still lands with the right
// checksum, through exactly one Merge frame of its own, and the daemon
// counts no door merge; against the daemon as it is, no Merge frame is
// sent and the daemon counts one door merge per file. Multi-chunk files
// are folded as their chunks are accepted, so against either daemon they
// land with the right checksum, no Merge frame and no door merge.
func TestWholeWriteOnDaemonWithoutIt(t *testing.T) {
	for _, tc := range []struct {
		name           string
		strip          bool
		size           int
		merges, merged int
	}{
		{"older daemon", true, 3000, 3, 0},
		{"current daemon", false, 3000, 0, 3},
		{"multi-chunk files, older daemon", true, 10000, 0, 0},
		{"multi-chunk files, current daemon", false, 10000, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := &wire.Server{Root: t.TempDir(), Facility: "test"}
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			via, merges := relay(t, addr, tc.strip, nil)
			cl := &wire.Client{Addr: via, Timeout: 10 * time.Second}
			defer cl.Close()

			fx, payloads := newEngineBatch(t, 3, tc.size)
			rep, err := (&ChunkMover{ChunkBytes: 4096, Streams: 2}).run(fx.task, fx.src, fx.dst, wireSink{cl})
			if err != nil {
				t.Fatal(err)
			}
			for fi, f := range fx.task.Files {
				if rep.Checksums[f.RelPath] != hexSum(payloads[fi]) {
					t.Errorf("%s: checksum wrong", f.RelPath)
				}
				if landed, err := os.ReadFile(filepath.Join(srv.Root, f.RelPath)); err != nil || !bytes.Equal(landed, payloads[fi]) {
					t.Errorf("%s: landed bytes differ from the source (err=%v)", f.RelPath, err)
				}
			}
			if n := merges.Load(); n != int64(tc.merges) {
				t.Errorf("%d Merge frame(s) sent, want %d", n, tc.merges)
			}
			if st, _, err := cl.Status(0); err != nil || st.Merged != tc.merged {
				t.Errorf("daemon counts %d door merge(s) (err=%v), want %d", st.Merged, err, tc.merged)
			}
		})
	}
}

// TestShipWholeResendsOnChecksumReject: a whole-file write the door
// rejects is re-sent like any chunk; the stub's final WriteOK carries no
// digest, so the write is not taken for a merge.
func TestShipWholeResendsOnChecksumReject(t *testing.T) {
	addr, writes := chunkRejectServer(t, wire.CodeChecksum, DefaultChunkRetries)
	l := &WireLanding{Timeout: 5 * time.Second}
	defer l.close()
	path := filepath.Join(t.TempDir(), "c.bin")
	if err := os.WriteFile(path, make([]byte, 512), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, merged, err := wireSink{l.client(addr)}.Write("c.bin", planFile(0, 512, 0)[0], f, nil)
	if err != nil || merged || sum != hexSum(make([]byte, 512)) {
		t.Fatalf("whole write = %s merged=%v err=%v, want the digest, not merged", sum, merged, err)
	}
	if n := writes.Load(); n != DefaultChunkRetries+1 {
		t.Fatalf("server saw %d writes, want %d rejects + 1 OK", n, DefaultChunkRetries)
	}
}
