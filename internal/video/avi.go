// Package video converts microscopy series to playable video. The paper's
// spatiotemporal flow converts incoming EMD files to MP4 before YOLO
// inference and reports that the fp64→uint8 data-type cast dominates the
// compute phase; this package reproduces the same pipeline with a
// self-contained MJPEG-in-AVI container (RIFF with a standard 'hdrl'
// header, '00dc' JPEG chunks and an 'idx1' index), which common players
// accept, plus a matching reader used by the tests and the annotation
// pass.
//
// Every frame is encoded by AppendJPEG (jpeg.go): byte for byte what
// image/jpeg.Encode writes, at about a third of its CPU for the grey and
// annotated frames the pipeline produces. Its header and tables are read
// out of the standard library's own output rather than copied here, its
// forward DCT (fdct.go) is the standard library's with the Go and IJG
// notices, and image/jpeg.Encode stays as the fallback for other image
// types and as the oracle every encoder test compares against (DESIGN.md
// §14). The reader decodes with image/jpeg.
package video

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/jpeg"
	"io"
	"os"
)

const (
	avifHasIndex  = 0x00000010
	aviifKeyframe = 0x00000010
)

// Writer assembles an MJPEG AVI file. Frames are JPEG-encoded as they are
// added. When the destination supports seeking (e.g. an *os.File) the
// writer streams: each encoded frame is flushed immediately and the
// fixed-size RIFF prefix is patched at Close, so memory stays bounded by
// one frame no matter how long the series runs. For plain io.Writers
// (pipes, hash sinks) it falls back to buffering the encoded frames until
// Close, since RIFF wants sizes up front.
type Writer struct {
	w             io.Writer
	ws            io.WriteSeeker // non-nil: streaming mode
	width, height int
	fps           int
	quality       int

	frames  [][]byte   // buffered mode: encoded JPEG per frame
	idx     []idxEntry // streaming mode: chunk index for idx1
	base    int64      // streaming mode: offset of the prefix in ws
	count   int
	maxSize uint32 // largest encoded frame
	moviLen uint32 // bytes inside the movi LIST (including "movi" tag)
	encBuf  []byte
	closed  bool
}

type idxEntry struct{ off, size uint32 }

// NewWriter returns a writer producing width x height MJPEG video at the
// given frame rate. Quality is the JPEG quality (1-100).
func NewWriter(w io.Writer, width, height, fps, quality int) (*Writer, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("video: invalid dimensions %dx%d", width, height)
	}
	if fps <= 0 {
		fps = 25
	}
	if quality <= 0 || quality > 100 {
		quality = frameQuality
	}
	vw := &Writer{w: w, width: width, height: height, fps: fps, quality: quality}
	if ws, ok := w.(io.WriteSeeker); ok {
		base, err := ws.Seek(0, io.SeekCurrent)
		if err != nil {
			// Seekable in type only (e.g. a pipe wrapped in a seeker
			// interface); fall back to buffered mode.
			return vw, nil
		}
		vw.ws = ws
		vw.base = base
		vw.moviLen = 4 // the "movi" list tag
		// Reserve the prefix with placeholder sizes; Close rewrites it in
		// place (the prefix length does not depend on the frame count).
		if _, err := ws.Write(vw.prefix(0)); err != nil {
			return nil, fmt.Errorf("video: %w", err)
		}
	}
	return vw, nil
}

// AddFrame JPEG-encodes img and appends it as the next frame. The image
// bounds must match the writer's dimensions.
func (w *Writer) AddFrame(img image.Image) error {
	if w.closed {
		return fmt.Errorf("video: writer closed")
	}
	b := img.Bounds()
	if b.Dx() != w.width || b.Dy() != w.height {
		return fmt.Errorf("video: frame is %dx%d, want %dx%d", b.Dx(), b.Dy(), w.width, w.height)
	}
	var err error
	if w.encBuf, err = AppendJPEG(w.encBuf[:0], img, w.quality); err != nil {
		return fmt.Errorf("video: jpeg encode: %w", err)
	}
	return w.AddEncodedFrame(w.encBuf)
}

// AddEncodedFrame appends an already-JPEG-encoded frame. The caller keeps
// ownership of data (the writer copies or flushes it before returning), so
// pipelined encoders can reuse their buffers.
func (w *Writer) AddEncodedFrame(data []byte) error {
	if w.closed {
		return fmt.Errorf("video: writer closed")
	}
	size := uint32(len(data))
	if size > w.maxSize {
		w.maxSize = size
	}
	if w.ws == nil {
		w.frames = append(w.frames, append([]byte(nil), data...))
		w.count++
		return nil
	}
	w.idx = append(w.idx, idxEntry{off: w.moviLen, size: size})
	var hdr [8]byte
	copy(hdr[:4], "00dc")
	binary.LittleEndian.PutUint32(hdr[4:], size)
	if _, err := w.ws.Write(hdr[:]); err != nil {
		return fmt.Errorf("video: %w", err)
	}
	if _, err := w.ws.Write(data); err != nil {
		return fmt.Errorf("video: %w", err)
	}
	w.moviLen += 8 + size
	if size%2 == 1 {
		if _, err := w.ws.Write([]byte{0}); err != nil {
			return fmt.Errorf("video: %w", err)
		}
		w.moviLen++
	}
	w.count++
	return nil
}

// FrameCount returns the number of frames added so far.
func (w *Writer) FrameCount() int { return w.count }

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU16(b []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, v)
}

// prefixLen is the fixed length of the container prefix rendered by
// prefix(): RIFF header (12) + hdrl LIST (8+4+8+56 avih, 12+8+56 strh,
// 8+40 strf) + movi LIST header (12).
const prefixLen = 12 + 8 + 4 + (8 + 56) + (12 + (8 + 56) + (8 + 40)) + 12

// prefix renders the fixed-length container prefix — everything from
// "RIFF" through the movi LIST header — for the current frame count and
// sizes. riffSize is the RIFF chunk payload size (0 while streaming; the
// real value is patched at Close).
func (w *Writer) prefix(riffSize uint32) []byte {
	b := make([]byte, 0, prefixLen)
	b = append(b, "RIFF"...)
	b = appendU32(b, riffSize)
	b = append(b, "AVI "...)

	// hdrl LIST: avih + strl(strh, strf).
	const avihLen, strhLen, strfLen = 56, 56, 40
	hdrlLen := 4 + 8 + avihLen + 12 + 8 + strhLen + 8 + strfLen
	b = append(b, "LIST"...)
	b = appendU32(b, uint32(hdrlLen))
	b = append(b, "hdrl"...)

	// avih: main AVI header (14 dwords).
	b = append(b, "avih"...)
	b = appendU32(b, avihLen)
	b = appendU32(b, uint32(1_000_000/w.fps)) // microseconds per frame
	b = appendU32(b, w.maxSize*uint32(w.fps)) // max bytes/sec
	b = appendU32(b, 0)                       // padding granularity
	b = appendU32(b, avifHasIndex)
	b = appendU32(b, uint32(w.count))
	b = appendU32(b, 0) // initial frames
	b = appendU32(b, 1) // streams
	b = appendU32(b, w.maxSize)
	b = appendU32(b, uint32(w.width))
	b = appendU32(b, uint32(w.height))
	for i := 0; i < 4; i++ {
		b = appendU32(b, 0)
	}

	// strl LIST: strh + strf.
	b = append(b, "LIST"...)
	b = appendU32(b, uint32(4+8+strhLen+8+strfLen))
	b = append(b, "strl"...)

	// strh: stream header.
	b = append(b, "strh"...)
	b = appendU32(b, strhLen)
	b = append(b, "vids"...)
	b = append(b, "MJPG"...)
	b = appendU32(b, 0) // flags
	b = appendU32(b, 0) // priority + language
	b = appendU32(b, 0) // initial frames
	b = appendU32(b, 1) // scale
	b = appendU32(b, uint32(w.fps))
	b = appendU32(b, 0) // start
	b = appendU32(b, uint32(w.count))
	b = appendU32(b, w.maxSize)
	b = appendU32(b, 0xFFFFFFFF) // quality: default
	b = appendU32(b, 0)          // sample size
	b = appendU16(b, 0)
	b = appendU16(b, 0)
	b = appendU16(b, uint16(w.width))
	b = appendU16(b, uint16(w.height))

	// strf: BITMAPINFOHEADER.
	b = append(b, "strf"...)
	b = appendU32(b, strfLen)
	b = appendU32(b, 40)
	b = appendU32(b, uint32(w.width))
	b = appendU32(b, uint32(w.height))
	b = appendU16(b, 1)
	b = appendU16(b, 24)
	b = append(b, "MJPG"...)
	b = appendU32(b, uint32(w.width*w.height*3))
	b = appendU32(b, 0)
	b = appendU32(b, 0)
	b = appendU32(b, 0)
	b = appendU32(b, 0)

	// movi LIST header; chunks follow (or are already in place).
	b = append(b, "LIST"...)
	b = appendU32(b, w.moviLen)
	b = append(b, "movi"...)
	return b
}

// idx1Chunk renders the idx1 index chunk for the given entries.
func idx1Chunk(idx []idxEntry) []byte {
	b := make([]byte, 0, 8+16*len(idx))
	b = append(b, "idx1"...)
	b = appendU32(b, uint32(16*len(idx)))
	for _, e := range idx {
		b = append(b, "00dc"...)
		b = appendU32(b, aviifKeyframe)
		b = appendU32(b, e.off)
		b = appendU32(b, e.size)
	}
	return b
}

// Close completes the container: in streaming mode it appends the index
// and patches the prefix in place; in buffered mode it lays out and writes
// the whole file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true

	if w.ws != nil {
		idx1 := idx1Chunk(w.idx)
		if _, err := w.ws.Write(idx1); err != nil {
			return fmt.Errorf("video: %w", err)
		}
		// RIFF payload: everything after the 8-byte RIFF chunk header.
		riffSize := uint32(prefixLen-8) + (w.moviLen - 4) + uint32(len(idx1))
		pre := w.prefix(riffSize)
		if _, err := w.ws.Seek(w.base, io.SeekStart); err != nil {
			return fmt.Errorf("video: %w", err)
		}
		if _, err := w.ws.Write(pre); err != nil {
			return fmt.Errorf("video: %w", err)
		}
		if _, err := w.ws.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("video: %w", err)
		}
		return nil
	}

	need := 4
	for _, fr := range w.frames {
		need += 8 + len(fr) + len(fr)%2
	}
	movi := make([]byte, 0, need)
	movi = append(movi, "movi"...)
	idx := make([]idxEntry, len(w.frames))
	for i, fr := range w.frames {
		idx[i] = idxEntry{off: uint32(len(movi)), size: uint32(len(fr))}
		movi = append(movi, "00dc"...)
		movi = appendU32(movi, uint32(len(fr)))
		movi = append(movi, fr...)
		if len(fr)%2 == 1 {
			movi = append(movi, 0) // RIFF chunks are word aligned
		}
	}
	w.moviLen = uint32(len(movi))

	idx1 := idx1Chunk(idx)
	riffSize := uint32(prefixLen-8) + (w.moviLen - 4) + uint32(len(idx1))
	pre := w.prefix(riffSize)

	// pre ends with the movi LIST header ("LIST" + size + "movi") and the
	// movi buffer starts with the same "movi" tag, so emit the prefix
	// without its trailing tag, then the buffer.
	if _, err := w.w.Write(pre[:len(pre)-4]); err != nil {
		return fmt.Errorf("video: %w", err)
	}
	if _, err := w.w.Write(movi); err != nil {
		return fmt.Errorf("video: %w", err)
	}
	if _, err := w.w.Write(idx1); err != nil {
		return fmt.Errorf("video: %w", err)
	}
	return nil
}

// Info summarizes a parsed AVI file.
type Info struct {
	Width, Height int
	FPS           int
	Frames        int
}

// Reader decodes MJPEG AVI files produced by Writer (and tolerates other
// MJPEG AVIs with a standard layout).
type Reader struct {
	info   Info
	frames [][]byte // raw JPEG bytes
}

// OpenReader parses the container from r.
func OpenReader(r io.Reader) (*Reader, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("video: read: %w", err)
	}
	if len(raw) < 12 || string(raw[0:4]) != "RIFF" || string(raw[8:12]) != "AVI " {
		return nil, fmt.Errorf("video: not a RIFF AVI file")
	}
	rd := &Reader{}
	pos := 12
	for pos+8 <= len(raw) {
		fourcc := string(raw[pos : pos+4])
		size := int(binary.LittleEndian.Uint32(raw[pos+4 : pos+8]))
		body := pos + 8
		if body+size > len(raw) {
			return nil, fmt.Errorf("video: chunk %q overruns file", fourcc)
		}
		switch fourcc {
		case "LIST":
			listType := string(raw[body : body+4])
			switch listType {
			case "hdrl":
				if err := rd.parseHeaders(raw[body+4 : body+size]); err != nil {
					return nil, err
				}
			case "movi":
				if err := rd.parseMovi(raw[body+4 : body+size]); err != nil {
					return nil, err
				}
			}
		}
		pos = body + size
		if size%2 == 1 {
			pos++
		}
	}
	if rd.info.Width == 0 {
		return nil, fmt.Errorf("video: missing avih header")
	}
	return rd, nil
}

// Open parses an AVI file from disk.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("video: %w", err)
	}
	defer f.Close()
	return OpenReader(f)
}

func (rd *Reader) parseHeaders(hdrl []byte) error {
	pos := 0
	for pos+8 <= len(hdrl) {
		fourcc := string(hdrl[pos : pos+4])
		size := int(binary.LittleEndian.Uint32(hdrl[pos+4 : pos+8]))
		body := pos + 8
		if body+size > len(hdrl) {
			return fmt.Errorf("video: header chunk %q overruns hdrl", fourcc)
		}
		if fourcc == "avih" && size >= 40 {
			usPerFrame := binary.LittleEndian.Uint32(hdrl[body:])
			if usPerFrame > 0 {
				rd.info.FPS = int(1_000_000 / usPerFrame)
			}
			rd.info.Frames = int(binary.LittleEndian.Uint32(hdrl[body+16:]))
			rd.info.Width = int(binary.LittleEndian.Uint32(hdrl[body+32:]))
			rd.info.Height = int(binary.LittleEndian.Uint32(hdrl[body+36:]))
		}
		pos = body + size
		if size%2 == 1 {
			pos++
		}
	}
	return nil
}

func (rd *Reader) parseMovi(movi []byte) error {
	pos := 0
	for pos+8 <= len(movi) {
		fourcc := string(movi[pos : pos+4])
		size := int(binary.LittleEndian.Uint32(movi[pos+4 : pos+8]))
		body := pos + 8
		if body+size > len(movi) {
			return fmt.Errorf("video: movi chunk overruns")
		}
		if fourcc == "00dc" {
			rd.frames = append(rd.frames, movi[body:body+size])
		}
		pos = body + size
		if size%2 == 1 {
			pos++
		}
	}
	return nil
}

// Info returns the parsed stream parameters.
func (rd *Reader) Info() Info { return rd.info }

// FrameCount returns the number of stored frames.
func (rd *Reader) FrameCount() int { return len(rd.frames) }

// DecodeFrame decodes frame i to an image.
func (rd *Reader) DecodeFrame(i int) (image.Image, error) {
	if i < 0 || i >= len(rd.frames) {
		return nil, fmt.Errorf("video: frame %d out of range [0,%d)", i, len(rd.frames))
	}
	img, err := jpeg.Decode(bytes.NewReader(rd.frames[i]))
	if err != nil {
		return nil, fmt.Errorf("video: decode frame %d: %w", i, err)
	}
	return img, nil
}
