package video

import (
	"bytes"
	"encoding/binary"
	"image"
	"image/color"
	"image/jpeg"
	"math/bits"
	"sync/atomic"
)

// frameQuality is the JPEG quality of every frame this repository writes:
// NewWriter and AppendJPEG take it for any quality outside 1–100.
const frameQuality = 90

// AppendJPEG appends to dst the baseline JPEG that image/jpeg.Encode writes
// for img at the given quality — the same bytes, at roughly half the CPU for
// the two frame types the pipeline produces (DESIGN.md "Analysis kernels"):
// *image.Gray is encoded as one component and *image.RGBA as 4:2:0 YCbCr,
// alpha ignored, by the encoder in this file; any other image type goes
// through image/jpeg.Encode itself. A quality outside 1–100 selects the
// package's frame quality. On error dst is returned unchanged.
func AppendJPEG(dst []byte, img image.Image, quality int) ([]byte, error) {
	if quality < 1 || quality > 100 {
		quality = frameQuality
	}
	b := img.Bounds()
	if b.Dx() < 1<<16 && b.Dy() < 1<<16 { // larger is image/jpeg's error to report
		switch m := img.(type) {
		case *image.Gray:
			if t := tablesFor(1, quality); t != nil {
				return t.appendGray(dst, m), nil
			}
		case *image.RGBA:
			if t := tablesFor(3, quality); t != nil {
				return t.appendRGBA(dst, m), nil
			}
		}
	}
	return appendStdlibJPEG(dst, img, quality)
}

// appendStdlibJPEG is image/jpeg.Encode in AppendJPEG's shape: the fallback,
// and the source the tables below are read from.
func appendStdlibJPEG(dst []byte, img image.Image, quality int) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := jpeg.Encode(buf, img, &jpeg.Options{Quality: quality}); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

// jpegTables is what the encoder needs for one (components, quality) pair,
// all of it read out of a stream image/jpeg itself wrote: the header bytes
// verbatim, the quantisation divisors as reciprocals and the Huffman codes
// as look-up tables. No JPEG table is spelled out in this repository.
type jpegTables struct {
	// header is SOI, DQT, SOF0, DHT and the SOS header of a 1×1 image;
	// sofSize is the offset of SOF0's height and width (2+2 bytes, big
	// endian), the only header bytes that depend on the frame.
	header  []byte
	sofSize int
	// quant[i][zig] divides by 8× the DQT entry: luminance, chrominance.
	quant [2][64]reciprocal
	// huff is indexed like image/jpeg's huffIndex (luminance DC, AC,
	// chrominance DC, AC) and then by symbol: code length in the top 8 bits,
	// code in the low 24, zero for a symbol the table does not have.
	huff [4][256]uint32
}

// reciprocal divides a coefficient by d, rounding to nearest with halves
// away from zero, exactly as image/jpeg's div(a, d) does with two integer
// divisions: for 0 ≤ n = |a| + d/2 < 2¹⁷ and d ≤ 2040, with m = ⌈2³²/d⌉,
// (n·m)>>32 == n/d, because m·d − 2³² < d < 2¹¹ keeps the excess n·(m·d −
// 2³²) under 2²⁸, less than the 2³² one more unit of quotient would need.
// An fdct output is below 2¹⁶ in magnitude (8 × 64 × 128).
type reciprocal struct{ m, half uint32 }

func newReciprocal(d uint32) reciprocal {
	return reciprocal{m: uint32((1<<32 + uint64(d) - 1) / uint64(d)), half: d >> 1}
}

// div returns the magnitude of a/d rounded as above, and a's sign as an
// all-ones or all-zeros mask.
func (r reciprocal) div(a int32) (mag, sign uint32) {
	sign = uint32(a >> 31)
	abs := (uint32(a) ^ sign) - sign
	return uint32((uint64(abs+r.half) * uint64(r.m)) >> 32), sign
}

// tableCache holds the tables by [components == 3][quality]; an entry is
// built on first use and never changes, so a lost race costs one redundant
// build.
var tableCache [2][101]atomic.Pointer[jpegTables]

// tablesFor returns the tables for a 1- or 3-component image at a quality
// in 1–100, or nil when the standard library's stream is not laid out the
// way this file reads it (AppendJPEG then lets image/jpeg do the encoding).
func tablesFor(components, quality int) *jpegTables {
	slot := &tableCache[components/3][quality]
	if t := slot.Load(); t != nil {
		return t
	}
	var blank image.Image = image.NewGray(image.Rect(0, 0, 1, 1))
	if components == 3 {
		blank = image.NewRGBA(image.Rect(0, 0, 1, 1))
	}
	stream, err := appendStdlibJPEG(nil, blank, quality)
	if err != nil {
		return nil
	}
	t := parseTables(stream, components)
	if t != nil {
		slot.Store(t)
	}
	return t
}

// JPEG markers parseTables looks for (ITU T.81 table B.1).
const (
	markerSOF0 = 0xc0
	markerDHT  = 0xc4
	markerSOI  = 0xd8
	markerSOS  = 0xda
	markerDQT  = 0xdb
)

// parseTables reads the header segments of a baseline JPEG stream up to and
// including the SOS header. It returns nil unless it finds exactly what the
// encoder below relies on: 8-bit quantisation tables 0 and 1, a baseline
// frame header, and a DC and an AC Huffman table for each component class.
func parseTables(stream []byte, components int) *jpegTables {
	if len(stream) < 2 || stream[0] != 0xff || stream[1] != markerSOI {
		return nil
	}
	t := &jpegTables{}
	var haveQuant [2]bool
	var haveHuff [4]bool
	for pos := 2; pos+4 <= len(stream) && stream[pos] == 0xff; {
		marker := stream[pos+1]
		end := pos + 2 + int(binary.BigEndian.Uint16(stream[pos+2:]))
		if end > len(stream) {
			return nil
		}
		body := stream[pos+4 : end]
		switch marker {
		case markerDQT:
			for ; len(body) >= 65; body = body[65:] {
				if body[0] > 1 { // 16-bit precision, or a table the encoder never selects
					return nil
				}
				for zig, q := range body[1:65] {
					if q == 0 {
						return nil
					}
					t.quant[body[0]][zig] = newReciprocal(8 * uint32(q))
				}
				haveQuant[body[0]] = true
			}
		case markerSOF0:
			if len(body) < 6 || int(body[5]) != components {
				return nil
			}
			t.sofSize = pos + 4 + 1
		case markerDHT:
			for len(body) >= 17 {
				class, id := body[0]>>4, body[0]&0x0f
				if class > 1 || id > 1 {
					return nil
				}
				counts, body2 := body[1:17], body[17:]
				lut := &t.huff[2*id+class]
				code := uint32(0)
				for i, n := range counts {
					if int(n) > len(body2) {
						return nil
					}
					for _, sym := range body2[:n] {
						lut[sym] = uint32(i+1)<<24 | code
						code++
					}
					body2 = body2[n:]
					code <<= 1
				}
				haveHuff[2*id+class] = true
				body = body2
			}
		case markerSOS:
			want := 2 * (components/3 + 1)
			for i := 0; i < want; i++ {
				if !haveHuff[i] {
					return nil
				}
			}
			if !haveQuant[0] || !haveQuant[1] || t.sofSize == 0 {
				return nil
			}
			t.header = bytes.Clone(stream[:end])
			return t
		}
		pos = end
	}
	return nil
}

// unzig maps from the zig-zag ordering to the natural ordering, as in
// image/jpeg.
var unzig = [64]uint8{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// scan is the entropy-coded segment being written: whole bytes in out, the
// rest in the low n bits of acc. A symbol — a Huffman code and the value
// bits that follow it — enters acc in one shift-or and leaves 32 bits at a
// time; n stays below 32 between symbols and no symbol is longer than 27
// bits (a 16-bit code and 11 value bits), so acc never overflows.
type scan struct {
	out []byte
	acc uint64
	n   uint32
	t   *jpegTables
}

func (s *scan) put(code, length uint32) {
	s.acc = s.acc<<length | uint64(code)
	s.n += length
	if s.n >= 32 {
		s.n -= 32
		s.out = appendWord(s.out, uint32(s.acc>>s.n))
	}
}

// appendWord appends 32 bits of entropy-coded data, a zero byte stuffed
// after every 0xff (T.81 B.1.1.5).
func appendWord(out []byte, w uint32) []byte {
	if (^w-0x01010101)&w&0x80808080 == 0 { // no byte of w is 0xff
		return binary.BigEndian.AppendUint32(out, w)
	}
	for shift := 24; shift >= 0; shift -= 8 {
		out = appendByte(out, byte(w>>shift))
	}
	return out
}

func appendByte(out []byte, b byte) []byte {
	if b == 0xff {
		return append(out, 0xff, 0x00)
	}
	return append(out, b)
}

// symbol returns the bits and the length of a coefficient of magnitude mag
// (sign as a mask) preceded by run zeros: the Huffman code of run<<4|size,
// then the size value bits — for a negative coefficient the low bits of
// value−1, which are those of ^mag. A DC difference of 0 has size 0.
func symbol(lut *[256]uint32, run, mag, sign uint32) (code, length uint32) {
	size := uint32(bits.Len32(mag))
	x := lut[(run<<4|size)&0xff]
	return (x&(1<<24-1))<<size | (mag^sign)&(1<<size-1), x>>24 + size
}

// writeBlock transforms, quantises and writes one block with table set q
// (0 luminance, 1 chrominance) and returns its quantised DC value, as
// image/jpeg's writeBlock does. Quantisation is one branch-free pass that
// also marks the non-zero coefficients in a bit set; the run lengths are
// then the gaps between set bits.
func (s *scan) writeBlock(b *block, q int, prevDC int32) int32 {
	fdct(b)
	quant := &s.t.quant[q]
	var mags, signs [64]uint32
	var nonzero uint64
	for zig := range mags {
		mag, sign := quant[zig].div(b[unzig[zig]])
		mags[zig], signs[zig] = mag, sign
		nonzero |= uint64((mag|-mag)>>31) << zig
	}
	dc := int32((mags[0] ^ signs[0]) - signs[0])
	s.putDC(q, dc-prevDC)

	// The same put as below, on locals: through s the accumulator is
	// stored and reloaded around every symbol, which costs a quarter of
	// the encode.
	ac := &s.t.huff[2*q+1]
	zrl, zrlLength := uint64(ac[0xf0]&(1<<24-1)), ac[0xf0]>>24
	out, acc, n := s.out, s.acc, s.n
	last := 0
	for rest := nonzero &^ 1; rest != 0; rest &= rest - 1 {
		zig := bits.TrailingZeros64(rest)
		run := uint32(zig - last - 1)
		last = zig
		for ; run > 15; run -= 16 { // ZRL: sixteen zeros
			acc, n = acc<<zrlLength|zrl, n+zrlLength
			if n >= 32 {
				n -= 32
				out = appendWord(out, uint32(acc>>n))
			}
		}
		code, length := symbol(ac, run, mags[zig], signs[zig])
		acc, n = acc<<length|uint64(code), n+length
		if n >= 32 {
			n -= 32
			out = appendWord(out, uint32(acc>>n))
		}
	}
	s.out, s.acc, s.n = out, acc, n
	if last != 63 { // EOB: the rest of the block is zero
		s.put(ac[0x00]&(1<<24-1), ac[0x00]>>24)
	}
	return dc
}

func (s *scan) putDC(q int, diff int32) {
	sign := uint32(diff >> 31)
	s.put(symbol(&s.t.huff[2*q], 0, (uint32(diff)^sign)-sign, sign))
}

// writeZeroChroma writes a chrominance block whose samples are all 128: its
// coefficients are all zero after the level shift, so it is the DC
// difference from prevDC to 0 and an end-of-block, with no transform.
func (s *scan) writeZeroChroma(prevDC int32) {
	s.putDC(1, -prevDC)
	eob := s.t.huff[3][0x00]
	s.put(eob&(1<<24-1), eob>>24)
}

// begin starts a stream for a frame of the given size after dst.
func (t *jpegTables) begin(dst []byte, size image.Point) scan {
	mark := len(dst)
	dst = append(dst, t.header...)
	binary.BigEndian.PutUint16(dst[mark+t.sofSize:], uint16(size.Y))
	binary.BigEndian.PutUint16(dst[mark+t.sofSize+2:], uint16(size.X))
	return scan{out: dst, t: t}
}

// end pads the last byte with ones, as image/jpeg does (seven one bits, of
// which only those completing a byte are written), and appends EOI.
func (s *scan) end() []byte {
	s.put(0x7f, 7)
	for s.n >= 8 {
		s.n -= 8
		s.out = appendByte(s.out, byte(s.acc>>s.n))
	}
	return append(s.out, 0xff, 0xd9)
}

func (t *jpegTables) appendGray(dst []byte, m *image.Gray) []byte {
	r := m.Rect
	s := t.begin(dst, r.Size())
	var b block
	var prevDC int32
	for y := 0; y < r.Dy(); y += 8 {
		for x := 0; x < r.Dx(); x += 8 {
			grayBlock(m, x, y, &b)
			prevDC = s.writeBlock(&b, 0, prevDC)
		}
	}
	return s.end()
}

// grayBlock stores in b the 8×8 region of m whose top-left corner is (x, y)
// relative to m.Rect.Min, repeating the last column and row past the edge.
func grayBlock(m *image.Gray, x, y int, b *block) {
	w, h := m.Rect.Dx(), m.Rect.Dy()
	for j := 0; j < 8; j++ {
		row := m.Pix[min(y+j, h-1)*m.Stride:]
		out := b[8*j : 8*j+8 : 8*j+8]
		if x+8 <= w {
			for i, v := range row[x : x+8] {
				out[i] = int32(v)
			}
			continue
		}
		for i := range out {
			out[i] = int32(row[min(x+i, w-1)])
		}
	}
}

func (t *jpegTables) appendRGBA(dst []byte, m *image.RGBA) []byte {
	r := m.Rect
	s := t.begin(dst, r.Size())
	var (
		b, c                        block
		cb, cr                      [4]block
		prevDCY, prevDCCb, prevDCCr int32
	)
	for y := 0; y < r.Dy(); y += 16 {
		for x := 0; x < r.Dx(); x += 16 {
			coloured := false
			for i := 0; i < 4; i++ {
				if rgbaBlock(m, x+(i&1)*8, y+(i&2)*4, &b, &cb[i], &cr[i]) {
					coloured = true
				}
				prevDCY = s.writeBlock(&b, 0, prevDCY)
			}
			// Every pixel of the MCU had R = G = B: under RGBToYCbCr both
			// chroma samples of such a pixel are exactly 128, and so are
			// their 2×2 means.
			if !coloured {
				s.writeZeroChroma(prevDCCb)
				s.writeZeroChroma(prevDCCr)
				prevDCCb, prevDCCr = 0, 0
				continue
			}
			subsample(&c, &cb)
			prevDCCb = s.writeBlock(&c, 1, prevDCCb)
			subsample(&c, &cr)
			prevDCCr = s.writeBlock(&c, 1, prevDCCr)
		}
	}
	return s.end()
}

// rgbaBlock converts the 8×8 region of m whose top-left corner is (x, y)
// relative to m.Rect.Min to YCbCr, repeating the last column and row past
// the edge, and reports whether any pixel in it has differing R, G and B.
// A pixel with R = G = B converts to (R, 128, 128) without the arithmetic:
// the luma weights sum to 65536 and each chroma row sums to 0.
func rgbaBlock(m *image.RGBA, x, y int, yy, cb, cr *block) (coloured bool) {
	w, h := m.Rect.Dx(), m.Rect.Dy()
	for j := 0; j < 8; j++ {
		row := m.Pix[min(y+j, h-1)*m.Stride:]
		for i := 0; i < 8; i++ {
			p := row[4*min(x+i, w-1):]
			r, g, b := p[0], p[1], p[2]
			k := 8*j + i
			if r == g && g == b {
				yy[k], cb[k], cr[k] = int32(r), 128, 128
				continue
			}
			coloured = true
			y8, cb8, cr8 := color.RGBToYCbCr(r, g, b)
			yy[k], cb[k], cr[k] = int32(y8), int32(cb8), int32(cr8)
		}
	}
	return coloured
}

// subsample averages the 16×16 region held in the four src blocks down to
// the 8×8 dst, as image/jpeg's scale does.
func subsample(dst *block, src *[4]block) {
	for i := 0; i < 4; i++ {
		dstOff := (i&2)<<4 | (i&1)<<2
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				j := 16*y + 2*x
				sum := src[i][j] + src[i][j+1] + src[i][j+8] + src[i][j+9]
				dst[8*y+x+dstOff] = (sum + 2) >> 2
			}
		}
	}
}
