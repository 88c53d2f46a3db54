package imaging

import (
	"bufio"
	"compress/zlib"
	"encoding/binary"
	"hash/crc32"
	"image"
	"image/png"
	"io"
	"sync"
)

// pngEncoder trades a little artifact size for encode speed: the portal's
// intensity maps and spectrum plots sit on the fused analysis hot path, and
// default-compression deflate dominated their cost. It writes every image
// that EncodePNG cannot palettize, and it is the oracle the palette writer
// is tested against.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: pngBuffers{}}

// pngBuffers adapts a sync.Pool to png.EncoderBufferPool so repeated
// artifact writes reuse the encoder's internal row buffers.
type pngBuffers struct{}

var pngBufferPool = sync.Pool{New: func() any { return new(png.EncoderBuffer) }}

func (pngBuffers) Get() *png.EncoderBuffer  { return pngBufferPool.Get().(*png.EncoderBuffer) }
func (pngBuffers) Put(b *png.EncoderBuffer) { pngBufferPool.Put(b) }

// EncodePNG writes img to w with the fast encoder settings. An *image.RGBA
// with at most 256 distinct colors — every rendered plot and most small
// heatmaps — is written as a paletted PNG: byte for byte what
// png.Encoder{CompressionLevel: png.BestSpeed} writes for the same pixels
// as an *image.Paletted whose palette lists the colors in first-seen order
// (DESIGN.md §14), with rows packed straight from the palette indices and
// no interface call per pixel. Any other image goes to png.Encoder.
func EncodePNG(w io.Writer, img image.Image) error {
	rgba, ok := img.(*image.RGBA)
	if !ok || rgba.Rect.Empty() {
		return pngEncoder.Encode(w, img)
	}
	p := palWriters.Get().(*palWriter)
	defer palWriters.Put(p)
	if !p.palettize(rgba) {
		return pngEncoder.Encode(w, img)
	}
	return p.encode(w, rgba.Rect.Dx(), rgba.Rect.Dy())
}

// palWriter is the pooled state of one paletted PNG write: the image as
// palette indices, its palette, one packed row, and the IDAT chunking and
// zlib writers png.Encoder would use.
type palWriter struct {
	idx []uint8       // one palette index per pixel, row-major
	pal []uint32      // the distinct colors in first-seen order, as R | G<<8 | B<<16 | A<<24
	row []uint8       // filter byte + packed indices
	buf [3 * 256]byte // signature, IHDR or PLTE data
	hdr [8]byte       // chunk length and type, then CRC
	trn [256]byte     // tRNS data
	out io.Writer     // where IDAT chunks go
	err error         // the first error writing to out
	bw  *bufio.Writer
	zw  *zlib.Writer
}

var palWriters = sync.Pool{New: func() any { return new(palWriter) }}

// palettize fills p.idx and p.pal from img, or returns false when img has
// more than 256 distinct colors. A color is keyed by one 32-bit load of its
// RGBA bytes, and a pixel the color of the one before it takes no table
// lookup — nor does a pair of them, compared in one 64-bit load: the
// background, axes and text of a plot are long runs.
func (p *palWriter) palettize(img *image.RGBA) bool {
	const tableSize = 1024 // power of two, ≥ 4× the largest palette for low load
	var keys [tableSize]uint32
	var idxs [tableSize]uint8
	var used [tableSize]bool
	w, h := img.Rect.Dx(), img.Rect.Dy()
	if cap(p.idx) < w*h {
		p.idx = make([]uint8, w*h)
	}
	p.idx = p.idx[:w*h]
	p.pal = p.pal[:0]
	// The first pixel seeds the palette and the run.
	last, lastIdx := binary.LittleEndian.Uint32(img.Pix), uint8(0)
	slot := last * 2654435761 >> 22
	used[slot], keys[slot] = true, last
	p.pal = append(p.pal, last)
	pair := uint64(last) * 0x1_0000_0001 // two pixels of the last color
	for y := 0; y < h; y++ {
		src := img.Pix[y*img.Stride : y*img.Stride+w*4]
		dst := p.idx[y*w : (y+1)*w]
		for x := 0; x < len(dst); x++ {
			if x+1 < len(dst) && binary.LittleEndian.Uint64(src[x*4:]) == pair {
				dst[x], dst[x+1] = lastIdx, lastIdx
				x++
				continue
			}
			key := binary.LittleEndian.Uint32(src[x*4:])
			if key != last {
				slot = key * 2654435761 >> 22
				for used[slot] && keys[slot] != key {
					slot = (slot + 1) % tableSize
				}
				if !used[slot] {
					if len(p.pal) == 256 {
						return false
					}
					used[slot] = true
					keys[slot] = key
					idxs[slot] = uint8(len(p.pal))
					p.pal = append(p.pal, key)
				}
				last, lastIdx = key, idxs[slot]
				pair = uint64(last) * 0x1_0000_0001
			}
			dst[x] = lastIdx
		}
	}
	return true
}

// encode writes the palettized image as a PNG: the signature, IHDR at the
// bit depth png.Encoder picks for the palette size, PLTE, tRNS when an entry
// is translucent, IDAT chunks cut where png.Encoder's 32 KiB bufio.Writer
// flushes them, and IEND. Paletted rows are never filtered (filter byte 0),
// and each row is one Write into a BestSpeed zlib writer, as png.Encoder
// does.
func (p *palWriter) encode(w io.Writer, width, height int) error {
	depth := 8
	switch n := len(p.pal); {
	case n <= 2:
		depth = 1
	case n <= 4:
		depth = 2
	case n <= 16:
		depth = 4
	}
	p.out, p.err = w, nil
	defer func() { p.out = nil }()

	p.write(append(p.buf[:0], "\x89PNG\r\n\x1a\n"...))
	b := binary.BigEndian.AppendUint32(p.buf[:0], uint32(width))
	b = binary.BigEndian.AppendUint32(b, uint32(height))
	b = append(b, uint8(depth), 3, 0, 0, 0) // paletted; deflate, no filter method, no interlace
	p.writeChunk("IHDR", b)

	b = p.buf[:0]
	last := -1
	for i, c := range p.pal {
		r, g, bl, a := nrgba(c)
		b = append(b, r, g, bl)
		p.trn[i] = a
		if a != 0xff {
			last = i
		}
	}
	p.writeChunk("PLTE", b)
	if last >= 0 {
		p.writeChunk("tRNS", p.trn[:last+1])
	}

	if p.bw == nil {
		p.bw = bufio.NewWriterSize(idatWriter{p}, 1<<15)
	} else {
		p.bw.Reset(idatWriter{p})
	}
	if p.zw == nil {
		p.zw, _ = zlib.NewWriterLevel(p.bw, zlib.BestSpeed) // a valid level cannot fail
	} else {
		p.zw.Reset(p.bw)
	}
	n := 1 + (depth*width+7)/8
	if cap(p.row) < n {
		p.row = make([]uint8, n)
	}
	row := p.row[:n]
	row[0] = 0 // filter type None
	for y := 0; y < height; y++ {
		packRow(row[1:], p.idx[y*width:(y+1)*width], uint(depth))
		if _, err := p.zw.Write(row); err != nil {
			return err
		}
	}
	if err := p.zw.Close(); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	p.writeChunk("IEND", nil)
	return p.err
}

// packRow packs one row of palette indices at depth bits per pixel, the
// leftmost pixel in the most significant bits, as png.Encoder packs a row.
func packRow(dst, idx []uint8, depth uint) {
	switch depth {
	case 8:
		copy(dst, idx)
		return
	case 4:
		for i := range len(idx) / 2 {
			s := idx[2*i : 2*i+2]
			dst[i] = s[0]<<4 | s[1]
		}
	case 2:
		for i := range len(idx) / 4 {
			s := idx[4*i : 4*i+4]
			dst[i] = s[0]<<6 | s[1]<<4 | s[2]<<2 | s[3]
		}
	case 1:
		for i := range len(idx) / 8 {
			s := idx[8*i : 8*i+8]
			dst[i] = s[0]<<7 | s[1]<<6 | s[2]<<5 | s[3]<<4 | s[4]<<3 | s[5]<<2 | s[6]<<1 | s[7]
		}
	}
	// A row whose width is not a multiple of 8/depth ends in a byte that
	// holds the remaining pixels, padded with zero bits.
	per := int(8 / depth)
	if rest := idx[len(idx)/per*per:]; len(rest) > 0 {
		var a uint8
		for _, v := range rest {
			a = a<<depth | v
		}
		dst[len(idx)/per] = a << (depth * uint(per-len(rest)))
	}
}

// nrgba is color.NRGBAModel.Convert of the color.RGBA packed in c, without
// boxing it in an interface.
func nrgba(c uint32) (r, g, b, a uint8) {
	r16, g16, b16, a16 := c&0xff*0x101, c>>8&0xff*0x101, c>>16&0xff*0x101, c>>24*0x101
	switch a16 {
	case 0xffff:
		return uint8(c), uint8(c >> 8), uint8(c >> 16), 0xff
	case 0:
		return 0, 0, 0, 0
	}
	return uint8(r16 * 0xffff / a16 >> 8), uint8(g16 * 0xffff / a16 >> 8), uint8(b16 * 0xffff / a16 >> 8), uint8(a16 >> 8)
}

func (p *palWriter) write(b []byte) {
	if p.err == nil {
		_, p.err = p.out.Write(b)
	}
}

// writeChunk writes one PNG chunk: length, type, data, CRC-32 of type and
// data.
func (p *palWriter) writeChunk(name string, data []byte) {
	binary.BigEndian.PutUint32(p.hdr[:4], uint32(len(data)))
	copy(p.hdr[4:], name)
	crc := crc32.Update(crc32.ChecksumIEEE(p.hdr[4:]), crc32.IEEETable, data)
	p.write(p.hdr[:])
	p.write(data)
	p.write(binary.BigEndian.AppendUint32(p.hdr[:0], crc))
}

// idatWriter turns each write the bufio.Writer makes into one IDAT chunk.
type idatWriter struct{ p *palWriter }

func (w idatWriter) Write(b []byte) (int, error) {
	w.p.writeChunk("IDAT", b)
	if w.p.err != nil {
		return 0, w.p.err
	}
	return len(b), nil
}
