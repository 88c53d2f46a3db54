package imaging

import "image"

// glyphs is a compact 5x7 bitmap font covering the characters the portal
// plots and annotation overlays need: digits, uppercase letters and basic
// punctuation. Each glyph row is a 5-bit pattern, most-significant bit
// leftmost. Lowercase input is rendered with the uppercase glyph.
var glyphs = map[rune][7]uint8{
	' ': {0, 0, 0, 0, 0, 0, 0},
	'.': {0, 0, 0, 0, 0, 0b00110, 0b00110},
	',': {0, 0, 0, 0, 0b00110, 0b00100, 0b01000},
	'-': {0, 0, 0, 0b11111, 0, 0, 0},
	'+': {0, 0b00100, 0b00100, 0b11111, 0b00100, 0b00100, 0},
	':': {0, 0b00110, 0b00110, 0, 0b00110, 0b00110, 0},
	'%': {0b11001, 0b11010, 0b00010, 0b00100, 0b01000, 0b01011, 0b10011},
	'/': {0b00001, 0b00010, 0b00010, 0b00100, 0b01000, 0b01000, 0b10000},
	'(': {0b00010, 0b00100, 0b01000, 0b01000, 0b01000, 0b00100, 0b00010},
	')': {0b01000, 0b00100, 0b00010, 0b00010, 0b00010, 0b00100, 0b01000},
	'=': {0, 0, 0b11111, 0, 0b11111, 0, 0},
	'0': {0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110},
	'1': {0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110},
	'2': {0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111},
	'3': {0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110},
	'4': {0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010},
	'5': {0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110},
	'6': {0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110},
	'7': {0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000},
	'8': {0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110},
	'9': {0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100},
	'A': {0b01110, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001},
	'B': {0b11110, 0b10001, 0b10001, 0b11110, 0b10001, 0b10001, 0b11110},
	'C': {0b01110, 0b10001, 0b10000, 0b10000, 0b10000, 0b10001, 0b01110},
	'D': {0b11100, 0b10010, 0b10001, 0b10001, 0b10001, 0b10010, 0b11100},
	'E': {0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b11111},
	'F': {0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b10000},
	'G': {0b01110, 0b10001, 0b10000, 0b10111, 0b10001, 0b10001, 0b01111},
	'H': {0b10001, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001},
	'I': {0b01110, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110},
	'J': {0b00111, 0b00010, 0b00010, 0b00010, 0b00010, 0b10010, 0b01100},
	'K': {0b10001, 0b10010, 0b10100, 0b11000, 0b10100, 0b10010, 0b10001},
	'L': {0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b11111},
	'M': {0b10001, 0b11011, 0b10101, 0b10101, 0b10001, 0b10001, 0b10001},
	'N': {0b10001, 0b11001, 0b10101, 0b10011, 0b10001, 0b10001, 0b10001},
	'O': {0b01110, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110},
	'P': {0b11110, 0b10001, 0b10001, 0b11110, 0b10000, 0b10000, 0b10000},
	'Q': {0b01110, 0b10001, 0b10001, 0b10001, 0b10101, 0b10010, 0b01101},
	'R': {0b11110, 0b10001, 0b10001, 0b11110, 0b10100, 0b10010, 0b10001},
	'S': {0b01111, 0b10000, 0b10000, 0b01110, 0b00001, 0b00001, 0b11110},
	'T': {0b11111, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100},
	'U': {0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110},
	'V': {0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01010, 0b00100},
	'W': {0b10001, 0b10001, 0b10001, 0b10101, 0b10101, 0b10101, 0b01010},
	'X': {0b10001, 0b10001, 0b01010, 0b00100, 0b01010, 0b10001, 0b10001},
	'Y': {0b10001, 0b10001, 0b01010, 0b00100, 0b00100, 0b00100, 0b00100},
	'Z': {0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b11111},
}

// GlyphWidth and GlyphHeight are the cell size of the bitmap font,
// including no inter-character spacing.
const (
	GlyphWidth  = 5
	GlyphHeight = 7
)

// TextWidth returns the pixel width of s at the given integer scale
// (including one scaled column of spacing between characters).
func TextWidth(s string, scale int) int {
	if len(s) == 0 {
		return 0
	}
	n := 0
	for range s {
		n++
	}
	return (n*(GlyphWidth+1) - 1) * scale
}

// DrawText renders s at (x, y) (top-left corner) with the given color and
// integer scale. Characters without a glyph render as space. Lowercase
// letters use the uppercase glyph.
func DrawText(img *image.RGBA, x, y int, s string, c RGB, scale int) {
	if scale < 1 {
		scale = 1
	}
	cx := x
	for _, r := range s {
		if r >= 'a' && r <= 'z' {
			r = r - 'a' + 'A'
		}
		g, ok := glyphs[r]
		if !ok {
			g = glyphs[' ']
		}
		for row := 0; row < GlyphHeight; row++ {
			bits := g[row]
			for col := 0; col < GlyphWidth; col++ {
				if bits&(1<<(GlyphWidth-1-col)) != 0 {
					fillRect(img, cx+col*scale, y+row*scale, scale, scale, c)
				}
			}
		}
		cx += (GlyphWidth + 1) * scale
	}
}

func fillRect(img *image.RGBA, x, y, w, h int, c RGB) {
	b := img.Bounds()
	x0, x1 := max(x, b.Min.X), min(x+w, b.Max.X)
	y0, y1 := max(y, b.Min.Y), min(y+h, b.Max.Y)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	first := img.Pix[img.PixOffset(x0, y0):img.PixOffset(x1, y0)]
	for i := 0; i < len(first); i += 4 {
		first[i] = c.R
		first[i+1] = c.G
		first[i+2] = c.B
		first[i+3] = 255
	}
	for yy := y0 + 1; yy < y1; yy++ {
		copy(img.Pix[img.PixOffset(x0, yy):], first)
	}
}
