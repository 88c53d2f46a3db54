// Package imaging renders the visual data products the paper's portal
// displays: false-color intensity maps of hyperspectral samples (Fig 2.A),
// aggregate spectrum plots (Fig 2.B), and bounding-box annotation overlays
// for the nanoparticle tracking use case (Fig 3). Everything is built on
// the standard library image stack; PNG is the interchange format.
package imaging

import (
	"fmt"
	"image"
	"image/color"
	"math"

	"picoprobe/internal/geom"
	"picoprobe/internal/tensor"
)

// RGB is a plain 8-bit color triple.
type RGB struct{ R, G, B uint8 }

// Colors used throughout the portal artifacts.
var (
	White  = RGB{255, 255, 255}
	Black  = RGB{0, 0, 0}
	Orange = RGB{255, 140, 0}
	Blue   = RGB{40, 90, 200}
	Gray   = RGB{128, 128, 128}
	Red    = RGB{220, 40, 40}
)

func setRGB(img *image.RGBA, x, y int, c RGB) {
	img.SetRGBA(x, y, color.RGBA{R: c.R, G: c.G, B: c.B, A: 255})
}

// Colormap maps a normalized value in [0, 1] to a color; the colormaps
// here clamp a value outside it, and map NaN as they map 0.
type Colormap func(v float64) RGB

// Grayscale is the identity colormap.
func Grayscale(v float64) RGB {
	g := uint8(math.Round(clamp01(v) * 255))
	return RGB{g, g, g}
}

// viridisAnchors are sampled from the matplotlib viridis colormap; values
// in between are linearly interpolated.
var viridisAnchors = []RGB{
	{68, 1, 84}, {71, 44, 122}, {59, 81, 139}, {44, 113, 142},
	{33, 144, 141}, {39, 173, 129}, {92, 200, 99}, {170, 220, 50}, {253, 231, 37},
}

// Viridis is a perceptually uniform false-color map.
func Viridis(v float64) RGB {
	v = clamp01(v)
	pos := v * float64(len(viridisAnchors)-1)
	i := int(pos)
	if i >= len(viridisAnchors)-1 {
		return viridisAnchors[len(viridisAnchors)-1]
	}
	frac := pos - float64(i)
	a, b := viridisAnchors[i], viridisAnchors[i+1]
	lerp := func(x, y uint8) uint8 { return uint8(float64(x) + frac*(float64(y)-float64(x))) }
	return RGB{lerp(a.R, b.R), lerp(a.G, b.G), lerp(a.B, b.B)}
}

// Heatmap renders a rank-2 tensor as an image, normalizing [min, max] of
// the finite samples onto the colormap. A non-finite sample — a dead
// detector pixel — takes the nearest end of the colormap: +Inf the high
// end, −Inf and NaN the low end.
func Heatmap(d *tensor.Dense, cmap Colormap) (*image.RGBA, error) {
	if d.Rank() != 2 {
		return nil, fmt.Errorf("imaging: Heatmap needs a rank-2 tensor, got %v", d.Shape())
	}
	h, w := d.Shape()[0], d.Shape()[1]
	lo, hi := finiteRange(d.Data())
	span := hi - lo
	if span == 0 {
		span = 1
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	data := d.Data()
	for i, v := range data {
		c := cmap((v - lo) / span)
		o := i * 4
		img.Pix[o] = c.R
		img.Pix[o+1] = c.G
		img.Pix[o+2] = c.B
		img.Pix[o+3] = 255
	}
	return img, nil
}

// finiteRange is the minimum and maximum of the finite values in data, or
// 0, 0 when there are none.
func finiteRange(data []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if v < lo && !math.IsInf(v, -1) {
			lo = v
		}
		if v > hi && !math.IsInf(v, 1) {
			hi = v
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// GrayFrame renders pre-quantized uint8 samples (row-major h x w) as a
// grayscale image; it is the fast path used by the video conversion
// pipeline after the fp64→uint8 cast.
func GrayFrame(pixels []uint8, w, h int) (*image.Gray, error) {
	return GrayFrameInto(nil, pixels, w, h)
}

// GrayFrameInto is GrayFrame reusing img's storage when its dimensions
// already match (img may be nil). Streaming video pipelines pass the
// previous frame back in so per-frame rendering allocates nothing.
func GrayFrameInto(img *image.Gray, pixels []uint8, w, h int) (*image.Gray, error) {
	if len(pixels) != w*h {
		return nil, fmt.Errorf("imaging: %d pixels for %dx%d frame", len(pixels), w, h)
	}
	if img == nil || img.Rect.Dx() != w || img.Rect.Dy() != h {
		img = image.NewGray(image.Rect(0, 0, w, h))
	}
	copy(img.Pix, pixels)
	return img, nil
}

// DrawBox outlines a box with the given color and line thickness.
func DrawBox(img *image.RGBA, b geom.Box, c RGB, thickness int) {
	if thickness < 1 {
		thickness = 1
	}
	x0, y0, x1, y1 := int(b.X0), int(b.Y0), int(b.X1), int(b.Y1)
	fillRect(img, x0, y0, x1-x0, thickness, c)           // top
	fillRect(img, x0, y1-thickness, x1-x0, thickness, c) // bottom
	fillRect(img, x0, y0, thickness, y1-y0, c)           // left
	fillRect(img, x1-thickness, y0, thickness, y1-y0, c) // right
}

// DrawLabeledBox outlines a box and renders label text just above it (or
// inside if there is no room above).
func DrawLabeledBox(img *image.RGBA, b geom.Box, label string, c RGB) {
	DrawBox(img, b, c, 1)
	y := int(b.Y0) - GlyphHeight - 2
	if y < 0 {
		y = int(b.Y0) + 2
	}
	DrawText(img, int(b.X0), y, label, c, 1)
}

// ToRGBA converts any image to RGBA for annotation.
func ToRGBA(src image.Image) *image.RGBA {
	return ToRGBAInto(nil, src)
}

// ToRGBAInto converts src to RGBA, reusing dst's storage when its bounds
// already match (dst may be nil). Grayscale sources take a direct
// pixel-expansion path instead of the interface-dispatch Set/At loop.
func ToRGBAInto(dst *image.RGBA, src image.Image) *image.RGBA {
	if rgba, ok := src.(*image.RGBA); ok {
		return rgba
	}
	b := src.Bounds()
	if dst == nil || dst.Rect != b {
		dst = image.NewRGBA(b)
	}
	if gray, ok := src.(*image.Gray); ok {
		for y := b.Min.Y; y < b.Max.Y; y++ {
			srow := gray.Pix[gray.PixOffset(b.Min.X, y) : gray.PixOffset(b.Min.X, y)+b.Dx()]
			drow := dst.Pix[dst.PixOffset(b.Min.X, y) : dst.PixOffset(b.Min.X, y)+b.Dx()*4]
			for i, v := range srow {
				o := i * 4
				drow[o] = v
				drow[o+1] = v
				drow[o+2] = v
				drow[o+3] = 255
			}
		}
		return dst
	}
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			dst.Set(x, y, src.At(x, y))
		}
	}
	return dst
}

// clamp01 clamps v to [0, 1], NaN to 0.
func clamp01(v float64) float64 {
	if !(v > 0) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
