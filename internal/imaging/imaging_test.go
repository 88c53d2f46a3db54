package imaging

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"
	"testing"

	"picoprobe/internal/geom"
	"picoprobe/internal/tensor"
)

func TestGrayscaleAndViridisBounds(t *testing.T) {
	for _, v := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2} {
		g := Grayscale(v)
		if g.R != g.G || g.G != g.B {
			t.Errorf("Grayscale(%v) not gray: %+v", v, g)
		}
		_ = Viridis(v) // must not panic out of range
	}
	if Grayscale(0).R != 0 || Grayscale(1).R != 255 {
		t.Error("Grayscale endpoints wrong")
	}
	if Grayscale(math.NaN()) != Grayscale(0) || Viridis(math.NaN()) != Viridis(0) {
		t.Error("NaN should map to the low end")
	}
	if Grayscale(math.Inf(1)) != Grayscale(1) || Viridis(math.Inf(-1)) != Viridis(0) {
		t.Error("±Inf should map to the nearest end")
	}
	lo, hi := Viridis(0), Viridis(1)
	if lo == hi {
		t.Error("Viridis endpoints identical")
	}
}

func TestHeatmap(t *testing.T) {
	d := tensor.New(4, 6)
	d.Set(10, 2, 3)
	img, err := Heatmap(d, Grayscale)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 6 || img.Bounds().Dy() != 4 {
		t.Errorf("bounds = %v", img.Bounds())
	}
	// The hot pixel should be white, the rest black.
	r, _, _, _ := img.At(3, 2).RGBA()
	if r>>8 != 255 {
		t.Errorf("hot pixel = %d", r>>8)
	}
	r0, _, _, _ := img.At(0, 0).RGBA()
	if r0>>8 != 0 {
		t.Errorf("cold pixel = %d", r0>>8)
	}
	// Constant image should not divide by zero.
	if _, err := Heatmap(tensor.New(2, 2), Viridis); err != nil {
		t.Error(err)
	}
	// Rank check.
	if _, err := Heatmap(tensor.New(2, 2, 2), Grayscale); err == nil {
		t.Error("rank-3 heatmap should error")
	}
}

func TestGrayFrame(t *testing.T) {
	img, err := GrayFrame([]uint8{0, 128, 255, 64}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if img.GrayAt(1, 0).Y != 128 {
		t.Errorf("pixel = %d", img.GrayAt(1, 0).Y)
	}
	if _, err := GrayFrame([]uint8{1, 2, 3}, 2, 2); err == nil {
		t.Error("wrong pixel count should error")
	}
}

func TestDrawBoxAndText(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 64, 64))
	DrawBox(img, geom.NewBox(10, 10, 30, 30), Orange, 2)
	// Box edge pixels set.
	r, g, _, _ := img.At(10, 10).RGBA()
	if uint8(r>>8) != Orange.R || uint8(g>>8) != Orange.G {
		t.Error("box edge not drawn")
	}
	// Interior untouched.
	_, _, _, a := img.At(20, 20).RGBA()
	if a != 0 {
		t.Error("box interior should be untouched")
	}

	DrawText(img, 2, 40, "AU 0.87", White, 1)
	lit := 0
	for y := 40; y < 47; y++ {
		for x := 2; x < 2+TextWidth("AU 0.87", 1); x++ {
			if r, _, _, _ := img.At(x, y).RGBA(); r > 0 {
				lit++
			}
		}
	}
	if lit < 20 {
		t.Errorf("text rendered only %d pixels", lit)
	}
}

func TestDrawLabeledBoxNearTop(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 32, 32))
	DrawLabeledBox(img, geom.NewBox(2, 2, 20, 20), "0.9", Red) // label flips inside
	DrawLabeledBox(img, geom.NewBox(2, 15, 20, 30), "0.8", Red)
}

func TestTextWidth(t *testing.T) {
	if TextWidth("", 1) != 0 {
		t.Error("empty width should be 0")
	}
	if TextWidth("AB", 1) != 11 { // 2*(5+1)-1
		t.Errorf("width = %d", TextWidth("AB", 1))
	}
	if TextWidth("AB", 2) != 22 {
		t.Errorf("scaled width = %d", TextWidth("AB", 2))
	}
}

func TestLinePlot(t *testing.T) {
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i) / 5
		ys[i] = float64(i % 17)
	}
	img, err := LinePlot(PlotConfig{
		Title:  "EDS SPECTRUM",
		XLabel: "ENERGY (KEV)",
		YLabel: "COUNTS",
		Markers: []Marker{
			{X: 10, Label: "AU", Color: Red},
			{X: 500, Label: "OFFSCALE", Color: Red}, // ignored: out of range
		},
	}, Series{Label: "SUM", X: xs, Y: ys, Color: Blue})
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 640 || img.Bounds().Dy() != 360 {
		t.Errorf("bounds = %v", img.Bounds())
	}
}

func TestLinePlotErrors(t *testing.T) {
	if _, err := LinePlot(PlotConfig{}); err == nil {
		t.Error("no series should error")
	}
	if _, err := LinePlot(PlotConfig{}, Series{X: []float64{1}, Y: []float64{}}); err == nil {
		t.Error("mismatched series should error")
	}
	if _, err := LinePlot(PlotConfig{}, Series{X: nil, Y: nil}); err == nil {
		t.Error("empty series should error")
	}
	// Single-point series must not divide by zero.
	if _, err := LinePlot(PlotConfig{}, Series{X: []float64{1}, Y: []float64{2}}); err != nil {
		t.Error(err)
	}
}

func TestEncodePNG(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 8, 8))
	img.SetRGBA(3, 4, color.RGBA{R: 200, G: 10, B: 30, A: 255})
	var buf bytes.Buffer
	if err := EncodePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 8 || string(raw[1:4]) != "PNG" {
		t.Fatal("output is not a PNG")
	}
	// Two colours: the palettized form is what was written, and it decodes
	// to the same pixels.
	got, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(*image.Paletted); !ok {
		t.Errorf("decoded %T, want a paletted image", got)
	}
	if r, g, b, a := got.At(3, 4).RGBA(); r>>8 != 200 || g>>8 != 10 || b>>8 != 30 || a>>8 != 255 {
		t.Errorf("pixel (3,4) = %d,%d,%d,%d", r>>8, g>>8, b>>8, a>>8)
	}
}

func TestToRGBA(t *testing.T) {
	g := image.NewGray(image.Rect(0, 0, 4, 4))
	g.Pix[5] = 200
	rgba := ToRGBA(g)
	r, _, _, _ := rgba.At(1, 1).RGBA()
	if uint8(r>>8) != 200 {
		t.Errorf("converted pixel = %d", r>>8)
	}
	// Already-RGBA passes through.
	if got := ToRGBA(rgba); got != rgba {
		t.Error("RGBA input should pass through")
	}
}

// TestHeatmapNonFinite puts one dead pixel — NaN, +Inf or −Inf — into a
// map whose finite range it must not change: the dead pixel takes the
// nearest end of the colormap (NaN the low end) and every other pixel is
// colored as if the dead one held an in-range value.
func TestHeatmapNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int
		v    float64
		want RGB
	}{
		{"NaN at index 0", 0, math.NaN(), Viridis(0)},
		{"NaN in the middle", 13, math.NaN(), Viridis(0)},
		{"+Inf", 13, math.Inf(1), Viridis(1)},
		{"-Inf", 13, math.Inf(-1), Viridis(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, ref := tensor.New(4, 6), tensor.New(4, 6)
			for i := range d.Data() {
				d.Data()[i] = float64(i % 5) // 0 and 4 occur more than once
				ref.Data()[i] = float64(i % 5)
			}
			d.Data()[tc.at] = tc.v
			ref.Data()[tc.at] = 2
			got, err := Heatmap(d, Viridis)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Heatmap(ref, Viridis)
			for i := 0; i < 24; i++ {
				x, y := i%6, i/6
				g := got.RGBAAt(x, y)
				w := want.RGBAAt(x, y)
				if i == tc.at {
					w = color.RGBA{tc.want.R, tc.want.G, tc.want.B, 255}
				}
				if g != w {
					t.Errorf("pixel %d = %v, want %v", i, g, w)
				}
			}
		})
	}
	// No finite sample at all still renders.
	d := tensor.New(2, 2)
	for i := range d.Data() {
		d.Data()[i] = math.NaN()
	}
	if _, err := Heatmap(d, Grayscale); err != nil {
		t.Error(err)
	}
}

// oraclePNG is what EncodePNG wrote before it had its own writer:
// png.Encoder at BestSpeed of the image palettized with its colors in
// first-seen order, or of the image itself when it has more than 256.
func oraclePNG(t testing.TB, img *image.RGBA) []byte {
	t.Helper()
	b := img.Bounds()
	pal := image.NewPaletted(b, nil)
	index := map[color.RGBA]int{}
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := img.RGBAAt(x, y)
			i, ok := index[c]
			if !ok {
				i = len(pal.Palette)
				index[c] = i
				pal.Palette = append(pal.Palette, c)
			}
			pal.SetColorIndex(x, y, uint8(i))
		}
	}
	var m image.Image = pal
	if len(pal.Palette) > 256 {
		m = img
	}
	var buf bytes.Buffer
	enc := png.Encoder{CompressionLevel: png.BestSpeed}
	if err := enc.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// paletteImage is a w×h image drawn in runs of 1 to maxRun pixels on n
// distinct colors, each used at least once when w·h ≥ n and first seen in
// a shuffled order; with translucent set, every third color has an alpha
// below 0xff (sometimes 0).
func paletteImage(w, h, n, maxRun int, translucent bool, seed int64) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]color.RGBA, n)
	for i := range cols {
		cols[i] = color.RGBA{R: uint8(i), G: uint8(rng.Intn(256)), B: uint8(i >> 8), A: 0xff}
		if translucent && i%3 == 1 {
			cols[i].A = uint8(rng.Intn(255))
		}
	}
	order := rng.Perm(n)
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; {
		c := cols[rng.Intn(n)]
		if len(order) > 0 {
			c, order = cols[order[0]], order[1:]
		}
		for run := 1 + rng.Intn(maxRun); run > 0 && i < w*h; run-- {
			img.SetRGBA(i%w, i/w, c)
			i++
		}
	}
	return img
}

// idatChunks counts the IDAT chunks of a PNG stream.
func idatChunks(raw []byte) int {
	n := 0
	for off := 8; off+8 <= len(raw); {
		size := int(binary.BigEndian.Uint32(raw[off:]))
		if string(raw[off+4:off+8]) == "IDAT" {
			n++
		}
		off += 12 + size
	}
	return n
}

// TestEncodePNGMatchesOracle compares EncodePNG with png.Encoder byte for
// byte: at every bit depth png.Encoder picks (1, 2, 4, 8) and both sides of
// each boundary, at a width whose rows end in a partial byte, with
// translucent palette entries (tRNS), at 1×1, on a sub-image, over several
// IDAT chunks, and past 256 colors, where both write truecolor.
func TestEncodePNGMatchesOracle(t *testing.T) {
	type tc struct {
		name string
		img  *image.RGBA
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 256, 257} {
		cases = append(cases, tc{fmt.Sprintf("%d colors 37x11", n), paletteImage(37, 11, n, 12, false, int64(n))})
	}
	cases = append(cases,
		tc{"5 colors translucent", paletteImage(37, 11, 5, 12, true, 5)},
		tc{"17 colors translucent", paletteImage(37, 11, 17, 12, true, 17)},
		tc{"256 colors translucent", paletteImage(37, 11, 256, 12, true, 256)},
		tc{"1x1", paletteImage(1, 1, 1, 1, false, 1)},
		tc{"1x1 translucent", paletteImage(1, 1, 2, 1, true, 2)},
		tc{"sub-image", paletteImage(40, 30, 9, 5, false, 9).SubImage(image.Rect(3, 5, 30, 29)).(*image.RGBA)},
		tc{"several IDAT chunks", paletteImage(300, 200, 256, 1, false, 3)},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := EncodePNG(&got, c.img); err != nil {
				t.Fatal(err)
			}
			want := oraclePNG(t, c.img)
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%d bytes, png.Encoder wrote %d; they differ", got.Len(), len(want))
			}
			if c.name == "several IDAT chunks" && idatChunks(want) < 2 {
				t.Errorf("%d IDAT chunk(s); the case must span several", idatChunks(want))
			}
		})
	}
	var buf bytes.Buffer
	if err := EncodePNG(&buf, image.NewRGBA(image.Rect(0, 0, 0, 3))); err == nil {
		t.Error("an empty image should error, as png.Encoder does")
	}
}

// FuzzEncodePNG is the oracle test with the fuzzer choosing the size, the
// number of colors (past 256 too) and the pixels (make fuzz-png).
func FuzzEncodePNG(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint16(2), []byte{0, 255, 17, 200})
	f.Add(uint8(37), uint8(11), uint16(16), []byte("spectrum"))
	f.Add(uint8(96), uint8(70), uint16(256), []byte{7, 7, 7, 7, 1, 2, 3})
	f.Add(uint8(1), uint8(1), uint16(300), []byte{})
	f.Fuzz(func(t *testing.T, w, h uint8, colors uint16, pix []byte) {
		img := fuzzImage(int(w)%96+1, int(h)%96+1, int(colors)%300+1, pix)
		var got bytes.Buffer
		if err := EncodePNG(&got, img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), oraclePNG(t, img)) {
			t.Fatalf("%v image differs from png.Encoder", img.Bounds())
		}
	})
}

// fuzzImage draws a w×h image on up to n colors taken from pix; a color's
// alpha comes from pix too, so translucent entries occur.
func fuzzImage(w, h, n int, pix []byte) *image.RGBA {
	if len(pix) == 0 {
		pix = []byte{0}
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; i++ {
		k := (int(pix[i%len(pix)]) + i/len(pix)) % n
		img.Pix[4*i] = uint8(k)
		img.Pix[4*i+1] = uint8(k>>8) ^ pix[k%len(pix)]
		img.Pix[4*i+2] = pix[(k+1)%len(pix)]
		img.Pix[4*i+3] = 0xff
		if pix[(k+2)%len(pix)]&3 == 0 {
			img.Pix[4*i+3] = pix[(k+3)%len(pix)]
		}
	}
	return img
}

// spectrumSeries is a 256-channel aggregate spectrum with a continuum, four
// element lines and their markers, the shape AnalyzeHyperspectral plots.
func spectrumSeries() (PlotConfig, Series) {
	xs := make([]float64, 256)
	ys := make([]float64, 256)
	lines := []float64{0.28, 2.34, 9.71, 10.55}
	for c := range xs {
		xs[c] = (float64(c) + 0.5) * 20 / 256
		ys[c] = 4000 * math.Exp(-xs[c]/6)
		for _, kev := range lines {
			d := (xs[c] - kev) / 0.07
			ys[c] += 9000 * math.Exp(-0.5*d*d)
		}
	}
	cfg := PlotConfig{Title: "AGGREGATE EDS SPECTRUM", XLabel: "ENERGY (KEV)", YLabel: "COUNTS"}
	for i, el := range []string{"C", "PB", "AU", "PB"} {
		cfg.Markers = append(cfg.Markers, Marker{X: lines[i], Label: el, Color: Red})
	}
	return cfg, Series{Label: "SUM", X: xs, Y: ys, Color: Blue}
}

// TestWriteLinePlotPNG checks that the pooled-canvas path writes what
// LinePlot + EncodePNG write, including right after a different plot was
// drawn in the same canvas, and that a series with non-finite points
// renders with gaps instead of failing.
func TestWriteLinePlotPNG(t *testing.T) {
	cfg, s := spectrumSeries()
	other := Series{Label: "OTHER", X: []float64{0, 1, 2}, Y: []float64{5, -3, 8}, Color: Red}
	nan := s
	nan.Y = append([]float64(nil), s.Y...)
	nan.Y[0], nan.Y[40], nan.Y[41], nan.Y[200] = math.NaN(), math.Inf(1), math.NaN(), math.Inf(-1)
	for _, series := range [][]Series{{s}, {other}, {s, other}, {nan}, {s}} {
		img, err := LinePlot(cfg, series...)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := EncodePNG(&want, img); err != nil {
			t.Fatal(err)
		}
		if err := WriteLinePlotPNG(&got, cfg, series...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d series: WriteLinePlotPNG differs from LinePlot + EncodePNG", len(series))
		}
	}
	// The finite points still set the axes, so the line is drawn.
	img, _ := LinePlot(cfg, nan)
	lit := 0
	for i := 0; i < len(img.Pix); i += 4 {
		if img.Pix[i] == Blue.R && img.Pix[i+1] == Blue.G && img.Pix[i+2] == Blue.B {
			lit++
		}
	}
	if lit < 500 {
		t.Errorf("a series with non-finite points drew %d line pixels", lit)
	}
	if err := WriteLinePlotPNG(io.Discard, cfg); err == nil {
		t.Error("no series should error")
	}
	allNaN := Series{X: []float64{math.NaN()}, Y: []float64{1}}
	if err := WriteLinePlotPNG(io.Discard, cfg, allNaN); err != nil {
		t.Error(err)
	}
}

// BenchmarkSpectrumPlotPNG renders one aggregate-spectrum plot and encodes
// it as a PNG, what AnalyzeHyperspectral does for every record (make
// bench-analysis).
func BenchmarkSpectrumPlotPNG(b *testing.B) {
	cfg, s := spectrumSeries()
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := WriteLinePlotPNG(&buf, cfg, s); err != nil {
			b.Fatal(err)
		}
	}
}
