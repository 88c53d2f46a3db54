package imaging

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
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
