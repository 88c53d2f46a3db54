package imaging

import (
	"fmt"
	"image"
	"io"
	"math"
	"sync"
)

// Series is one labeled line in a plot.
type Series struct {
	Label string
	X, Y  []float64
	Color RGB
}

// Marker is a labeled vertical tick rendered at a specific X position,
// used to annotate identified element lines on spectrum plots.
type Marker struct {
	X     float64
	Label string
	Color RGB
}

// PlotConfig configures a line plot.
type PlotConfig struct {
	Title   string
	XLabel  string
	YLabel  string
	Markers []Marker
}

const (
	plotWidth  = 640
	plotHeight = 360

	plotMarginLeft   = 56
	plotMarginRight  = 12
	plotMarginTop    = 24
	plotMarginBottom = 34
)

// LinePlot renders one or more series into a fresh image with axes, tick
// labels and optional markers, for a caller that keeps the image; a plot
// that is only written out goes through WriteLinePlotPNG. It is
// deliberately minimal — enough to reproduce the paper's Fig 2.B spectrum
// plot — but handles multi-series legends.
func LinePlot(cfg PlotConfig, series ...Series) (*image.RGBA, error) {
	img := image.NewRGBA(image.Rect(0, 0, plotWidth, plotHeight))
	if err := drawLinePlot(img, cfg, series); err != nil {
		return nil, err
	}
	return img, nil
}

// plotCanvases holds the canvases WriteLinePlotPNG renders into. A canvas
// belongs to one call from Get to Put and never leaves it: drawLinePlot
// overwrites every pixel before drawing, and EncodePNG keeps no reference
// to the image it writes.
var plotCanvases = sync.Pool{New: func() any { return image.NewRGBA(image.Rect(0, 0, plotWidth, plotHeight)) }}

// WriteLinePlotPNG renders the plot LinePlot would return and writes it to
// w as EncodePNG would, in a reused canvas instead of a fresh 0.9 MB one.
func WriteLinePlotPNG(w io.Writer, cfg PlotConfig, series ...Series) error {
	img := plotCanvases.Get().(*image.RGBA)
	defer plotCanvases.Put(img)
	if err := drawLinePlot(img, cfg, series); err != nil {
		return err
	}
	return EncodePNG(w, img)
}

// drawLinePlot draws the whole plot over img, a plotWidth × plotHeight
// canvas whose previous contents do not matter.
func drawLinePlot(img *image.RGBA, cfg PlotConfig, series []Series) error {
	if len(series) == 0 {
		return fmt.Errorf("imaging: LinePlot needs at least one series")
	}
	// Data bounds, over the points whose coordinates are both finite.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("imaging: series %q has %d x vs %d y", s.Label, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return fmt.Errorf("imaging: series %q is empty", s.Label)
		}
		for i := range s.X {
			if !finite(s.X[i], s.Y[i]) {
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if xmin > xmax { // no finite point
		xmin, xmax, ymin, ymax = 0, 1, 0, 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	fillRect(img, 0, 0, plotWidth, plotHeight, White)

	px0, py0 := plotMarginLeft, plotMarginTop
	px1, py1 := plotWidth-plotMarginRight, plotHeight-plotMarginBottom
	toPx := func(x float64) int {
		return px0 + int((x-xmin)/(xmax-xmin)*float64(px1-px0))
	}
	toPy := func(y float64) int {
		return py1 - int((y-ymin)/(ymax-ymin)*float64(py1-py0))
	}

	// Axes.
	fillRect(img, px0, py1, px1-px0, 1, Black)
	fillRect(img, px0, py0, 1, py1-py0, Black)

	// X ticks: 5 evenly spaced.
	for i := 0; i <= 4; i++ {
		x := xmin + (xmax-xmin)*float64(i)/4
		px := toPx(x)
		fillRect(img, px, py1, 1, 4, Black)
		lbl := fmtTick(x)
		DrawText(img, px-TextWidth(lbl, 1)/2, py1+7, lbl, Black, 1)
	}
	// Y ticks: 4 evenly spaced (in plot units).
	for i := 0; i <= 3; i++ {
		yv := ymin + (ymax-ymin)*float64(i)/3
		py := py1 - int(float64(py1-py0)*float64(i)/3)
		fillRect(img, px0-4, py, 4, 1, Black)
		lbl := fmtTick(yv)
		DrawText(img, px0-6-TextWidth(lbl, 1), py-3, lbl, Black, 1)
	}

	// Series polylines, broken where a point is not finite.
	for _, s := range series {
		for i := 1; i < len(s.X); i++ {
			if !finite(s.X[i-1], s.Y[i-1]) || !finite(s.X[i], s.Y[i]) {
				continue
			}
			drawLine(img, toPx(s.X[i-1]), toPy(s.Y[i-1]), toPx(s.X[i]), toPy(s.Y[i]), s.Color)
		}
	}

	// Markers.
	for _, m := range cfg.Markers {
		if !(m.X >= xmin && m.X <= xmax) {
			continue
		}
		px := toPx(m.X)
		for y := py0; y < py1; y += 3 { // dashed vertical line
			setRGB(img, px, y, m.Color)
		}
		DrawText(img, px-TextWidth(m.Label, 1)/2, py0+2, m.Label, m.Color, 1)
	}

	// Title, axis labels, legend.
	DrawText(img, (plotWidth-TextWidth(cfg.Title, 1))/2, 6, cfg.Title, Black, 1)
	DrawText(img, (px0+px1)/2-TextWidth(cfg.XLabel, 1)/2, plotHeight-12, cfg.XLabel, Black, 1)
	DrawText(img, 4, py0-12, cfg.YLabel, Black, 1)
	ly := py0 + 4
	for _, s := range series {
		if s.Label == "" {
			continue
		}
		fillRect(img, px1-70, ly+2, 10, 2, s.Color)
		DrawText(img, px1-56, ly, s.Label, Black, 1)
		ly += 10
	}
	return nil
}

// finite reports whether neither coordinate is NaN or infinite.
func finite(x, y float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// drawLine draws a 1px line with the integer Bresenham algorithm.
func drawLine(img *image.RGBA, x0, y0, x1, y1 int, c RGB) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		if image.Pt(x0, y0).In(img.Bounds()) {
			setRGB(img, x0, y0, c)
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	case av >= 10 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
