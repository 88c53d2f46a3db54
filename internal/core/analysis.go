package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"image"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"picoprobe/internal/detect"
	"picoprobe/internal/emd"
	"picoprobe/internal/imaging"
	"picoprobe/internal/metadata"
	"picoprobe/internal/tensor"
	"picoprobe/internal/video"
)

// chunkScratch recycles the fp64 chunk buffers the streaming reductions
// and the spatiotemporal pipeline read EMD chunks into; no analysis stage
// ever materializes more than one chunk of a dataset at a time.
var chunkScratch = sync.Pool{New: func() any { return new(chunkBuf) }}

type chunkBuf struct{ data []float64 }

func (b *chunkBuf) grow(n int) []float64 {
	if cap(b.data) < n {
		b.data = make([]float64, n)
	}
	return b.data[:n]
}

// AnalysisOutput is what the fused analysis+metadata compute function
// produces: the experiment record (with product references attached) plus
// the artifact files written to the output directory.
type AnalysisOutput struct {
	Experiment *metadata.Experiment
	// OutDir is where artifacts were written; product paths are relative
	// to it.
	OutDir string
	// Composition maps detected elements to relative spectral weight
	// (hyperspectral only).
	Composition map[string]float64
	// Detections holds per-frame detection counts (spatiotemporal only).
	Detections []int
	// CastElements counts fp64→uint8 conversions (spatiotemporal only).
	CastElements int
}

// AnalyzeHyperspectral is the real body of the paper's fused hyperspectral
// compute function: in a single pass over the EMD file it (i) computes the
// intensity image by summing over the spectral axis (Fig 2.A), (ii)
// computes the aggregate spectrum by summing over both pixel axes (Fig
// 2.B), (iii) assigns spectral peaks to elements, and (iv) extracts the
// experiment metadata HyperSpy-style (Fig 2.C) — fusing metadata
// extraction with image processing so the file is read once.
func AnalyzeHyperspectral(emdPath, outDir string) (*AnalysisOutput, error) {
	f, err := emd.Open(emdPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	exp, err := metadata.Extract(f)
	if err != nil {
		return nil, err
	}
	ds, err := f.Dataset("data/hyperspectral/data")
	if err != nil {
		return nil, err
	}
	intensity, spectrum, err := streamHyperspectral(ds)
	if err != nil {
		return nil, err
	}
	maxKeV := 20.0
	if grp, ok := f.Root().Lookup("data/hyperspectral"); ok {
		if v, ok := grp.AttrFloat("max_energy_kev"); ok {
			maxKeV = v
		}
	}

	recDir := filepath.Join(outDir, exp.ID)
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Fig 2.A: intensity image = sum along the spectroscopy dimension.
	heat, err := imaging.Heatmap(intensity, imaging.Viridis)
	if err != nil {
		return nil, err
	}
	if err := writePNG(filepath.Join(recDir, "intensity.png"), heat); err != nil {
		return nil, err
	}

	// Fig 2.B: aggregate spectrum = sum over both pixel dimensions.
	channels := len(spectrum)
	xs := make([]float64, channels)
	for c := range xs {
		xs[c] = (float64(c) + 0.5) * maxKeV / float64(channels)
	}
	composition, markers := assignPeaks(xs, spectrum)
	plot := imaging.PlotConfig{
		Title:   "AGGREGATE EDS SPECTRUM",
		XLabel:  "ENERGY (KEV)",
		YLabel:  "COUNTS",
		Markers: markers,
	}
	if err := writeProduct(filepath.Join(recDir, "spectrum.png"), func(w *bufio.Writer) error {
		if err := imaging.WriteLinePlotPNG(w, plot, imaging.Series{Label: "SUM", X: xs, Y: spectrum, Color: imaging.Blue}); err != nil {
			return fmt.Errorf("core: encode png: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := writeSpectrumCSV(filepath.Join(recDir, "spectrum.csv"), xs, spectrum); err != nil {
		return nil, err
	}

	exp.Products = []metadata.Product{
		{Name: "Intensity map", Path: exp.ID + "/intensity.png", Kind: "intensity_png"},
		{Name: "Aggregate spectrum", Path: exp.ID + "/spectrum.png", Kind: "spectrum_png"},
		{Name: "Spectrum CSV", Path: exp.ID + "/spectrum.csv", Kind: "spectrum_csv"},
	}
	if st, err := os.Stat(emdPath); err == nil {
		exp.Files = []metadata.FileRef{{Name: filepath.Base(emdPath), Bytes: st.Size()}}
	}
	// Fold the detected composition into the record's subjects so the
	// portal can find experiments by element.
	for _, el := range sortedCompositionKeys(composition) {
		exp.Subjects = appendUnique(exp.Subjects, el)
	}
	return &AnalysisOutput{Experiment: exp, OutDir: outDir, Composition: composition}, nil
}

// lineTable caches the element line-energy catalog, which is static;
// rebuilding it for every analyzed file showed up in the round-trip
// allocation profile.
var lineTable = sync.OnceValue(metadata.LineEnergies)

// streamHyperspectral computes the paper's two Fig 2 reductions — the
// intensity image (sum over the spectral axis) and the aggregate spectrum
// (sum over both pixel axes) — in a single fused pass over the dataset's
// stored chunks, parallelized across chunks. Only one chunk per worker is
// resident at any time (pooled buffers, no full-cube materialization).
// Per-chunk partial spectra are merged in chunk order so the accumulation
// order is deterministic.
func streamHyperspectral(ds *emd.Dataset) (*tensor.Dense, []float64, error) {
	shape := ds.Shape()
	if len(shape) != 3 {
		return nil, nil, fmt.Errorf("core: hyperspectral cube has rank %d", len(shape))
	}
	H, W, C := shape[0], shape[1], shape[2]
	intensity := tensor.New(H, W)
	intens := intensity.Data()
	chunks := ds.Chunks()
	covered := 0
	for _, c := range chunks {
		covered += c.Frames()
	}
	if covered != H {
		return nil, nil, fmt.Errorf("core: hyperspectral cube covers %d of %d rows", covered, H)
	}
	partial := make([][]float64, len(chunks))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(chunks) {
		workers = len(chunks)
	}
	var next atomic.Int64
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := chunkScratch.Get().(*chunkBuf)
			defer chunkScratch.Put(buf)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				c := chunks[i]
				data := buf.grow(c.Frames() * W * C)
				if err := ds.ReadFramesInto(data, c.Lo, c.Hi); err != nil {
					errs[i] = err
					continue
				}
				spec := make([]float64, C)
				partial[i] = spec
				out := intens[c.Lo*W : c.Hi*W]
				for r := range out {
					row := data[r*C : (r+1)*C]
					s := 0.0
					for ci, v := range row {
						s += v
						spec[ci] += v
					}
					out[r] = s
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	spectrum := make([]float64, C)
	for _, spec := range partial {
		for ci, v := range spec {
			spectrum[ci] += v
		}
	}
	return intensity, spectrum, nil
}

// assignPeaks finds local maxima in the spectrum well above the continuum
// and assigns them to the nearest catalogued element line. It returns the
// per-element relative weights and plot markers for identified lines.
func assignPeaks(xs, ys []float64) (map[string]float64, []imaging.Marker) {
	if len(ys) < 3 {
		return nil, nil
	}
	// Continuum estimate: median of the spectrum.
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	continuum := sorted[len(sorted)/2]
	threshold := continuum*1.5 + 1e-12

	lines := lineTable()
	composition := map[string]float64{}
	var markers []imaging.Marker
	for i := 1; i < len(ys)-1; i++ {
		if ys[i] <= threshold || ys[i] < ys[i-1] || ys[i] < ys[i+1] {
			continue
		}
		// Nearest catalogued line within half a detector sigma worth of
		// tolerance.
		bestD := math.Inf(1)
		bestEl := ""
		for _, l := range lines {
			if d := math.Abs(l.KeV - xs[i]); d < bestD {
				bestD = d
				bestEl = l.Element
			}
		}
		if bestEl == "" || bestD > 0.15 {
			continue
		}
		weight := ys[i] - continuum
		if weight > composition[bestEl] {
			composition[bestEl] = weight
		}
		markers = append(markers, imaging.Marker{X: xs[i], Label: bestEl, Color: imaging.Red})
	}
	// Normalize weights to fractions.
	total := 0.0
	for _, w := range composition {
		total += w
	}
	if total > 0 {
		for el := range composition {
			composition[el] /= total
		}
	}
	return composition, markers
}

// annotateScratch recycles the spatiotemporal pipeline's per-frame cast
// and render buffers across frames and across concurrent encode workers.
var annotateScratch = sync.Pool{New: func() any { return new(annotateBufs) }}

type annotateBufs struct {
	pix  []uint8
	gray *image.Gray
	rgba *image.RGBA
}

// AnalyzeSpatiotemporal is the real body of the paper's spatiotemporal
// compute function: it streams the EMD series chunk by chunk, runs the
// calibrated nanoYOLO detector on every frame while accumulating the
// global intensity range, then converts the series to video (the
// fp64→uint8 cast the paper identifies as the bottleneck) and writes an
// annotated video with predicted bounding boxes and confidences (Fig 3),
// plus the extracted experiment metadata — fused into one function. The
// video pass is a bounded worker pipeline (cast → render → JPEG-encode,
// order-preserving emit) over one resident chunk at a time, with each
// frame cast exactly once and flushed to both containers incrementally.
func AnalyzeSpatiotemporal(emdPath, outDir string, params detect.Params) (*AnalysisOutput, error) {
	f, err := emd.Open(emdPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	exp, err := metadata.Extract(f)
	if err != nil {
		return nil, err
	}
	ds, err := f.Dataset("data/spatiotemporal/data")
	if err != nil {
		return nil, err
	}
	shape := ds.Shape()
	if len(shape) != 3 {
		return nil, fmt.Errorf("core: spatiotemporal series has rank %d", len(shape))
	}
	T, H, W := shape[0], shape[1], shape[2]
	recDir := filepath.Join(outDir, exp.ID)
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	chunks := ds.Chunks()
	covered := 0
	for _, c := range chunks {
		covered += c.Frames()
	}
	if covered != T {
		return nil, fmt.Errorf("core: spatiotemporal series covers %d of %d frames", covered, T)
	}

	// Pass 1: per-frame detection (parallel inside DetectSeries) fused
	// with the global intensity-range scan, one chunk resident at a time.
	perFrame := make([][]detect.Detection, T)
	lo, hi := math.Inf(1), math.Inf(-1)
	buf := chunkScratch.Get().(*chunkBuf)
	defer chunkScratch.Put(buf)
	for _, c := range chunks {
		data := buf.grow(c.Frames() * H * W)
		if err := ds.ReadFramesInto(data, c.Lo, c.Hi); err != nil {
			return nil, err
		}
		chunkT := tensor.FromData(data, c.Frames(), H, W)
		cLo, cHi := chunkT.MinMax()
		lo, hi = math.Min(lo, cLo), math.Max(hi, cHi)
		dets, err := detect.DetectSeries(chunkT, params)
		if err != nil {
			return nil, err
		}
		copy(perFrame[c.Lo:c.Hi], dets)
	}

	// Pass 2: EMD → video conversion and annotation. Each frame is cast
	// once; the raw grayscale JPEG and the annotated JPEG are encoded
	// back-to-back into one buffer by the pipeline workers and streamed to
	// their containers in frame order. The three products are renamed into
	// place together at the end, so a failure anywhere before that leaves
	// the record's previous artifacts as they were.
	rawFile, err := createProduct(filepath.Join(recDir, "series.avi"))
	if err != nil {
		return nil, err
	}
	defer rawFile.discard()
	annFile, err := createProduct(filepath.Join(recDir, "annotated.avi"))
	if err != nil {
		return nil, err
	}
	defer annFile.discard()
	// Quality 0 here and in render: internal/video's one frame quality.
	vwRaw, err := video.NewWriter(rawFile, W, H, 25, 0)
	if err != nil {
		return nil, err
	}
	vwAnn, err := video.NewWriter(annFile, W, H, 25, 0)
	if err != nil {
		return nil, err
	}
	castElements := 0
	counts := make([]int, T)
	for _, c := range chunks {
		data := buf.grow(c.Frames() * H * W)
		if err := ds.ReadFramesInto(data, c.Lo, c.Hi); err != nil {
			return nil, err
		}
		chunkT := tensor.FromData(data, c.Frames(), H, W)
		splits := make([]int, c.Frames())
		render := func(i int, out []byte) ([]byte, error) {
			t := c.Lo + i
			sc := annotateScratch.Get().(*annotateBufs)
			defer annotateScratch.Put(sc)
			sc.pix = chunkT.Frame(i).ToUint8Into(sc.pix, lo, hi) // the fp64→uint8 cast
			gray, err := imaging.GrayFrameInto(sc.gray, sc.pix, W, H)
			if err != nil {
				return out, err
			}
			sc.gray = gray
			if out, err = video.AppendJPEG(out, gray, 0); err != nil {
				return out, err
			}
			splits[i] = len(out)
			rgba := imaging.ToRGBAInto(sc.rgba, gray)
			sc.rgba = rgba
			for _, d := range perFrame[t] {
				imaging.DrawLabeledBox(rgba, d.Box, fmt.Sprintf("AU %.2f", d.Score), imaging.Orange)
			}
			return video.AppendJPEG(out, rgba, 0)
		}
		emit := func(i int, data []byte) error {
			t := c.Lo + i
			if err := vwRaw.AddEncodedFrame(data[:splits[i]]); err != nil {
				return err
			}
			if err := vwAnn.AddEncodedFrame(data[splits[i]:]); err != nil {
				return err
			}
			castElements += H * W
			counts[t] = len(perFrame[t])
			return nil
		}
		if err := video.EncodeFrames(c.Frames(), render, emit); err != nil {
			return nil, err
		}
	}
	if err := vwRaw.Close(); err != nil {
		return nil, err
	}
	if err := vwAnn.Close(); err != nil {
		return nil, err
	}
	countsFile, err := createProduct(filepath.Join(recDir, "counts.csv"))
	if err != nil {
		return nil, err
	}
	defer countsFile.discard()
	if err := writeCountsCSV(countsFile, counts); err != nil {
		return nil, err
	}
	for _, p := range []*product{rawFile, annFile, countsFile} {
		if err := p.commit(); err != nil {
			return nil, err
		}
	}

	exp.Products = []metadata.Product{
		{Name: "Converted video", Path: exp.ID + "/series.avi", Kind: "video_avi"},
		{Name: "Annotated tracking video", Path: exp.ID + "/annotated.avi", Kind: "annotated_avi"},
		{Name: "Particle counts", Path: exp.ID + "/counts.csv", Kind: "counts_csv"},
	}
	if st, err := os.Stat(emdPath); err == nil {
		exp.Files = []metadata.FileRef{{Name: filepath.Base(emdPath), Bytes: st.Size()}}
	}
	return &AnalysisOutput{
		Experiment:   exp,
		OutDir:       outDir,
		Detections:   counts,
		CastElements: castElements,
	}, nil
}

// writePNG writes img as one PNG artifact.
func writePNG(path string, img image.Image) error {
	return writeProduct(path, func(w *bufio.Writer) error {
		if err := imaging.EncodePNG(w, img); err != nil {
			return fmt.Errorf("core: encode png: %w", err)
		}
		return nil
	})
}

// writeSpectrumCSV emits the same bytes encoding/csv would (the values
// never need quoting), but append-formats each row into one reused buffer
// instead of allocating per-field strings and per-row slices.
func writeSpectrumCSV(path string, xs, ys []float64) error {
	return writeProduct(path, func(w *bufio.Writer) error {
		w.WriteString("energy_kev,counts\n")
		var row []byte
		for i := range xs {
			row = strconv.AppendFloat(row[:0], xs[i], 'g', 8, 64)
			row = append(row, ',')
			row = strconv.AppendFloat(row, ys[i], 'g', 8, 64)
			row = append(row, '\n')
			w.Write(row) // a failed write is reported by writeProduct's Flush
		}
		return nil
	})
}

func writeCountsCSV(f io.Writer, counts []int) error {
	w := bufio.NewWriter(f)
	w.WriteString("frame,particles\n")
	var row []byte
	for i, c := range counts {
		row = strconv.AppendInt(row[:0], int64(i), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(c), 10)
		row = append(row, '\n')
		w.Write(row) // a failed write is reported by Flush
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// SearchEntry converts the experiment record into its search-index form:
// free text from titles/subjects, filterable fields, numeric ranges and
// the full record as payload.
func SearchEntry(exp *metadata.Experiment) (jsonEntry []byte, err error) {
	payload, err := json.Marshal(exp)
	if err != nil {
		return nil, fmt.Errorf("core: marshal experiment: %w", err)
	}
	entry := map[string]any{
		"id":   exp.ID,
		"text": exp.Title + " " + exp.Acquisition.SampleName + " " + joinStrings(exp.Subjects),
		"fields": map[string]string{
			"kind":    exp.Acquisition.Kind,
			"sample":  exp.Acquisition.SampleName,
			"signal":  exp.Acquisition.Signal,
			"title":   exp.Title,
			"dtype":   exp.Acquisition.DTypeName,
			"creator": joinStrings(exp.Creators),
		},
		"numbers": map[string]float64{
			"beam_energy_kev": exp.Microscope.BeamEnergyKeV,
			"magnification_x": float64(exp.Microscope.MagnificationX),
		},
		"date":       exp.Acquisition.Collected,
		"visible_to": exp.VisibleTo,
		"payload":    json.RawMessage(payload),
	}
	return json.Marshal(entry)
}

func joinStrings(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out
}

func appendUnique(ss []string, s string) []string {
	for _, v := range ss {
		if v == s {
			return ss
		}
	}
	return append(ss, s)
}

func sortedCompositionKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
