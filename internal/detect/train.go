package detect

import (
	"fmt"
	"math/rand"

	"picoprobe/internal/geom"
	"picoprobe/internal/tensor"
)

// Sample is one hand-labeled frame used for calibration.
type Sample struct {
	Frame *tensor.Dense // rank 2
	Truth []geom.Box
}

// Model is a calibrated detector.
type Model struct {
	Params    Params
	TrainEval EvalResult
}

// TrainOptions configures calibration. The defaults mirror the paper's
// augmentation: horizontal and vertical flips plus random crops up to 20%
// maximum zoom.
type TrainOptions struct {
	// Augment enables flip/crop augmentation of the training samples.
	Augment bool
	// CropFraction is the maximum fraction of each dimension removed by a
	// random crop (paper: up to 20% zoom).
	CropFraction float64
	// CropsPerSample is how many random crops to generate per sample.
	CropsPerSample int
	// Seed drives the crop randomness.
	Seed int64
}

// DefaultGrid is the calibration search space.
func DefaultGrid() []Params {
	var grid []Params
	for _, thr := range []float64{2.5, 3.0, 3.5} {
		for _, minArea := range []int{4, 8} {
			for _, scale := range []float64{0.85, 0.9, 0.95, 1.0, 1.1} {
				grid = append(grid, Params{
					ThresholdSigma: thr,
					MinArea:        minArea,
					BlurPasses:     1,
					Pad:            1,
					Scale:          scale,
					NMSIoU:         0.5,
				})
			}
			for _, scale := range []float64{1.0, 1.15, 1.3, 1.45, 1.6} {
				grid = append(grid, Params{
					ThresholdSigma: thr,
					MinArea:        minArea,
					BlurPasses:     1,
					Scale:          scale,
					MomentSizing:   true,
					NMSIoU:         0.5,
				})
			}
		}
	}
	return grid
}

// Augment expands samples with horizontal flips, vertical flips, and random
// crops (translated ground truth; truth boxes falling mostly outside a crop
// are dropped).
func Augment(samples []Sample, opt TrainOptions) []Sample {
	rng := rand.New(rand.NewSource(opt.Seed))
	out := append([]Sample(nil), samples...)
	for _, s := range samples {
		h, w := s.Frame.Shape()[0], s.Frame.Shape()[1]
		out = append(out, flipH(s, w), flipV(s, h))
		crops := opt.CropsPerSample
		if crops == 0 {
			crops = 1
		}
		frac := opt.CropFraction
		if frac == 0 {
			frac = 0.2
		}
		for c := 0; c < crops; c++ {
			out = append(out, randomCrop(s, frac, rng))
		}
	}
	return out
}

func flipH(s Sample, w int) Sample {
	h := s.Frame.Shape()[0]
	flipped := tensor.New(h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			flipped.Set(s.Frame.At(y, w-1-x), y, x)
		}
	}
	truth := make([]geom.Box, len(s.Truth))
	for i, b := range s.Truth {
		truth[i] = b.FlipH(float64(w))
	}
	return Sample{Frame: flipped, Truth: truth}
}

func flipV(s Sample, h int) Sample {
	w := s.Frame.Shape()[1]
	flipped := tensor.New(h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			flipped.Set(s.Frame.At(h-1-y, x), y, x)
		}
	}
	truth := make([]geom.Box, len(s.Truth))
	for i, b := range s.Truth {
		truth[i] = b.FlipV(float64(h))
	}
	return Sample{Frame: flipped, Truth: truth}
}

func randomCrop(s Sample, maxFrac float64, rng *rand.Rand) Sample {
	h, w := s.Frame.Shape()[0], s.Frame.Shape()[1]
	cw := w - int(float64(w)*maxFrac*rng.Float64())
	ch := h - int(float64(h)*maxFrac*rng.Float64())
	if cw < 8 {
		cw = w
	}
	if ch < 8 {
		ch = h
	}
	x0 := rng.Intn(w - cw + 1)
	y0 := rng.Intn(h - ch + 1)
	crop := tensor.New(ch, cw)
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			crop.Set(s.Frame.At(y0+y, x0+x), y, x)
		}
	}
	var truth []geom.Box
	for _, b := range s.Truth {
		moved := b.Translate(-float64(x0), -float64(y0))
		clipped := moved.Clamp(float64(cw), float64(ch))
		// Keep a box only if most of it survives the crop.
		if b.Area() > 0 && clipped.Area() >= 0.5*b.Area() {
			truth = append(truth, clipped)
		}
	}
	return Sample{Frame: crop, Truth: truth}
}

// Calibrate is the detector's "fine-tuning": it grid-searches Params
// maximizing mAP50-95 on the (optionally augmented) training samples,
// mirroring the paper's 100-epoch YOLOv8 fine-tune on 9 hand-labeled
// frames.
func Calibrate(train []Sample, opt TrainOptions) (Model, error) {
	if len(train) == 0 {
		return Model{}, fmt.Errorf("detect: no training samples")
	}
	samples := train
	if opt.Augment {
		samples = Augment(train, opt)
	}
	best := Model{}
	found := false
	for _, p := range DefaultGrid() {
		frames := make([]LabeledFrame, len(samples))
		for i, s := range samples {
			dets, err := Detect(s.Frame, p)
			if err != nil {
				return Model{}, err
			}
			frames[i] = LabeledFrame{Detections: dets, Truth: s.Truth}
		}
		eval := Evaluate(frames)
		if !found || eval.MAP5095 > best.TrainEval.MAP5095 {
			best = Model{Params: p, TrainEval: eval}
			found = true
		}
	}
	return best, nil
}

// EvaluateOn runs the calibrated model over labeled samples and scores it.
func (m Model) EvaluateOn(samples []Sample) (EvalResult, error) {
	frames := make([]LabeledFrame, len(samples))
	for i, s := range samples {
		dets, err := Detect(s.Frame, m.Params)
		if err != nil {
			return EvalResult{}, err
		}
		frames[i] = LabeledFrame{Detections: dets, Truth: s.Truth}
	}
	return Evaluate(frames), nil
}

// Split divides a labeled series into train/val/test the way the paper
// does: every strideth frame is "hand-labeled"; of those, the first
// nTrain go to train, the next nVal to validation and the remainder to
// test (paper: stride 50 over 600 frames -> 13 labels = 9 train, 3 val, 1
// test).
func Split(series *tensor.Dense, truth [][]geom.Box, stride, nTrain, nVal int) (train, val, test []Sample, err error) {
	if series.Rank() != 3 {
		return nil, nil, nil, fmt.Errorf("detect: series must be rank 3")
	}
	if stride <= 0 {
		return nil, nil, nil, fmt.Errorf("detect: stride must be positive")
	}
	var labeled []Sample
	for t := 0; t < series.Shape()[0]; t += stride {
		labeled = append(labeled, Sample{Frame: series.Frame(t), Truth: truth[t]})
	}
	if nTrain+nVal > len(labeled) {
		return nil, nil, nil, fmt.Errorf("detect: split %d+%d exceeds %d labeled frames", nTrain, nVal, len(labeled))
	}
	return labeled[:nTrain], labeled[nTrain : nTrain+nVal], labeled[nTrain+nVal:], nil
}
