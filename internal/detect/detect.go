// Package detect implements "nanoYOLO", the nanoparticle detector standing
// in for the paper's fine-tuned YOLOv8s model. It is a classical pipeline —
// background statistics, smoothing, thresholding, connected components,
// non-maximum suppression — with confidence scores derived from blob
// signal-to-noise, wrapped in the same train/validate/test protocol the
// paper uses: hand-labeled frames (every 50th of 600), flip/crop
// augmentation, calibration ("fine-tuning") against mAP50-95, and per-frame
// inference inside the spatiotemporal data flow.
//
// The background statistics (median and MAD) are exact order statistics
// found by value histogram, with selection over a copy as the fallback for
// samples that cannot be bucketed and as the test oracle (robustStats,
// DESIGN.md §14): per-frame inference allocates nothing after warm-up and
// returns the same float64s as a full sort would.
package detect

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"picoprobe/internal/geom"
	"picoprobe/internal/tensor"
)

// Detection is one predicted bounding box with a confidence score.
type Detection struct {
	Box   geom.Box
	Score float64
}

// Params are the detector's tunable knobs; Calibrate searches over these.
type Params struct {
	// ThresholdSigma is the detection threshold in background-noise sigmas
	// above the background mean.
	ThresholdSigma float64
	// MinArea discards components smaller than this many pixels.
	MinArea int
	// BlurPasses applies this many 3x3 box-blur passes before
	// thresholding.
	BlurPasses int
	// Pad expands each component's bounding box by this many pixels on
	// every side (the thresholded core is smaller than the labeled
	// extent).
	Pad float64
	// Scale multiplies the component bounding box's width and height
	// about its intensity centroid before padding (0 means 1.0). For
	// Gaussian blobs the thresholded core under-covers the labeled
	// extent by a size-proportional factor, so a multiplicative knob
	// localizes better than padding alone at strict IoU thresholds.
	Scale float64
	// MomentSizing derives the box size from the component's intensity
	// second moments (side = Scale * 4σ) instead of its pixel bounding
	// box. Moments are robust to single-pixel noise at the component
	// fringe, which matters at the strictest IoU thresholds of mAP50-95.
	MomentSizing bool
	// NMSIoU is the overlap threshold for non-maximum suppression.
	NMSIoU float64
}

// DefaultParams returns a reasonable uncalibrated starting point.
func DefaultParams() Params {
	return Params{ThresholdSigma: 3, MinArea: 6, BlurPasses: 1, Pad: 1, Scale: 1.0, NMSIoU: 0.5}
}

// scratch holds the per-call working buffers (blur ping-pong, component
// labels, BFS queue, robust-statistics samples and histogram bucket
// indices). Instances are recycled
// through scratchPool so per-frame inference in a long series allocates
// nothing after warm-up; the pool is safe for concurrent DetectSeries
// workers.
type scratch struct {
	blurA, blurB []float64
	labels       []int32
	queue        []int
	sample, devs []float64
	bucket       []uint16
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// f64buf resizes s to n elements, reallocating only on growth. Contents are
// unspecified.
func f64buf(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Detect runs the detector on a rank-2 frame.
func Detect(frame *tensor.Dense, p Params) ([]Detection, error) {
	if frame.Rank() != 2 {
		return nil, fmt.Errorf("detect: frame must be rank 2, got %v", frame.Shape())
	}
	h, w := frame.Shape()[0], frame.Shape()[1]
	pixels := frame.Data()

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Background statistics. Blobs cover a small fraction of the frame, so
	// a trimmed estimate (median and MAD-derived sigma) is robust to them.
	bgMean, bgStd := robustStats(pixels, sc)
	if bgStd <= 0 {
		bgStd = 1e-9
	}

	// Smoothing: the first pass reads the frame directly, later passes
	// ping-pong between the two pooled buffers, so no copy of the input is
	// ever made.
	work := pixels
	if p.BlurPasses > 0 {
		sc.blurA = f64buf(sc.blurA, len(pixels))
		sc.blurB = f64buf(sc.blurB, len(pixels))
		src, dst := pixels, sc.blurA
		for pass := 0; pass < p.BlurPasses; pass++ {
			boxBlur3(src, dst, w, h)
			if pass == 0 {
				src, dst = sc.blurA, sc.blurB
			} else {
				src, dst = dst, src
			}
		}
		work = src
	}

	// Threshold and connected components (4-connectivity, BFS).
	thr := bgMean + p.ThresholdSigma*bgStd
	if cap(sc.labels) < len(work) {
		sc.labels = make([]int32, len(work))
	}
	labels := sc.labels[:len(work)]
	clear(labels)
	var dets []Detection
	queue := sc.queue
	for start, v := range work {
		if v <= thr || labels[start] != 0 {
			continue
		}
		// New component.
		minX, minY := w, h
		maxX, maxY := 0, 0
		area := 0
		sum := 0.0
		var wx, wy, wx2, wy2, wsum float64 // intensity-above-threshold moments
		queue = queue[:0]
		queue = append(queue, start)
		labels[start] = 1
		for len(queue) > 0 {
			idx := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := idx%w, idx/w
			area++
			sum += work[idx]
			wgt := work[idx] - thr
			wx += wgt * float64(x)
			wy += wgt * float64(y)
			wx2 += wgt * float64(x) * float64(x)
			wy2 += wgt * float64(y) * float64(y)
			wsum += wgt
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			for _, n := range [4]int{idx - 1, idx + 1, idx - w, idx + w} {
				if n < 0 || n >= len(work) {
					continue
				}
				// Horizontal neighbors must stay on the same row.
				if (n == idx-1 && x == 0) || (n == idx+1 && x == w-1) {
					continue
				}
				if labels[n] == 0 && work[n] > thr {
					labels[n] = 1
					queue = append(queue, n)
				}
			}
		}
		if area < p.MinArea {
			continue
		}
		snr := (sum/float64(area) - bgMean) / bgStd
		score := snr / (snr + 8) // monotone in SNR, in (0, 1)
		scale := p.Scale
		if scale <= 0 {
			scale = 1
		}
		cx, cy := float64(minX+maxX+1)/2, float64(minY+maxY+1)/2
		bw := float64(maxX-minX+1)*scale + 2*p.Pad
		bh := float64(maxY-minY+1)*scale + 2*p.Pad
		if wsum > 0 {
			cx, cy = wx/wsum+0.5, wy/wsum+0.5
			if p.MomentSizing {
				varX := wx2/wsum - (wx/wsum)*(wx/wsum)
				varY := wy2/wsum - (wy/wsum)*(wy/wsum)
				if varX > 0 && varY > 0 {
					bw = 4*math.Sqrt(varX)*scale + 2*p.Pad
					bh = 4*math.Sqrt(varY)*scale + 2*p.Pad
				}
			}
		}
		box := geom.FromCenter(cx, cy, bw, bh).Clamp(float64(w), float64(h))
		dets = append(dets, Detection{Box: box, Score: score})
	}
	sc.queue = queue
	return NMS(dets, p.NMSIoU), nil
}

// DetectSeries runs Detect on every frame of a (T, H, W) series in
// parallel, returning per-frame detections in frame order.
func DetectSeries(series *tensor.Dense, p Params) ([][]Detection, error) {
	if series.Rank() != 3 {
		return nil, fmt.Errorf("detect: series must be rank 3, got %v", series.Shape())
	}
	T := series.Shape()[0]
	out := make([][]Detection, T)
	errs := make([]error, T)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < T; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer func() { <-sem; wg.Done() }()
			out[t], errs[t] = Detect(series.Frame(t), p)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NMS applies greedy non-maximum suppression: detections are taken in
// decreasing score order and any remaining detection overlapping a kept one
// with IoU > iou is discarded. Ties are broken deterministically.
func NMS(dets []Detection, iou float64) []Detection {
	sorted := append([]Detection(nil), dets...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].Box.X0 != sorted[j].Box.X0 {
			return sorted[i].Box.X0 < sorted[j].Box.X0
		}
		return sorted[i].Box.Y0 < sorted[j].Box.Y0
	})
	var kept []Detection
	for _, d := range sorted {
		ok := true
		for _, k := range kept {
			if d.Box.IoU(k.Box) > iou {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept
}

// robustStats estimates background mean and sigma with the median and the
// median absolute deviation (scaled for a normal distribution). For frames
// above 64k pixels a strided subsample keeps it cheap. Both medians are
// exact order statistics — located by value histogram where the sample's
// range allows it, by selection over a copy otherwise — so the result is
// bit-identical to the sorted implementation either way.
func robustStats(pixels []float64, sc *scratch) (mean, sigma float64) {
	stride := 1
	if len(pixels) > 1<<16 {
		stride = len(pixels) / (1 << 16)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < len(pixels); i += stride {
		v := pixels[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if v != v { // a NaN compares false both times and would be bucketed nowhere
			return robustStatsSelection(pixels, stride, sc)
		}
	}
	med, ok := histogramMedian(pixels, stride, 0, false, lo, hi, sc)
	if !ok {
		return robustStatsSelection(pixels, stride, sc)
	}
	// |v − med| lies in [0, max(med − lo, hi − med)]: subtraction is monotone.
	mad, ok := histogramMedian(pixels, stride, med, true, 0, math.Max(med-lo, hi-med), sc)
	if !ok {
		return robustStatsSelection(pixels, stride, sc)
	}
	return med, 1.4826 * mad
}

// robustStatsSelection is robustStats by two quickselects, one over a copy
// of the sample and one over its absolute deviations: the path for samples
// the histogram cannot bucket, and the oracle its tests compare against.
func robustStatsSelection(pixels []float64, stride int, sc *scratch) (mean, sigma float64) {
	sample := sc.sample[:0]
	for i := 0; i < len(pixels); i += stride {
		sample = append(sample, pixels[i])
	}
	sc.sample = sample
	med := quantileSelect(sample, 0.5)
	devs := f64buf(sc.devs, len(sample))
	sc.devs = devs
	for i, v := range sample {
		devs[i] = math.Abs(v - med)
	}
	mad := quantileSelect(devs, 0.5)
	return med, 1.4826 * mad
}

// histBuckets is the histogram's resolution. On a frame of background noise
// plus a few bright blobs a bucket near the median holds a few dozen of
// 16k samples, so the selection that finishes the job is over almost
// nothing.
const histBuckets = 1024

// histogramMedian returns quantileSelect(x, 0.5) over the strided sample
// x = pixels[0], pixels[stride], … — or over |x − centre| when dev is set —
// without copying or reordering it. Every x must lie in [lo, hi]. One pass
// counts the samples into histBuckets equal-width buckets and remembers
// each sample's bucket; the counts locate the bucket holding the median
// rank; a second pass collects only that bucket's samples for selectKth.
// x ↦ int((x − lo)·scale) is monotone (float subtraction, multiplication by
// a positive constant and truncation all are), so every sample in a lower
// bucket is ≤ every sample in a higher one and the order statistics found
// this way are the exact ones. ok is false, and nothing is computed, when
// the range gives no finite positive scale: an infinite bound, a constant
// sample, or a span so small that histBuckets/span overflows.
func histogramMedian(pixels []float64, stride int, centre float64, dev bool, lo, hi float64, sc *scratch) (median float64, ok bool) {
	span := hi - lo
	scale := histBuckets / span
	if !(span > 0) || math.IsInf(span, 0) || math.IsInf(scale, 0) {
		return 0, false
	}
	n := (len(pixels) + stride - 1) / stride
	if cap(sc.bucket) < n {
		sc.bucket = make([]uint16, n)
	}
	bucket := sc.bucket[:n]
	var counts [histBuckets]int
	for j := range bucket {
		x := pixels[j*stride]
		if dev {
			x = math.Abs(x - centre)
		}
		b := min(int((x-lo)*scale), histBuckets-1)
		bucket[j] = uint16(b)
		counts[b]++
	}

	// The ranks quantileSelect interpolates between, as it computes them.
	pos := 0.5 * float64(n-1)
	k := int(pos)
	frac := pos - float64(k)
	holder, below := 0, 0 // the bucket holding rank k, and the samples before it
	for below+counts[holder] <= k {
		below += counts[holder]
		holder++
	}
	// Rank k+1 is in the same bucket or it is the minimum of the next
	// non-empty one; histBuckets is no bucket's index.
	next := histBuckets
	if k+1 < n && k+1 >= below+counts[holder] {
		for next = holder + 1; counts[next] == 0; next++ {
		}
	}

	held := sc.sample[:0]
	nextMin := math.Inf(1)
	for j, b := range bucket {
		if int(b) != holder && int(b) != next {
			continue
		}
		x := pixels[j*stride]
		if dev {
			x = math.Abs(x - centre)
		}
		if int(b) == holder {
			held = append(held, x)
		} else if x < nextMin {
			nextMin = x
		}
	}
	sc.sample = held
	vLo := selectKth(held, k-below)
	if k+1 >= n {
		return vLo, true
	}
	vHi := nextMin
	if next == histBuckets {
		// selectKth left everything right of k−below ≥ vLo.
		vHi = held[k-below+1]
		for _, v := range held[k-below+2:] {
			if v < vHi {
				vHi = v
			}
		}
	}
	return vLo*(1-frac) + vHi*frac, true
}

// quantileSelect returns the q-quantile with the same linear interpolation
// as indexing a sorted copy, but via in-place selection (s is reordered).
func quantileSelect(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(s) {
		return selectKth(s, len(s)-1)
	}
	vLo := selectKth(s, lo)
	// After selectKth, everything right of lo is >= vLo, so the (lo+1)-th
	// order statistic is the minimum of that suffix.
	vHi := s[hi]
	for _, v := range s[hi+1:] {
		if v < vHi {
			vHi = v
		}
	}
	frac := pos - float64(lo)
	return vLo*(1-frac) + vHi*frac
}

// selectKth partially reorders s so s[k] holds the k-th smallest element
// (0-based) with everything before it <= and everything after it >=, and
// returns s[k]. Hoare partitioning with median-of-three pivots gives
// expected linear time.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// boxBlur3 applies one 3x3 box blur from src into dst (edges clamp).
// Interior pixels take a branch-free 9-tap path whose additions run in the
// same neighbor order as the general edge path, so results are identical.
func boxBlur3(src, dst []float64, w, h int) {
	if w >= 3 && h >= 3 {
		for y := 1; y < h-1; y++ {
			row := y * w
			for x := 1; x < w-1; x++ {
				i := row + x
				sum := src[i-w-1] + src[i-w] + src[i-w+1] +
					src[i-1] + src[i] + src[i+1] +
					src[i+w-1] + src[i+w] + src[i+w+1]
				dst[i] = sum / 9
			}
		}
		for y := 0; y < h; y++ {
			if y == 0 || y == h-1 {
				for x := 0; x < w; x++ {
					dst[y*w+x] = blurAt(src, w, h, x, y)
				}
			} else {
				dst[y*w] = blurAt(src, w, h, 0, y)
				dst[y*w+w-1] = blurAt(src, w, h, w-1, y)
			}
		}
		return
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[y*w+x] = blurAt(src, w, h, x, y)
		}
	}
}

// blurAt computes the clamped 3x3 mean at (x, y).
func blurAt(src []float64, w, h, x, y int) float64 {
	sum, n := 0.0, 0
	for dy := -1; dy <= 1; dy++ {
		yy := y + dy
		if yy < 0 || yy >= h {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			xx := x + dx
			if xx < 0 || xx >= w {
				continue
			}
			sum += src[yy*w+xx]
			n++
		}
	}
	return sum / float64(n)
}
