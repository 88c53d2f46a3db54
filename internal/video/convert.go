package video

import (
	"fmt"
	"image"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"picoprobe/internal/imaging"
	"picoprobe/internal/tensor"
)

// ConvertStats reports what the series→video conversion did; the cast
// element count is the quantity the paper identifies as the compute
// bottleneck of the spatiotemporal flow.
type ConvertStats struct {
	Frames       int
	CastElements int // number of fp64 values quantized to uint8
}

// FrameSource yields successive (H, W) frames; it abstracts over an
// in-memory tensor and a streaming EMD dataset. Frame may be called from
// multiple goroutines concurrently with distinct indices.
type FrameSource interface {
	// Frames returns the total frame count.
	Frames() int
	// Frame returns frame i as a rank-2 tensor.
	Frame(i int) (*tensor.Dense, error)
}

// TensorSource adapts an in-memory (T, H, W) tensor to a FrameSource.
type TensorSource struct{ Series *tensor.Dense }

// Frames returns the leading-axis extent.
func (s TensorSource) Frames() int { return s.Series.Shape()[0] }

// Frame returns frame i as a view.
func (s TensorSource) Frame(i int) (*tensor.Dense, error) { return s.Series.Frame(i), nil }

// castScratch recycles a frame's quantized pixels and grayscale image
// across conversions (and across the concurrent encode workers).
var castScratch = sync.Pool{New: func() any { return new(castBufs) }}

type castBufs struct {
	pix  []uint8
	gray *image.Gray
}

// Convert runs the paper's EMD→video conversion: every fp64 frame is
// quantized to uint8 against the global intensity range [lo, hi] and
// JPEG-encoded into an MJPEG AVI written to w. Frames are cast and encoded
// by a bounded worker pipeline with order-preserving output, so encoding
// frame i overlaps the read/cast of frame i+k; with a seekable destination
// the writer flushes each frame as it completes instead of buffering the
// whole video.
func Convert(w io.Writer, src FrameSource, lo, hi float64, fps int) (ConvertStats, error) {
	n := src.Frames()
	if n == 0 {
		return ConvertStats{}, fmt.Errorf("video: source has no frames")
	}
	first, err := src.Frame(0)
	if err != nil {
		return ConvertStats{}, err
	}
	if first.Rank() != 2 {
		return ConvertStats{}, fmt.Errorf("video: frames must be rank 2, got %v", first.Shape())
	}
	height, width := first.Shape()[0], first.Shape()[1]
	vw, err := NewWriter(w, width, height, fps, frameQuality)
	if err != nil {
		return ConvertStats{}, err
	}
	var cast atomic.Int64
	render := func(i int, dst []byte) ([]byte, error) {
		fr, err := src.Frame(i)
		if err != nil {
			return dst, err
		}
		sc := castScratch.Get().(*castBufs)
		defer castScratch.Put(sc)
		sc.pix = fr.ToUint8Into(sc.pix, lo, hi) // the slow fp64→uint8 cast
		cast.Add(int64(len(sc.pix)))
		img, err := imaging.GrayFrameInto(sc.gray, sc.pix, width, height)
		if err != nil {
			return dst, err
		}
		sc.gray = img
		return AppendJPEG(dst, img, frameQuality)
	}
	stats := ConvertStats{}
	err = EncodeFrames(n, render, func(i int, data []byte) error {
		if err := vw.AddEncodedFrame(data); err != nil {
			return err
		}
		stats.Frames++
		return nil
	})
	stats.CastElements = int(cast.Load())
	if err != nil {
		return stats, err
	}
	return stats, vw.Close()
}

// encodeBufs recycles the pipeline's per-frame JPEG buffers.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodeFrames renders frames 0..n-1 on up to GOMAXPROCS workers and calls
// emit strictly in frame order. render appends frame i's encoded bytes to
// dst (AppendJPEG's shape) and must be safe for concurrent calls with
// distinct indices; emit runs on the calling goroutine and the data it
// receives is only valid for the duration of the call. At most ~2×workers
// frames are in flight, so memory stays bounded regardless of n. The first
// error is returned after the in-flight work drains.
func EncodeFrames(n int, render func(i int, dst []byte) ([]byte, error), emit func(i int, data []byte) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		buf := encodeBufs.Get().(*[]byte)
		defer encodeBufs.Put(buf)
		for i := 0; i < n; i++ {
			var err error
			if *buf, err = render(i, (*buf)[:0]); err != nil {
				return err
			}
			if err := emit(i, *buf); err != nil {
				return err
			}
		}
		return nil
	}

	type result struct {
		buf *[]byte
		err error
	}
	window := workers * 2
	if window > n {
		window = n
	}
	slots := make([]chan result, window)
	for i := range slots {
		slots[i] = make(chan result, 1)
	}
	sem := make(chan struct{}, window)
	// The feeder stops dispatching once an error is recorded, so a failure
	// on frame k wastes at most the in-flight window, not the whole
	// series; it reports how many frames it actually dispatched so the
	// consumer drains exactly those.
	var stop atomic.Bool
	dispatched := make(chan int, 1)
	go func() {
		i := 0
		for i < n && !stop.Load() {
			sem <- struct{}{}
			if stop.Load() {
				<-sem
				break
			}
			go func(i int) {
				buf := encodeBufs.Get().(*[]byte)
				var err error
				*buf, err = render(i, (*buf)[:0])
				slots[i%window] <- result{buf: buf, err: err}
			}(i)
			i++
		}
		dispatched <- i
	}()
	var firstErr error
	total := n
	for consumed := 0; consumed < total; {
		select {
		case d := <-dispatched:
			total = d
		case r := <-slots[consumed%window]:
			if firstErr == nil {
				if r.err != nil {
					firstErr = r.err
				} else if err := emit(consumed, *r.buf); err != nil {
					firstErr = err
				}
				if firstErr != nil {
					stop.Store(true)
				}
			}
			encodeBufs.Put(r.buf)
			<-sem
			consumed++
		}
	}
	return firstErr
}
