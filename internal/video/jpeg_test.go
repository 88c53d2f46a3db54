package video

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"math/rand"
	"sync"
	"testing"

	"picoprobe/internal/geom"
	"picoprobe/internal/imaging"
)

// stdlibJPEG is the oracle: what image/jpeg.Encode writes.
func stdlibJPEG(t testing.TB, img image.Image, quality int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, img, &jpeg.Options{Quality: quality}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkMatchesStdlib(t *testing.T, name string, img image.Image, quality int) {
	t.Helper()
	want := stdlibJPEG(t, img, quality)
	got, err := AppendJPEG(nil, img, quality)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d bytes, image/jpeg writes %d; first difference at byte %d", name, len(got), len(want), i)
	}
}

// grayPatterns are the three textures of the oracle test: one value, a
// gradient, and uniform noise (at quality 100 its scan has long 0xff runs).
var grayPatterns = map[string]func(x, y int, rng *rand.Rand) uint8{
	"flat":   func(x, y int, rng *rand.Rand) uint8 { return 97 },
	"smooth": func(x, y int, rng *rand.Rand) uint8 { return uint8(3*x + 2*y) },
	"noise":  func(x, y int, rng *rand.Rand) uint8 { return uint8(rng.Intn(256)) },
}

func grayImage(w, h int, pattern string, seed int64) *image.Gray {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewGray(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Pix[y*img.Stride+x] = grayPatterns[pattern](x, y, rng)
		}
	}
	return img
}

// TestAppendJPEGMatchesStdlib compares AppendJPEG with image/jpeg.Encode,
// byte for byte, over the qualities, sizes (including ones that are not
// multiples of the 8-pixel block or the 16-pixel MCU) and textures the
// pipeline can meet, for both direct paths and the fallback.
func TestAppendJPEGMatchesStdlib(t *testing.T) {
	sizes := []image.Point{{8, 8}, {17, 9}, {33, 70}, {128, 128}, {256, 64}, {1, 1}, {16, 16}}
	for _, quality := range []int{1, 50, 75, 90, 100} {
		for _, size := range sizes {
			for pattern := range grayPatterns {
				name := fmt.Sprintf("q%d/%dx%d/%s", quality, size.X, size.Y, pattern)
				gray := grayImage(size.X, size.Y, pattern, int64(quality+size.X))
				checkMatchesStdlib(t, name+"/gray", gray, quality)

				// The annotated frame: the grey image plus coloured strokes.
				rgba := imaging.ToRGBA(gray)
				checkMatchesStdlib(t, name+"/rgba-grey", rgba, quality)
				imaging.DrawLabeledBox(rgba, geom.Box{X0: 2, Y0: 3, X1: float64(size.X) * 0.7, Y1: float64(size.Y) * 0.6}, "AU 0.93", imaging.Orange)
				checkMatchesStdlib(t, name+"/rgba-strokes", rgba, quality)

				// One coloured pixel: exactly one MCU takes the chroma transform.
				one := imaging.ToRGBA(gray)
				one.SetRGBA(size.X-1, size.Y-1, color.RGBA{R: 10, G: 200, B: 30, A: 255})
				checkMatchesStdlib(t, name+"/rgba-one-pixel", one, quality)

				// Every pixel coloured, and alpha that is not 255 (both
				// encoders read R, G and B as stored and ignore it).
				rng := rand.New(rand.NewSource(int64(size.Y)))
				all := imaging.ToRGBA(gray)
				for i := range all.Pix {
					all.Pix[i] = uint8(rng.Intn(256))
				}
				checkMatchesStdlib(t, name+"/rgba-all", all, quality)

				// Any other image type goes through image/jpeg itself.
				nrgba := image.NewNRGBA(all.Rect)
				copy(nrgba.Pix, all.Pix)
				checkMatchesStdlib(t, name+"/nrgba", nrgba, quality)
			}
		}
	}
}

// TestAppendJPEGSubImage covers images whose Rect does not start at the
// origin and whose stride is wider than a row.
func TestAppendJPEGSubImage(t *testing.T) {
	gray := grayImage(64, 48, "noise", 5)
	checkMatchesStdlib(t, "gray", gray.SubImage(image.Rect(5, 7, 42, 30)), 90)
	rgba := imaging.ToRGBA(gray)
	imaging.DrawLabeledBox(rgba, geom.Box{X0: 8, Y0: 8, X1: 40, Y1: 28}, "AU 0.50", imaging.Orange)
	checkMatchesStdlib(t, "rgba", rgba.SubImage(image.Rect(5, 7, 42, 30)), 90)
}

func TestAppendJPEGKeepsPrefixAndDefaultsQuality(t *testing.T) {
	gray := grayImage(33, 70, "smooth", 1)
	prefix := []byte("prefix")
	got, err := AppendJPEG(append([]byte(nil), prefix...), gray, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("prefix overwritten: %q", got[:len(prefix)])
	}
	if want := stdlibJPEG(t, gray, frameQuality); !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("quality 0 is not the package's frame quality")
	}
	// The fallback appends too, and reports image/jpeg's error with dst
	// unchanged.
	nrgba := image.NewNRGBA(image.Rect(0, 0, 9, 9))
	got, err = AppendJPEG(append([]byte(nil), prefix...), nrgba, 75)
	if err != nil || !bytes.Equal(got, append(append([]byte(nil), prefix...), stdlibJPEG(t, nrgba, 75)...)) {
		t.Fatalf("fallback append: err=%v", err)
	}
	huge := &image.Gray{Rect: image.Rect(0, 0, 1<<16, 1)}
	if got, err = AppendJPEG(prefix, huge, 75); err == nil || !bytes.Equal(got, prefix) {
		t.Fatalf("oversized image: err=%v, dst=%q", err, got)
	}
}

// TestReciprocalIsExactDivision checks the quantiser against image/jpeg's
// div over every divisor a DQT entry can produce and every numerator an
// fdct output can, both signs.
func TestReciprocalIsExactDivision(t *testing.T) {
	div := func(a, b int32) int32 { // image/jpeg's
		if a >= 0 {
			return (a + (b >> 1)) / b
		}
		return -((-a + (b >> 1)) / b)
	}
	step := int32(1)
	if testing.Short() {
		step = 7
	}
	for q := int32(1); q <= 255; q++ {
		r := newReciprocal(uint32(8 * q))
		for a := int32(-1 << 16); a <= 1<<16; a += step {
			mag, sign := r.div(a)
			if got, want := int32((mag^sign)-sign), div(a, 8*q); got != want {
				t.Fatalf("%d / %d = %d, want %d", a, 8*q, got, want)
			}
		}
	}
}

// TestAppendJPEGConcurrentFirstUse races the table cache's first use (run
// under -race by make race-fed): every goroutine must get the oracle's
// bytes whichever of them builds the entry.
func TestAppendJPEGConcurrentFirstUse(t *testing.T) {
	const quality = 37 // a quality nothing else in the package uses
	gray := grayImage(40, 24, "noise", 9)
	rgba := imaging.ToRGBA(gray)
	rgba.SetRGBA(3, 3, color.RGBA{R: 255, A: 255})
	wantGray, wantRGBA := stdlibJPEG(t, gray, quality), stdlibJPEG(t, rgba, quality)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotGray, err1 := AppendJPEG(nil, gray, quality)
			gotRGBA, err2 := AppendJPEG(nil, rgba, quality)
			if err1 != nil || err2 != nil || !bytes.Equal(gotGray, wantGray) || !bytes.Equal(gotRGBA, wantRGBA) {
				t.Errorf("concurrent first use diverged (errs %v, %v)", err1, err2)
			}
		}()
	}
	wg.Wait()
}

// fuzzImages builds the grey image and its annotated counterpart from fuzz
// input: pix fills the grey image cyclically, and bit i of mask colours
// every pixel whose index is i mod 64.
func fuzzImages(w, h int, pix []byte, mask uint64) (*image.Gray, *image.RGBA) {
	gray := image.NewGray(image.Rect(0, 0, w, h))
	for i := range gray.Pix {
		if len(pix) > 0 {
			gray.Pix[i] = pix[i%len(pix)]
		}
	}
	rgba := imaging.ToRGBA(gray)
	for i := 0; i < w*h; i++ {
		if mask>>(i%64)&1 == 1 {
			rgba.Pix[4*i+1] ^= 0x5a
			rgba.Pix[4*i+2] += 77
			rgba.Pix[4*i+3] = uint8(i)
		}
	}
	return gray, rgba
}

// FuzzAppendJPEG is the oracle test with the fuzzer choosing the size, the
// quality, the pixels and which of them are coloured (make fuzz-jpeg).
func FuzzAppendJPEG(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(90), []byte{0, 255, 17, 200}, uint64(0))
	f.Add(uint8(17), uint8(9), uint8(100), []byte{255, 255, 255, 0, 255, 1, 254}, uint64(1))
	f.Add(uint8(33), uint8(70), uint8(1), []byte("nanoparticles"), ^uint64(0))
	f.Add(uint8(1), uint8(1), uint8(50), []byte{}, uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, w, h, quality uint8, pix []byte, mask uint64) {
		// Sizes stay below 97×97 so an execution is microseconds; quality
		// covers 1–100.
		gray, rgba := fuzzImages(int(w)%96+1, int(h)%96+1, pix, mask)
		q := int(quality)%100 + 1
		for _, img := range []image.Image{gray, rgba} {
			got, err := AppendJPEG(nil, img, q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, stdlibJPEG(t, img, q)) {
				t.Fatalf("%T %v at quality %d differs from image/jpeg", img, img.Bounds(), q)
			}
		}
	})
}

// annotatedPair is the benchmark's frame pair: a 128×128 grey frame of
// background noise with blobs, and the same frame with seven labelled
// orange boxes — what AnalyzeSpatiotemporal encodes for every frame of a
// burst-spatio series.
func annotatedPair() (*image.Gray, *image.RGBA) {
	rng := rand.New(rand.NewSource(3))
	gray := image.NewGray(image.Rect(0, 0, 128, 128))
	for i := range gray.Pix {
		gray.Pix[i] = uint8(40 + rng.NormFloat64()*8)
	}
	rgba := imaging.ToRGBA(gray)
	for k := 0; k < 7; k++ {
		x, y := float64(10+rng.Intn(90)), float64(14+rng.Intn(90))
		imaging.DrawLabeledBox(rgba, geom.Box{X0: x, Y0: y, X1: x + 14, Y1: y + 14}, "AU 0.71", imaging.Orange)
	}
	return gray, rgba
}

// BenchmarkJPEGFrame times one frame through image/jpeg.Encode ("stdlib",
// into a reused bytes.Buffer as the pipeline did) and through AppendJPEG
// ("fast", into a reused slice), grey and annotated (make bench-analysis).
func BenchmarkJPEGFrame(b *testing.B) {
	gray, rgba := annotatedPair()
	for _, frame := range []struct {
		name string
		img  image.Image
	}{{"gray", gray}, {"rgba", rgba}} {
		b.Run("stdlib/"+frame.name, func(b *testing.B) {
			var buf bytes.Buffer
			opts := &jpeg.Options{Quality: frameQuality}
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := jpeg.Encode(&buf, frame.img, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fast/"+frame.name, func(b *testing.B) {
			var out []byte
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = AppendJPEG(out[:0], frame.img, frameQuality); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
