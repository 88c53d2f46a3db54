package core

import (
	"fmt"
	"os"
	"path/filepath"

	"picoprobe/internal/emd"
	"picoprobe/internal/imaging"
	"picoprobe/internal/metadata"
	"picoprobe/internal/tensor"
)

// RenderThumbnail is the lightweight preview function the fan-out flow
// runs concurrently with the full analysis: it reads just enough of the
// EMD file to render one quick-look image — the first frame of a
// spatiotemporal series, or the intensity projection of a hyperspectral
// cube — so researchers see something in the portal while the heavy
// analysis is still on the batch nodes. It returns the product path
// relative to outDir.
func RenderThumbnail(emdPath, outDir string) (string, error) {
	f, err := emd.Open(emdPath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	exp, err := metadata.Extract(f)
	if err != nil {
		return "", err
	}

	var frame *tensor.Dense
	if ds, err := f.Dataset("data/spatiotemporal/data"); err == nil {
		shape := ds.Shape()
		if len(shape) != 3 {
			return "", fmt.Errorf("core: spatiotemporal series has rank %d", len(shape))
		}
		buf := chunkScratch.Get().(*chunkBuf)
		defer chunkScratch.Put(buf)
		data := buf.grow(shape[1] * shape[2])
		if err := ds.ReadFramesInto(data, 0, 1); err != nil {
			return "", err
		}
		// Copy out of the pooled buffer; the heatmap below reads it after
		// grow() could hand the scratch to another goroutine.
		frame = tensor.FromData(append([]float64(nil), data...), shape[1], shape[2])
	} else {
		ds, err := f.Dataset("data/hyperspectral/data")
		if err != nil {
			return "", fmt.Errorf("core: no spatiotemporal or hyperspectral dataset in %s", emdPath)
		}
		if frame, _, err = streamHyperspectral(ds); err != nil {
			return "", err
		}
	}

	img, err := imaging.Heatmap(frame, imaging.Viridis)
	if err != nil {
		return "", err
	}
	rel := filepath.Join(exp.ID, "thumbnail.png")
	full := filepath.Join(outDir, rel)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	if err := writePNG(full, img); err != nil {
		return "", err
	}
	return rel, nil
}
