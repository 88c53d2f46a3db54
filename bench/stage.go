package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"picoprobe/internal/metadata"
	"picoprobe/internal/search"
	"picoprobe/internal/synth"
)

// collectedBase is the acquisition instant of file 0; file i is one
// second later. Fixed, so a record ID depends only on workload, seed and
// sequence number.
var collectedBase = time.Date(2023, 11, 12, 9, 0, 0, 0, time.UTC)

// fileRec is one instrument file and everything the harness learns
// about it: staged identity first, then the instants it was due to
// close, actually closed, and first answered 200 in the portal.
type fileRec struct {
	seq      int
	sample   string // the acquisition's sample name, unique per file
	name     string // base name under the watched directory
	id       string // metadata.RecordID, known before the file exists
	size     int64
	sha      string // SHA-256 of the staged bytes
	measured bool   // false for warm-up files

	due     time.Time // scheduled close: every latency is taken from here
	issued  time.Time // when the generator called rename
	visible time.Time // first 200 from GET /api/record/{id}
	failed  bool      // not queryable within fileDeadline
}

// emdWriter is what both synthetic sample types offer.
type emdWriter interface {
	WriteEMD(path string, mic *metadata.Microscope, acq *metadata.Acquisition) error
}

// template generates the workload's one synthetic acquisition from the
// seed. Every file of a run carries the same samples under its own
// acquisition metadata.
func (w *workload) template(seed int64) (emdWriter, error) {
	if w.kind == metadata.KindSpatiotemporal {
		return synth.GenerateSpatiotemporal(synth.SpatiotemporalConfig{
			Frames: w.dims[0], Height: w.dims[1], Width: w.dims[2], Seed: seed,
		}), nil
	}
	return synth.GenerateHyperspectral(synth.HyperspectralConfig{
		Height: w.dims[0], Width: w.dims[1], Channels: w.dims[2], Seed: seed,
	})
}

// planFiles names the run's files and derives their record IDs. A shared
// acquisition would silently collapse N files into one record, so each
// file gets its own sample name.
func planFiles(w *workload, seed int64, warm, measured int) []*fileRec {
	files := make([]*fileRec, warm+measured)
	for i := range files {
		sample := fmt.Sprintf("%s-%d-%04d", w.name, seed, i)
		files[i] = &fileRec{
			seq:      i,
			sample:   sample,
			name:     sample + ".emdg",
			id:       metadata.RecordID(sample, collectedBase.Add(time.Duration(i)*time.Second)),
			measured: i >= warm,
		}
	}
	return files
}

// planProbeFiles names the extra files the probe phase of a traced run
// moves and analyses directly. Their extension keeps them out of the
// watcher's pattern.
func planProbeFiles(w *workload, seed int64) []*fileRec {
	files := make([]*fileRec, probeRepeats)
	for i := range files {
		sample := fmt.Sprintf("%s-%d-probe-%d", w.name, seed, i)
		files[i] = &fileRec{seq: 9000 + i, sample: sample, name: sample + ".emdp"}
	}
	return files
}

// acquisition is the metadata planFiles assumed for file f.
func acquisition(f *fileRec) *metadata.Acquisition {
	return &metadata.Acquisition{
		SampleName: f.sample,
		Operator:   "bench",
		Collected:  collectedBase.Add(time.Duration(f.seq) * time.Second),
	}
}

// stageFiles writes every file into dir, hashes it, and syncs the
// filesystem so writeback does not compete with the measured run. Two
// writers, one per vCPU the sandbox has.
func stageFiles(tmpl emdWriter, dir string, files []*fileRec) error {
	mic := synth.DefaultMicroscope()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan *fileRec)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range next {
				err := stageOne(tmpl, mic, dir, f)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, f := range files {
		next <- f
	}
	close(next)
	wg.Wait()
	if first != nil {
		return first
	}
	syncFS()
	return nil
}

func stageOne(tmpl emdWriter, mic *metadata.Microscope, dir string, f *fileRec) error {
	path := filepath.Join(dir, f.name)
	if err := tmpl.WriteEMD(path, mic, acquisition(f)); err != nil {
		return fmt.Errorf("stage %s: %w", f.name, err)
	}
	sum, size, err := hashFile(path)
	if err != nil {
		return fmt.Errorf("stage %s: %w", f.name, err)
	}
	f.sha, f.size = sum, size
	return nil
}

func hashFile(path string) (sum string, size int64, err error) {
	fh, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer fh.Close()
	h := sha256.New()
	size, err = io.Copy(h, fh)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), size, nil
}

// vocabulary is the seeded catalog's word list: a few domain words the
// hot-set queries use, then opaque single-token terms (no hyphens — the
// index tokenizer would split them into one term every record shares).
func vocabulary() []string {
	vocab := []string{
		"gold", "lead", "film", "carbon", "polyamide", "nanoparticle",
		"vacancy", "lattice", "probe", "beam", "stage", "vacuum",
		"spectrum", "intensity", "drift", "grid", "reference", "capture",
	}
	for i := 0; len(vocab) < 400; i++ {
		vocab = append(vocab, fmt.Sprintf("kx%03d", i))
	}
	return vocab
}

// seedCorpus builds the n pre-seeded catalog records from the seed: IDs
// exp-%06d (six digits, so they cannot collide with the 16-hex-digit IDs
// of analysed files), twelve vocabulary words of free text, alternating
// kinds, a minute-spaced date axis.
func seedCorpus(seed int64, n int) []search.Entry {
	vocab := vocabulary()
	payload, _ := json.Marshal(map[string]any{
		"products": []map[string]string{
			{"name": "Intensity map", "path": "x/intensity.png", "kind": "intensity_png"},
		},
		"note": "pre-seeded catalog record",
	})
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	kinds := [2]string{metadata.KindHyperspectral, metadata.KindSpatiotemporal}
	entries := make([]search.Entry, n)
	for i := range entries {
		words := make([]string, 12)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		entries[i] = search.Entry{
			ID:   fmt.Sprintf("exp-%06d", i),
			Text: strings.Join(words, " "),
			Fields: map[string]string{
				"kind":   kinds[i%2],
				"sample": fmt.Sprintf("sample-%04d", i%977),
				"title":  "campaign run " + words[0],
			},
			Numbers: map[string]float64{"beam_energy_kev": 80 + float64(rng.Intn(12))*20},
			Date:    base.Add(time.Duration(i) * time.Minute),
			Payload: payload,
		}
	}
	return entries
}

// hotSet is what most portal users ask: first-page searches, the landing
// page and a facet roll-up.
var hotSet = []string{
	"/api/search?q=gold+film",
	"/api/search",
	"/api/search?q=gold&kind=hyperspectral",
	"/api/search?q=polyamide+lead+capture&limit=50",
	"/",
	"/api/facets?field=kind",
}

// request is one reader request: a path, and whether to revalidate it
// against the ETag the reader last saw for that path, as a browser would.
type request struct {
	path        string
	conditional bool
}

// querySequence is the reader's n requests: hotShare from the hot set
// (half of them conditional), the rest from a long tail of distinct
// two-term queries the portal has to render.
func querySequence(seed int64, n int) []request {
	vocab := vocabulary()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	tail := make([]string, tailQueries)
	for i := range tail {
		tail[i] = "/api/search?q=" + vocab[rng.Intn(len(vocab))] + "+" + vocab[rng.Intn(len(vocab))]
	}
	seq := make([]request, n)
	for i := range seq {
		if rng.Float64() < hotShare {
			seq[i] = request{path: hotSet[rng.Intn(len(hotSet))], conditional: rng.Intn(2) == 0}
		} else {
			seq[i] = request{path: tail[rng.Intn(len(tail))]}
		}
	}
	return seq
}
