package metadata

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/emd"
	"picoprobe/internal/tensor"
)

func sampleMicroscope() *Microscope {
	return &Microscope{
		InstrumentName:      "Dynamic PicoProbe",
		BeamEnergyKeV:       300,
		MagnificationX:      2_000_000,
		EnergyResolutionMeV: 28,
		ProbeSizePM:         50,
		Detector:            "XPAD",
		CollectionSR:        4.5,
		StageXYZUm:          [3]float64{1, 2, 3},
		AberrationCorrected: true,
		Environment:         "cryogenic",
		SoftwareVersion:     "v1.2.3",
		DwellTimeUS:         10,
	}
}

func writeContainer(t *testing.T, path string) {
	t.Helper()
	w, err := emd.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	g := w.Root().CreateGroup("data").CreateGroup("hyperspectral")
	ds, err := w.CreateDataset(g, "data", tensor.Uint16, tensor.Shape{4, 4, 8}, emd.DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteAll(tensor.New(4, 4, 8)); err != nil {
		t.Fatal(err)
	}
	sampleMicroscope().WriteTo(w.Root().CreateGroup("metadata").CreateGroup("microscope"))
	acq := &Acquisition{
		SampleName: "film-42",
		Operator:   "A. Brace",
		Collected:  time.Date(2023, 8, 25, 10, 0, 0, 0, time.UTC),
		Signal:     "EDS",
		Kind:       KindHyperspectral,
		Elements:   []string{"C", "Pb"},
	}
	acq.WriteTo(w.Root().CreateGroup("metadata").CreateGroup("acquisition"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMicroscopeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.emdg")
	writeContainer(t, path)
	f, err := emd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, ok := f.Root().Lookup(MicroscopeGroup)
	if !ok {
		t.Fatal("microscope group missing")
	}
	m, err := MicroscopeFrom(g)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleMicroscope()
	if *m != *want {
		t.Errorf("microscope round trip mismatch:\n got %+v\nwant %+v", m, want)
	}
}

func TestExtract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.emdg")
	writeContainer(t, path)
	f, err := emd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exp, err := Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatal(err)
	}
	if exp.Acquisition.SampleName != "film-42" {
		t.Errorf("sample = %q", exp.Acquisition.SampleName)
	}
	if len(exp.Acquisition.Shape) != 3 || exp.Acquisition.Shape[2] != 8 {
		t.Errorf("shape = %v", exp.Acquisition.Shape)
	}
	if exp.Acquisition.DTypeName != "uint16" {
		t.Errorf("dtype = %q", exp.Acquisition.DTypeName)
	}
	if !strings.HasPrefix(exp.ID, "exp-") {
		t.Errorf("id = %q", exp.ID)
	}
	if exp.PublicationYear != 2023 {
		t.Errorf("year = %d", exp.PublicationYear)
	}
	// Subjects should include the kind, signal and elements.
	joined := strings.Join(exp.Subjects, ",")
	for _, want := range []string{KindHyperspectral, "EDS", "Pb"} {
		if !strings.Contains(joined, want) {
			t.Errorf("subjects %v missing %q", exp.Subjects, want)
		}
	}
	// JSON must marshal.
	if _, err := exp.JSON(); err != nil {
		t.Error(err)
	}
}

func TestExtractMissingGroups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.emdg")
	w, _ := emd.Create(path)
	g := w.Root().CreateGroup("data")
	ds, _ := w.CreateDataset(g, "d", tensor.Float64, tensor.Shape{1}, emd.DatasetOptions{})
	ds.WriteAll(tensor.New(1))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := emd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := Extract(f); err == nil {
		t.Error("Extract without metadata groups should fail")
	}
}

func TestRecordIDStable(t *testing.T) {
	at := time.Date(2023, 1, 2, 3, 4, 5, 0, time.UTC)
	a := RecordID("sample", at)
	b := RecordID("sample", at)
	if a != b {
		t.Error("RecordID not stable")
	}
	if a == RecordID("other", at) {
		t.Error("RecordID should depend on sample")
	}
	if a == RecordID("sample", at.Add(time.Second)) {
		t.Error("RecordID should depend on time")
	}
}

func TestValidate(t *testing.T) {
	base := func() *Experiment {
		return &Experiment{
			ID:          "exp-1",
			Title:       "t",
			Microscope:  sampleMicroscope(),
			Acquisition: &Acquisition{Collected: time.Now()},
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("valid experiment rejected: %v", err)
	}
	e := base()
	e.ID = ""
	if e.Validate() == nil {
		t.Error("missing ID accepted")
	}
	e = base()
	e.Microscope = nil
	if e.Validate() == nil {
		t.Error("missing microscope accepted")
	}
	e = base()
	e.Acquisition.Collected = time.Time{}
	if e.Validate() == nil {
		t.Error("missing collection time accepted")
	}
}

func TestLibraryConsistency(t *testing.T) {
	for sym, el := range Library {
		if el.Symbol != sym {
			t.Errorf("element %q symbol mismatch: %q", sym, el.Symbol)
		}
		if len(el.Lines) == 0 {
			t.Errorf("element %q has no lines", sym)
		}
		for _, l := range el.Lines {
			if l.KeV <= 0 || l.Weight <= 0 {
				t.Errorf("element %q has invalid line %+v", sym, l)
			}
		}
	}
	if len(Symbols()) != len(Library) {
		t.Error("Symbols() incomplete")
	}
	lines := LineEnergies()
	for i := 1; i < len(lines); i++ {
		if lines[i].KeV < lines[i-1].KeV {
			t.Error("LineEnergies not sorted")
		}
	}
}
