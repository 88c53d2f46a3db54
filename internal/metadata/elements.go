package metadata

import "sort"

// Line is one characteristic X-ray emission line.
type Line struct {
	KeV    float64 // line energy
	Weight float64 // relative intensity within the element
}

// Element is a chemical element with its EDS-visible emission lines.
type Element struct {
	Symbol string
	Name   string
	Lines  []Line
}

// Library holds the elements the analysis can name (and the synthetic
// samples draw from). Line energies are the textbook K/L/M values rounded
// to two decimals; relative weights are approximate branching ratios —
// good enough for peak-position-based composition analysis downstream.
var Library = map[string]Element{
	"C":  {Symbol: "C", Name: "carbon", Lines: []Line{{0.28, 1.0}}},
	"N":  {Symbol: "N", Name: "nitrogen", Lines: []Line{{0.39, 1.0}}},
	"O":  {Symbol: "O", Name: "oxygen", Lines: []Line{{0.52, 1.0}}},
	"Si": {Symbol: "Si", Name: "silicon", Lines: []Line{{1.74, 1.0}}},
	"S":  {Symbol: "S", Name: "sulfur", Lines: []Line{{2.31, 1.0}}},
	"Fe": {Symbol: "Fe", Name: "iron", Lines: []Line{{6.40, 1.0}, {7.06, 0.17}}},
	"Cu": {Symbol: "Cu", Name: "copper", Lines: []Line{{8.05, 1.0}, {8.90, 0.17}}},
	"Au": {Symbol: "Au", Name: "gold", Lines: []Line{{2.12, 1.0}, {9.71, 0.8}, {11.44, 0.3}}},
	"Pb": {Symbol: "Pb", Name: "lead", Lines: []Line{{2.35, 1.0}, {10.55, 0.8}, {12.61, 0.3}}},
}

// Symbols returns the library's element symbols in sorted order.
func Symbols() []string {
	out := make([]string, 0, len(Library))
	for s := range Library {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// LineEnergies returns every line energy in the library with its element,
// sorted by energy; the analysis stage uses this table to assign detected
// spectral peaks to elements.
func LineEnergies() []struct {
	KeV     float64
	Element string
} {
	var out []struct {
		KeV     float64
		Element string
	}
	for _, sym := range Symbols() {
		for _, l := range Library[sym].Lines {
			out = append(out, struct {
				KeV     float64
				Element string
			}{l.KeV, sym})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].KeV < out[j].KeV })
	return out
}
