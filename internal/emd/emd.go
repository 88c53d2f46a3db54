// Package emd implements EMDG, a hierarchical scientific data container
// with the same logical model as the Electron Microscopy Dataset (EMD)
// flavor of HDF5 the paper's instrument writes: a tree of named groups,
// each carrying typed attributes, with n-dimensional typed datasets stored
// in (optionally gzip-compressed) chunks that are sliced along the leading
// axis so spatiotemporal series can be streamed frame-by-frame.
//
// On-disk layout:
//
//	[8-byte magic+version][chunk blocks ...][JSON footer][24-byte trailer]
//
// The trailer records the footer's offset, length and CRC32 so a reader can
// validate structural integrity before trusting any offsets; each chunk
// additionally carries its own CRC32, checked on read. The format is
// deliberately footer-directed (like HDF5's B-tree metadata, unlike
// streaming formats) so datasets can be appended without rewriting
// metadata until Close.
package emd

import (
	"fmt"
	"sort"
	"strings"

	"picoprobe/internal/tensor"
)

// Magic identifies an EMDG file; the final byte is the format version.
var Magic = [8]byte{'E', 'M', 'D', 'G', 0, 0, 0, 1}

// Group is a node in the container's tree. Attribute values are restricted
// to string, float64, int64, bool, []float64 and []string; these survive
// the JSON footer round-trip unambiguously.
type Group struct {
	name     string
	attrs    map[string]any
	groups   map[string]*Group
	datasets map[string]*Dataset
}

func newGroup(name string) *Group {
	return &Group{
		name:     name,
		attrs:    map[string]any{},
		groups:   map[string]*Group{},
		datasets: map[string]*Dataset{},
	}
}

// Name returns the group's name ("" for the root).
func (g *Group) Name() string { return g.name }

// SetAttr stores an attribute on the group. It panics on unsupported value
// types to catch schema mistakes at write time rather than read time.
func (g *Group) SetAttr(key string, value any) {
	g.attrs[key] = checkAttr(key, value)
}

// Attr returns the raw attribute value.
func (g *Group) Attr(key string) (any, bool) {
	v, ok := g.attrs[key]
	return v, ok
}

// AttrString returns a string attribute.
func (g *Group) AttrString(key string) (string, bool) {
	v, ok := g.attrs[key].(string)
	return v, ok
}

// AttrFloat returns a numeric attribute as float64 (int64 attributes are
// widened).
func (g *Group) AttrFloat(key string) (float64, bool) {
	switch v := g.attrs[key].(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	}
	return 0, false
}

// AttrInt returns a numeric attribute as int64 (float64 attributes are
// truncated).
func (g *Group) AttrInt(key string) (int64, bool) {
	switch v := g.attrs[key].(type) {
	case int64:
		return v, true
	case float64:
		return int64(v), true
	}
	return 0, false
}

// CreateGroup creates (or returns an existing) child group.
func (g *Group) CreateGroup(name string) *Group {
	if strings.Contains(name, "/") || name == "" {
		panic(fmt.Sprintf("emd: invalid group name %q", name))
	}
	if child, ok := g.groups[name]; ok {
		return child
	}
	child := newGroup(name)
	g.groups[name] = child
	return child
}

// Group returns the named child group.
func (g *Group) Group(name string) (*Group, bool) {
	child, ok := g.groups[name]
	return child, ok
}

// Groups returns child groups in sorted name order.
func (g *Group) Groups() []*Group {
	names := make([]string, 0, len(g.groups))
	for n := range g.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Group, len(names))
	for i, n := range names {
		out[i] = g.groups[n]
	}
	return out
}

// Dataset returns the named dataset in this group.
func (g *Group) Dataset(name string) (*Dataset, bool) {
	ds, ok := g.datasets[name]
	return ds, ok
}

// Datasets returns this group's datasets in sorted name order.
func (g *Group) Datasets() []*Dataset {
	names := make([]string, 0, len(g.datasets))
	for n := range g.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Dataset, len(names))
	for i, n := range names {
		out[i] = g.datasets[n]
	}
	return out
}

// Lookup resolves a slash-separated path ("data/hyperspectral") relative to
// this group.
func (g *Group) Lookup(path string) (*Group, bool) {
	cur := g
	for _, part := range splitPath(path) {
		next, ok := cur.groups[part]
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// Walk visits this group and all descendants in depth-first sorted order,
// passing each group's slash-separated path (the receiver is "").
func (g *Group) Walk(fn func(path string, grp *Group)) {
	g.walk("", fn)
}

func (g *Group) walk(prefix string, fn func(string, *Group)) {
	fn(prefix, g)
	for _, child := range g.Groups() {
		p := child.name
		if prefix != "" {
			p = prefix + "/" + child.name
		}
		child.walk(p, fn)
	}
}

// chunk locates one stored block of frames.
type chunk struct {
	frameLo, frameHi int // frame range [lo, hi) along axis 0
	off              int64
	clen             int64 // stored (possibly compressed) length
	crc              uint32
}

// Dataset is an n-dimensional typed array stored in frame chunks.
type Dataset struct {
	name        string
	dtype       tensor.DType
	shape       tensor.Shape
	compression string // "" or "gzip"
	attrs       map[string]any
	chunks      []chunk

	w *Writer // non-nil while writing
	r *File   // non-nil when opened for reading
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// DType returns the element encoding.
func (d *Dataset) DType() tensor.DType { return d.dtype }

// Shape returns the declared shape.
func (d *Dataset) Shape() tensor.Shape { return d.shape }

// Compression returns "" or "gzip".
func (d *Dataset) Compression() string { return d.compression }

// SetAttr stores an attribute on the dataset.
func (d *Dataset) SetAttr(key string, value any) {
	d.attrs[key] = checkAttr(key, value)
}

// Attr returns the raw attribute value.
func (d *Dataset) Attr(key string) (any, bool) {
	v, ok := d.attrs[key]
	return v, ok
}

// frameElems returns the number of elements in one frame (one step along
// axis 0).
func (d *Dataset) frameElems() int {
	return tensor.Shape(d.shape[1:]).ElemsOr1()
}

// framesWritten returns how many leading-axis frames have been stored.
func (d *Dataset) framesWritten() int {
	n := 0
	for _, c := range d.chunks {
		n += c.frameHi - c.frameLo
	}
	return n
}

func checkAttr(key string, value any) any {
	switch v := value.(type) {
	case string, float64, int64, bool, []float64, []string:
		return v
	case int:
		return int64(v)
	case float32:
		return float64(v)
	default:
		panic(fmt.Sprintf("emd: attribute %q has unsupported type %T", key, value))
	}
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}
