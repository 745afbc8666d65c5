package codec

// Layered encode-once, multi-rate serving (the PR 10 tentpole).
//
// A layered frame splits every unit's streams — a unit is one tile of a
// tiled frame, or the whole frame otherwise — into a base layer plus
// enhancement layers, each a self-contained byte range recorded in the
// container directory next to the tile records. Quality then becomes a
// per-viewer DROP decision: the streaming layer slices any subscription
// zero-copy out of the published wire, and a full subscription is
// byte-identical to the unlayered send.
//
// Geometry cut rule: the BFS occupancy stream is level-ordered, so a byte
// prefix is a complete coarse octree (pcc/progressive.go). With L layers
// over a depth-D tree, BaseLevel = D-L+1: layer 0 carries mask levels
// [0, BaseLevel), and enhancement layer l carries exactly mask level
// BaseLevel+l-1 — each enhancement refines the cloud by one octree level
// (layerLevels). Every layer is wrapped [mode][payload] like the unlayered
// geometry chunk (0 = raw, 1 = entropy). Entropy, when enabled, is coded PER
// LAYER: that is the per-level flush point progressive decode needs —
// base-layer decode touches only base-layer bytes, never the tail of a
// frame-wide entropy stream.
//
// Attribute cut rule: the top layer carries the unit's complete original
// attribute chunk verbatim (full-subscription decode is exactly the
// unlayered decode); layer 0 carries one RGB median per base-level cell
// (mode byte 2, attr.AppendBaseMedians) computed from the CURRENT frame's
// colours, so a partial subscription decodes standalone — P-frames
// included, no reference needed; middle layers carry no attribute bytes.
//
// Nothing rewrites a finished frame into this form: the layers are what the
// two phases write. The geometry phase (proposed.go) derives L and BaseLevel
// once per frame, allocates the directory and has every unit write its L
// geometry slices straight from its tree's per-level masks, filling each
// span's GeomLen; the attribute phase writes a unit's base medians ahead of
// its stream and fills the AttrLen of layers 0 and L-1. Nothing decodes a
// layered frame on a path of its own either: the decoder's one phase
// (decode.go) reads the first Sub layers of every unit and expands them to
// the level they carry, BaseLevel+Sub-1 — the leaves and the top attribute
// layer for a full subscription, the level's cells under the base medians for
// a partial one, which is why a partial P-frame decodes standalone and a
// partial I-frame cannot serve as a reference. This file holds the format,
// the cut rule and the base attribute layer's two directions.

import (
	"repro/internal/attr"
	"repro/internal/geom"
	"repro/internal/morton"
)

// MaxLayers caps the layer count per frame: subscriptions travel as one
// byte on the wire and the layer directory grows with units x layers.
const MaxLayers = 8

// LayerSpan is one unit x layer directory entry: the byte lengths of that
// layer's slice of the unit's geometry and attribute chunks.
type LayerSpan struct {
	GeomLen uint32
	AttrLen uint32
}

// LayerDir is a layered frame's directory. Within a unit, the geometry
// chunk is the concatenation of the L per-layer geometry slices in layer
// order, and likewise for attributes.
type LayerDir struct {
	// Layers is the total layer count L (2..MaxLayers).
	Layers uint8
	// Sub is how many leading layers this serialized copy carries
	// (1..Layers). Published frames have Sub == Layers; a per-viewer
	// partial copy keeps the first Sub layers' bytes and zeroes the
	// directory entries of the rest.
	Sub uint8
	// BaseLevel is the octree level of the base layer's cells:
	// BaseLevel == Depth-Layers+1, so each enhancement layer refines by
	// exactly one level.
	BaseLevel uint8
	// Units is unit-major: Units[u][l] is unit u's layer-l spans. A unit
	// is tile u for tiled frames and the whole frame otherwise.
	Units [][]LayerSpan
}

// Layered reports whether the frame carries a layer directory.
func (f *EncodedFrame) Layered() bool { return f.Layer != nil }

// layerUnits returns the unit count of a frame with the given tile count.
func layerUnits(tiles int) int {
	if tiles == 0 {
		return 1
	}
	return tiles
}

// layerDirSize returns the directory's wire size: the L/Sub/BaseLevel
// prologue plus one 8-byte span per unit x layer. Zero when unlayered.
func layerDirSize(units, layers int) int {
	if layers == 0 {
		return 0
	}
	return 3 + units*layers*8
}

// layersFor returns the effective layer count for a frame of this depth:
// Options.Layers clamped so every layer refines by a whole octree level,
// or 0 when the frame stays unlayered. It reads Layers alone, through a
// pointer: the geometry phase calls it while the attribute phase of an
// earlier frame may be writing the controller's knobs into other fields.
func (o *Options) layersFor(depth uint) int {
	l := o.Layers
	if l > int(depth) {
		l = int(depth)
	}
	if l < 2 {
		return 0
	}
	return l
}

// newLayerDir returns the full-subscription directory of a frame of the given
// depth cut into units x layers (layers from Options.layersFor), its spans
// one backing array sliced per unit and still zero: the geometry phase fills
// every GeomLen, the attribute phase the AttrLen of layers 0 and layers-1.
func newLayerDir(units, layers int, depth uint) *LayerDir {
	ld := &LayerDir{
		Layers:    uint8(layers),
		Sub:       uint8(layers),
		BaseLevel: uint8(int(depth) - layers + 1),
		Units:     make([][]LayerSpan, units),
	}
	spans := make([]LayerSpan, units*layers)
	for u := range ld.Units {
		ld.Units[u] = spans[u*layers : (u+1)*layers : (u+1)*layers]
	}
	return ld
}

// layerLevels returns the octree mask levels layer lay carries: layer 0 every
// level below baseLevel, enhancement layer l exactly level baseLevel+l-1. An
// unlayered unit is one layer whose base level is the frame depth.
func layerLevels(baseLevel, lay uint) (lo, hi uint) {
	if lay == 0 {
		return 0, baseLevel
	}
	return baseLevel + lay - 1, baseLevel + lay
}

// appendBaseLayer appends a unit's attribute base layer to dst — mode byte 2,
// then one median per base-level cell of the unit's leaves, whose colours are
// given — with s as the medians' working memory.
func (e *Encoder) appendBaseLayer(dst []byte, ld *LayerDir, leaves []morton.Keyed, colors []geom.Color, s *attr.Scratch) []byte {
	shift := 3 * uint(ld.Layers-1)
	runs := e.layerRuns[:0]
	var prev morton.Code
	for i, k := range leaves {
		if anc := k.Code >> shift; i == 0 || anc != prev {
			runs = append(runs, i)
			prev = anc
		}
	}
	e.layerRuns = append(runs, len(leaves))
	return s.AppendBaseMedians(append(dst, 2), colors, e.layerRuns)
}

// paintBaseLayer is appendBaseLayer's inverse for a window decoded to a level
// at or below the base level and above the leaves: it colours the level's
// cells, whose codes are given, from the unit's attribute base layer — mode
// byte 2, one median per base-level cell, `cells` of them — each median
// painted over the run of cells under its base cell, which are contiguous in
// Morton order. The window's base cells are whole and start at base cell
// first; shift is three bits per level between the two levels.
func (un *unitDecoder) paintBaseLayer(colors []geom.Color, codes []morton.Code, shift uint, achunk []byte, cells, first int) error {
	if len(achunk) == 0 || achunk[0] != 2 {
		return ErrBadContainer
	}
	runs := un.runs[:0]
	var prev morton.Code
	for i, c := range codes {
		if anc := c >> shift; i == 0 || anc != prev {
			runs = append(runs, i)
			prev = anc
		}
	}
	un.runs = append(runs, len(codes))
	return attr.DecodeBaseMedians(colors, achunk[1:], cells, first, un.runs)
}
