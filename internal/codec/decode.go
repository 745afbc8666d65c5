package codec

// The proposed designs' decode path: one phase over units x (layers read,
// level decoded).
//
// A frame is a grid of streams — one per tile of a tiled frame, or the
// frame's one — by layers, and FrameLayout gives every (stream, layer) span
// of both payloads. Decoding it to octree level l is the same for every shape
// and every subscription. A stream is read once by the stream pass: it
// unwraps the geometry layers that carry levels up to l, sizes them to level l
// and cuts them into windows of whole subtrees (paroctree.Levels.Scan), checks
// them against the directory and opens the attribute stream. Then one fan-out
// runs one unit body per window: the unit expands its subtrees to level l
// into its range of the Decoder's code column (never past the stream's point
// range of the directory) and colours its window — from the top attribute
// layer's stream, its own window of the segments or blocks, when every level
// was read; from the base-layer medians of its base-level cells, painted over
// their runs of level-l codes, when layers were shed; zeroed for a coarse
// tile or a geometry-only decode. Then one boundary check (codes strictly
// ascending across units, a partial decode dropping the boundary cell two
// tiles share), one fused pass per unit from the two columns to the returned
// voxels (Morton decode, cell centre on the full lattice, colour, inverse
// rescale) and one reference rule. A full decode is l = depth. An untiled
// frame's plan is dev.Workers() windows of its one stream, whose pass runs on
// the calling core before they fan out and books the paper's decode kernels
// from the frame's counts, once, whatever the window count; a tiled frame's
// plan is its tiles, each the one window of its own stream, whose pass the
// tile's unit runs on the worker pool, under one TileDecode. DecodeGeometry
// (pcc.DecodeProgressive) is the same phase with the colours left out.
//
// The reference a P-frame predicts from is the last I-frame's colour column
// (the block pointers index points, never positions). It is decided in one
// place, after the last point a decode can fail at, so a failed decode leaves
// it as it was: a full I-frame that decoded a point conceals its omitted
// tiles and swaps the two colour buffers; any other I-frame — layers shed,
// or every tile omitted — cannot be predicted from and clears the reference,
// so that no stream can pair a P-frame with the GOP before; a P-frame never
// touches it.

import (
	"encoding/binary"
	"errors"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
	"repro/internal/paroctree"
)

// unitDecoder is one unit's decode scratch. A unit that reads a stream — a
// tile, or the first window of an untiled frame — keeps what the stream pass
// found there: the unwrapped geometry, the sizing pass with its windows'
// cuts, and the attribute stream opened for them (isP: a P stream), and the
// coder states of its entropy slices. Every unit keeps its window's base-cell
// runs and the two attribute stages' arenas. Units decode concurrently, each
// with the scratch its index names.
type unitDecoder struct {
	raw     []byte
	slicer  entropy.Slicer
	lv      paroctree.Levels
	isP     bool
	intraSt attr.Stream
	interSt interframe.Stream
	runs    []int
	intra   attr.DecodeScratch
	inter   interframe.DecodeScratch
	// The unit emits codes [lo, lo+n) of the columns — what it expanded, less
	// a boundary cell the unit before it already emitted — to the returned
	// cloud from outLo on; err is what its decode failed with.
	lo, n, outLo int
	err          error
}

// maxLeavesPerGeomByte bounds the points a geometry stream can hold per byte
// of its wire form: a leaf needs a bit of some mask byte, and the entropy
// stage expands a byte at most entropy.MaxExpansion times.
const maxLeavesPerGeomByte = 8 * entropy.MaxExpansion

// AppendGeomChunk unwraps one [mode][payload] geometry chunk — a frame's, a
// tile's or a layer's — and appends its raw occupancy bytes to dst: mode 0
// is raw, mode 1 entropy-coded in one coder state, mode 2 entropy-coded as
// the equal slices of entropy.Slicer, decoded by one fan-out (inline when fan
// is nil) with sl's coder states. It is the one place the chunk modes are
// decided; an empty chunk, an unknown mode or a mode-2 chunk of at most
// entropy.SliceBytes raw bytes — which the encoder writes as mode 1 — is
// ErrBadContainer.
func AppendGeomChunk(dst, chunk []byte, sl *entropy.Slicer, fan entropy.Fan) ([]byte, error) {
	if len(chunk) == 0 {
		return nil, ErrBadContainer
	}
	switch chunk[0] {
	case 0:
		return append(dst, chunk[1:]...), nil
	case 1:
		return entropy.AppendDecompressBytes(dst, chunk[1:])
	case 2:
		if n, k := binary.Uvarint(chunk[1:]); k <= 0 || n <= entropy.SliceBytes {
			return nil, ErrBadContainer
		}
		return sl.AppendDecompress(dst, chunk[1:], fan)
	}
	return nil, ErrBadContainer
}

// appendGeomChunk is AppendGeomChunk's inverse and the one place the encoder
// writes a chunk mode: it appends raw occupancy bytes to dst as one
// [mode][payload] chunk — as they are with entropy off, else in one coder
// state up to entropy.SliceBytes (a one-slice mode 2 would be mode 1 and a
// header) and as mode 2's slices above it, compressed by one fan-out (inline
// when fan is nil) with sl's coder states.
func appendGeomChunk(dst, raw []byte, entropyOn bool, sl *entropy.Slicer, fan entropy.Fan) []byte {
	switch {
	case !entropyOn:
		return append(append(dst, 0), raw...)
	case len(raw) <= entropy.SliceBytes:
		return entropy.AppendCompressBytes(append(dst, 1), raw)
	}
	return sl.AppendCompress(append(dst, 2), raw, fan)
}

// decodeView is what one decode reads of a frame and how far it expands it:
// the leading layers read, the octree level decoded, whether that is every
// level (full), and whether it is a geometry-only decode (bare): colours left
// out, and the level possibly inside the last layer read, whose tail then
// stays unread. units is the plan's unit count and windows the windows each
// stream is cut into.
type decodeView struct {
	sub            int
	level          uint
	full, bare     bool
	units, windows int
}

// decodeProposed inverts the proposed designs' two encode phases
// (proposedGeometry, proposedAttr). The inter designs require frames
// to be decoded in stream order (P-frames need the preceding I).
func (d *Decoder) decodeProposed(f *EncodedFrame) (*geom.VoxelCloud, error) {
	vc, _, err := d.decodeTo(f, uint(f.Depth), false)
	return vc, err
}

// DecodeGeometry decodes the geometry of a proposed-design frame to octree
// level `level` (clamped to what the frame carries), colours zero, on a
// decoder of its own: the cells of that level at their centres on the full
// lattice. The second result is how much of the geometry a receiver must hold
// to show this level: the prefix of the raw occupancy stream, or, for a
// layered frame, the wire bytes of the layers read — the entropy stage
// restarts at every layer, so whole layers are the unit.
func DecodeGeometry(dev *edgesim.Device, f *EncodedFrame, level uint) (*geom.VoxelCloud, int, error) {
	return (&Decoder{dev: dev}).decodeTo(f, level, true)
}

// decodeTo is the one decode phase: the frame's units, each reading the
// layers that carry levels up to want and expanding them that far.
func (d *Decoder) decodeTo(f *EncodedFrame, want uint, bare bool) (*geom.VoxelCloud, int, error) {
	l, err := f.Layout()
	if err != nil {
		return nil, 0, err
	}
	// Layer 0 carries the levels up to BaseLevel, each layer above one more.
	depth := uint(f.Depth)
	v := decodeView{sub: 1, level: depth, bare: bare}
	if l.Layered() {
		v.sub = min(max(1+int(want)-l.BaseLevel, 1), l.Sub)
		v.level = uint(l.BaseLevel + v.sub - 1)
	}
	v.level = min(v.level, want)
	v.full = v.level == depth

	// The plan: a tiled frame's units are its tiles, each the one window of
	// its own stream; an untiled frame's are the windows of its one stream,
	// one per core.
	v.units, v.windows = l.LayerUnits(), 1
	if !f.Tiled() {
		if v.windows = d.windows; v.windows == 0 {
			v.windows = d.dev.Workers()
		}
		v.units = v.windows
	}
	for len(d.units) < v.units {
		d.units = append(d.units, unitDecoder{})
	}
	included := int(f.NumPoints)
	for _, ti := range f.Tiles {
		if ti.Omitted() {
			included -= int(ti.Points)
		}
	}
	var out []geom.Voxel
	if included > 0 {
		if out, err = d.decodeUnits(f, l, v, included); err != nil {
			return nil, 0, err
		}
	}
	if f.Type == IFrame {
		// Omitted ranges of the FULL-length reference are concealed by clamping
		// to the nearest included point, so P-tiles keep decoding with global
		// indices even under a moving camera.
		if d.hasRef = v.full && included > 0; d.hasRef {
			concealOmitted(d.colors, f.Tiles, l.PointOff)
			d.ref, d.colors = d.colors, d.ref
		}
	}
	prefix := d.units[0].lv.Prefix
	if l.Layered() {
		prefix = l.GeomOff[v.sub] - l.GeomOff[0]
	}
	return &geom.VoxelCloud{Depth: depth, Voxels: out}, prefix, nil
}

// decodeUnits fills the columns — one fan-out of the unit body — checks the
// units against each other and emits the cloud. Omitted tiles (per-viewer
// viewport culling) are simply absent from it.
func (d *Decoder) decodeUnits(f *EncodedFrame, l *FrameLayout, v decodeView, included int) ([]geom.Voxel, error) {
	// The columns are sized from the directory's counts before any unit is
	// read: refuse counts the geometry bytes cannot hold — a leaf needs a bit
	// of some mask byte, and every level shed multiplies the leaves under a
	// cell by at most eight.
	depth := uint(f.Depth)
	if included>>(3*(depth-v.level)) > maxLeavesPerGeomByte*len(f.Geometry) {
		return nil, ErrBadContainer
	}
	d.codes = grow(d.codes, int(f.NumPoints))
	d.colors = grow(d.colors, int(f.NumPoints))
	dev, units := d.dev, d.units[:v.units]
	if !f.Tiled() {
		if err := d.openStream(f, l, 0, v); err != nil {
			return nil, err
		}
	}
	fan := func() {
		dev.ParallelFor(len(units), func(u0, u1 int) {
			for u := u0; u < u1; u++ {
				units[u].err = d.decodeUnit(f, l, u, v)
			}
		})
	}
	if f.Tiled() {
		dev.GPUCompute("TileDecode", int(f.NumPoints), costTileGeomDec, fan)
	} else {
		fan()
	}
	for u := range units {
		if err := units[u].err; errors.Is(err, ErrMissingReference) {
			return nil, err
		}
	}
	for u := range units {
		if err := units[u].err; err != nil {
			return nil, err
		}
	}

	// Units are contiguous key ranges of one sorted sequence: their codes stay
	// strictly ascending across boundaries. Above the leaves, adjacent tiles
	// may both hold the cell their cut splits: the first tile's wins.
	emitted := 0
	var last morton.Code
	for u := range units {
		un := &units[u]
		un.outLo = emitted
		if un.n == 0 {
			continue
		}
		if first := d.codes[un.lo]; emitted > 0 && first <= last {
			if first < last || v.full {
				return nil, ErrBadContainer
			}
			un.lo, un.n = un.lo+1, un.n-1
		}
		if un.n > 0 {
			last = d.codes[un.lo+un.n-1]
			emitted += un.n
		}
	}

	out := make([]geom.Voxel, emitted)
	if f.Tiled() {
		dev.GPUNoop("MortonDecode", emitted, costMortonDecode)
	}
	inv := d.inverter(f, emitted)
	dev.ParallelFor(len(units), func(u0, u1 int) {
		for u := u0; u < u1; u++ {
			un := &units[u]
			emitVoxels(out[un.outLo:][:un.n], d.codes[un.lo:][:un.n], d.colors[un.lo:][:un.n], depth-v.level, inv)
		}
	})
	return out, nil
}

// openStream is the stream pass, once per stream: unit s unwraps the
// geometry layers it reads, sizes them to the view's level and cuts them into
// the stream's windows (paroctree.Levels.Scan), checks them against the
// directory, and opens the attribute stream its windows colour from. The one
// stream of an untiled frame is read on the calling core — a mode-2 chunk's
// entropy slices by one fan-out — before its windows fan out, and books the
// paper's kernels from the frame's counts, once whatever the window or slice
// count; a tile's is read by the tile's own unit, a pool leaf, slices inline,
// and books nothing.
func (d *Decoder) openStream(f *EncodedFrame, l *FrameLayout, s int, v decodeView) error {
	un, tiled := &d.units[s], f.Tiled()
	lo, hi := l.PointOff[s], l.PointOff[s+1]
	// An untiled frame's entropy slices fan out; a tile, a pool leaf, decodes
	// its own inline.
	var fan entropy.Fan
	if !tiled {
		fan = d.dev.ParallelFor
	}
	var err error
	raw := un.raw[:0]
	for lay := 0; lay < v.sub; lay++ {
		if raw, err = AppendGeomChunk(raw, l.Geom(f.Geometry, s, lay), &un.slicer, fan); err != nil {
			return err
		}
	}
	un.raw = raw
	// A window holds whole cells of the level the base medians colour.
	base := v.level
	if l.Layered() {
		base = uint(l.BaseLevel)
	}
	if err = un.lv.Scan(raw, uint(f.Depth), v.level, base, v.windows); err != nil {
		return err
	}
	// The stream and the directory must agree before a code is written: the
	// level's cells fit the unit's point range — and are its points when the
	// level is the leaves — and a viewer's layers hold nothing behind their
	// last level.
	n := un.lv.Nodes()
	if n == 0 || n > hi-lo || (v.full && n != hi-lo) || (!v.bare && un.lv.Prefix != len(raw)) {
		return ErrBadContainer
	}
	if !tiled {
		// The entropy stage of an unlayered frame is the paper's Sec. IV-B3
		// ablation and is on the ledger; the per-layer slices' never was.
		if !l.Layered() && f.Geometry[0] != 0 {
			d.dev.CPUSerial("GeomEntropyDecode", len(f.Geometry)-1, costEntropyByte, func() {})
		}
		un.lv.Book(d.dev)
		d.dev.GPUNoop("MortonDecode", n, costMortonDecode)
	}
	if v.bare || !v.full || tiled && f.Tiles[s].Coarse() {
		return nil
	}
	achunk := l.Attr(f.Attr, s, l.cols()-1)
	if len(achunk) == 0 || achunk[0] > 1 {
		return ErrBadContainer
	}
	switch un.isP = achunk[0] == 1; {
	case un.isP && !d.hasRef:
		return ErrMissingReference
	case un.isP && tiled:
		un.interSt, err = interframe.OpenPTile(achunk[1:], lo, n)
	case un.isP:
		un.interSt, err = interframe.OpenP(d.dev, achunk[1:], n)
	case tiled:
		un.intraSt, err = un.intra.OpenTile(achunk[1:], n)
	default:
		un.intraSt, err = un.intra.OpenFrame(d.dev, achunk[1:], n)
	}
	return err
}

// decodeUnit is the one unit body: unit u decodes window w of stream s — a
// tile is the one window of its own stream, whose stream pass it runs first;
// an untiled frame's unit u is window u of the frame's one stream — expanding
// it to the view's level into its range of the code column and colouring it:
// zeroed for a coarse tile or a geometry-only decode, from the base medians of
// its base-level cells when layers were shed, otherwise from its window of
// the attribute stream's segments or blocks.
func (d *Decoder) decodeUnit(f *EncodedFrame, l *FrameLayout, u int, v decodeView) error {
	un, tiled := &d.units[u], f.Tiled()
	s, w := 0, u
	if tiled {
		s, w = u, 0
	}
	lo := l.PointOff[s]
	un.lo, un.n = lo, 0
	if tiled {
		if f.Tiles[u].Omitted() {
			return nil
		}
		if err := d.openStream(f, l, u, v); err != nil {
			return err
		}
	}
	st := &d.units[s]
	a, b := st.lv.Window(w, v.level)
	codes, colors := d.codes[lo+a:lo+b], d.colors[lo+a:lo+b]
	st.lv.Expand(codes, st.raw, w)
	un.lo, un.n = lo+a, b-a

	switch base := uint(l.BaseLevel); {
	case v.bare || tiled && f.Tiles[u].Coarse():
		clear(colors) // geometry only
		return nil
	case !v.full:
		first, _ := st.lv.Window(w, base)
		_, cells := st.lv.Window(-1, base)
		return un.paintBaseLayer(colors, codes, 3*(v.level-base), l.Attr(f.Attr, s, 0), cells, first)
	case st.isP:
		return un.inter.DecodeWindow(d.colors[lo:l.PointOff[s+1]], d.ref, &st.interSt, w, v.windows)
	}
	return un.intra.DecodeWindow(d.colors[lo:l.PointOff[s+1]], &st.intraSt, w, v.windows)
}

// inverter books the frame's inverse rescale over n points and returns its
// per-frame form, nil when the frame carries no transform.
func (d *Decoder) inverter(f *EncodedFrame, n int) *paroctree.Inverter {
	if !f.HasRescale {
		return nil
	}
	d.dev.GPUNoop("InverseRescale", n, costRescale)
	d.inv = f.Rescale.Inverter()
	return &d.inv
}

// emitVoxels is the fused pass from the two columns to the output: cell
// centre, Morton decode, colour, and the inverse rescale when the frame has
// one. Codes of a level s above the leaves are cells 2^s voxels wide, and the
// centre is taken on the code: s more triples of bits, the first of them set,
// are the leaf at x<<s | 2^(s-1) on every axis. s = 0 leaves a leaf where it is.
func emitVoxels(out []geom.Voxel, codes []morton.Code, colors []geom.Color, s uint, inv *paroctree.Inverter) {
	_, _ = out[:len(codes)], colors[:len(codes)]
	// s is at most the depth, 21: the mask only spares the loops a range check.
	shift, centre := 3*s&63, morton.Code(7)<<(3*s)>>3
	if inv == nil {
		for i, c := range codes {
			x, y, z := (c<<shift | centre).Decode()
			out[i] = geom.Voxel{X: x, Y: y, Z: z, C: colors[i]}
		}
		return
	}
	for i, c := range codes {
		x, y, z := inv.Invert((c<<shift | centre).Decode())
		out[i] = geom.Voxel{X: x, Y: y, Z: z, C: colors[i]}
	}
}

// concealOmitted fills the colour windows of omitted tiles from the nearest
// included point: the first point of the next included tile, or behind the
// last included tile its last point.
func concealOmitted(colors []geom.Color, tiles []TileInfo, pointOff []int) {
	fillLo := -1
	for t, ti := range tiles {
		switch {
		case ti.Omitted():
			if fillLo < 0 {
				fillLo = pointOff[t]
			}
		case fillLo >= 0:
			fill(colors[fillLo:pointOff[t]], colors[pointOff[t]])
			fillLo = -1
		}
	}
	if fillLo > 0 {
		fill(colors[fillLo:], colors[fillLo-1])
	}
}

func fill(dst []geom.Color, c geom.Color) {
	for i := range dst {
		dst[i] = c
	}
}
