package codec

// The proposed designs' decode path.
//
// A frame is a grid of units — the tiles of a tiled frame, or the whole
// frame — by layers, and FrameLayout gives every (unit, layer) span of both
// streams. Decoding a full subscription is the same two steps for every
// shape: each unit fills its own window of the Decoder's two frame-wide
// columns (Morton codes from the unit's geometry layers, colours from its
// top attribute layer, through the one decode body each stage has), then one
// fused pass turns codes and colours into the returned voxels. The untiled
// path runs on the calling core and books the paper's decode kernels beside
// the bodies; tiles fan out over the worker pool, each with the scratch its
// own index names, and book one TileDecode.
//
// The reference a P-frame predicts from is the last I-frame's colour column
// (the block pointers index points, never positions). It is installed by
// swapping the two colour buffers after the last point a decode can fail
// at, so a failed decode leaves it as it was.

import (
	"errors"

	"repro/internal/attr"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
	"repro/internal/paroctree"
)

// unitDecoder is one unit's decode scratch: its unwrapped geometry stream
// and the two attribute stages' arenas. Units decode concurrently, each with
// the scratch its index names.
type unitDecoder struct {
	raw   []byte
	intra attr.DecodeScratch
	inter interframe.DecodeScratch
	// outLo is where the unit's voxels start in the returned cloud, and err
	// what its decode failed with.
	outLo int
	err   error
}

// maxLeavesPerGeomByte bounds the points a geometry stream can hold per byte
// of its wire form: a leaf needs a bit of some mask byte, and the entropy
// stage expands a byte at most entropy.MaxExpansion times.
const maxLeavesPerGeomByte = 8 * entropy.MaxExpansion

// AppendGeomChunk unwraps one [mode][payload] geometry chunk — a frame's, a
// tile's or a layer's — and appends its raw occupancy bytes to dst: mode 0
// is raw, mode 1 entropy-coded. It is the one place the chunk modes are
// decided; an empty chunk or an unknown mode is ErrBadContainer.
func AppendGeomChunk(dst, chunk []byte) ([]byte, error) {
	if len(chunk) == 0 {
		return nil, ErrBadContainer
	}
	switch chunk[0] {
	case 0:
		return append(dst, chunk[1:]...), nil
	case 1:
		return entropy.AppendDecompressBytes(dst, chunk[1:])
	}
	return nil, ErrBadContainer
}

// appendGeomChunk is AppendGeomChunk's inverse and the one place the encoder
// writes a chunk mode: it appends raw occupancy bytes to dst as one
// [mode][payload] chunk, entropy-coded or as they are.
func appendGeomChunk(dst, raw []byte, entropyOn bool) []byte {
	if entropyOn {
		return entropy.AppendCompressBytes(append(dst, 1), raw)
	}
	return append(append(dst, 0), raw...)
}

// geometry unwraps unit idx's geometry — one chunk, or one per layer — into
// the unit's buffer and returns the unit's raw occupancy stream.
func (u *unitDecoder) geometry(f *EncodedFrame, l *FrameLayout, idx int) ([]byte, error) {
	raw := u.raw[:0]
	for lay := 0; lay < l.cols(); lay++ {
		var err error
		if raw, err = AppendGeomChunk(raw, l.Geom(f.Geometry, idx, lay)); err != nil {
			return nil, err
		}
	}
	u.raw = raw
	return raw, nil
}

// decodeProposed inverts encodeProposed. The inter designs require frames
// to be decoded in stream order (P-frames need the preceding I).
func (d *Decoder) decodeProposed(f *EncodedFrame) (*geom.VoxelCloud, error) {
	l, err := f.Layout()
	if err != nil {
		return nil, err
	}
	if l.Layered() && l.Sub < l.Layers {
		return d.decodeLayeredPartial(f, l)
	}
	for len(d.units) < l.LayerUnits() {
		d.units = append(d.units, unitDecoder{})
	}
	if f.Tiled() {
		return d.decodeTiled(f, l)
	}
	return d.decodeUntiled(f, l)
}

// decodeUntiled decodes a frame of one unit on the calling core.
func (d *Decoder) decodeUntiled(f *EncodedFrame, l *FrameLayout) (*geom.VoxelCloud, error) {
	u := &d.units[0]
	var raw []byte
	var err error
	// The entropy stage of an unlayered frame is the paper's Sec. IV-B3
	// ablation and is on the ledger; the per-layer slices' never was.
	if !l.Layered() && len(f.Geometry) > 0 && f.Geometry[0] == 1 {
		d.dev.CPUSerial("GeomEntropyDecode", len(f.Geometry)-1, costEntropyByte, func() {
			raw, err = u.geometry(f, l, 0)
		})
	} else {
		raw, err = u.geometry(f, l, 0)
	}
	if err != nil {
		return nil, err
	}
	codes, err := paroctree.DeserializeInto(d.dev, d.codes, raw, uint(f.Depth), int(f.NumPoints))
	if err != nil {
		return nil, err
	}
	d.codes = codes
	d.dev.GPUNoop("MortonDecode", len(codes), costMortonDecode)

	achunk := l.Attr(f.Attr, 0, l.cols()-1)
	if len(achunk) == 0 {
		return nil, ErrBadContainer
	}
	d.colors = grow(d.colors, len(codes))
	switch achunk[0] {
	case 0: // intra
		err = u.intra.Decode(d.dev, d.colors, achunk[1:])
	case 1: // inter
		if !d.hasRef {
			return nil, ErrMissingReference
		}
		err = u.inter.DecodeP(d.dev, d.colors, achunk[1:], d.ref)
	default:
		return nil, ErrBadContainer
	}
	if err != nil {
		return nil, err
	}

	out := make([]geom.Voxel, len(codes))
	emitVoxels(out, codes, d.colors, d.inverter(f, len(codes)))
	if f.Type == IFrame {
		d.installRef()
	}
	return &geom.VoxelCloud{Depth: uint(f.Depth), Voxels: out}, nil
}

// decodeTiled inverts the tiled encode. Omitted tiles (per-viewer viewport
// culling) are simply absent from the output; coarse tiles decode geometry
// with zeroed colours. I-frames install a FULL-length reference: omitted
// ranges are concealed by clamping to the nearest included point, so P-tiles
// keep decoding with global indices even under a moving camera.
func (d *Decoder) decodeTiled(f *EncodedFrame, l *FrameLayout) (*geom.VoxelCloud, error) {
	nT := len(f.Tiles)
	pointOff := l.PointOff
	included := 0
	for t, ti := range f.Tiles {
		d.units[t].outLo, d.units[t].err = included, nil
		if !ti.Omitted() {
			included += int(ti.Points)
		}
	}
	if included == 0 {
		return &geom.VoxelCloud{Depth: uint(f.Depth)}, nil
	}
	// The columns are sized from the directory's counts before any tile is
	// read: refuse counts the geometry bytes cannot hold.
	if included > maxLeavesPerGeomByte*len(f.Geometry) {
		return nil, ErrBadContainer
	}
	d.codes = grow(d.codes, int(f.NumPoints))
	d.colors = grow(d.colors, int(f.NumPoints))
	dev := d.dev
	dev.GPUCompute("TileDecode", int(f.NumPoints), costTileGeomDec, func() {
		dev.ParallelFor(nT, func(t0, t1 int) {
			for t := t0; t < t1; t++ {
				d.units[t].err = d.decodeTile(f, l, t)
			}
		})
	})
	for t := range f.Tiles {
		if err := d.units[t].err; errors.Is(err, ErrMissingReference) {
			return nil, err
		}
	}
	for t := range f.Tiles {
		if err := d.units[t].err; err != nil {
			return nil, err
		}
	}

	// Included tiles must stay in ascending Morton order across boundaries
	// (contiguous key ranges of one sorted sequence).
	var last morton.Code
	have := false
	for t, ti := range f.Tiles {
		if ti.Omitted() {
			continue
		}
		if have && d.codes[pointOff[t]] <= last {
			return nil, ErrBadContainer
		}
		last, have = d.codes[pointOff[t+1]-1], true
	}

	out := make([]geom.Voxel, included)
	dev.GPUNoop("MortonDecode", included, costMortonDecode)
	inv := d.inverter(f, included)
	dev.ParallelFor(nT, func(t0, t1 int) {
		for t := t0; t < t1; t++ {
			if f.Tiles[t].Omitted() {
				continue
			}
			lo, hi := pointOff[t], pointOff[t+1]
			emitVoxels(out[d.units[t].outLo:][:hi-lo], d.codes[lo:hi], d.colors[lo:hi], inv)
		}
	})

	if f.Type == IFrame {
		concealOmitted(d.colors, f.Tiles, pointOff)
		d.installRef()
	}
	return &geom.VoxelCloud{Depth: uint(f.Depth), Voxels: out}, nil
}

// decodeTile decodes tile t into its window of the two columns, on the
// calling goroutine with no device kernels: a pool leaf.
func (d *Decoder) decodeTile(f *EncodedFrame, l *FrameLayout, t int) error {
	ti, u := f.Tiles[t], &d.units[t]
	if ti.Omitted() {
		return nil
	}
	lo, hi := l.PointOff[t], l.PointOff[t+1]
	raw, err := u.geometry(f, l, t)
	if err != nil {
		return err
	}
	if err := paroctree.DeserializeSerial(d.codes[lo:hi], raw, uint(f.Depth)); err != nil {
		return err
	}
	colors := d.colors[lo:hi]
	if ti.Coarse() {
		clear(colors) // geometry only
		return nil
	}
	achunk := l.Attr(f.Attr, t, l.cols()-1)
	if len(achunk) == 0 {
		return ErrBadContainer
	}
	switch achunk[0] {
	case 0: // intra
		return u.intra.DecodeTile(colors, achunk[1:])
	case 1: // inter
		if !d.hasRef {
			return ErrMissingReference
		}
		return u.inter.DecodePTile(colors, lo, achunk[1:], d.ref)
	}
	return ErrBadContainer
}

// inverter books the frame's inverse rescale over n points and returns its
// per-frame form, nil when the frame carries no transform.
func (d *Decoder) inverter(f *EncodedFrame, n int) *paroctree.Inverter {
	if !f.HasRescale {
		return nil
	}
	d.dev.GPUNoop("InverseRescale", n, costRescale)
	inv := f.Rescale.Inverter()
	return &inv
}

// emitVoxels is the fused pass from the two columns to the output: Morton
// decode, colour, and the inverse rescale when the frame has one.
func emitVoxels(out []geom.Voxel, codes []morton.Code, colors []geom.Color, inv *paroctree.Inverter) {
	_, _ = out[:len(codes)], colors[:len(codes)]
	if inv == nil {
		for i, c := range codes {
			x, y, z := c.Decode()
			out[i] = geom.Voxel{X: x, Y: y, Z: z, C: colors[i]}
		}
		return
	}
	for i, c := range codes {
		x, y, z := inv.Invert(c.Decode())
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

// installRef makes the colour column just decoded the reference of the
// P-frames that follow; the buffer the old reference lived in becomes the
// next frame's colour column.
func (d *Decoder) installRef() {
	d.ref, d.colors = d.colors, d.ref
	d.hasRef = true
}
