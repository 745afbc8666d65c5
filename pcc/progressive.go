package pcc

import (
	"errors"

	"repro/internal/codec"
	"repro/internal/paroctree"
)

// Progressive decoding. The proposed designs serialize geometry
// breadth-first, so ANY PREFIX of the stream is a complete coarse frame: a
// streaming receiver can display a low-resolution cloud after the first few
// kilobytes and refine as bytes arrive. (The sequential baselines' DFS
// streams have no such cut points.)

// ErrNotProgressive is returned for frames whose geometry stream does not
// support prefix decoding (TMC13/CWIPC frames).
var ErrNotProgressive = errors.New("pcc: frame is not progressively decodable")

// DecodeProgressive decodes only the first `level` octree levels of a
// proposed-design frame (IntraOnly / IntraInter*), returning a coarse cloud
// with points at the centres of the level-`level` cells in full-lattice
// coordinates. level >= the frame's depth decodes full resolution
// (geometry only — attributes are not populated by this call).
//
// GeometryPrefixBytes in the second return is how much of the geometry
// stream a receiver must have to show this level.
func DecodeProgressive(f *EncodedFrame, level uint) (*PointCloud, int, error) {
	dev := NewDevice(Mode15W)
	if f.Tiled() {
		// Tiled geometry is per-tile streams; a frame-wide byte prefix is
		// not a coarse frame. Use the layered container for partial tiled
		// frames instead.
		return nil, 0, ErrNotProgressive
	}
	if f.Layered() {
		return decodeProgressiveLayered(f, level)
	}
	// Entropy-coded geometry must be fully decompressed first (the
	// arithmetic stream is not prefix-decodable) — one more reason the
	// paper's fast path discards the entropy stage. Layered frames fix
	// this: entropy restarts at every layer cut, so the layered branch
	// above never decompresses past the requested level's layer.
	stream, err := appendGeomPayload(nil, f.Geometry)
	if err != nil {
		return nil, 0, err
	}
	lod, err := paroctree.DeserializeLoD(dev, stream, uint(f.Depth), level)
	if err != nil {
		return nil, 0, err
	}
	voxels := lod.UpscaleToLattice(dev, uint(f.Depth))
	if f.HasRescale {
		for i := range voxels {
			voxels[i] = f.Rescale.Invert(voxels[i])
		}
	}
	return &PointCloud{Depth: uint(f.Depth), Voxels: voxels}, lod.PrefixBytes, nil
}

// appendGeomPayload unwraps a geometry chunk onto dst through the codec's
// one chunk-mode switch; a chunk it does not recognise is not progressively
// decodable.
func appendGeomPayload(dst, chunk []byte) ([]byte, error) {
	dst, err := codec.AppendGeomChunk(dst, chunk)
	if errors.Is(err, codec.ErrBadContainer) {
		err = ErrNotProgressive
	}
	return dst, err
}

// decodeProgressiveLayered is the layered-frame fast path: consume whole
// layers (each a self-contained entropy unit) until the requested level is
// covered, so the reported prefix is the SUM OF THE WIRE LENGTHS of the
// consumed layers — a base-layer decode reads exactly the directory's
// base-layer bytes, never the rest of the stream. Prefix granularity is
// whole layers: level cuts inside a layer round up to the layer boundary.
func decodeProgressiveLayered(f *EncodedFrame, level uint) (*PointCloud, int, error) {
	dev := NewDevice(Mode15W)
	l, err := f.Layout()
	if err != nil {
		return nil, 0, ErrNotProgressive
	}
	depth := uint(f.Depth)
	if level > depth {
		level = depth
	}
	// Layers needed: layer 0 covers levels up to BaseLevel; each
	// enhancement layer adds one level.
	need := min(max(1+int(level)-l.BaseLevel, 1), l.Sub)
	var raw []byte
	prefix := 0
	for lay := 0; lay < need; lay++ {
		chunk := l.Geom(f.Geometry, 0, lay)
		prefix += len(chunk)
		if raw, err = appendGeomPayload(raw, chunk); err != nil {
			return nil, 0, err
		}
	}
	// The consumed layers carry mask levels up to BaseLevel+need-1; clamp
	// the decode there when the subscription cuts below the request.
	if covered := uint(l.BaseLevel + need - 1); level > covered {
		level = covered
	}
	lod, err := paroctree.DeserializeLoD(dev, raw, depth, level)
	if err != nil {
		return nil, 0, err
	}
	voxels := lod.UpscaleToLattice(dev, depth)
	if f.HasRescale {
		for i := range voxels {
			voxels[i] = f.Rescale.Invert(voxels[i])
		}
	}
	return &PointCloud{Depth: depth, Voxels: voxels}, prefix, nil
}
