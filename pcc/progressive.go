package pcc

import (
	"errors"

	"repro/internal/codec"
)

// Progressive decoding. The proposed designs serialize geometry
// breadth-first, so ANY PREFIX of the stream is a complete coarse frame: a
// streaming receiver can display a low-resolution cloud after the first few
// kilobytes and refine as bytes arrive. (The sequential baselines' DFS
// streams have no such cut points.) It is the decoder's one phase
// (codec.DecodeGeometry) stopped at a level, colours left out: the same unit
// body that serves full and layer-shed subscriptions.

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
// stream a receiver must have to show this level. An unlayered frame reports
// the prefix of its raw occupancy stream; when that stream is entropy-coded
// it must be decompressed whole first (the arithmetic stream is not
// prefix-decodable) — one more reason the paper's fast path discards the
// entropy stage. Layered frames fix this: entropy restarts at every layer
// cut, so only the layers that carry the requested level are read and the
// prefix is the SUM OF THEIR WIRE LENGTHS — a base-layer decode reads exactly
// the directory's base-layer bytes. Prefix granularity is then whole layers:
// a level cut inside a layer rounds up to the layer boundary.
func DecodeProgressive(f *EncodedFrame, level uint) (*PointCloud, int, error) {
	if f.Tiled() {
		// Tiled geometry is per-tile streams; a frame-wide byte prefix is
		// not a coarse frame. Use the layered container for partial tiled
		// frames instead.
		return nil, 0, ErrNotProgressive
	}
	vc, prefix, err := codec.DecodeGeometry(NewDevice(Mode15W), f, level)
	if errors.Is(err, codec.ErrBadContainer) {
		// A container or chunk the decoder does not recognise is not
		// progressively decodable.
		return nil, 0, ErrNotProgressive
	}
	return vc, prefix, err
}
