package paroctree

import (
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/morton"
)

// Level-of-detail decoding. Because the proposed pipeline serializes the
// octree breadth-first (level by level), any PREFIX of the geometry stream
// is a complete coarse octree: a receiver can decode the first L levels and
// display a lower-resolution cloud before the rest arrives. This implements
// the progressive-transmission property octree PCC systems ship with
// (Schnabel & Klein [74]) and that the paper's BFS layout gets for free —
// the DFS layout of the sequential baseline cannot be cut this way.
//
// The codec's decoder uses the property through the expander itself: every
// stream of every frame is Levels.Scan to some level, then Levels.Expand of
// each of its windows into the decoder's column, and the cell centres are
// taken in its fused emit pass. What stays here is the fresh-column,
// one-window form of the two steps, the reference the layer tests and
// `pccbench lod` hold that path to.

// LoDResult is a partially-decoded frame.
type LoDResult struct {
	// Level is the decoded depth (== requested level, clamped).
	Level uint
	// Codes are the occupied node codes at that level (ascending).
	Codes []morton.Code
	// PrefixBytes is how many stream bytes were consumed — the amount a
	// progressive receiver needs to have before it can show this level.
	PrefixBytes int
}

// DeserializeLoD decodes only the first `level` levels of a BFS occupancy
// stream into a fresh column (level == depth reproduces Deserialize, minus its
// trailing-bytes rule: bytes past the prefix are simply not read). It is a
// front end over ScanLevels and Levels.Expand, the pair the codec's decoder
// runs per unit, kept as the reference the layer tests and `pccbench lod`
// compare against.
func DeserializeLoD(dev *edgesim.Device, stream []byte, depth, level uint) (*LoDResult, error) {
	lv, err := ScanLevels(stream, depth, level)
	if err != nil {
		return nil, err
	}
	res := &LoDResult{Level: lv.level}
	if n := lv.Nodes(); n > 0 {
		lv.bookExpand(dev)
		res.Codes, res.PrefixBytes = make([]morton.Code, n), lv.Prefix
		lv.Expand(res.Codes, stream, 0)
	}
	return res, nil
}

// UpscaleToLattice maps level-L node codes back into full-lattice voxel
// positions at the centres of their cells, so a coarse decode can be
// rendered in the same coordinate frame as a full decode. The decoder does
// this inside its fused emit pass; this is the reference it is tested against.
func (r *LoDResult) UpscaleToLattice(dev *edgesim.Device, depth uint) []geom.Voxel {
	if r.Level > depth {
		return nil
	}
	shift := depth - r.Level
	half := uint32(0)
	if shift > 0 {
		half = 1 << (shift - 1)
	}
	out := make([]geom.Voxel, len(r.Codes))
	dev.GPUKernel("LoDUpscale", len(r.Codes), costMortonGen, func(lo, hi int) {
		morton.DecodeVoxels(out[lo:hi], r.Codes[lo:hi])
		for i := lo; i < hi; i++ {
			out[i] = geom.Voxel{X: out[i].X<<shift | half, Y: out[i].Y<<shift | half, Z: out[i].Z<<shift | half}
		}
	})
	return out
}
