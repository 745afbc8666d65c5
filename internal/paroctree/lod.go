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
// stream (level == depth reproduces Deserialize, minus its trailing-bytes
// rule: bytes past the prefix are simply not read).
func DeserializeLoD(dev *edgesim.Device, stream []byte, depth, level uint) (*LoDResult, error) {
	level = min(level, depth)
	var off [maxLevels]int
	nodes, err := scanLevels(&off, stream, depth, level)
	if err != nil {
		return nil, err
	}
	if nodes == 0 {
		return &LoDResult{Level: level}, nil
	}
	bookExpand(dev, off[:level+1])
	codes := make([]morton.Code, nodes)
	expand(codes, stream, off[:level+1])
	return &LoDResult{Level: level, Codes: codes, PrefixBytes: off[level]}, nil
}

// UpscaleToLattice maps level-L node codes back into full-lattice voxel
// positions at the centres of their cells, so a coarse decode can be
// rendered in the same coordinate frame as a full decode.
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
