package paroctree

// Per-tile entry points for the codec's unit encode path.
//
// A tile is a contiguous range of the frame's sorted, deduplicated leaf
// codes. The octree restricted to that subset still roots at code 0 (every
// leaf's depth-D ancestor is the whole-space root), so the sweep over the
// range emits a BFS occupancy stream the ordinary expander (Levels.Scan +
// Levels.Expand, into the tile's range of the decoder's code column) reads
// with the frame's depth — each tile's geometry slab is self-contained, and
// repeats the ancestors it shares with its neighbours; one tile over the
// full leaf set is the untiled stream by construction, which the codec
// builds instead as SortWith's Windows. Tiles are the unit of parallelism of
// a tiled frame (the codec fans T of these out across the edgesim worker
// pool inside one frame), so the per-tile bodies must be pool LEAVES: they
// take no device and book nothing — the codec books the fan-out afterwards,
// from counts.

import "repro/internal/morton"

// TileScratch is the reusable level arena for one tile's sweep. A scratch
// must not be shared by concurrent tiles — the encoder holds one per unit.
type TileScratch struct{ tree Tree }

// Sweep builds the octree over the given sorted, strictly-ascending leaf
// codes, a subset of a depth-deep lattice (codes < 8^depth). The tree aliases
// the scratch and the leaves, and is valid until the next Sweep.
func (s *TileScratch) Sweep(leaves []morton.Code, depth uint) (*Tree, error) {
	if err := s.tree.sweep(leaves, depth, 0); err != nil {
		return nil, err
	}
	return &s.tree, nil
}

// SerializeSubtree appends the BFS occupancy stream of the octree over the
// given leaves (see Sweep) to dst and returns it; Deserialize(stream, depth)
// recovers exactly these leaves.
func (s *TileScratch) SerializeSubtree(leaves []morton.Code, depth uint, dst []byte) ([]byte, error) {
	t, err := s.Sweep(leaves, depth)
	if err != nil {
		return nil, err
	}
	return t.AppendLevels(dst, 0, depth), nil
}
