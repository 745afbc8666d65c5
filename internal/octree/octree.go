// Package octree implements the BASELINE sequential octree geometry codec
// (PCL [72] / TMC13 [56] style, Sec. IV-A1): points are inserted one by one,
// each insertion updating the global tree under what the paper calls a
// "macro lock" — the data structure after point i depends on points 0..i-1,
// so the construction cannot be parallelized. Serialization then walks the
// finished tree depth-first, emitting one occupancy byte per internal node.
//
// Tree is a fixed-depth tree over an already-voxelized lattice: what the
// TMC13-like codec in internal/codec uses (lossless geometry).
package octree

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

// Node is one octree node. Children are indexed by octant: bit 0 = x half,
// bit 1 = y half, bit 2 = z half (the Morton digit convention, so a DFS in
// child order visits leaves in Morton order).
type Node struct {
	Children [8]*Node
}

// Occupancy returns the 8-bit occupancy mask of the node (bit i set iff
// child i exists).
func (n *Node) Occupancy() byte {
	var b byte
	for i, c := range n.Children {
		if c != nil {
			b |= 1 << uint(i)
		}
	}
	return b
}

// Tree is a fixed-depth sequential octree over a 2^Depth lattice.
type Tree struct {
	Depth     uint
	Root      *Node
	NumPoints int // inserted points (duplicates counted once)
	NumNodes  int // total nodes including root and leaves
	// LevelNodes[l] is the node count at level l (0 = root). Used by the
	// cost model: serialization visits every node.
	LevelNodes []int
}

// NewTree returns an empty tree of the given depth (1..21).
func NewTree(depth uint) (*Tree, error) {
	if depth == 0 || depth > 21 {
		return nil, fmt.Errorf("octree: depth %d out of range [1,21]", depth)
	}
	return &Tree{
		Depth:      depth,
		Root:       &Node{},
		NumNodes:   1,
		LevelNodes: make([]int, depth+1),
	}, nil
}

// octant returns the child index of (x,y,z) at tree level `level`, where
// level 0 examines the highest coordinate bit.
func octant(x, y, z uint32, depth, level uint) int {
	shift := depth - 1 - level
	return int(x>>shift&1) | int(y>>shift&1)<<1 | int(z>>shift&1)<<2
}

// Insert adds one voxel, updating the tree point-by-point (the sequential
// bottleneck this paper attacks). Inserting a duplicate voxel is a no-op
// for the structure. Reports whether a new leaf was created.
func (t *Tree) Insert(x, y, z uint32) bool {
	if t.LevelNodes == nil {
		t.LevelNodes = make([]int, t.Depth+1)
	}
	if t.LevelNodes[0] == 0 {
		t.LevelNodes[0] = 1
	}
	n := t.Root
	created := false
	for level := uint(0); level < t.Depth; level++ {
		o := octant(x, y, z, t.Depth, level)
		if n.Children[o] == nil {
			n.Children[o] = &Node{}
			t.NumNodes++
			t.LevelNodes[level+1]++
			created = true
		}
		n = n.Children[o]
	}
	if created {
		t.NumPoints++
	}
	return created
}

// Build constructs a tree from a voxel cloud by sequential insertion.
func Build(vc *geom.VoxelCloud) (*Tree, error) {
	t, err := NewTree(vc.Depth)
	if err != nil {
		return nil, err
	}
	for _, v := range vc.Voxels {
		t.Insert(v.X, v.Y, v.Z)
	}
	return t, nil
}

// Serialize walks the tree depth-first (pre-order, children in octant
// order) and emits one occupancy byte per internal node. Together with the
// depth this is a complete, lossless description of the occupied voxel set.
func (t *Tree) Serialize() []byte {
	out := make([]byte, 0, t.NumNodes)
	var walk func(n *Node, level uint)
	walk = func(n *Node, level uint) {
		if level == t.Depth {
			return
		}
		out = append(out, n.Occupancy())
		for i := 0; i < 8; i++ {
			if c := n.Children[i]; c != nil {
				walk(c, level+1)
			}
		}
	}
	walk(t.Root, 0)
	return out
}

// ErrTruncated reports a serialized stream that ended early.
var ErrTruncated = errors.New("octree: truncated occupancy stream")

// Deserialize reconstructs the voxel set from an occupancy stream produced
// by Serialize. Voxels are returned in Morton order (the DFS order).
func Deserialize(stream []byte, depth uint) ([]geom.Voxel, error) {
	if depth == 0 || depth > 21 {
		return nil, fmt.Errorf("octree: depth %d out of range [1,21]", depth)
	}
	var out []geom.Voxel
	pos := 0
	var walk func(x, y, z uint32, level uint) error
	walk = func(x, y, z uint32, level uint) error {
		if level == depth {
			out = append(out, geom.Voxel{X: x, Y: y, Z: z})
			return nil
		}
		if pos >= len(stream) {
			return ErrTruncated
		}
		occ := stream[pos]
		pos++
		if occ == 0 {
			return fmt.Errorf("octree: internal node with zero occupancy at byte %d", pos-1)
		}
		shift := depth - 1 - level
		for i := uint32(0); i < 8; i++ {
			if occ>>i&1 == 0 {
				continue
			}
			cx := x | ((i & 1) << shift)
			cy := y | ((i >> 1 & 1) << shift)
			cz := z | ((i >> 2 & 1) << shift)
			if err := walk(cx, cy, cz, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if len(stream) == 0 {
		return nil, nil // empty tree
	}
	if err := walk(0, 0, 0, 0); err != nil {
		return nil, err
	}
	if pos != len(stream) {
		return nil, fmt.Errorf("octree: %d trailing bytes in occupancy stream", len(stream)-pos)
	}
	return out, nil
}

// CountLevels recomputes per-level node counts by traversal (cross-check
// for the incrementally-maintained LevelNodes).
func (t *Tree) CountLevels() []int {
	counts := make([]int, t.Depth+1)
	var walk func(n *Node, level uint)
	walk = func(n *Node, level uint) {
		counts[level]++
		if level == t.Depth {
			return
		}
		for _, c := range n.Children {
			if c != nil {
				walk(c, level+1)
			}
		}
	}
	walk(t.Root, 0)
	return counts
}
