// Package paroctree implements the paper's CONTRIBUTION geometry pipeline
// (Sec. IV-B): Morton-code generation → data-parallel sort → level-wise
// octree construction from the sorted codes (Karras [31] / PCL-GPU [64]
// family) → occupy-bit post-processing (paper Algorithm 1) → breadth-first
// occupancy stream.
//
// The key idea: once points are sorted by Morton code, the topology of the
// whole octree is implied by the code sequence — a node exists at depth d
// wherever a new length-3d prefix begins — so a level is one pass over its
// child level: every run of children with the same parent becomes one node,
// and the run's octants are that node's occupy bits. That pass (Tree.sweep)
// is the only octree construction in the package: the untiled frame is the
// sweep over all leaves, a tile is the sweep over the tile's leaf range, a
// layer is a range of its levels (AppendLevels) and the progressive path cuts
// the stream it emits. Its inverse — the sizing pass Levels.Scan, which also
// cuts the tree into windows of whole subtrees, and the expander
// Levels.Expand, a window to any level into a column the caller owns — is the
// only stream expander.
//
// The sweep and the expander are pure functions of their input. The
// edgesim ledger is booked beside them, from the level node counts, as the
// kernels the paper's GPU pipeline launches (bookBuild, Levels.Book), so
// simulated latency and energy follow the paper's decomposition while the
// host executes the fused form. Morton generation and the radix sort still
// run over the device's worker pool, and every buffer lives in a reusable
// BuildScratch so steady-state frame encoding allocates nothing here.
package paroctree

import (
	"errors"
	"fmt"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/morton"
)

// Calibrated per-item kernel costs (ops / bytes). These reproduce the
// paper's stage latencies for ~0.8 M-point frames on the Xavier model:
// Morton generation ≈0.5 ms, full geometry pipeline ≈42 ms (Sec. VI-C).
var (
	costMortonGen  = edgesim.Cost{OpsPerItem: 12, BytesPerItem: 16}
	costSortPass   = edgesim.Cost{OpsPerItem: 69, BytesPerItem: 32} // per item per pass
	costDedup      = edgesim.Cost{OpsPerItem: 9, BytesPerItem: 16}
	costLevelFlag  = edgesim.Cost{OpsPerItem: 6, BytesPerItem: 8}
	costLevelBuild = edgesim.Cost{OpsPerItem: 289, BytesPerItem: 24} // per child node
	costParentLink = edgesim.Cost{OpsPerItem: 4, BytesPerItem: 8}
	costOccupy     = edgesim.Cost{OpsPerItem: 46, BytesPerItem: 9} // per non-root node
	costPack       = edgesim.Cost{OpsPerItem: 35, BytesPerItem: 2} // per node
)

// maxDepth is the deepest lattice a 63-bit Morton code addresses.
const maxDepth = 21

func checkDepth(depth uint) error {
	if depth == 0 || depth > maxDepth {
		return fmt.Errorf("paroctree: depth %d out of range [1,%d]", depth, maxDepth)
	}
	return nil
}

// Tree is the level form of the octree (the paper's Fig. 5 arrays, one code
// array per level): depth 0 is the root (code 0), depth Depth the leaves;
// within a level nodes are in ascending Morton order, and a depth-d node's
// parent is the depth-(d-1) node whose code is its own >> 3.
//
// A Tree is also the sweep's arena: the per-level buffers grow to the
// largest tree built in them and are then reused.
type Tree struct {
	Depth uint
	// NumLeaves is the number of distinct occupied voxels.
	NumLeaves int

	leaves   []morton.Code   // the sweep's input; not owned
	codes    [][]morton.Code // codes[d], d < Depth: node codes at their own depth
	masks    [][]byte        // masks[d][i]: child mask (occupy bits) of node codes[d][i]
	internal int             // nodes above the leaf level = bytes of the stream
}

// Level returns depth d's node codes and, above the leaf level, their
// child masks (nil for the leaves).
func (t *Tree) Level(d uint) ([]morton.Code, []byte) {
	if d == t.Depth {
		return t.leaves, nil
	}
	return t.codes[d], t.masks[d]
}

// nodes returns the node count at depth d.
func (t *Tree) nodes(d uint) int {
	codes, _ := t.Level(d)
	return len(codes)
}

// LevelNodes returns the node count at each depth.
func (t *Tree) LevelNodes() []int {
	out := make([]int, t.Depth+1)
	for d := range out {
		out[d] = t.nodes(uint(d))
	}
	return out
}

// Leaves returns the slice of leaf codes (ascending Morton order).
func (t *Tree) Leaves() []morton.Code { return t.leaves }

// sweep builds the octree over sorted, strictly ascending leaf codes of a
// depth-deep lattice: bottom-up, one pass per level, each run of children
// with one parent becoming a node whose mask collects the run's octants
// (the level build and Algorithm 1 in one step). leaves is referenced, not
// copied. Unsorted or duplicate leaves, and codes outside the lattice (the
// top level then is not the single root), are errors.
func (t *Tree) sweep(leaves []morton.Code, depth uint) error {
	if len(leaves) == 0 {
		return ErrNoPoints
	}
	if err := checkDepth(depth); err != nil {
		return err
	}
	for len(t.codes) < int(depth) {
		t.codes = append(t.codes, nil)
		t.masks = append(t.masks, nil)
	}
	t.internal = 0
	child := leaves
	for d := depth; d >= 1; d-- {
		pc, pm := grow(t.codes[d-1], len(child)), grow(t.masks[d-1], len(child))
		w := -1
		for i, c := range child {
			if i > 0 && c <= child[i-1] {
				return fmt.Errorf("paroctree: leaf codes not strictly ascending at %d", i)
			}
			if p := c.Parent(); w < 0 || pc[w] != p {
				w++
				pc[w], pm[w] = p, 0
			}
			pm[w] |= 1 << (c & 7)
		}
		t.codes[d-1], t.masks[d-1] = pc[:w+1], pm[:w+1]
		t.internal += w + 1
		child = pc[:w+1]
	}
	if len(child) != 1 || child[0] != 0 {
		return fmt.Errorf("paroctree: construction did not converge to a single root (got %v)", child)
	}
	t.Depth, t.NumLeaves, t.leaves = depth, len(leaves), leaves
	return nil
}

// AppendLevels appends mask levels [lo, hi) of the BFS occupancy stream to
// dst, coarsest first: [0, Depth) is the whole stream (the leaf level carries
// no masks), and any cut between two levels is a layer boundary.
func (t *Tree) AppendLevels(dst []byte, lo, hi uint) []byte {
	for _, m := range t.masks[lo:hi] {
		dst = append(dst, m...)
	}
	return dst
}

// bookBuild books the kernels the paper's pipeline launches to build t —
// per level a flag and a scan+compact over the child nodes, then the parent
// links, then Algorithm 1's occupy bits and their packing — with the item
// counts the sweep produced. The work itself already happened in the sweep.
func bookBuild(dev *edgesim.Device, t *Tree) {
	for d := t.Depth; d >= 1; d-- {
		dev.GPUNoop("LevelFlag", t.nodes(d), costLevelFlag)
		dev.GPUNoop("LevelCompact", t.nodes(d), costLevelBuild)
	}
	for d := uint(1); d <= t.Depth; d++ {
		dev.GPUNoop("ParentLink", t.nodes(d), costParentLink)
	}
	total := t.internal + t.NumLeaves
	dev.GPUNoop("OccupyBits", total-1, costOccupy)
	dev.GPUNoop("OccupyPack", total, costPack)
}

// Book is bookBuild plus SerializeInto's pack row: the whole ledger of a tree
// built by TileScratch.Sweep and written out with AppendLevels.
func (t *Tree) Book(dev *edgesim.Device) {
	bookBuild(dev, t)
	dev.GPUNoop("SerializePack", t.internal, costPack)
}

// ErrNoPoints is returned when building from an empty cloud.
var ErrNoPoints = errors.New("paroctree: no points")

// BuildResult bundles the tree with the sorted keyed voxels — the Morton
// codes are the "intermediate result" the attribute pipelines reuse at no
// extra cost (Sec. IV-C1).
type BuildResult struct {
	Tree *Tree
	// Sorted is the frame's voxels in ascending Morton order, duplicates
	// removed (matching the tree's leaves one-to-one).
	Sorted []morton.Keyed
}

// BuildScratch is the geometry pipeline's reusable arena: the keyed codes,
// the sort's passes, the leaf-code column and the output Tree with its
// per-level buffers. Buffers grow to the largest frame built and are then
// reused, so steady-state encoding is allocation-free.
//
// A scratch must not be shared by concurrent builds, and the BuildResult of
// BuildWith aliases the scratch: it is valid only until the next BuildWith
// on the same scratch.
type BuildScratch struct {
	keyed  []morton.Keyed
	sort   morton.SortScratch
	leaves []morton.Code
	tree   Tree
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Build runs the full construction on dev with a fresh scratch; the result
// is independently owned. Hot paths (the codec's per-frame encode) should
// hold a BuildScratch and call BuildWith.
func Build(dev *edgesim.Device, vc *geom.VoxelCloud) (*BuildResult, error) {
	return BuildWith(dev, vc, new(BuildScratch))
}

// BuildWith runs the full construction on dev, reusing the given scratch
// arena: SortWith, then the sweep over all leaves. The input cloud does not
// need to be sorted or deduplicated. The returned BuildResult aliases the
// scratch.
func BuildWith(dev *edgesim.Device, vc *geom.VoxelCloud, s *BuildScratch) (*BuildResult, error) {
	sorted, leaves, err := SortWith(dev, vc, s)
	if err != nil {
		return nil, err
	}
	if err := s.tree.sweep(leaves, vc.Depth); err != nil {
		return nil, err
	}
	bookBuild(dev, &s.tree)
	return &BuildResult{Tree: &s.tree, Sorted: sorted}, nil
}

// SortWith runs only the front half of the construction — Morton code
// generation, data-parallel sort, and deduplication (kernels 1-3 of
// BuildWith, identical accounting) — returning the sorted keyed voxels and
// the leaf-code column without building the tree. The codec's geometry phase
// uses this: each unit of the frame then sweeps its own leaf range
// (TileScratch.Sweep). Both results alias the scratch.
func SortWith(dev *edgesim.Device, vc *geom.VoxelCloud, s *BuildScratch) ([]morton.Keyed, []morton.Code, error) {
	if vc.Len() == 0 {
		return nil, nil, ErrNoPoints
	}
	n := vc.Len()

	// Kernel 1: Morton code generation — one independent work-item per
	// point ("in one shot ... only takes 0.5ms", Sec. IV-A2). Each range
	// block keys its slab through the batched LUT path (byte-identical
	// codes to the scalar Encode).
	s.keyed = grow(s.keyed, n)
	keyed := s.keyed
	dev.GPUKernel("MortonGen", n, costMortonGen, func(lo, hi int) {
		morton.EncodeKeyed(keyed[lo:hi], vc.Voxels[lo:hi])
	})

	// Kernel 2: data-parallel radix sort (8 digit passes) — histogram,
	// scan and scatter phases run over the persistent worker pool.
	sortCost := costSortPass
	sortCost.OpsPerItem *= 8
	sortCost.BytesPerItem *= 8
	dev.GPUCompute("RadixSort", n, sortCost, func() {
		s.sort.Sort(dev.Pool(), keyed, 8)
	})

	// Kernel 3: deduplicate equal codes (captured voxel duplicates), in
	// place, keeping the first of each run; the same pass writes the
	// leaf-code column every level of the sweep reads.
	s.leaves = grow(s.leaves, n)
	leaves := s.leaves
	w := 0
	dev.GPUCompute("Dedup", n, costDedup, func() {
		for i, k := range keyed {
			if i == 0 || k.Code != leaves[w-1] {
				keyed[w], leaves[w] = k, k.Code
				w++
			}
		}
	})
	return keyed[:w], leaves[:w], nil
}
