// Package paroctree implements the paper's CONTRIBUTION geometry pipeline
// (Sec. IV-B): Morton-code generation → data-parallel sort → level-wise
// octree construction from the sorted codes (Karras [31] / PCL-GPU [64]
// family) → occupy-bit post-processing (paper Algorithm 1) → breadth-first
// occupancy stream.
//
// The front half is one pass, SortWith: the frame is cut into windows of
// whole cells of one level, the cut (morton.SortScratch.SortWindows), and in
// three pool launches every voxel is rescaled and keyed, partitioned by cell,
// and sorted and deduplicated inside its window.
//
// The key idea: once points are sorted by Morton code, the topology of the
// whole octree is implied by the code sequence — a node exists at depth d
// wherever a new length-3d prefix begins — so a level is one pass over its
// child level: every run of children with the same parent becomes one node,
// and the run's octants are that node's occupy bits. That pass (Tree.sweep)
// is the only octree construction in the package: an untiled frame's windows
// sweep their leaves up to the cut inside SortWith and the levels above it
// are swept once from the windows' cut-level nodes (Windows), a tile is the
// sweep over the tile's leaf range, a layer is a range of its levels
// (AppendLevels) and the progressive path cuts the stream it emits. Its
// inverse — the sizing pass Levels.Scan, which also cuts the tree into
// windows of whole subtrees, and the expander Levels.Expand, a window to any
// level into a column the caller owns — is the only stream expander.
//
// The sweep and the expander are pure functions of their input. The
// edgesim ledger is booked beside them, from the counts, as the kernels the
// paper's GPU pipeline launches (SortWith's rows, bookBuild, Levels.Book),
// once per frame whatever the window count, so simulated latency and energy
// follow the paper's decomposition while the host executes the fused form.
// Every buffer lives in a reusable BuildScratch, so steady-state frame
// encoding allocates nothing here.
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
// (the level build and Algorithm 1 in one step). It stops at level top: the
// whole tree at 0, a window's part below its cells otherwise, whose levels
// above top it leaves as they were and which may have no leaves. leaves is
// referenced, not copied. Unsorted or duplicate leaves, and a whole tree
// whose codes lie outside the lattice (the top level then is not the single
// root), are errors.
func (t *Tree) sweep(leaves []morton.Code, depth, top uint) error {
	if len(leaves) == 0 && top == 0 {
		return ErrNoPoints
	}
	if err := checkDepth(depth); err != nil {
		return err
	}
	for len(t.codes) < int(depth) {
		t.codes = append(t.codes, nil)
		t.masks = append(t.masks, nil)
	}
	for i := 1; i < len(leaves); i++ {
		if leaves[i] <= leaves[i-1] {
			return fmt.Errorf("paroctree: leaf codes not strictly ascending at %d", i)
		}
	}
	t.internal = 0
	child := leaves
	for d := depth; d > top; d-- {
		pc, pm := grow(t.codes[d-1], len(child)), grow(t.masks[d-1], len(child))
		n := sweepLevel(pc, pm, child)
		t.codes[d-1], t.masks[d-1] = pc[:n], pm[:n]
		t.internal += n
		child = pc[:n]
	}
	if top == 0 && (len(child) != 1 || child[0] != 0) {
		return fmt.Errorf("paroctree: construction did not converge to a single root (got %v)", child)
	}
	t.Depth, t.NumLeaves, t.leaves = depth, len(leaves), leaves
	return nil
}

// sweepLevel writes the parents of the strictly ascending codes child, and
// their masks, into pc and pm, and returns how many there are: the parent of
// a run of children with one parent is one node, the run's octants its mask.
func sweepLevel(pc []morton.Code, pm []byte, child []morton.Code) int {
	if len(child) == 0 {
		return 0
	}
	w, p, m := 0, child[0].Parent(), byte(0)
	for _, c := range child {
		if q := c.Parent(); q != p {
			pc[w], pm[w] = p, m
			w, p, m = w+1, q, 0
		}
		m |= 1 << (c & 7)
	}
	pc[w], pm[w] = p, m
	return w + 1
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

// bookBuild books the kernels the paper's pipeline launches to build a
// depth-deep tree — per level a flag and a scan+compact over the child nodes,
// then the parent links, then Algorithm 1's occupy bits and their packing —
// from its node count at every depth, and returns the nodes above the leaves.
// The work itself already happened in the sweep.
func bookBuild(dev *edgesim.Device, depth uint, nodes func(d uint) int) (internal int) {
	for d := depth; d >= 1; d-- {
		dev.GPUNoop("LevelFlag", nodes(d), costLevelFlag)
		dev.GPUNoop("LevelCompact", nodes(d), costLevelBuild)
	}
	for d := uint(1); d <= depth; d++ {
		dev.GPUNoop("ParentLink", nodes(d), costParentLink)
	}
	for d := uint(0); d < depth; d++ {
		internal += nodes(d)
	}
	total := internal + nodes(depth)
	dev.GPUNoop("OccupyBits", total-1, costOccupy)
	dev.GPUNoop("OccupyPack", total, costPack)
	return internal
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
// the sort's buffers, the leaf-code column, the output Tree with its
// per-level buffers, and the windows of the last SortWith with their trees.
// Buffers grow to the largest frame and window count built and are then
// reused, so steady-state encoding is allocation-free.
//
// A scratch must not be shared by concurrent builds, and the BuildResult of
// BuildWith aliases the scratch: it is valid only until the next BuildWith
// on the same scratch.
type BuildScratch struct {
	keyed   []morton.Keyed
	sort    morton.SortScratch
	leaves  []morton.Code
	tree    Tree
	windows Windows
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
	sorted, leaves, _, err := SortWith(dev, vc, IdentityRescale(), dev.Workers(), false, s)
	if err != nil {
		return nil, err
	}
	if err := s.tree.sweep(leaves, vc.Depth, 0); err != nil {
		return nil, err
	}
	bookBuild(dev, s.tree.Depth, s.tree.nodes)
	return &BuildResult{Tree: &s.tree, Sorted: sorted}, nil
}

// Windows is a frame's octree swept as windows of whole cells of one level,
// the cut: every window's tree holds its leaves' levels from the cut down,
// and the top tree the levels above, swept once over the windows' cut-level
// nodes in order. A level at or below the cut is the windows' nodes of it
// back to back, so the occupancy stream is the whole tree's, byte for byte.
type Windows struct {
	depth, cut uint
	top        Tree
	cells      []morton.Code
	wins       []sortWindow
}

// sortWindow is one window of SortWith: its range of the sort's output, the
// distinct leaves its dedup kept at the front of it, and its tree when the
// frame is swept.
type sortWindow struct {
	lo, n int
	tree  Tree
	err   error
}

// nodes returns the node count at depth d.
func (f *Windows) nodes(d uint) int {
	if d <= f.cut {
		return f.top.nodes(d)
	}
	n := 0
	for i := range f.wins {
		n += f.wins[i].tree.nodes(d)
	}
	return n
}

// AppendLevels is Tree.AppendLevels over the windows: the top tree's masks
// above the cut, every window's in order from the cut down.
func (f *Windows) AppendLevels(dst []byte, lo, hi uint) []byte {
	for d := lo; d < hi; d++ {
		if d < f.cut {
			dst = append(dst, f.top.masks[d]...)
			continue
		}
		for i := range f.wins {
			dst = append(dst, f.wins[i].tree.masks[d]...)
		}
	}
	return dst
}

// Book is bookBuild plus SerializeInto's pack row for the whole tree, from
// the windows' counts: the ledger of a tree written out with AppendLevels,
// once, whatever the window count.
func (f *Windows) Book(dev *edgesim.Device) {
	dev.GPUNoop("SerializePack", bookBuild(dev, f.depth, f.nodes), costPack)
}

// SortWith runs the front half of the construction — rescale and Morton code
// generation, data-parallel sort, and deduplication (kernels 1-3 of
// BuildWith, identical accounting) — as the given number of windows of whole
// cells (morton.SortScratch.SortWindows): one launch applies r (the frame's
// tight-cuboid transform, IdentityRescale when lossless), keys every voxel
// and counts the cells; after the partition every window sorts and dedups
// its own range — no duplicate straddles a cut, because equal codes share a
// cell — and, when sweep is set, sweeps its leaves up to the cut level. One
// compaction then closes the gaps the dedups left. It returns the sorted
// keyed voxels, the leaf-code column and, when sweep is set, the frame's tree
// as Windows, the levels above the cut swept once from the windows'
// cut-level nodes. All three alias the scratch. The depth and the lattice
// are checked before anything is sorted: a voxel whose code is at or above
// 8^depth is an error. The kernels are booked once, from the counts.
func SortWith(dev *edgesim.Device, vc *geom.VoxelCloud, r Rescale, windows int, sweep bool, s *BuildScratch) ([]morton.Keyed, []morton.Code, *Windows, error) {
	n, depth := vc.Len(), vc.Depth
	if n == 0 {
		return nil, nil, nil, ErrNoPoints
	}
	if err := checkDepth(depth); err != nil {
		return nil, nil, nil, err
	}
	windows = max(windows, 1)
	s.keyed, s.leaves = grow(s.keyed, n), grow(s.leaves, n)
	keyed, leaves, f := s.keyed, s.leaves, &s.windows
	f.depth, f.cut = depth, morton.CellLevel(depth, windows)
	for len(f.wins) < windows {
		f.wins = append(f.wins, sortWindow{})
	}
	f.wins = f.wins[:windows]

	// Kernel 1, Morton code generation — one independent work-item per point
	// ("in one shot ... only takes 0.5ms", Sec. IV-A2) — through the batched
	// LUT path, with the rescale ahead of it, inside the sort's first launch;
	// kernel 2 is the sort.
	key := func(lo, hi int) { morton.EncodeKeyed(keyed[lo:hi], vc.Voxels[lo:hi]) }
	if !r.Identity() {
		key = func(lo, hi int) {
			for i := lo; i < hi; i++ {
				keyed[i].Voxel = r.Apply(vc.Voxels[i])
			}
			morton.KeyVoxels(keyed[lo:hi])
		}
	}
	// Kernel 3, deduplication, per window: in place, keeping the first of
	// each run, writing the leaf-code column every level of the sweep reads.
	err := s.sort.SortWindows(dev.Pool(), keyed, depth, windows, key, func(w, lo, hi int) {
		win, m := &f.wins[w], 0
		for _, k := range keyed[lo:hi] {
			if m == 0 || k.Code != leaves[lo+m-1] {
				keyed[lo+m], leaves[lo+m] = k, k.Code
				m++
			}
		}
		win.lo, win.n, win.err = lo, m, nil
		if sweep {
			win.err = win.tree.sweep(leaves[lo:lo+m], depth, f.cut)
		}
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("paroctree: depth-%d frame: %w", depth, err)
	}
	sortCost := costSortPass // the paper's 8 digit passes
	sortCost.OpsPerItem *= 8
	sortCost.BytesPerItem *= 8
	dev.GPUNoop("MortonGen", n, costMortonGen)
	dev.GPUNoop("RadixSort", n, sortCost)
	dev.GPUNoop("Dedup", n, costDedup)

	// The windows' cut-level nodes, gathered before the compaction moves the
	// leaves they may be.
	if sweep {
		f.cells = f.cells[:0]
		for w := range f.wins {
			if err := f.wins[w].err; err != nil {
				return nil, nil, nil, err
			}
			codes, _ := f.wins[w].tree.Level(f.cut)
			f.cells = append(f.cells, codes...)
		}
	}
	m := 0
	for w := range f.wins {
		if lo, k := f.wins[w].lo, f.wins[w].n; lo != m {
			copy(keyed[m:], keyed[lo:lo+k])
			copy(leaves[m:], leaves[lo:lo+k])
		}
		m += f.wins[w].n
	}
	if !sweep {
		return keyed[:m], leaves[:m], nil, nil
	}
	if err := f.top.sweep(f.cells, f.cut, 0); err != nil {
		return nil, nil, nil, err
	}
	return keyed[:m], leaves[:m], f, nil
}
