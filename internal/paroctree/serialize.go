package paroctree

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/morton"
)

var (
	costDecodeScan   = edgesim.Cost{OpsPerItem: 25, BytesPerItem: 2}
	costDecodeExpand = edgesim.Cost{OpsPerItem: 30, BytesPerItem: 10} // per expanded node
)

// Serialize emits the occupancy stream in breadth-first (level) order:
// all depth-0 masks, then depth-1, and so on down to depth Depth-1 (leaf
// nodes carry no mask). Within a level nodes are in ascending Morton order,
// which is exactly the order a level-wise decoder regenerates, so the
// stream is self-describing given the depth.
//
// BFS order (rather than the baseline's DFS) is what makes the DECODER
// parallelizable too (Sec. IV-B3 notes decompression also runs in parallel):
// each level's masks expand independently once the previous level's node
// list is known.
func (t *Tree) Serialize(dev *edgesim.Device) []byte {
	return t.SerializeInto(dev, nil)
}

// SerializeInto is Serialize into a reusable buffer (grown as needed),
// booked as the paper's pack kernel over the nodes that have children.
func (t *Tree) SerializeInto(dev *edgesim.Device, dst []byte) []byte {
	dev.GPUNoop("SerializePack", t.internal, costPack)
	return t.AppendLevels(dst[:0], 0, t.Depth)
}

// ErrBadStream reports a malformed occupancy stream.
var ErrBadStream = errors.New("paroctree: malformed occupancy stream")

// maxLevels is the longest level table ScanLevels fills: one entry per depth
// of the deepest lattice, root and leaves included.
const maxLevels = maxDepth + 1

// Levels is what the expander's sizing pass found in the leading mask levels
// of a BFS occupancy stream: the depth it walked to, the node count at every
// depth up to that one, and Prefix, the stream bytes those mask levels occupy
// — a level's masks start where the levels before it end, one byte per node.
// An empty stream is the empty cloud: every count zero.
//
// The pass also cuts the tree into windows of whole subtrees, which expand
// independently: at the cut level window w owns nodes w·n/W up to
// (w+1)·n/W of the level's n, and at every deeper level the children of those
// nodes — its first node there is the popcount of the masks before its first
// parent. top holds the cut level's nodes, the roots of the windows' subtrees.
// A Levels is reused from stream to stream, so its tables live as long as it.
type Levels struct {
	level  uint
	count  [maxLevels]int
	Prefix int

	cut     uint
	windows int
	cuts    []int // (d-cut)*(windows+1)+w: window w's first node at level d; the row ends with the level's count
	top     []morton.Code
}

// minWindowNodes is how many nodes per window the cut level must hold before
// the pass cuts there: enough subtrees that whole ones split the leaves about
// evenly.
const minWindowNodes = 64

// Nodes returns the node count at the depth walked to: the codes the windows
// expand.
func (l *Levels) Nodes() int { return l.count[l.level] }

// Window returns window w's node range at level d, a level at or above the
// depth walked to. Above the cut every window holds the whole level, and
// w < 0 is the whole level anywhere.
func (l *Levels) Window(w int, d uint) (lo, hi int) {
	if w < 0 || d < l.cut {
		return 0, l.count[d]
	}
	row := l.cuts[int(d-l.cut)*(l.windows+1):]
	return row[w], row[w+1]
}

// ScanLevels is the one-window sizing pass, for the fresh-column front ends.
func ScanLevels(stream []byte, depth, level uint) (Levels, error) {
	var lv Levels
	err := lv.Scan(stream, depth, level, level, 1)
	return lv, err
}

// Scan is the expander's sizing pass over the first min(level, depth) mask
// levels of stream, cutting them into the given number of windows. It
// validates what it walks — depth range, truncation, zero masks — so nothing
// is sized for a stream that will not expand; bytes behind the last level
// walked are not read. The cut level is the first with minWindowNodes nodes
// per window, and never below base, so that every window holds whole cells of
// that level; one window is cut at the root.
func (l *Levels) Scan(stream []byte, depth, level, base uint, windows int) error {
	if err := checkDepth(depth); err != nil {
		return err
	}
	*l = Levels{level: min(level, depth), windows: max(windows, 1), cuts: l.cuts[:0], top: l.top}
	nodes := min(len(stream), 1) // an empty stream is the empty cloud
	for d := uint(0); ; d++ {
		l.count[d] = nodes
		if len(l.cuts) == 0 && (l.windows == 1 || nodes >= minWindowNodes*l.windows || d >= min(base, l.level)) {
			l.cut = d
			l.cuts = slices.Grow(l.cuts, int(l.level-d+1)*(l.windows+1))
			for w := 0; w <= l.windows; w++ {
				l.cuts = append(l.cuts, w*nodes/l.windows)
			}
		}
		if d == l.level {
			break
		}
		if nodes > len(stream)-l.Prefix {
			return fmt.Errorf("%w: truncated at depth %d", ErrBadStream, d)
		}
		// From the cut on the masks are summed window by window, and the sum
		// before a window's first parent is its first child; above it the
		// level is one run.
		masks, row, cut := stream[l.Prefix:l.Prefix+nodes], []int{0, nodes}, len(l.cuts) > 0
		if cut {
			row = l.cuts[len(l.cuts)-l.windows-1:]
		}
		next := 0
		for w := 0; w+1 < len(row); w++ {
			if cut {
				l.cuts = append(l.cuts, next)
			}
			for i, m := range masks[row[w]:row[w+1]] {
				if m == 0 {
					return fmt.Errorf("%w: zero mask at depth %d node %d", ErrBadStream, d, row[w]+i)
				}
				next += bits.OnesCount8(m)
			}
		}
		if cut {
			l.cuts = append(l.cuts, next)
		}
		l.Prefix += nodes
		nodes = next
	}
	if l.cut > 0 && l.Nodes() > 0 {
		l.top = grow(l.top, l.count[l.cut])
		l.top[len(l.top)-1] = 0 // level 0: the root
		l.expand(l.top, stream, -1, 0, l.cut)
	}
	return nil
}

// Expand is the one stream expander: it regenerates window w's node codes,
// at the depth walked to, of the stream l was scanned from, ascending, into
// dst[:hi-lo] for the window's range [lo, hi) — a fresh column or a window of
// the caller's, sized from the sizing pass and never written past. Windows
// write disjoint columns and only read l and stream, so they may expand
// concurrently.
func (l *Levels) Expand(dst []morton.Code, stream []byte, w int) {
	lo, hi := l.Window(w, l.level)
	n := hi - lo
	if n == 0 {
		return
	}
	dst = dst[:n]
	if a, b := l.Window(w, l.cut); l.cut == 0 {
		dst[n-1] = 0 // the root
	} else {
		copy(dst[n-(b-a):], l.top[a:b])
	}
	l.expand(dst, stream, w, l.cut, l.level)
}

// expand regenerates window w's nodes of level to from its nodes of level
// from, which sit at the end of dst. The levels are expanded in place, each
// level right-aligned: every node has at least one child, so the write cursor
// (start of the child level plus children so far) never passes the read
// cursor (the next unread parent).
func (l *Levels) expand(dst []morton.Code, stream []byte, w int, from, to uint) {
	off := 0
	for d := uint(0); d < from; d++ {
		off += l.count[d]
	}
	n := len(dst)
	for d := from; d < to; d++ {
		lo, hi := l.Window(w, d)
		masks := stream[off+lo : off+hi]
		off += l.count[d]
		clo, chi := l.Window(w, d+1)
		r, wr := n-len(masks), n-(chi-clo)
		for _, m := range masks {
			base := dst[r] << 3
			r++
			for ; m != 0; m &= m - 1 {
				dst[wr] = base | morton.Code(bits.TrailingZeros8(m))
				wr++
			}
		}
	}
}

// Book books the paper's parallel decode path for the levels scanned: a
// serial per-level offset scan over the prefix ("sub-optimal", Sec. IV-B3,
// ~70 ms/frame end-to-end for Redandblack), then the expansion kernels.
func (l *Levels) Book(dev *edgesim.Device) {
	dev.CPUSerial("DecodeScan", l.Prefix, costDecodeScan, func() {})
	l.bookExpand(dev)
}

// bookExpand books one DecodeExpand launch per mask level over its node
// count: every node of a level expands independently.
func (l *Levels) bookExpand(dev *edgesim.Device) {
	for d := uint(0); d < l.level; d++ {
		dev.GPUNoop("DecodeExpand", l.count[d], costDecodeExpand)
	}
}

// Deserialize reconstructs the leaf Morton codes from a whole BFS occupancy
// stream into a fresh column: a front end that sizes, allocates and expands,
// refusing bytes behind the last level before anything is allocated.
func Deserialize(dev *edgesim.Device, stream []byte, depth uint) ([]morton.Code, error) {
	lv, err := ScanLevels(stream, depth, depth)
	if err == nil && lv.Prefix != len(stream) {
		err = fmt.Errorf("%w: %d trailing bytes", ErrBadStream, len(stream)-lv.Prefix)
	}
	if err != nil || lv.Nodes() == 0 {
		return nil, err
	}
	lv.Book(dev)
	codes := make([]morton.Code, lv.Nodes())
	lv.Expand(codes, stream, 0)
	return codes, nil
}

// Rescale models the quality cost of the paper's parallel pipeline
// (Sec. IV-B3): the parallel build computes a tight per-axis bounding
// cuboid and maps it onto the lattice, so decoded coordinates can shift
// slightly relative to the original lattice (their Fig. 5 example decodes
// P0 = [0,0,0] as [-0.43,0,0]). Applying Rescale before building and
// InverseRescale after decoding reproduces this sub-voxel geometry error
// (keeping geometry PSNR high but finite, >70 dB at depth 10).
type Rescale struct {
	MinX, MinY, MinZ uint32
	// Per-axis scales mapping original coordinates into the tight cuboid
	// (fixed-point, 16 fractional bits). FitRescale uses one UNIFORM scale
	// (the paper's cuboid is translated and fit by its longest side, Fig. 5
	// — stretching the short axes independently would inflate the octree's
	// occupied-node count and hurt the compressed size); the three fields
	// exist so the container format also supports anisotropic transforms.
	ScaleX, ScaleY, ScaleZ uint64
}

// FitRescale computes the tight-cuboid transform for a cloud.
func FitRescale(vc *geom.VoxelCloud) Rescale {
	if vc.Len() == 0 {
		return IdentityRescale()
	}
	minX, minY, minZ := ^uint32(0), ^uint32(0), ^uint32(0)
	var maxX, maxY, maxZ uint32
	for _, v := range vc.Voxels {
		minX = min(minX, v.X)
		minY = min(minY, v.Y)
		minZ = min(minZ, v.Z)
		maxX = max(maxX, v.X)
		maxY = max(maxY, v.Y)
		maxZ = max(maxZ, v.Z)
	}
	grid := (uint32(1) << vc.Depth) - 1
	extent := max(maxX-minX, max(maxY-minY, maxZ-minZ))
	scale := uint64(1 << 16)
	if extent > 0 {
		scale = uint64(grid) << 16 / uint64(extent)
	}
	return Rescale{
		MinX: minX, MinY: minY, MinZ: minZ,
		ScaleX: scale, ScaleY: scale, ScaleZ: scale,
	}
}

// IdentityRescale returns the transform that maps every voxel to itself: a
// lossless frame's.
func IdentityRescale() Rescale {
	const ident = 1 << 16
	return Rescale{ScaleX: ident, ScaleY: ident, ScaleZ: ident}
}

// Identity reports whether the transform is a no-op.
func (r Rescale) Identity() bool {
	const ident = 1 << 16
	return r.MinX == 0 && r.MinY == 0 && r.MinZ == 0 &&
		r.ScaleX == ident && r.ScaleY == ident && r.ScaleZ == ident
}

func applyAxis(c, mn uint32, scale uint64) uint32 {
	return uint32((uint64(c-mn)*scale + 1<<15) >> 16)
}

// Apply maps a voxel into the tight cuboid lattice (round-to-nearest).
func (r Rescale) Apply(v geom.Voxel) geom.Voxel {
	return geom.Voxel{
		X: applyAxis(v.X, r.MinX, r.ScaleX),
		Y: applyAxis(v.Y, r.MinY, r.ScaleY),
		Z: applyAxis(v.Z, r.MinZ, r.ScaleZ),
		C: v.C,
	}
}

// Invert maps a tight-lattice voxel back to original coordinates
// (round-to-nearest; the source of the sub-voxel error). Whole columns go
// through one Inverter.
func (r Rescale) Invert(v geom.Voxel) geom.Voxel {
	inv := r.Inverter()
	v.X, v.Y, v.Z = inv.Invert(v.X, v.Y, v.Z)
	return v
}

// Inverter is a Rescale's inverse with the per-axis work hoisted out of the
// per-point loop: each axis inverts as mn + (c<<16 + scale/2) / scale, a
// division by a divisor that is constant for the frame, which an exact
// multiply by its reciprocal replaces.
type Inverter struct{ x, y, z axisInverter }

// axisInverter divides x = c<<16 + scale/2 by scale as q = hi64(x × m) with
// m = floor((2^64−1) / scale), corrected upwards. m ≤ 2^64/scale, so q never
// overshoots; and it falls short of the quotient by less than
// x × (scale+1) / (scale × 2^64), which is below 1 for every x the 16.16
// format can produce (c < 2^32 puts x under 2^48 + scale/2, so the shortfall
// is under 2^-15 + (scale+1)/2^65 ≤ 1/2 + 2^-15): one correction step is
// always enough.
type axisInverter struct {
	min      uint32
	scale, m uint64 // divisor and reciprocal
}

func newAxisInverter(mn uint32, scale uint64) axisInverter {
	return axisInverter{min: mn, scale: scale, m: ^uint64(0) / scale}
}

func (a *axisInverter) invert(c uint32) uint32 {
	x := uint64(c)<<16 + a.scale/2
	q, _ := bits.Mul64(x, a.m)
	for x-q*a.scale >= a.scale {
		q++
	}
	return a.min + uint32(q)
}

// Inverter prepares the transform's inverse for a column of voxels.
func (r Rescale) Inverter() Inverter {
	return Inverter{
		x: newAxisInverter(r.MinX, r.ScaleX),
		y: newAxisInverter(r.MinY, r.ScaleY),
		z: newAxisInverter(r.MinZ, r.ScaleZ),
	}
}

// Invert maps tight-lattice coordinates back to original coordinates.
func (inv *Inverter) Invert(x, y, z uint32) (uint32, uint32, uint32) {
	return inv.x.invert(x), inv.y.invert(y), inv.z.invert(z)
}
