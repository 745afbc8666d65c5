package paroctree

import (
	"errors"
	"fmt"
	"math/bits"

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
type Levels struct {
	level  uint
	count  [maxLevels]int
	Prefix int
}

// Nodes returns the node count at the depth walked to: the codes Expand
// writes.
func (l *Levels) Nodes() int { return l.count[l.level] }

// ScanLevels is the expander's sizing pass over the first min(level, depth)
// mask levels of stream. It validates what it walks — depth range,
// truncation, zero masks — so nothing is sized for a stream that will not
// expand; bytes behind the last level walked are not read.
func ScanLevels(stream []byte, depth, level uint) (Levels, error) {
	if err := checkDepth(depth); err != nil {
		return Levels{}, err
	}
	lv := Levels{level: min(level, depth)}
	if len(stream) == 0 {
		return lv, nil
	}
	nodes := 1
	for d := uint(0); d < lv.level; d++ {
		if nodes > len(stream)-lv.Prefix {
			return Levels{}, fmt.Errorf("%w: truncated at depth %d", ErrBadStream, d)
		}
		next := 0
		for i, m := range stream[lv.Prefix : lv.Prefix+nodes] {
			if m == 0 {
				return Levels{}, fmt.Errorf("%w: zero mask at depth %d node %d", ErrBadStream, d, i)
			}
			next += bits.OnesCount8(m)
		}
		lv.count[d] = nodes
		lv.Prefix += nodes
		nodes = next
	}
	lv.count[lv.level] = nodes
	return lv, nil
}

// Expand is the one stream expander: it regenerates the node codes, at the
// depth walked to, of the stream l was scanned from, ascending, into dst[:l.Nodes()] — a
// fresh column or a window of the caller's, sized from the sizing pass and
// never written past. The levels are expanded in place, each level
// right-aligned: every node has at least one child, so the write cursor
// (start of the child level plus children so far) never passes the read
// cursor (the next unread parent).
func (l *Levels) Expand(dst []morton.Code, stream []byte) {
	nodes := l.Nodes()
	if nodes == 0 {
		return
	}
	dst = dst[:nodes]
	dst[nodes-1] = 0 // level 0: the root
	for d := uint(0); d < l.level; d++ {
		masks := stream[:l.count[d]]
		stream = stream[len(masks):]
		r, w := nodes-len(masks), nodes-l.count[d+1]
		for _, m := range masks {
			base := dst[r] << 3
			r++
			for ; m != 0; m &= m - 1 {
				dst[w] = base | morton.Code(bits.TrailingZeros8(m))
				w++
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
	lv.Expand(codes, stream)
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
	ident := uint64(1 << 16)
	if vc.Len() == 0 {
		return Rescale{ScaleX: ident, ScaleY: ident, ScaleZ: ident}
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
	scale := ident
	if extent > 0 {
		scale = uint64(grid) << 16 / uint64(extent)
	}
	return Rescale{
		MinX: minX, MinY: minY, MinZ: minZ,
		ScaleX: scale, ScaleY: scale, ScaleZ: scale,
	}
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
