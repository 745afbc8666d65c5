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
	return t.appendStream(dst[:0])
}

// ErrBadStream reports a malformed occupancy stream.
var ErrBadStream = errors.New("paroctree: malformed occupancy stream")

// scanLevels is the expander's sizing pass over the first `level` mask
// levels of a BFS occupancy stream: off[d] is the byte offset of level d's
// masks (so off[d+1]-off[d] is the node count at depth d, and off[level]
// the prefix consumed) and nodes the node count at depth level. It
// validates what it walks — depth range, truncation, zero masks — so
// nothing is allocated for a stream that will not expand. An empty stream
// is the empty cloud: nodes == 0.
func scanLevels(stream []byte, depth, level uint) (off []int, nodes int, err error) {
	if err := checkDepth(depth); err != nil {
		return nil, 0, err
	}
	off = make([]int, level+1)
	if len(stream) == 0 {
		return off, 0, nil
	}
	nodes = 1
	for d := uint(0); d < level; d++ {
		pos := off[d]
		if nodes > len(stream)-pos {
			return nil, 0, fmt.Errorf("%w: truncated at depth %d", ErrBadStream, d)
		}
		next := 0
		for i, m := range stream[pos : pos+nodes] {
			if m == 0 {
				return nil, 0, fmt.Errorf("%w: zero mask at depth %d node %d", ErrBadStream, d, i)
			}
			next += bits.OnesCount8(m)
		}
		off[d+1] = pos + nodes
		nodes = next
	}
	return off, nodes, nil
}

// LevelOffsets returns each level's first byte offset in a whole BFS
// occupancy stream: off[d] is where depth d's masks start (depth+1 entries,
// off[depth] == len(stream)), plus the leaf count. This is how a consumer
// finds the per-level cut points without retaining any octree state.
// Truncation, zero masks and trailing bytes are ErrBadStream.
func LevelOffsets(stream []byte, depth uint) (off []int, leaves int, err error) {
	off, leaves, err = scanLevels(stream, depth, depth)
	if err == nil && off[depth] != len(stream) {
		err = fmt.Errorf("%w: %d trailing bytes", ErrBadStream, len(stream)-off[depth])
	}
	return off, leaves, err
}

// expand is the one stream expander: given scanLevels' offsets and final
// node count it regenerates the depth-(len(off)-1) node codes, ascending.
// The levels are expanded in place in the one output buffer, each level
// right-aligned: every node has at least one child, so the write cursor
// (start of the child level plus children so far) never passes the read
// cursor (the next unread parent).
func expand(stream []byte, off []int, nodes int) []morton.Code {
	if nodes == 0 {
		return nil
	}
	buf := make([]morton.Code, nodes) // buf[nodes-1] is level 0: the root, code 0
	for d := 0; d+1 < len(off); d++ {
		masks := stream[off[d]:off[d+1]]
		next := nodes
		if d+2 < len(off) {
			next = off[d+2] - off[d+1]
		}
		r, w := nodes-len(masks), nodes-next
		for _, m := range masks {
			base := buf[r] << 3
			r++
			for ; m != 0; m &= m - 1 {
				b := bits.TrailingZeros8(m)
				buf[w] = base | morton.Code(b)
				w++
			}
		}
	}
	return buf
}

// bookExpand books the decode direction's kernels for the levels off
// describes: one DecodeExpand launch per mask level over its node count.
func bookExpand(dev *edgesim.Device, off []int) {
	for d := 0; d+1 < len(off); d++ {
		dev.GPUNoop("DecodeExpand", off[d+1]-off[d], costDecodeExpand)
	}
}

// Deserialize reconstructs the leaf Morton codes from a whole BFS
// occupancy stream. The device ledger records the paper's parallel decode
// path: a serial per-level offset scan ("sub-optimal", Sec. IV-B3, ~70
// ms/frame end-to-end for Redandblack), then one expansion kernel per
// level in which every node expands independently.
func Deserialize(dev *edgesim.Device, stream []byte, depth uint) ([]morton.Code, error) {
	off, leaves, err := LevelOffsets(stream, depth)
	if err != nil || leaves == 0 {
		return nil, err
	}
	dev.CPUSerial("DecodeScan", len(stream), costDecodeScan, func() {})
	bookExpand(dev, off)
	return expand(stream, off, leaves), nil
}

// CodesToVoxels decodes Morton leaf codes into voxel positions (attributes
// zeroed; the attribute decoder fills them in).
func CodesToVoxels(dev *edgesim.Device, codes []morton.Code, depth uint) []geom.Voxel {
	out := make([]geom.Voxel, len(codes))
	dev.GPUKernel("MortonDecode", len(codes), costMortonGen, func(lo, hi int) {
		morton.DecodeVoxels(out[lo:hi], codes[lo:hi])
	})
	return out
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

func invertAxis(c, mn uint32, scale uint64) uint32 {
	return mn + uint32((uint64(c)<<16+scale/2)/scale)
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
// (round-to-nearest; the source of the sub-voxel error).
func (r Rescale) Invert(v geom.Voxel) geom.Voxel {
	return geom.Voxel{
		X: invertAxis(v.X, r.MinX, r.ScaleX),
		Y: invertAxis(v.Y, r.MinY, r.ScaleY),
		Z: invertAxis(v.Z, r.MinZ, r.ScaleZ),
		C: v.C,
	}
}
