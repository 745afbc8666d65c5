// Package geom provides the fundamental point-cloud data types used across
// the compression pipelines: points, colours, axis-aligned bounding boxes,
// voxel grids, and whole point clouds.
//
// The paper's pipelines operate on voxelized point clouds: each frame is
// quantized into a cubic lattice (1024^3 for 8iVFB/MVUB), every occupied
// lattice cell ("voxel") carries an RGB attribute. This package keeps both
// representations: float32 world coordinates for capture/render, and
// unsigned voxel coordinates for compression.
package geom

import (
	"fmt"
	"math"
)

// Color is an 8-bit-per-channel RGB attribute, as stored by 8iVFB/MVUB.
type Color struct {
	R, G, B uint8
}

// Luma returns the BT.601 luma of the colour in [0,255]. Attribute PSNR in
// the paper (and in MPEG's pc_error) is commonly reported on luma.
func (c Color) Luma() float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// Add returns the channel-wise saturating sum of c and the signed delta
// (dr, dg, db).
func (c Color) Add(dr, dg, db int) Color {
	return Color{clampU8(int(c.R) + dr), clampU8(int(c.G) + dg), clampU8(int(c.B) + db)}
}

// Sub returns the signed channel-wise difference c - o.
func (c Color) Sub(o Color) (dr, dg, db int) {
	return int(c.R) - int(o.R), int(c.G) - int(o.G), int(c.B) - int(o.B)
}

// Dist2 returns the squared Euclidean distance between two colours in RGB
// space; this is the per-point term of the paper's 2-norm attribute distance
// (Equ. 2).
func (c Color) Dist2(o Color) int {
	dr, dg, db := c.Sub(o)
	return dr*dr + dg*dg + db*db
}

func clampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Point is a single captured point: float world coordinates plus an RGB
// attribute. One point costs 3*4 + 3*1 = 15 bytes raw, matching the paper's
// raw-size accounting (Sec. II-A).
type Point struct {
	X, Y, Z float32
	C       Color
}

// RawPointBytes is the uncompressed storage cost of one point (Sec. II-A:
// 4 bytes per coordinate, 1 byte per colour channel).
const RawPointBytes = 15

// Voxel is a quantized point: unsigned lattice coordinates plus attribute.
// The compression pipelines operate exclusively on voxels.
type Voxel struct {
	X, Y, Z uint32
	C       Color
}

// Dist2 returns the squared Euclidean distance between the lattice positions
// of two voxels.
func (v Voxel) Dist2(o Voxel) float64 {
	dx := float64(v.X) - float64(o.X)
	dy := float64(v.Y) - float64(o.Y)
	dz := float64(v.Z) - float64(o.Z)
	return dx*dx + dy*dy + dz*dz
}

// String implements fmt.Stringer for debugging.
func (v Voxel) String() string {
	return fmt.Sprintf("(%d,%d,%d)#%02x%02x%02x", v.X, v.Y, v.Z, v.C.R, v.C.G, v.C.B)
}

// AABB is an axis-aligned bounding box over float coordinates.
type AABB struct {
	MinX, MinY, MinZ float32
	MaxX, MaxY, MaxZ float32
}

// EmptyAABB returns a box that contains nothing; Extend-ing it with the
// first point initializes it.
func EmptyAABB() AABB {
	inf := float32(math.Inf(1))
	return AABB{inf, inf, inf, -inf, -inf, -inf}
}

// Empty reports whether the box contains no volume (never extended).
func (b AABB) Empty() bool {
	return b.MinX > b.MaxX
}

// Extend grows the box to include p.
func (b *AABB) Extend(p Point) {
	b.MinX = min(b.MinX, p.X)
	b.MinY = min(b.MinY, p.Y)
	b.MinZ = min(b.MinZ, p.Z)
	b.MaxX = max(b.MaxX, p.X)
	b.MaxY = max(b.MaxY, p.Y)
	b.MaxZ = max(b.MaxZ, p.Z)
}

// Contains reports whether p lies inside the closed box.
func (b AABB) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX &&
		p.Y >= b.MinY && p.Y <= b.MaxY &&
		p.Z >= b.MinZ && p.Z <= b.MaxZ
}

// Size returns the side lengths of the box; zero for an empty box.
func (b AABB) Size() (dx, dy, dz float32) {
	if b.Empty() {
		return 0, 0, 0
	}
	return b.MaxX - b.MinX, b.MaxY - b.MinY, b.MaxZ - b.MinZ
}

// MaxSide returns the largest side length.
func (b AABB) MaxSide() float32 {
	dx, dy, dz := b.Size()
	return max(dx, max(dy, dz))
}
