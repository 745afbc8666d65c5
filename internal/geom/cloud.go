package geom

import (
	"errors"
	"fmt"
	"math"
)

// Cloud is a raw (float-coordinate) point-cloud frame.
type Cloud struct {
	Points []Point
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// Bounds computes the tight bounding box of the cloud.
func (c *Cloud) Bounds() AABB {
	b := EmptyAABB()
	for _, p := range c.Points {
		b.Extend(p)
	}
	return b
}

// RawBytes is the uncompressed size of the frame per the paper's accounting.
func (c *Cloud) RawBytes() int64 { return int64(len(c.Points)) * RawPointBytes }

// VoxelCloud is a voxelized point-cloud frame. Depth is the octree depth of
// the lattice: coordinates lie in [0, 2^Depth). 8iVFB/MVUB use Depth=10
// (1024^3 voxels).
type VoxelCloud struct {
	Depth  uint
	Voxels []Voxel
}

// Len returns the number of voxels.
func (v *VoxelCloud) Len() int { return len(v.Voxels) }

// GridSize returns the lattice side length 2^Depth.
func (v *VoxelCloud) GridSize() uint32 { return 1 << v.Depth }

// RawBytes is the uncompressed size of the frame per the paper's accounting
// (15 bytes/point regardless of voxelization).
func (v *VoxelCloud) RawBytes() int64 { return int64(len(v.Voxels)) * RawPointBytes }

// Clone deep-copies the cloud.
func (v *VoxelCloud) Clone() *VoxelCloud {
	out := &VoxelCloud{Depth: v.Depth, Voxels: make([]Voxel, len(v.Voxels))}
	copy(out.Voxels, v.Voxels)
	return out
}

// Validate checks every voxel lies inside the lattice.
func (v *VoxelCloud) Validate() error {
	limit := v.GridSize()
	for i, vx := range v.Voxels {
		if vx.X >= limit || vx.Y >= limit || vx.Z >= limit {
			return fmt.Errorf("geom: voxel %d at %v outside %d^3 lattice", i, vx, limit)
		}
	}
	return nil
}

// ErrEmptyCloud is returned when an operation needs at least one point.
var ErrEmptyCloud = errors.New("geom: empty point cloud")

// Voxelize quantizes a raw cloud into a 2^depth lattice. Points are scaled
// uniformly so the cloud's largest dimension spans the lattice; points that
// collapse onto the same voxel are deduplicated, keeping the channel-wise
// mean attribute (the standard voxelization used to produce 8iVFB).
func Voxelize(c *Cloud, depth uint) (*VoxelCloud, error) {
	if c.Len() == 0 {
		return nil, ErrEmptyCloud
	}
	if depth == 0 || depth > 21 {
		return nil, fmt.Errorf("geom: depth %d out of range [1,21]", depth)
	}
	for i, p := range c.Points {
		if !isFinite(p.X) || !isFinite(p.Y) || !isFinite(p.Z) {
			return nil, fmt.Errorf("geom: point %d has non-finite coordinates", i)
		}
	}
	b := c.Bounds()
	side := b.MaxSide()
	grid := float64(uint32(1) << depth)
	scale := 1.0
	if side > 0 {
		scale = (grid - 1) / float64(side)
	}

	// One accumulator per occupied voxel, in first-seen order; the map
	// holds indexes into it, so no voxel costs a heap object of its own.
	type accum struct {
		key        uint64
		r, g, b, n uint32
	}
	cells := make(map[uint64]int32, c.Len())
	acc := make([]accum, 0, c.Len())
	coord := func(v, mn float32) uint32 {
		q := int64(float64(v-mn)*scale + 0.5)
		if q < 0 {
			q = 0
		}
		if q >= int64(grid) {
			q = int64(grid) - 1
		}
		return uint32(q)
	}
	for _, p := range c.Points {
		x := coord(p.X, b.MinX)
		y := coord(p.Y, b.MinY)
		z := coord(p.Z, b.MinZ)
		key := uint64(x)<<42 | uint64(y)<<21 | uint64(z)
		i, ok := cells[key]
		if !ok {
			i = int32(len(acc))
			cells[key] = i
			acc = append(acc, accum{key: key})
		}
		a := &acc[i]
		a.r += uint32(p.C.R)
		a.g += uint32(p.C.G)
		a.b += uint32(p.C.B)
		a.n++
	}
	out := &VoxelCloud{Depth: depth, Voxels: make([]Voxel, 0, len(acc))}
	for _, a := range acc {
		out.Voxels = append(out.Voxels, Voxel{
			X: uint32(a.key >> 42 & 0x1FFFFF),
			Y: uint32(a.key >> 21 & 0x1FFFFF),
			Z: uint32(a.key & 0x1FFFFF),
			C: Color{uint8(a.r / a.n), uint8(a.g / a.n), uint8(a.b / a.n)},
		})
	}
	return out, nil
}

func isFinite(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// ToCloud converts a voxel cloud back to float coordinates (identity scale:
// one lattice unit per world unit), e.g. for rendering or metrics.
func (v *VoxelCloud) ToCloud() *Cloud {
	out := &Cloud{Points: make([]Point, len(v.Voxels))}
	for i, vx := range v.Voxels {
		out.Points[i] = Point{X: float32(vx.X), Y: float32(vx.Y), Z: float32(vx.Z), C: vx.C}
	}
	return out
}
