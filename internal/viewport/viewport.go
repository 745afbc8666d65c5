// Package viewport implements viewpoint-dependent transmission in the
// style of ViVo [24], which the paper's related-work section singles out as
// the key volumetric-streaming optimization: "only send the 3D tiles within
// the user's field of view". It composes with the proposed codec's spatial
// tiles: a streaming sender tests each tile's bounding box against the
// viewer's camera (Camera.SeesAABB) and skips the tiles it cannot see.
package viewport

import "math"

// Camera is a simple perspective viewer: position, view direction, and a
// conical field of view.
type Camera struct {
	// Pos is the eye position in lattice coordinates.
	Pos [3]float64
	// Dir is the (not necessarily normalized) view direction.
	Dir [3]float64
	// FOVDegrees is the full cone angle of the view frustum.
	FOVDegrees float64
	// MaxDist culls blocks beyond this distance (0 = unlimited).
	MaxDist float64
}

// sees reports whether the point is inside the camera's cone.
//
// Conventions (shared with SeesAABB, tested in viewport_test.go):
//
//   - the eye position itself is always seen (dist == 0), whatever the
//     FOV — a degenerate camera still "contains" its own origin;
//   - MaxDist is inclusive: a point exactly MaxDist away is seen, one
//     strictly beyond is not (MaxDist <= 0 means unlimited);
//   - a zero-length Dir is an omnidirectional camera: it sees everything
//     within MaxDist, regardless of FOVDegrees;
//   - FOVDegrees >= 360 is a full sphere (sees everything within MaxDist);
//   - FOVDegrees <= 0 is a closed shutter: nothing but the eye itself.
func (c Camera) sees(x, y, z float64) bool {
	dx, dy, dz := x-c.Pos[0], y-c.Pos[1], z-c.Pos[2]
	dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if dist == 0 {
		return true
	}
	if c.MaxDist > 0 && dist > c.MaxDist {
		return false
	}
	dl := math.Sqrt(c.Dir[0]*c.Dir[0] + c.Dir[1]*c.Dir[1] + c.Dir[2]*c.Dir[2])
	if dl == 0 || c.FOVDegrees >= 360 {
		return true
	}
	if c.FOVDegrees <= 0 {
		return false
	}
	cosA := (dx*c.Dir[0] + dy*c.Dir[1] + dz*c.Dir[2]) / (dist * dl)
	return cosA >= math.Cos(c.FOVDegrees/2*math.Pi/180)
}

// SeesAABB reports whether any part of the axis-aligned box [min, max] can
// fall inside the camera's frustum. It is conservative — it may return
// true for a box whose every point is outside the cone, but never false
// for a box that contains a visible point — so a sender can cull a tile on
// a false result without ever dropping visible geometry. The test is O(1)
// per box (tile culling is O(tiles), not O(points)): an exact nearest-point
// distance check against MaxDist, then a sphere-vs-cone test (Eberly) on
// the box's bounding sphere. The sees conventions apply: a camera inside
// the box, a zero-length Dir, and FOV >= 360 all see the box; FOV <= 0
// sees it only when the eye is inside it.
func (c Camera) SeesAABB(min, max [3]float64) bool {
	// Exact nearest point of the box to the eye (the box clamp).
	var near [3]float64
	inside := true
	for i := 0; i < 3; i++ {
		p := c.Pos[i]
		if p < min[i] {
			p = min[i]
			inside = false
		} else if p > max[i] {
			p = max[i]
			inside = false
		}
		near[i] = p
	}
	nx, ny, nz := near[0]-c.Pos[0], near[1]-c.Pos[1], near[2]-c.Pos[2]
	nearDist := math.Sqrt(nx*nx + ny*ny + nz*nz)
	if c.MaxDist > 0 && nearDist > c.MaxDist {
		return false // inclusive boundary: a corner exactly at MaxDist stays
	}
	if inside {
		return true // the eye is in the box: it sees the box by convention
	}
	dl := math.Sqrt(c.Dir[0]*c.Dir[0] + c.Dir[1]*c.Dir[1] + c.Dir[2]*c.Dir[2])
	if dl == 0 || c.FOVDegrees >= 360 {
		return true
	}
	if c.FOVDegrees <= 0 {
		return false
	}
	if c.FOVDegrees >= 180 {
		// The cone covers a half-space or more; a tight test would need the
		// box corners. Conservative: keep the box (it already passed the
		// distance check).
		return true
	}
	// Sphere-vs-cone (Eberly) on the box's bounding sphere. Half angle is
	// in (0°, 90°), so sin and cos are both positive.
	alpha := c.FOVDegrees / 2 * math.Pi / 180
	sinA, cosA := math.Sin(alpha), math.Cos(alpha)
	ax, ay, az := c.Dir[0]/dl, c.Dir[1]/dl, c.Dir[2]/dl
	cx := (min[0] + max[0]) / 2
	cy := (min[1] + max[1]) / 2
	cz := (min[2] + max[2]) / 2
	rx, ry, rz := max[0]-cx, max[1]-cy, max[2]-cz
	r := math.Sqrt(rx*rx + ry*ry + rz*rz)
	// U is the vertex of the cone expanded by r; the sphere centre is in
	// the expanded cone iff the sphere touches the original cone's span.
	ux := c.Pos[0] - ax*(r/sinA)
	uy := c.Pos[1] - ay*(r/sinA)
	uz := c.Pos[2] - az*(r/sinA)
	dx, dy, dz := cx-ux, cy-uy, cz-uz
	dsq := dx*dx + dy*dy + dz*dz
	e := ax*dx + ay*dy + az*dz
	if e > 0 && e*e >= dsq*cosA*cosA {
		dx, dy, dz = cx-c.Pos[0], cy-c.Pos[1], cz-c.Pos[2]
		dsq = dx*dx + dy*dy + dz*dz
		e = -(ax*dx + ay*dy + az*dz)
		if e > 0 && e*e >= dsq*sinA*sinA {
			return dsq <= r*r
		}
		return true
	}
	return false
}
