package dataset

import (
	"math"

	"repro/internal/geom"
)

// Sparse LiDAR-like regime. The dense photogrammetry videos of Table I put
// ~10^6 points on contiguous body surfaces — a high-occupancy lattice where
// octree nodes are crowded with siblings. Automotive scans (KITTI, Ford —
// the regime SparsePCGC targets) are the opposite extreme: a spinning
// scanner sweeps rings over a mostly-empty scene, so the same 1024^3 lattice
// holds 10-100x fewer points per occupied region. Codecs tuned on the dense
// regime lose their sibling-context advantages here, which is why the bench
// sweep carries a sparse row next to the dense ones.
//
// The synthetic scanner is HDL-64-like: 64 elevation rings cast over a full
// azimuth revolution against a deterministic street scene (ground plane,
// box obstacles for cars/buildings, thin poles), with ego-motion along Z so
// consecutive frames overlap but do not repeat.

const (
	lidarRings  = 64
	lidarMinEl  = -24.8 * math.Pi / 180
	lidarMaxEl  = 8.0 * math.Pi / 180
	lidarRange  = 620.0 // voxels; beyond this the return is dropped
	lidarHeight = 140.0 // sensor height above ground (voxels)
	// lidarDropout is the fraction of returns lost to specular surfaces and
	// low reflectivity (deterministic per ray). Together with the tall mount
	// and the wide elevation fan it keeps the near-field ground annuli from
	// deduplicating into crowded rings, preserving the regime's signature
	// low per-block density.
	lidarDropout = 0.22
)

// lidarBox is an axis-aligned obstacle (car, building block).
type lidarBox struct {
	min, max vec
	shade    uint8
}

// lidarScene holds the static geometry one seed generates.
type lidarScene struct {
	boxes []lidarBox
}

// lidarSceneFor builds the deterministic street scene for a seed: a corridor
// of building slabs along both sides, parked-car boxes near the lanes, and
// pole obstacles. Coordinates are lattice voxels; the scene tiles the full
// 1024-range in Z so ego-motion keeps finding geometry.
func lidarSceneFor(seed uint32) lidarScene {
	var sc lidarScene
	h := func(i, j int) uint32 { return hash2(seed, i, j) }
	// Building slabs: two rows flanking the road at |x-512| ~ 300-420.
	for i := 0; i < 14; i++ {
		z0 := float64(i) * 74
		for side, sign := range []float64{-1, 1} {
			r := h(i, 100+side)
			depth := 60 + float64(r%60)
			height := 90 + float64((r>>8)%160)
			x0 := 512 + sign*(390+float64((r>>16)%100))
			sc.boxes = append(sc.boxes, lidarBox{
				min:   vec{math.Min(x0, x0+sign*depth), 0, z0},
				max:   vec{math.Max(x0, x0+sign*depth), height, z0 + 58 + float64(r%16)},
				shade: uint8(90 + r%90),
			})
		}
	}
	// Cars: scattered boxes near the lanes.
	for i := 0; i < 22; i++ {
		r := h(i, 200)
		x := 512 + float64(int(r%360)) - 180
		z := float64((r >> 9) % 1024)
		sc.boxes = append(sc.boxes, lidarBox{
			min:   vec{x, 0, z},
			max:   vec{x + 42, 16 + float64(r%8), z + 20},
			shade: uint8(60 + (r>>16)%150),
		})
	}
	// Poles: thin tall boxes along the curbs.
	for i := 0; i < 30; i++ {
		r := h(i, 300)
		x := 512 + float64(int(r%480)) - 240
		z := float64((r >> 10) % 1024)
		sc.boxes = append(sc.boxes, lidarBox{
			min:   vec{x, 0, z},
			max:   vec{x + 3, 70 + float64(r%50), z + 3},
			shade: uint8(40 + r%60),
		})
	}
	return sc
}

// lidarCopy is one Z-wrapped copy of a box, shifted against the ego
// position, with its corners taken relative to the sensor.
type lidarCopy struct {
	lo, hi vec
	// bound is a lower bound on any ray parameter at which a unit ray
	// from the sensor can enter the copy: its distance from the sensor,
	// shrunk by a relative 1e-9 to absorb the rounding of the slab
	// divisions, of the distance itself and of |d| around 1.
	bound float64
	shade uint8
}

// lidarCopies returns the box copies a ray from origin can hit within
// lidarRange at ego position egoZ, in the scan order the caster resolves
// ties by: box by box, each at Z wraps 0, +1024, -1024.
//
// Casting against this list returns the same (best, shade) for every ray
// that yields a point as casting against all 3 x len(boxes) copies:
//   - The copies are shifted by the same float expressions, in the same
//     order, and (lo - origin) is the subtraction the slab test made per
//     ray, so every surviving copy gives the same hit parameter as before.
//   - A dropped copy's hit parameter is at least its bound, beyond
//     lidarRange: had it been the nearest hit, best would have exceeded
//     lidarRange and the ray yielded no point either way.
//   - A copy the caster skips because its bound is at least the current
//     best could not have passed the strict th < best test, and the scan
//     order is kept, so ties resolve to the same copy as before.
func lidarCopies(boxes []lidarBox, origin vec, egoZ float64) []lidarCopy {
	shift := math.Mod(egoZ, 1024)
	out := make([]lidarCopy, 0, 3*len(boxes))
	for _, b := range boxes {
		minZ, maxZ := b.min.Z-shift, b.max.Z-shift
		for _, wrap := range [3]float64{0, 1024, -1024} {
			c := lidarCopy{
				lo:    vec{b.min.X, b.min.Y, minZ + wrap}.sub(origin),
				hi:    vec{b.max.X, b.max.Y, maxZ + wrap}.sub(origin),
				shade: b.shade,
			}
			gap := vec{slabGap(c.lo.X, c.hi.X), slabGap(c.lo.Y, c.hi.Y), slabGap(c.lo.Z, c.hi.Z)}
			c.bound = gap.norm() * (1 - 1e-9)
			if c.bound > lidarRange {
				continue
			}
			out = append(out, c)
		}
	}
	return out
}

// slabGap is the distance from 0 to the interval [lo, hi] along one axis.
func slabGap(lo, hi float64) float64 {
	if lo > 0 {
		return lo
	}
	if hi < 0 {
		return -hi
	}
	return 0
}

// rayBox returns the nearest positive ray parameter at which the ray from
// the sensor along d enters the box with sensor-relative corners lo and hi,
// or +Inf. Standard slab intersection; rays are cast in open air so the
// sensor is never inside a box.
func rayBox(d, lo, hi vec) float64 {
	tmin, tmax := 0.0, math.Inf(1)
	ok := slab(&tmin, &tmax, d.X, lo.X, hi.X) &&
		slab(&tmin, &tmax, d.Y, lo.Y, hi.Y) &&
		slab(&tmin, &tmax, d.Z, lo.Z, hi.Z)
	if !ok || tmin <= 0 {
		return math.Inf(1)
	}
	return tmin
}

// slab narrows [tmin, tmax] to the parameters where the ray lies between
// the planes lo and hi of one axis (dc is the ray's component along it) and
// reports whether anything is left.
func slab(tmin, tmax *float64, dc, lo, hi float64) bool {
	if dc == 0 {
		return lo <= 0 && hi >= 0
	}
	t0, t1 := lo/dc, hi/dc
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	if t0 > *tmin {
		*tmin = t0
	}
	if t1 < *tmax {
		*tmax = t1
	}
	return *tmin <= *tmax
}

// lidarFrame casts one full revolution at frame t. The azimuth resolution
// comes from the generator's calibrated density (total ray budget), so the
// same Scale semantics apply as for the body videos.
func (g *Generator) lidarFrame(t int) (*geom.VoxelCloud, error) {
	s := g.Spec
	scene := lidarSceneFor(s.Seed)
	nAz := int(g.density/lidarRings) + 1
	salt := frameSalt(t)

	// Ego-motion: constant forward speed along Z (scene geometry wraps via
	// the modulo placement above), plus a gentle yaw drift.
	egoZ := 1.7 * float64(t)
	yaw := 0.0025 * float64(t)
	origin := vec{512, lidarHeight, 200}
	copies := lidarCopies(scene.boxes, origin, egoZ)

	cloud := &geom.Cloud{Points: make([]geom.Point, 0, lidarRings*nAz)}
	for ring := 0; ring < lidarRings; ring++ {
		el := lidarMinEl + (lidarMaxEl-lidarMinEl)*float64(ring)/float64(lidarRings-1)
		sinEl, cosEl := math.Sin(el), math.Cos(el)
		for a := 0; a < nAz; a++ {
			// Reflectivity dropout depends on the ray alone; a dropped
			// ray yields nothing whatever it hits, so skip the cast.
			if float64(hash2(salt^0x51ED, ring, a)%1024)/1024 < lidarDropout {
				continue
			}
			az := yaw + 2*math.Pi*float64(a)/float64(nAz)
			d := vec{cosEl * math.Cos(az), sinEl, cosEl * math.Sin(az)}

			best := math.Inf(1)
			shade := uint8(0)
			if d.Y < 0 { // ground return
				best = -origin.Y / d.Y
				shade = 120
			}
			for i := range copies {
				c := &copies[i]
				if c.bound >= best {
					continue
				}
				if th := rayBox(d, c.lo, c.hi); th < best {
					best = th
					shade = c.shade
				}
			}
			if math.IsInf(best, 1) || best > lidarRange {
				continue // no return inside range
			}
			// Range noise, deterministic per (ring, azimuth, frame).
			n := noise(salt, ring, a) * s.SensorNoise
			r := best + n
			p := origin.add(d.scale(r))
			if shade == 120 {
				// Ground roughness (gravel, grass): vertical scatter that
				// breaks the annuli out of a single voxel layer.
				p.Y += 1.5 + 1.5*noise(salt^0x7A3B, ring, a)
			}
			if p.Y < 0 {
				p.Y = 0
			}
			// LiDAR carries intensity, not RGB: encode it as gray with a
			// little per-return noise so the attribute coders see realistic
			// low-entropy residuals.
			gray := uint8(math.Max(0, math.Min(255, float64(shade)+2*noise(salt^0x9E37, ring, a))))
			cloud.Points = append(cloud.Points, geom.Point{
				X: float32(p.X), Y: float32(p.Y), Z: float32(p.Z),
				C: geom.Color{R: gray, G: gray, B: gray},
			})
		}
	}
	return geom.Voxelize(cloud, Depth)
}
