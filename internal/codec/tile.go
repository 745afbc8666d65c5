package codec

// Tile-parallel encode (the viewport fan-out tentpole).
//
// A tiled frame partitions the sorted, deduplicated voxel sequence into up
// to Options.Tiles contiguous Morton-key ranges, balanced by point count.
// Each tile is a fully self-contained unit — its own octree subtree stream,
// its own attribute stream, its own (optional) entropy slab — so:
//
//   - the geometry phase fans one subtree serialization per tile across the
//     persistent worker pool WITHIN one frame; the attribute phase
//     (proposed.go) takes the tiles as its windows and frames each on its
//     own;
//   - the streaming layer can drop or coarsen individual tiles per viewer
//     (viewport culling) without touching the encoder, because every
//     remaining tile still decodes on its own.
//
// Tile cuts snap to the INTERSECTION of the intra and inter attribute
// segment grids: the frame's I/P decision happens in the attribute phase,
// after the cuts are fixed, so a cut must be a macro-block boundary of
// both grids. Per-segment (and per-block) coding is independent, which
// makes tiled attribute streams decode-exact against the untiled codec —
// the canonical invariant pinned by the differential tests.

import (
	"sort"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/morton"
	"repro/internal/paroctree"
)

// Calibrated tiled-path kernel costs (per point). A tiled frame books one
// row per stage in place of the untiled LevelBuild/Occupy/Pack (geometry)
// and MidResidual/PackBits (attributes) kernels, for the same aggregate
// work, so the per-point costs mirror the untiled totals.
var (
	costTileGeom      = edgesim.Cost{OpsPerItem: 180, BytesPerItem: 18}
	costTileIntra     = edgesim.Cost{OpsPerItem: 1500, BytesPerItem: 80}
	costTileGeomDec   = edgesim.Cost{OpsPerItem: 120, BytesPerItem: 12}
	costTileAttrDec   = edgesim.Cost{OpsPerItem: 180, BytesPerItem: 14}
	costTileInterBase = edgesim.Cost{OpsPerItem: 1200, BytesPerItem: 30} // + Candidates-proportional match term
)

// tilePlan is a frame's tile partition: point-index cuts (len tiles+1) and
// the matching segment-index windows in the intra grid and — for inter
// designs — the inter grid. The bounds slices are the grids themselves
// (intraBounds over the frame's n for IntraAttr.Segments, interBounds for
// Inter.Segments). All slices alias the geometry arena.
type tilePlan struct {
	cuts        []int
	intraSeg    []int
	interSeg    []int
	intraBounds []int
	interBounds []int
}

// tiles returns the number of tiles (0 = untiled frame).
func (p tilePlan) tiles() int {
	if len(p.cuts) == 0 {
		return 0
	}
	return len(p.cuts) - 1
}

// tileGeom is one tile's geometry scratch, indexed by tile in the frame's
// geomScratch: the subtree serializer's arena, the raw stream when the
// entropy stage follows, the finished chunk and what the tile failed with.
type tileGeom struct {
	geo   paroctree.TileScratch
	raw   []byte
	chunk []byte
	err   error
}

// planTilesIn partitions n sorted points into at most tiles contiguous
// ranges balanced by point count, with every cut snapped to the nearest
// boundary shared by the intra segment grid and (for inter designs) the
// inter segment grid. Snapping may merge adjacent targets, so the plan can
// hold fewer tiles than requested — never more, never an empty tile.
func planTilesIn(gs *geomScratch, n, tiles, segIntra, segInter int, useInter bool) tilePlan {
	gs.intraBounds = attr.SegmentBoundsIn(gs.intraBounds, n, segIntra)
	ib := gs.intraBounds
	plan := tilePlan{intraBounds: ib}

	// Common boundaries of the two grids, with their indices in each.
	cv := gs.comVal[:0]
	ci := gs.comIntra[:0]
	cj := gs.comInter[:0]
	if useInter {
		gs.interBounds = attr.SegmentBoundsIn(gs.interBounds, n, segInter)
		jb := gs.interBounds
		plan.interBounds = jb
		for i, j := 0, 0; i < len(ib) && j < len(jb); {
			switch {
			case ib[i] == jb[j]:
				cv = append(cv, ib[i])
				ci = append(ci, i)
				cj = append(cj, j)
				i++
				j++
			case ib[i] < jb[j]:
				i++
			default:
				j++
			}
		}
	} else {
		for i, v := range ib {
			cv = append(cv, v)
			ci = append(ci, i)
		}
	}
	gs.comVal, gs.comIntra, gs.comInter = cv, ci, cj

	cuts := gs.cuts[:0]
	cutI := gs.cutIntra[:0]
	cutJ := gs.cutInter[:0]
	for t := 0; t <= tiles; t++ {
		target := t * n / tiles
		k := sort.SearchInts(cv, target)
		if k >= len(cv) {
			k = len(cv) - 1
		} else if k > 0 && target-cv[k-1] <= cv[k]-target {
			k--
		}
		if len(cuts) > 0 && cv[k] <= cuts[len(cuts)-1] {
			continue
		}
		cuts = append(cuts, cv[k])
		cutI = append(cutI, ci[k])
		if useInter {
			cutJ = append(cutJ, cj[k])
		}
	}
	gs.cuts, gs.cutIntra, gs.cutInter = cuts, cutI, cutJ
	plan.cuts = cuts
	plan.intraSeg = cutI
	if useInter {
		plan.interSeg = cutJ
	}
	return plan
}

// tiledGeometry is the geometry half of the tiled encode: sort + dedup via
// the parallel front half of the octree pipeline, plan the cuts, then fan
// one self-contained subtree serialization per tile across the pool. It
// fills frame.Tiles (AttrLen left for the attribute phase), frame.Geometry
// and frame.NumPoints.
func (e *Encoder) tiledGeometry(dev *edgesim.Device, work *geom.VoxelCloud, frame *EncodedFrame, gs *geomScratch) ([]morton.Keyed, tilePlan, error) {
	sorted, leaves, err := paroctree.SortWith(dev, work, &gs.build)
	if err != nil {
		return nil, tilePlan{}, err
	}
	n := len(leaves)
	plan := planTilesIn(gs, n, e.opts.Tiles, e.opts.IntraAttr.Segments, e.opts.Inter.Segments, e.opts.Design.UsesInter())
	nT := plan.tiles()
	for len(gs.tiles) < nT {
		gs.tiles = append(gs.tiles, tileGeom{})
	}
	tiles := gs.tiles[:nT]
	frame.Tiles = make([]TileInfo, nT)
	infos := frame.Tiles
	depth := work.Depth
	// Layered frames keep per-tile chunks raw: entropy moves into the
	// per-layer slices (layer.go).
	entropyOn := e.opts.EntropyGeometry && e.opts.layersFor(depth) == 0
	hasR, resc := frame.HasRescale, frame.Rescale
	dev.GPUCompute("TileGeometry", n, costTileGeom, func() {
		dev.ParallelFor(nT, func(t0, t1 int) {
			for t := t0; t < t1; t++ {
				tg := &tiles[t]
				lo, hi := plan.cuts[t], plan.cuts[t+1]
				seg := leaves[lo:hi]
				if entropyOn {
					if tg.raw, tg.err = tg.geo.SerializeSubtree(seg, depth, tg.raw[:0]); tg.err != nil {
						continue
					}
					tg.chunk = entropy.AppendCompressBytes(append(tg.chunk[:0], 1), tg.raw)
				} else if tg.chunk, tg.err = tg.geo.SerializeSubtree(seg, depth, append(tg.chunk[:0], 0)); tg.err != nil {
					continue
				}
				mn, mx, _ := morton.Bounds(seg)
				if hasR {
					vmin := resc.Invert(geom.Voxel{X: mn[0], Y: mn[1], Z: mn[2]})
					vmax := resc.Invert(geom.Voxel{X: mx[0], Y: mx[1], Z: mx[2]})
					mn = [3]uint32{vmin.X, vmin.Y, vmin.Z}
					mx = [3]uint32{vmax.X, vmax.Y, vmax.Z}
				}
				infos[t] = TileInfo{Points: uint32(hi - lo), GeomLen: uint32(len(tg.chunk)), Min: mn, Max: mx}
			}
		})
	})
	total := 0
	for t := range tiles {
		if tiles[t].err != nil {
			return nil, tilePlan{}, tiles[t].err
		}
		total += len(tiles[t].chunk)
	}
	out := make([]byte, 0, total)
	for t := range tiles {
		out = append(out, tiles[t].chunk...)
	}
	frame.Geometry = out
	frame.NumPoints = uint32(n)
	return sorted, plan, nil
}
