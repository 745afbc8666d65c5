package codec

// Tiles: the frame cut into self-contained units (the viewport fan-out
// tentpole).
//
// A tiled frame partitions the sorted, deduplicated voxel sequence into up
// to Options.Tiles contiguous Morton-key ranges, balanced by point count.
// Each tile is a fully self-contained unit — its own octree subtree stream,
// its own attribute stream, its own (optional) entropy slab — so:
//
//   - both phases fan out over units WITHIN one frame. There is one geometry
//     phase (proposed.go): every frame is units x layers, a tiled frame's
//     units are this file's plan, each running tileGeom.encode, and an
//     untiled frame is the one unit [0, n), written from the windows the
//     sort swept. The attribute phase takes the tiles as its windows and
//     frames each on its own;
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
//
// The tile directory is written by both phases, never at once: geometry
// fills a record's Points, GeomLen and AABB before the hand-off, the
// attribute phase its AttrLen after it.

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

// tilePlan is a frame's partition into units: point-index cuts (len units+1)
// and, for a tiled frame, the matching segment-index windows in the intra
// grid and — for inter designs — the inter grid. The bounds slices are the
// grids themselves (intraBounds over the frame's n for IntraAttr.Segments,
// interBounds for Inter.Segments). An untiled frame is the one unit [0, n)
// and has no windows: the attribute phase cuts its own. All slices alias the
// geometry arena.
type tilePlan struct {
	cuts        []int
	intraSeg    []int
	interSeg    []int
	intraBounds []int
	interBounds []int
}

// units returns the number of units: the tiles, or 1 for an untiled frame.
func (p tilePlan) units() int { return len(p.cuts) - 1 }

// tileGeom is one unit's geometry scratch, indexed by unit in the frame's
// geomScratch: a tile's sweep arena, the raw levels of the slice being
// written, the coder states of its entropy slices, the unit's finished chunk
// — its slices back to back — with the raw bytes that went into it, and what
// the tile's sweep failed with.
type tileGeom struct {
	geo    paroctree.TileScratch
	raw    []byte
	slicer entropy.Slicer
	chunk  []byte
	rawLen int
	err    error
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

// encode is one tile's geometry body, a pool leaf that books nothing: the
// sweep over the tile's leaf range, then its slices (write), entropy slices
// inline.
func (tg *tileGeom) encode(leaves []morton.Code, depth uint, cols int, spans []LayerSpan, entropyOn bool) {
	var t *paroctree.Tree
	if t, tg.err = tg.geo.Sweep(leaves, depth); tg.err == nil {
		tg.write(t, depth, cols, spans, entropyOn, nil)
	}
}

// levels is a swept octree's occupancy stream, level by level: a tile's Tree,
// or the Windows of an untiled frame.
type levels interface {
	AppendLevels(dst []byte, lo, hi uint) []byte
}

// write writes a unit's cols geometry slices from its swept octree t — the
// whole stream when cols is 1, otherwise cut at layerLevels — each as one
// [mode][levels] chunk straight from the per-level masks into the unit's chunk
// buffer. spans is the unit's row of the layer directory (nil when
// unlayered); its GeomLen column is filled here. A mode-2 chunk's entropy
// slices run on fan (inline when nil).
func (tg *tileGeom) write(t levels, depth uint, cols int, spans []LayerSpan, entropyOn bool, fan entropy.Fan) {
	tg.chunk, tg.rawLen = tg.chunk[:0], 0
	base := depth - uint(cols) + 1
	for lay := 0; lay < cols; lay++ {
		lo, hi := layerLevels(base, uint(lay))
		tg.raw = t.AppendLevels(tg.raw[:0], lo, hi)
		tg.rawLen += len(tg.raw)
		at := len(tg.chunk)
		if tg.chunk = appendGeomChunk(tg.chunk, tg.raw, entropyOn, &tg.slicer, fan); spans != nil {
			spans[lay].GeomLen = uint32(len(tg.chunk) - at)
		}
	}
}

// tileRecord returns the tile record of a unit whose leaves and geometry
// chunk length are given: its point count and its AABB in the frame's
// original lattice. AttrLen is left for the attribute phase.
func tileRecord(leaves []morton.Code, frame *EncodedFrame, geomLen int) TileInfo {
	mn, mx, _ := morton.Bounds(leaves)
	if frame.HasRescale {
		vmin := frame.Rescale.Invert(geom.Voxel{X: mn[0], Y: mn[1], Z: mn[2]})
		vmax := frame.Rescale.Invert(geom.Voxel{X: mx[0], Y: mx[1], Z: mx[2]})
		mn = [3]uint32{vmin.X, vmin.Y, vmin.Z}
		mx = [3]uint32{vmax.X, vmax.Y, vmax.Z}
	}
	return TileInfo{Points: uint32(len(leaves)), GeomLen: uint32(geomLen), Min: mn, Max: mx}
}
