package codec

// Tile-parallel encode (the viewport fan-out tentpole).
//
// A tiled frame partitions the sorted, deduplicated voxel sequence into up
// to Options.Tiles contiguous Morton-key ranges, balanced by point count.
// Each tile is a fully self-contained unit — its own octree subtree stream,
// its own attribute stream, its own (optional) entropy slab — so:
//
//   - the encoder fans the per-tile bodies across the persistent worker
//     pool WITHIN one frame, parallelizing exactly the stages that stay
//     serial in the untiled path (occupancy serialization's offset scan,
//     per-frame entropy coding, stream assembly);
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
	"errors"
	"sort"
	"sync"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
	"repro/internal/paroctree"
)

// Calibrated tiled-path kernel costs (per point). The fan-out replaces the
// untiled LevelBuild/Occupy/Pack (geometry) and MidResidual/PackBits
// (attributes) kernels with per-tile serial bodies of the same aggregate
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

// tileWorker bundles the per-worker-slot serial scratch arenas for the
// tile fan-out (one of each kind; pooled so concurrent tiles never share).
type tileWorker struct {
	geo   paroctree.TileScratch
	raw   []byte
	att   attr.TileScratch
	inter interframe.PTileScratch
}

var tileWorkerPool = sync.Pool{New: func() any { return new(tileWorker) }}

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
	if cap(gs.tileGeom) < nT {
		gs.tileGeom = make([][]byte, nT)
	}
	gs.tileGeom = gs.tileGeom[:nT]
	chunks := gs.tileGeom
	frame.Tiles = make([]TileInfo, nT)
	infos := frame.Tiles
	errs := make([]error, nT)
	depth := work.Depth
	// Layered frames keep per-tile chunks raw: entropy moves into the
	// per-layer slices (layer.go).
	entropyOn := e.opts.EntropyGeometry && e.opts.layersFor(depth) == 0
	hasR, resc := frame.HasRescale, frame.Rescale
	dev.GPUCompute("TileGeometry", n, costTileGeom, func() {
		dev.ParallelFor(nT, func(t0, t1 int) {
			ws := tileWorkerPool.Get().(*tileWorker)
			for t := t0; t < t1; t++ {
				lo, hi := plan.cuts[t], plan.cuts[t+1]
				seg := leaves[lo:hi]
				chunk := chunks[t][:0]
				if entropyOn {
					ws.raw, errs[t] = ws.geo.SerializeSubtree(seg, depth, ws.raw[:0])
					if errs[t] != nil {
						continue
					}
					chunk = append(chunk, 1)
					chunk = entropy.AppendCompressBytes(chunk, ws.raw)
				} else {
					chunk = append(chunk, 0)
					chunk, errs[t] = ws.geo.SerializeSubtree(seg, depth, chunk)
					if errs[t] != nil {
						continue
					}
				}
				chunks[t] = chunk
				mn, mx, _ := morton.Bounds(seg)
				if hasR {
					vmin := resc.Invert(geom.Voxel{X: mn[0], Y: mn[1], Z: mn[2]})
					vmax := resc.Invert(geom.Voxel{X: mx[0], Y: mx[1], Z: mx[2]})
					mn = [3]uint32{vmin.X, vmin.Y, vmin.Z}
					mx = [3]uint32{vmax.X, vmax.Y, vmax.Z}
				}
				infos[t] = TileInfo{Points: uint32(hi - lo), GeomLen: uint32(len(chunk)), Min: mn, Max: mx}
			}
			tileWorkerPool.Put(ws)
		})
	})
	for _, terr := range errs {
		if terr != nil {
			return nil, tilePlan{}, terr
		}
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]byte, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	frame.Geometry = out
	frame.NumPoints = uint32(n)
	return sorted, plan, nil
}

// tiledAttr is the attribute half of the tiled encode: one self-contained
// intra (I) or inter (P) attribute stream per tile, fanned across the pool,
// then concatenated behind the directory. The per-tile streams carry the
// GLOBAL grids, so their decoded values are exactly the untiled codec's.
func (e *Encoder) tiledAttr(g *GeometryIntermediate, isP, needRef bool) (*EncodedFrame, edgesim.Snapshot, error) {
	frame, sorted, plan := g.frame, g.sorted, g.plan
	n := len(sorted)
	nT := plan.tiles()
	chunks := make([][]byte, nT)
	errs := make([]error, nT)
	dev := e.dev
	var err error
	s1 := dev.Snapshot()
	dev.Stage("Attribute", func() {
		if isP {
			ref := e.ref()
			if len(ref) == 0 {
				err = errors.New("interframe: empty reference frame")
				return
			}
			// Both colour planes are packed here, once per frame, and never
			// kept across frames: the reference buffers ping-pong, so the
			// same slice holds another I-frame two GOPs on.
			e.pPack = grow(e.pPack, n)
			for i, k := range sorted {
				e.pPack[i] = interframe.PackColor(k.Voxel.C)
			}
			e.iPack = grow(e.iPack, len(ref))
			for i := range ref {
				e.iPack[i] = interframe.PackColor(ref[i].C)
			}
			iPack, pPack := e.iPack, e.pPack
			inter := e.opts.Inter
			e.iBounds = attr.SegmentBoundsIn(e.iBounds, len(ref), inter.Segments)
			iBounds := e.iBounds
			stats := make([]interframe.Stats, nT)
			cost := costTileInterBase
			cand := inter.Candidates
			if cand < 1 {
				cand = 1
			}
			cost.OpsPerItem += 16 * float64(cand)
			cost.BytesPerItem += 7 * float64(cand)
			dev.GPUCompute("TileAttrInter", n, cost, func() {
				dev.ParallelFor(nT, func(t0, t1 int) {
					ws := tileWorkerPool.Get().(*tileWorker)
					for t := t0; t < t1; t++ {
						stream, st, terr := interframe.EncodePTile(iPack, pPack, inter,
							plan.interBounds, iBounds,
							plan.interSeg[t], plan.interSeg[t+1]-plan.interSeg[t], &ws.inter)
						if terr != nil {
							errs[t] = terr
							continue
						}
						stats[t] = st
						chunks[t] = append([]byte{1}, stream...)
					}
					tileWorkerPool.Put(ws)
				})
			})
			var sum interframe.Stats
			for _, st := range stats {
				sum.Blocks += st.Blocks
				sum.DirectReuse += st.DirectReuse
				sum.DeltaBlocks += st.DeltaBlocks
			}
			e.lastInterStats = sum
		} else {
			e.colors = grow(e.colors, n)
			for i, k := range sorted {
				e.colors[i] = k.Voxel.C
			}
			colors := e.colors
			var recon []geom.Color
			if needRef {
				e.recon = grow(e.recon, n)
				recon = e.recon
			}
			intra := e.opts.IntraAttr
			dev.GPUCompute("TileAttrIntra", n, costTileIntra, func() {
				dev.ParallelFor(nT, func(t0, t1 int) {
					ws := tileWorkerPool.Get().(*tileWorker)
					for t := t0; t < t1; t++ {
						lo, hi := plan.cuts[t], plan.cuts[t+1]
						var rsl []geom.Color
						if recon != nil {
							rsl = recon[lo:hi]
						}
						stream, terr := attr.EncodeIntraTile(colors[lo:hi], intra, n,
							plan.intraBounds,
							plan.intraSeg[t], plan.intraSeg[t+1]-plan.intraSeg[t], &ws.att, rsl)
						if terr != nil {
							errs[t] = terr
							continue
						}
						chunks[t] = append([]byte{0}, stream...)
					}
					tileWorkerPool.Put(ws)
				})
			})
		}
	})
	attrDelta := dev.Since(s1)
	if err == nil {
		for _, terr := range errs {
			if terr != nil {
				err = terr
				break
			}
		}
	}
	if err != nil {
		return nil, edgesim.Snapshot{}, err
	}
	total := 0
	for t, c := range chunks {
		frame.Tiles[t].AttrLen = uint32(len(c))
		total += len(c)
	}
	payload := make([]byte, 0, total)
	for _, c := range chunks {
		payload = append(payload, c...)
	}
	frame.Attr = payload
	frame.Type = IFrame
	if isP {
		frame.Type = PFrame
	} else if needRef {
		which := e.refWhich
		e.refWhich ^= 1
		ref := grow(e.refBufs[which], n)
		e.refBufs[which] = ref
		for i, k := range sorted {
			ref[i] = k.Voxel
			ref[i].C = e.recon[i]
		}
		e.setRef(ref)
	}
	return frame, attrDelta, nil
}
