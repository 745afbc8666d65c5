package codec

import (
	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/paroctree"
)

// Per-point costs of the lattice transforms: the rescale either way, and the
// decoder's code-to-coordinates step (the bit de-interleave MortonGen does
// the other way round, at MortonGen's cost).
var (
	costRescale      = edgesim.Cost{OpsPerItem: 12, BytesPerItem: 16}
	costMortonDecode = edgesim.Cost{OpsPerItem: 12, BytesPerItem: 16}
)

// geomScratch is the per-frame geometry arena: the sort's arena — its cell
// histograms, window cuts, local sort buffers and per-window trees — the unit
// partition and one geometry scratch per tile. A pipeline runs the next
// frame's geometry phase beside this frame's attribute phase, so the encoder
// keeps a free list of them; one travels with the GeometryIntermediate until
// FinishFrame consumes the frame. Nothing the attribute phase owns lives here,
// and nothing of this lives in the attribute units.
type geomScratch struct {
	build paroctree.BuildScratch
	// The tile planner's arenas — the two segment grids and the merged
	// common-boundary columns — then the chosen cuts (the frame's unit ranges,
	// tiled or not) and one geometry scratch per unit.
	intraBounds []int
	interBounds []int
	comVal      []int
	comIntra    []int
	comInter    []int
	cuts        []int
	cutIntra    []int
	cutInter    []int
	tiles       []tileGeom
}

// takeGeom hands out a geometry arena: a free one, or a new one when every
// arena is travelling with a frame.
func (e *Encoder) takeGeom() *geomScratch {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	if n := len(e.geomFree); n > 0 {
		gs := e.geomFree[n-1]
		e.geomFree = e.geomFree[:n-1]
		return gs
	}
	return new(geomScratch)
}

// putGeom returns an arena to the free list.
func (e *Encoder) putGeom(gs *geomScratch) {
	e.refMu.Lock()
	e.geomFree = append(e.geomFree, gs)
	e.refMu.Unlock()
}

// releaseGeom returns a consumed intermediate's arena to the free list. The
// intermediate's sorted view aliases the arena, so it is cleared too.
func (e *Encoder) releaseGeom(g *GeometryIntermediate) {
	if g.gs != nil {
		e.putGeom(g.gs)
		g.gs = nil
		g.sorted = nil
	}
}

// proposedGeometry runs the geometry half of the proposed pipeline on dev
// (which may be a different device from the attribute phase's when the two
// phases are pipelined across frames): one Geometry stage (geometryStage),
// then the optional entropy stage's row. It reads only immutable encoder
// configuration, so it may run concurrently with proposedAttr of an earlier
// frame.
func (e *Encoder) proposedGeometry(dev *edgesim.Device, vc *geom.VoxelCloud) (*GeometryIntermediate, error) {
	g := &GeometryIntermediate{frame: &EncodedFrame{Depth: uint8(vc.Depth)}, split: true, gs: e.takeGeom()}
	var (
		raw int
		err error
	)
	s0 := dev.Snapshot()
	dev.Stage("Geometry", func() { raw, err = e.geometryStage(dev, vc, g) })
	g.stageDelta = dev.Since(s0)
	if err != nil {
		e.releaseGeom(g)
		return nil, err
	}
	if e.opts.EntropyGeometry {
		// Optional entropy stage (Sec. IV-B3 ablation): ~halves the geometry
		// stream. The units ran it chunk by chunk — an untiled frame's chunks
		// over entropy.SliceBytes as equal slices across the cores, a tile's
		// inline in its pool leaf; the paper's board codes it serially, so it
		// is booked once per frame, on one core, over the raw bytes of every
		// unit.
		dev.CPUSerial("GeomEntropy", raw, costEntropyByte, func() {})
	}
	g.phaseDelta = dev.Since(s0)
	return g, nil
}

// geometryStage writes g's frame as units x layers, whatever its shape. One
// SortWith rescales, keys, sorts and dedups the frame as windows of whole
// cells, one per core; the frame's units are then the tile plan's ranges, or
// the one range [0, n). An untiled frame's windows also sweep their leaves in
// SortWith, so its one unit only writes its geometry slices from the swept
// windows (tileGeom.write); a tiled frame fans out over its tiles, every tile
// sweeping its own leaf range and writing its slices (tileGeom.encode). Then
// one concatenation into frame.Geometry. It fills the tile records and the
// layer directory but for their AttrLen, which the attribute phase owns, and
// returns the raw occupancy bytes the units wrote. Nothing in the windows or
// the units books; the stage books from counts, once per frame: the rescale
// row, SortWith's kernels, then the paper's build and pack kernels off the
// windows of an untiled frame or one TileGeometry row over a tiled one.
func (e *Encoder) geometryStage(dev *edgesim.Device, vc *geom.VoxelCloud, g *GeometryIntermediate) (raw int, err error) {
	frame, gs := g.frame, g.gs
	r := paroctree.IdentityRescale()
	if !e.opts.Lossless {
		// Tight-cuboid rescale: the source of the parallel pipeline's
		// small geometry loss (Sec. IV-B3), applied in SortWith's key pass.
		r = paroctree.FitRescale(vc)
		frame.HasRescale = true
		frame.Rescale = r
		dev.GPUNoop("Rescale", vc.Len(), costRescale)
	}
	tiled := e.opts.Tiles > 1
	sorted, leaves, windows, err := paroctree.SortWith(dev, vc, r, e.windowCount(), !tiled, &gs.build)
	if err != nil {
		return 0, err
	}
	n, depth := len(leaves), vc.Depth
	gs.cuts = append(gs.cuts[:0], 0, n)
	plan := tilePlan{cuts: gs.cuts}
	if tiled {
		plan = planTilesIn(gs, n, e.opts.Tiles, e.opts.IntraAttr.Segments, e.opts.Inter.Segments, e.opts.Design.UsesInter())
		frame.Tiles = make([]TileInfo, plan.units())
	}
	cols := max(e.opts.layersFor(depth), 1)
	if cols > 1 {
		frame.Layer = newLayerDir(plan.units(), cols, depth)
	}
	spans := func(u int) []LayerSpan {
		if frame.Layer == nil {
			return nil
		}
		return frame.Layer.Units[u]
	}
	for len(gs.tiles) < plan.units() {
		gs.tiles = append(gs.tiles, tileGeom{})
	}
	tiles := gs.tiles[:plan.units()]
	if tiled {
		dev.ParallelFor(len(tiles), func(u0, u1 int) {
			for u := u0; u < u1; u++ {
				tg, seg := &tiles[u], leaves[plan.cuts[u]:plan.cuts[u+1]]
				if tg.encode(seg, depth, cols, spans(u), e.opts.EntropyGeometry); tg.err == nil {
					frame.Tiles[u] = tileRecord(seg, frame, len(tg.chunk))
				}
			}
		})
		for u := range tiles {
			if err := tiles[u].err; err != nil {
				return 0, err
			}
		}
		dev.GPUNoop("TileGeometry", n, costTileGeom)
	} else {
		tiles[0].write(windows, depth, cols, spans(0), e.opts.EntropyGeometry, dev.ParallelFor)
		windows.Book(dev)
	}
	total := 0
	for u := range tiles {
		total += len(tiles[u].chunk)
		raw += tiles[u].rawLen
	}
	frame.Geometry = make([]byte, 0, total)
	for u := range tiles {
		frame.Geometry = append(frame.Geometry, tiles[u].chunk...)
	}
	frame.NumPoints = uint32(n)
	g.sorted, g.plan = sorted, plan
	return raw, nil
}

// unitEncoder is one unit's encode scratch: the two attribute stages' working
// memory, the reuse statistics of the unit's P-blocks and what its body
// failed with. Units encode concurrently, each with the scratch its index
// names — the mirror of unitDecoder.
type unitEncoder struct {
	intra attr.Scratch
	inter interframe.EncodeScratch
	stats interframe.Stats
	err   error
}

// proposedAttr is the attribute phase, run on the encoder's own device over a
// proposedGeometry intermediate: intra (Sec. IV) for I-frames, inter (Sec. V)
// for P-frames, tiled or not. The frame is cut into windows of the stage's
// own segment grid — the tile plan's when the frame is tiled, otherwise
// `windows` contiguous ranges w·nSeg/W (production passes windowCount(); an
// empty window is valid) — and one fan-out runs the stage's encode body over
// them, unit w on window w. The stage's framing then appends each unit of the
// frame to the attribute buffer in directory order — on a layered frame its
// base medians first — as one stream over every window, or one self-contained
// stream per tile, and closes the AttrLen fields the geometry phase left
// open. The bodies book nothing; the untiled framing books the paper's
// kernels and the tiled path one TileAttr row, from counts. It performs the
// reference handoff: I-frames of inter designs install their reconstruction
// under refMu after the last point the frame can fail at, P-frames read it.
func (e *Encoder) proposedAttr(g *GeometryIntermediate, isP bool, windows int) (*EncodedFrame, edgesim.Snapshot, error) {
	frame, sorted, plan, dev := g.frame, g.sorted, g.plan, e.dev
	n := len(sorted)
	// I-frames of inter designs need the decoder-exact reconstruction as
	// the next reference; the intra body produces it as a by-product (no
	// decode round-trip).
	needRef := !isP && e.opts.Design.UsesInter()
	tiled, ld := frame.Tiled(), frame.Layer
	grid, cuts, segments, mode := plan.intraBounds, plan.intraSeg, e.opts.IntraAttr.Segments, byte(0)
	if isP {
		grid, cuts, segments, mode = plan.interBounds, plan.interSeg, e.opts.Inter.Segments, 1
	}
	if tiled {
		windows = plan.units()
	} else {
		e.grid = attr.SegmentBoundsIn(e.grid, n, segments)
		grid = e.grid
	}
	cut := func(w int) int {
		if tiled {
			return cuts[w]
		}
		return w * (len(grid) - 1) / windows
	}
	for len(e.units) < windows {
		e.units = append(e.units, unitEncoder{})
	}
	units := e.units[:windows]
	hint := &e.attrSize[mode]
	out := make([]byte, 0, *hint+*hint/8+64)

	var err error
	s1 := dev.Snapshot()
	dev.Stage("Attribute", func() {
		var ref []uint32
		if !isP || ld != nil {
			// The colour column: the intra body's input, the base medians'.
			e.colors = grow(e.colors, n)
			for i, k := range sorted {
				e.colors[i] = k.Voxel.C
			}
		}
		if isP {
			ref = e.plane()
			e.pPack = grow(e.pPack, n)
			for i, k := range sorted {
				e.pPack[i] = interframe.PackColor(k.Voxel.C)
			}
			e.iGrid = attr.SegmentBoundsIn(e.iGrid, len(ref), segments)
			e.interCols.Reset(grid, e.iGrid, e.opts.Inter, windows)
		} else {
			if needRef {
				e.recon = grow(e.recon, n)
			}
			e.intraCols.Reset(grid, e.opts.IntraAttr, windows)
		}
		dev.ParallelFor(windows, func(w0, w1 int) {
			for w := w0; w < w1; w++ {
				u, lo, hi := &units[w], cut(w), cut(w+1)
				if isP {
					u.stats, u.err = u.inter.EncodeWindow(&e.interCols, w, ref, e.pPack, lo, hi-lo)
					continue
				}
				var recon []geom.Color
				if needRef {
					recon = e.recon[grid[lo]:grid[hi]]
				}
				u.err = u.intra.EncodeWindow(&e.intraCols, w, e.colors[grid[lo]:grid[hi]], lo, hi-lo, recon)
			}
		})
		var sum interframe.Stats
		for w := range units {
			if err = units[w].err; err != nil {
				return
			}
			sum.Blocks += units[w].stats.Blocks
			sum.DirectReuse += units[w].stats.DirectReuse
			sum.DeltaBlocks += units[w].stats.DeltaBlocks
		}
		if isP {
			e.lastInterStats = sum
		}
		if tiled && isP {
			cost := costTileInterBase
			cand := max(e.opts.Inter.Candidates, 1)
			cost.OpsPerItem += 16 * float64(cand)
			cost.BytesPerItem += 7 * float64(cand)
			dev.GPUNoop("TileAttrInter", n, cost)
		} else if tiled {
			dev.GPUNoop("TileAttrIntra", n, costTileIntra)
		}
		for u := 0; u < plan.units(); u++ {
			at, lo, hi := len(out), plan.cuts[u], plan.cuts[u+1]
			if ld != nil {
				out = e.appendBaseLayer(out, ld, sorted[lo:hi], e.colors[lo:hi], &units[0].intra)
				ld.Units[u][0].AttrLen = uint32(len(out) - at)
			}
			top := len(out)
			switch out = append(out, mode); {
			case !tiled && isP:
				out = e.interCols.AppendFrame(dev, out)
			case !tiled:
				out = e.intraCols.AppendFrame(dev, out)
			case isP:
				out, err = e.interCols.EncodePTile(out, u)
			default:
				out, err = e.intraCols.EncodeIntraTile(out, u)
			}
			if err != nil {
				return
			}
			if ld != nil {
				ld.Units[u][ld.Layers-1].AttrLen = uint32(len(out) - top)
			}
			if tiled {
				frame.Tiles[u].AttrLen = uint32(len(out) - at)
			}
		}
	})
	attrDelta := dev.Since(s1)
	if err != nil {
		return nil, edgesim.Snapshot{}, err
	}
	*hint = len(out)
	frame.Attr = out
	frame.Type = IFrame
	if isP {
		frame.Type = PFrame
	}
	if needRef {
		// Install the reference exactly as the decoder will see it — the
		// decoded attributes, in sorted order — as the packed plane the
		// matcher reads. The plane it replaces becomes the next I-frame's.
		next := grow(e.spare, n)
		for i, c := range e.recon {
			next[i] = interframe.PackColor(c)
		}
		e.refMu.Lock()
		e.refPlane, e.spare = next, e.refPlane
		e.refMu.Unlock()
	}
	return frame, attrDelta, nil
}
