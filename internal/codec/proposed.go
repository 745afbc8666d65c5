package codec

import (
	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
	"repro/internal/paroctree"
)

// Per-point costs of the lattice transforms: the rescale either way, and the
// decoder's code-to-coordinates step (the bit de-interleave MortonGen does
// the other way round, at MortonGen's cost).
var (
	costRescale      = edgesim.Cost{OpsPerItem: 12, BytesPerItem: 16}
	costMortonDecode = edgesim.Cost{OpsPerItem: 12, BytesPerItem: 16}
)

// geomScratch is the per-frame geometry arena: the rescaled cloud, the
// octree build scratch and the serialized occupancy buffer. Several geometry
// phases may run concurrently under the pipeline's lookahead, so the encoder
// keeps a free list of them; one travels with the GeometryIntermediate until
// FinishFrame consumes the frame. Nothing the attribute phase owns lives here,
// and nothing of this lives in the attribute units.
type geomScratch struct {
	scaled geom.VoxelCloud
	build  paroctree.BuildScratch
	wire   []byte
	// Tiled-path arenas: the two segment grids, the merged common-boundary
	// columns, the chosen cuts, and one geometry scratch per tile.
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

// encodeProposed runs the paper's pipelines: parallel geometry always;
// attributes intra (Sec. IV) for I-frames and inter (Sec. V) for P-frames.
func (e *Encoder) encodeProposed(vc *geom.VoxelCloud, isP bool) (*EncodedFrame, edgesim.Snapshot, edgesim.Snapshot, error) {
	g, err := e.proposedGeometry(e.dev, vc)
	if err != nil {
		return nil, edgesim.Snapshot{}, edgesim.Snapshot{}, err
	}
	frame, attrDelta, err := e.proposedAttr(g, isP, e.dev.Workers())
	e.releaseGeom(g)
	if err != nil {
		return nil, edgesim.Snapshot{}, edgesim.Snapshot{}, err
	}
	return frame, g.stageDelta, attrDelta, nil
}

// proposedGeometry runs the geometry half of the proposed pipeline on dev
// (which may be a different device from the attribute phase's when the two
// phases are pipelined across frames). It reads only immutable encoder
// configuration, so it may run concurrently with proposedAttr of an
// earlier frame.
func (e *Encoder) proposedGeometry(dev *edgesim.Device, vc *geom.VoxelCloud) (*GeometryIntermediate, error) {
	var (
		frame   = &EncodedFrame{Depth: uint8(vc.Depth)}
		build   *paroctree.BuildResult
		err     error
		geomRaw []byte
		sorted  []morton.Keyed
		plan    tilePlan
	)
	gs := e.takeGeom()
	tiled := e.opts.Tiles > 1
	s0 := dev.Snapshot()
	dev.Stage("Geometry", func() {
		work := vc
		if !e.opts.Lossless {
			// Tight-cuboid rescale: the source of the parallel pipeline's
			// small geometry loss (Sec. IV-B3).
			r := paroctree.FitRescale(vc)
			frame.HasRescale = true
			frame.Rescale = r
			gs.scaled.Depth = vc.Depth
			gs.scaled.Voxels = grow(gs.scaled.Voxels, vc.Len())
			scaled := &gs.scaled
			dev.GPUKernelIdx("Rescale", vc.Len(), costRescale, func(i int) {
				scaled.Voxels[i] = r.Apply(vc.Voxels[i])
			})
			work = scaled
		}
		if tiled {
			sorted, plan, err = e.tiledGeometry(dev, work, frame, gs)
			return
		}
		build, err = paroctree.BuildWith(dev, work, &gs.build)
		if err != nil {
			return
		}
		gs.wire = build.Tree.SerializeInto(dev, gs.wire)
		geomRaw = gs.wire
	})
	stageDelta := dev.Since(s0)
	if err != nil {
		e.putGeom(gs)
		return nil, err
	}
	if !tiled {
		// Layered frames keep the chunk raw here: entropy moves into the
		// per-layer slices (layer.go), the per-level flush points that make
		// a base-layer prefix decodable on its own.
		if e.opts.EntropyGeometry && e.opts.layersFor(vc.Depth) == 0 {
			// Optional entropy stage (Sec. IV-B3 ablation): ~halves the
			// geometry stream, costs ~100 ms of serial coding at 1 M points.
			out := make([]byte, 1, 64+len(geomRaw)/2)
			out[0] = 1
			dev.CPUSerial("GeomEntropy", len(geomRaw), costEntropyByte, func() {
				out = entropy.AppendCompressBytes(out, geomRaw)
			})
			frame.Geometry = out
		} else {
			frame.Geometry = append([]byte{0}, geomRaw...)
		}
		frame.NumPoints = uint32(len(build.Sorted))
		sorted = build.Sorted
	}
	return &GeometryIntermediate{
		frame:      frame,
		sorted:     sorted,
		stageDelta: stageDelta,
		phaseDelta: dev.Since(s0),
		split:      true,
		gs:         gs,
		plan:       plan,
	}, nil
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
// `windows` contiguous ranges w·nSeg/W (production passes dev.Workers(); an
// empty window is valid) — and one fan-out runs the stage's encode body over
// them, unit w on window w. The stage's framing then appends the result to
// the frame's attribute buffer: one stream over every window, or one
// self-contained stream per tile. The bodies book nothing; the untiled
// framing books the paper's kernels and the tiled path one TileAttr row, from
// counts. It performs the reference handoff: I-frames of inter designs
// install their reconstruction under refMu after the last point the frame
// can fail at, P-frames read it.
func (e *Encoder) proposedAttr(g *GeometryIntermediate, isP bool, windows int) (*EncodedFrame, edgesim.Snapshot, error) {
	frame, sorted, plan, dev := g.frame, g.sorted, g.plan, e.dev
	n := len(sorted)
	// I-frames of inter designs need the decoder-exact reconstruction as
	// the next reference; the intra body produces it as a by-product (no
	// decode round-trip).
	needRef := !isP && e.opts.Design.UsesInter()
	tiled := plan.tiles() > 0
	grid, cuts, segments, mode := plan.intraBounds, plan.intraSeg, e.opts.IntraAttr.Segments, byte(0)
	if isP {
		grid, cuts, segments, mode = plan.interBounds, plan.interSeg, e.opts.Inter.Segments, 1
	}
	if tiled {
		windows = plan.tiles()
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
		if isP {
			ref = e.plane()
			e.pPack = grow(e.pPack, n)
			for i, k := range sorted {
				e.pPack[i] = interframe.PackColor(k.Voxel.C)
			}
			e.iGrid = attr.SegmentBoundsIn(e.iGrid, len(ref), segments)
			e.interCols.Reset(grid, e.iGrid, e.opts.Inter, windows)
		} else {
			e.colors = grow(e.colors, n)
			for i, k := range sorted {
				e.colors[i] = k.Voxel.C
			}
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
		if !tiled {
			if out = append(out, mode); isP {
				out = e.interCols.AppendFrame(dev, out)
			} else {
				out = e.intraCols.AppendFrame(dev, out)
			}
			return
		}
		if isP {
			cost := costTileInterBase
			cand := max(e.opts.Inter.Candidates, 1)
			cost.OpsPerItem += 16 * float64(cand)
			cost.BytesPerItem += 7 * float64(cand)
			dev.GPUNoop("TileAttrInter", n, cost)
		} else {
			dev.GPUNoop("TileAttrIntra", n, costTileIntra)
		}
		for t := range units {
			at := len(out)
			if out = append(out, mode); isP {
				out, err = e.interCols.EncodePTile(out, t)
			} else {
				out, err = e.intraCols.EncodeIntraTile(out, t)
			}
			if err != nil {
				return
			}
			frame.Tiles[t].AttrLen = uint32(len(out) - at)
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
	if err := e.layerize(frame, sorted); err != nil {
		return nil, edgesim.Snapshot{}, err
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
