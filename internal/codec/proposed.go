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
// octree build scratch and the serialized occupancy buffer. It is pooled by
// the encoder (several geometry phases may run concurrently under the
// pipeline's lookahead) and travels with the GeometryIntermediate until
// FinishFrame consumes the frame.
type geomScratch struct {
	scaled geom.VoxelCloud
	build  paroctree.BuildScratch
	wire   []byte
	// Tiled-path arenas: the two segment grids, the merged common-boundary
	// columns, the chosen cuts, and the per-tile geometry chunk buffers.
	intraBounds []int
	interBounds []int
	comVal      []int
	comIntra    []int
	comInter    []int
	cuts        []int
	cutIntra    []int
	cutInter    []int
	tileGeom    [][]byte
}

// releaseGeom returns a consumed intermediate's arena to the pool. The
// intermediate's sorted view aliases the arena, so it is cleared too.
func (e *Encoder) releaseGeom(g *GeometryIntermediate) {
	if g.gs != nil {
		e.geomPool.Put(g.gs)
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
	frame, attrDelta, err := e.proposedAttr(g, isP)
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
	gs := e.geomPool.Get().(*geomScratch)
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
		e.geomPool.Put(gs)
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

// proposedAttr runs the attribute half on the encoder's own device,
// consuming a proposedGeometry intermediate. It performs the reference
// handoff: I-frames install the reconstructed reference under refMu,
// P-frames read it.
func (e *Encoder) proposedAttr(g *GeometryIntermediate, isP bool) (*EncodedFrame, edgesim.Snapshot, error) {
	frame, sorted := g.frame, g.sorted
	// I-frames of inter designs need the decoder-exact reconstruction as
	// the next reference; the intra encoder produces it as an encode
	// by-product (no decode round-trip).
	needRef := !isP && e.opts.Design.UsesInter()
	if g.plan.tiles() > 0 {
		tf, attrDelta, err := e.tiledAttr(g, isP, needRef)
		if err == nil {
			err = e.layerize(tf, g.sorted)
		}
		if err != nil {
			return nil, edgesim.Snapshot{}, err
		}
		return tf, attrDelta, nil
	}

	var err error
	s1 := e.dev.Snapshot()
	var attrPayload []byte
	e.dev.Stage("Attribute", func() {
		if isP {
			e.pvox = grow(e.pvox, len(sorted))
			for i, k := range sorted {
				e.pvox[i] = k.Voxel
			}
			var st interframe.Stats
			var data []byte
			data, st, err = interframe.EncodePWith(e.dev, e.ref(), e.pvox, e.opts.Inter, &e.interScratch)
			e.lastInterStats = st
			attrPayload = append([]byte{1}, data...)
		} else {
			e.colors = grow(e.colors, len(sorted))
			for i, k := range sorted {
				e.colors[i] = k.Voxel.C
			}
			var reconDst []geom.Color
			if needRef {
				e.recon = grow(e.recon, len(sorted))
				reconDst = e.recon
			}
			var data []byte
			data, err = attr.EncodeWith(e.dev, e.colors, e.opts.IntraAttr, &e.attrScratch, reconDst)
			attrPayload = append([]byte{0}, data...)
		}
	})
	attrDelta := e.dev.Since(s1)
	if err != nil {
		return nil, edgesim.Snapshot{}, err
	}
	frame.Attr = attrPayload
	frame.Type = IFrame
	if isP {
		frame.Type = PFrame
	} else if needRef {
		// Install the reference exactly as the decoder will see it (decoded
		// attributes on the sorted geometry, in rescaled space). Reference
		// storage ping-pongs between two encoder-owned buffers.
		which := e.refWhich
		e.refWhich ^= 1
		ref := grow(e.refBufs[which], len(sorted))
		e.refBufs[which] = ref
		for i, k := range sorted {
			ref[i] = k.Voxel
			ref[i].C = e.recon[i]
		}
		e.setRef(ref)
	}
	if err := e.layerize(frame, sorted); err != nil {
		return nil, edgesim.Snapshot{}, err
	}
	return frame, attrDelta, nil
}
