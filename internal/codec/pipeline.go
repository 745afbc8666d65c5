package codec

// The two encode phases, the one way a frame is encoded.
//
// EncodeFrame runs both halves of a frame back to back on the encoder's
// device. A pipeline (pcc/stream) calls them itself so that it can
// overlap the geometry encode of frame N+1 with the attribute encode of
// frame N — the frame-granularity analogue of the paper's intra-frame
// parallelism (the geometry half touches no mutable encoder state, while
// the attribute half owns the GOP position and the I-frame reference).

import (
	"fmt"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
)

// GeometryIntermediate carries the geometry phase's output into the
// attribute phase. It is produced by EncodeGeometryOn and consumed exactly
// once by FinishFrame.
type GeometryIntermediate struct {
	// cloud is retained for designs whose encode cannot be split; their
	// whole frame is coded inside FinishFrame.
	cloud *geom.VoxelCloud
	// frame is complete but for Attr, Type and the AttrLen column of its tile
	// and layer directories, which the attribute phase fills.
	frame  *EncodedFrame
	sorted []morton.Keyed
	// stageDelta is the "Geometry" stage cost alone (FrameStats.GeometryTime);
	// phaseDelta additionally includes the optional geometry entropy row.
	stageDelta edgesim.Snapshot
	phaseDelta edgesim.Snapshot
	split      bool
	// gs is the geometry arena backing sorted; FinishFrame returns it to
	// the encoder's free list once the frame is complete.
	gs *geomScratch
	// plan is the frame's partition into units (one unit = untiled). Its
	// slices alias gs and are valid until FinishFrame releases the arena.
	plan tilePlan
}

// Points returns the frame's (deduplicated) point count, or the raw count
// for designs without a split geometry phase.
func (g *GeometryIntermediate) Points() int {
	if g.split {
		return len(g.sorted)
	}
	return g.cloud.Len()
}

// EncodeGeometryOn runs the geometry half of the next frame on dev, which
// may be a different device from the encoder's own (the pipeline gives each
// stage its own device so concurrent stages keep independent ledgers).
//
// For the proposed designs this executes the parallel geometry pipeline;
// the baselines (TMC13, CWIPC) interleave geometry and attribute state, so
// for them this only captures the input and the whole frame is coded in
// FinishFrame. It is safe to call concurrently with FinishFrame of an
// earlier frame.
func (e *Encoder) EncodeGeometryOn(dev *edgesim.Device, vc *geom.VoxelCloud) (*GeometryIntermediate, error) {
	if vc.Len() == 0 {
		return nil, ErrEmptyFrame
	}
	switch e.opts.Design {
	case IntraOnly, IntraInterV1, IntraInterV2:
		return e.proposedGeometry(dev, vc)
	case TMC13, CWIPC:
		return &GeometryIntermediate{cloud: vc}, nil
	default:
		return nil, fmt.Errorf("codec: unknown design %v", e.opts.Design)
	}
}

// FinishFrame completes a frame started by EncodeGeometryOn: it runs the
// attribute half on the encoder's own device, decides I vs P from the GOP
// position, and performs the reference-frame handoff under the encoder's
// lock. Frames MUST be finished in their submission order (P-frames
// predict from the preceding I); only one FinishFrame may run at a time.
func (e *Encoder) FinishFrame(g *GeometryIntermediate) (*EncodedFrame, FrameStats, error) {
	e.applyKnobs()
	isP := e.opts.Design.UsesInter() && e.frameIdx%e.opts.GOP != 0 && e.hasRef()
	if e.takeForceI() {
		isP = false
		e.frameIdx = 0 // restart the GOP so the following frames predict from this I
	}

	var (
		frame     *EncodedFrame
		geomDelta edgesim.Snapshot
		attrDelta edgesim.Snapshot
		total     edgesim.Snapshot
		err       error
	)
	if g.split {
		frame, attrDelta, err = e.proposedAttr(g, isP, e.windowCount())
		e.releaseGeom(g)
		geomDelta = g.stageDelta
		// phaseDelta already contains the geometry stage (plus the optional
		// entropy pass); the frame total is both phases end to end.
		total = edgesim.Snapshot{
			SimTime: g.phaseDelta.SimTime + attrDelta.SimTime,
			EnergyJ: g.phaseDelta.EnergyJ + attrDelta.EnergyJ,
		}
	} else {
		start := e.dev.Snapshot()
		switch e.opts.Design {
		case TMC13:
			frame, geomDelta, attrDelta, err = e.encodeTMC13(g.cloud)
		case CWIPC:
			frame, geomDelta, attrDelta, err = e.encodeCWIPC(g.cloud, isP)
		default:
			return nil, FrameStats{}, fmt.Errorf("codec: unknown design %v", e.opts.Design)
		}
		total = e.dev.Since(start)
	}
	if err != nil {
		return nil, FrameStats{}, err
	}

	st := FrameStats{
		Type:         frame.Type,
		Points:       int(frame.NumPoints),
		SizeBytes:    frame.Size(),
		GeometryTime: geomDelta.SimTime,
		AttrTime:     attrDelta.SimTime,
		TotalTime:    total.SimTime,
		EnergyJ:      total.EnergyJ,
		Inter:        e.lastInterStats,
	}
	e.lastInterStats = interframe.Stats{}
	e.frameIdx++
	e.applyRateControl(st)
	return frame, st, nil
}
