package codec

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
	"repro/internal/paroctree"
)

// Design selects one of the five evaluated PCC designs.
type Design int

const (
	// TMC13 is the state-of-the-art intra-frame baseline [56].
	TMC13 Design = iota
	// CWIPC is the state-of-the-art inter-frame baseline [13], [48].
	CWIPC
	// IntraOnly is the paper's intra-frame proposal (Sec. IV).
	IntraOnly
	// IntraInterV1 is intra + inter with the quality-oriented threshold.
	IntraInterV1
	// IntraInterV2 is intra + inter with the compression-oriented threshold.
	IntraInterV2
)

// Designs lists all five in the paper's presentation order.
func Designs() []Design { return []Design{TMC13, CWIPC, IntraOnly, IntraInterV1, IntraInterV2} }

func (d Design) String() string {
	switch d {
	case TMC13:
		return "TMC13"
	case CWIPC:
		return "CWIPC"
	case IntraOnly:
		return "Intra-Only"
	case IntraInterV1:
		return "Intra-Inter-V1"
	case IntraInterV2:
		return "Intra-Inter-V2"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// UsesInter reports whether the design codes P-frames.
func (d Design) UsesInter() bool { return d == CWIPC || d == IntraInterV1 || d == IntraInterV2 }

// Options configures an Encoder/Decoder pair.
type Options struct {
	Design Design
	// GOP is the group-of-pictures length for inter designs: 3 means IPP
	// (paper Sec. V-B). 1 forces all-intra.
	GOP int
	// IntraAttr configures the proposed intra attribute codec.
	IntraAttr attr.Params
	// Inter configures the proposed inter-frame codec (threshold etc.).
	Inter interframe.Params
	// RAHTQStep is the baseline RAHT quantization step.
	RAHTQStep float64
	// Lossless disables the proposed geometry pipeline's tight-cuboid
	// rescale (see paroctree.Rescale); the paper's design keeps it on.
	Lossless bool
	// EntropyGeometry adds the optional entropy stage to the proposed
	// geometry stream (the Sec. IV-B3 ablation; default off = fast path).
	EntropyGeometry bool
	// Tiles partitions each proposed-design frame into up to this many
	// spatial tiles (contiguous Morton-key ranges, balanced by point count)
	// that encode as self-contained units fanned out across the worker
	// pool, and that viewers can drop per-viewport without a re-encode.
	// 0 or 1 keeps the untiled path (byte-identical streams); capped at
	// MaxTiles. Baseline designs ignore it.
	Tiles int
	// Layers splits every proposed-design frame (and each tile of a tiled
	// frame) into a base layer plus enhancement layers along the octree's
	// BFS levels, each a self-contained byte range in the container
	// directory, so per-viewer quality becomes a drop decision (see
	// layer.go). 0 or 1 keeps the unlayered format (byte-identical
	// streams); capped at MaxLayers and at the frame depth. Baseline
	// designs ignore it.
	Layers int
	// Adapt optionally attaches the closed-loop congestion controller
	// (ratecontrol.go), the one decider that moves encoder knobs: receiver
	// feedback and local pipeline state steer the reuse threshold,
	// attribute quantization, GOP length and FEC parity overhead. Off,
	// every knob stays at its configured value.
	Adapt AdaptiveRate
}

// OptionsFor returns the paper's configuration for a design (Sec. VI-B).
func OptionsFor(d Design) Options {
	o := Options{
		Design:    d,
		GOP:       3,
		IntraAttr: attr.DefaultParams(),
		RAHTQStep: 2,
	}
	switch d {
	case IntraInterV1:
		o.Inter = interframe.DefaultParamsV1()
	case IntraInterV2:
		o.Inter = interframe.DefaultParamsV2()
	default:
		o.Inter = interframe.DefaultParamsV1()
	}
	return o
}

func (o Options) normalized() Options {
	if o.GOP < 1 {
		o.GOP = 3
	}
	if o.RAHTQStep <= 0 {
		o.RAHTQStep = 1
	}
	if o.IntraAttr.Segments == 0 {
		o.IntraAttr = attr.DefaultParams()
	}
	if o.Inter.Segments == 0 {
		o.Inter = interframe.DefaultParamsV1()
	}
	if o.Tiles < 1 {
		o.Tiles = 1
	}
	if o.Tiles > MaxTiles {
		o.Tiles = MaxTiles
	}
	if o.Layers < 2 {
		o.Layers = 0
	}
	if o.Layers > MaxLayers {
		o.Layers = MaxLayers
	}
	return o
}

// FrameStats reports per-frame encode metrics (feeding Figs. 8a-8c).
type FrameStats struct {
	Type      FrameType
	Points    int
	SizeBytes int64
	// Simulated edge-board time/energy, split by pipeline half.
	GeometryTime time.Duration
	AttrTime     time.Duration
	TotalTime    time.Duration
	EnergyJ      float64
	// Inter holds block-reuse statistics for inter-coded frames.
	Inter interframe.Stats
}

// Encoder encodes a stream of frames under one design.
//
// EncodeFrame is not safe for concurrent use; but the split-phase API
// (EncodeGeometryOn + FinishFrame, see pipeline.go) may run the geometry
// phase of frame N+1 concurrently with the attribute phase of frame N: the
// geometry phase touches no mutable encoder state but the free list of its
// arenas, which refMu guards along with the reference handoff.
//
// For the proposed designs a frame is units x layers — the tiles of a tiled
// frame or the whole frame, by the layers of a layered one or one — and each
// phase writes its stream in that shape once: the one geometry phase every
// unit's geometry slices, with the directories' point counts, AABBs and
// GeomLen; the one attribute phase every unit's attribute bytes, with the
// AttrLen fields geometry left open. An Encoder owns its working memory and
// reuses it from frame to frame: the geometry arenas (a free list, because a
// pipeline runs the next frame's geometry phase beside this frame's attribute
// phase; one travels with each frame between its two phases), one geometry
// scratch per unit in each, and the attribute phase's arena — the frame-wide
// colour columns and planes, the two stages' Columns, and one scratch per
// unit, indexed by unit, never pooled. What
// escapes is the EncodedFrame and its byte slices (Geometry, Attr, the tile
// and layer directories), freshly allocated, the caller's to keep; nothing
// else does, and nothing the Encoder keeps aliases a frame it has returned.
type Encoder struct {
	dev  *edgesim.Device
	opts Options

	// ctrl is the congestion controller (nil unless Options.Adapt.Enabled).
	// Its knob state is copied into opts at each frame boundary by
	// applyKnobs, on the goroutine that owns the attribute phase; the bases
	// below anchor the quality knob so repeated scaling never drifts.
	ctrl       *Controller
	baseIntraQ int
	baseInterQ int

	frameIdx int
	// refMu guards the reference, forceI and geomFree: the reference is
	// written by the attribute phase of I-frames and read by the attribute
	// phase of P-frames, which may race with Reset/ForceIFrame calls from a
	// supervising goroutine; geometry phases take and return arenas beside
	// them.
	refMu sync.Mutex
	// forceI requests that the next frame open a fresh GOP (set by
	// ForceIFrame when a receiver reports reference loss).
	forceI bool
	// The reference P-frames predict from — exactly what the decoder will
	// have, avoiding drift. refSorted is the CWIPC baseline's: the I-frame's
	// sorted voxels. refPlane is the proposed designs': the I-frame's
	// reconstructed colours in sorted order, one interframe.PackColor word
	// per point, the plane the block matcher reads.
	refSorted []geom.Voxel
	refPlane  []uint32
	// geomFree holds the geometry arenas no frame is travelling with.
	geomFree []*geomScratch
	// windows is how many windows both phases cut an untiled frame into:
	// dev.Workers() unless a test sets it (windowCount).
	windows int
	// lastInterStats captures the block-reuse statistics of the most
	// recently encoded inter frame.
	lastInterStats interframe.Stats

	// The attribute phase's arena; the phase is serialized (FinishFrame
	// order), so one of each suffices. units holds one scratch per unit,
	// grown to the most units a frame has had. colors / recon are an
	// I-frame's colour column and its reconstruction, pPack a P-frame's
	// packed colour plane, spare the plane the next I-frame's reference is
	// written into. grid and iGrid are the untiled frame's and the
	// reference's segment grids, attrSize the last I and P attribute sizes
	// (the next buffer's capacity).
	units     []unitEncoder
	intraCols attr.Columns
	interCols interframe.Columns
	colors    []geom.Color
	recon     []geom.Color
	pPack     []uint32
	spare     []uint32
	grid      []int
	iGrid     []int
	attrSize  [2]int
	// layerRuns holds the base-cell run boundaries over one unit's leaves, for
	// a layered frame's base medians.
	layerRuns []int
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// windowCount returns the windows both phases cut an untiled frame into.
func (e *Encoder) windowCount() int {
	if e.windows > 0 {
		return e.windows
	}
	return e.dev.Workers()
}

// NewEncoder creates an encoder running on dev.
func NewEncoder(dev *edgesim.Device, opts Options) *Encoder {
	e := &Encoder{
		dev:  dev,
		opts: opts.normalized(),
	}
	if e.opts.Adapt.Enabled {
		e.baseIntraQ = e.opts.IntraAttr.QStep
		e.baseInterQ = e.opts.Inter.QStep
		e.ctrl = newController(e.opts)
	}
	return e
}

// Device exposes the accounting device (for harnesses).
func (e *Encoder) Device() *edgesim.Device { return e.dev }

// Options returns the normalized options in effect.
func (e *Encoder) Options() Options { return e.opts }

// Reset clears GOP state (e.g. when seeking).
func (e *Encoder) Reset() {
	e.frameIdx = 0
	e.refMu.Lock()
	e.refSorted, e.refPlane = nil, nil
	e.refMu.Unlock()
}

// setRef installs the CWIPC baseline's reference under the handoff lock.
func (e *Encoder) setRef(ref []geom.Voxel) {
	e.refMu.Lock()
	e.refSorted = ref
	e.refMu.Unlock()
}

// ref returns the CWIPC baseline's reference under the handoff lock.
func (e *Encoder) ref() []geom.Voxel {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	return e.refSorted
}

// plane returns the proposed designs' reference under the handoff lock.
func (e *Encoder) plane() []uint32 {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	return e.refPlane
}

// hasRef reports whether an I-frame reference is available.
func (e *Encoder) hasRef() bool {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	return e.refSorted != nil || e.refPlane != nil
}

// ForceIFrame makes the next encoded frame open a fresh GOP (an I-frame)
// regardless of the current GOP position — the sender side of a receiver's
// I-frame refresh request after reference loss. Safe to call from any
// goroutine; it takes effect on the next frame to finish encoding.
//
// It reports whether this call armed the restart: false means a restart was
// already pending, so the request coalesced into it — requests arriving
// between two encodes cost at most one GOP restart however many callers
// (e.g. fan-out viewers) raise them.
func (e *Encoder) ForceIFrame() bool {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	armed := !e.forceI
	e.forceI = true
	return armed
}

// takeForceI consumes a pending ForceIFrame request.
func (e *Encoder) takeForceI() bool {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	v := e.forceI
	e.forceI = false
	return v
}

// ErrEmptyFrame is returned for frames without points.
var ErrEmptyFrame = errors.New("codec: empty frame")

// ErrCorruptFrame reports a frame whose payload is truncated, bit-flipped,
// or otherwise fails validation during decode. The decoder's GOP state is
// left untouched: callers may keep decoding and resync at the next I-frame.
var ErrCorruptFrame = errors.New("codec: corrupt frame payload")

// ErrMissingReference reports a P-frame decoded without its GOP reference
// (the preceding I-frame was lost, corrupt, or skipped). Recovery is to
// skip P-frames until the next I-frame arrives, or to request an I-frame
// refresh from the sender.
var ErrMissingReference = errors.New("codec: P-frame without reference")

// EncodeFrame compresses the next frame of the stream: the two phases of
// pipeline.go back to back, the geometry on the encoder's own device.
func (e *Encoder) EncodeFrame(vc *geom.VoxelCloud) (*EncodedFrame, FrameStats, error) {
	g, err := e.EncodeGeometryOn(e.dev, vc)
	if err != nil {
		return nil, FrameStats{}, err
	}
	return e.FinishFrame(g)
}

// Decoder decodes a stream produced by an Encoder with the same Options.
//
// A Decoder is not safe for concurrent use. For the proposed designs it owns
// its working memory — the frame-wide code and colour columns, the per-unit
// stage scratches and the reference (decode.go) — and reuses it from frame to
// frame; what DecodeFrame returns is freshly allocated, the caller's to keep,
// and never touched by a later decode, and nothing the Decoder keeps aliases
// the frame it was given.
type Decoder struct {
	dev  *edgesim.Device
	opts Options
	// refSorted is the CWIPC baseline's reference: the last decoded I-frame
	// in sorted order.
	refSorted []geom.Voxel

	// The proposed designs' arena. codes and colors are the columns every
	// unit fills its window of; units holds one scratch per unit, grown to
	// the most units a frame has had — tiles, or the windows of an untiled
	// frame, dev.Workers() of them unless a test sets windows; inv is the
	// frame's inverse rescale while its voxels are emitted. ref is the
	// reference of the P-frames that follow — the last I-frame's colour
	// column, valid while hasRef — and trades buffers with colors at every
	// full I-frame.
	codes   []morton.Code
	colors  []geom.Color
	units   []unitDecoder
	windows int
	inv     paroctree.Inverter
	ref     []geom.Color
	hasRef  bool
}

// NewDecoder creates a decoder running on dev.
func NewDecoder(dev *edgesim.Device, opts Options) *Decoder {
	return &Decoder{dev: dev, opts: opts.normalized()}
}

// Device exposes the accounting device.
func (d *Decoder) Device() *edgesim.Device { return d.dev }

// Reset clears reference state.
func (d *Decoder) Reset() { d.refSorted, d.hasRef = nil, false }

// DecodeFrame reconstructs a frame. The returned cloud's voxels are in the
// codec's canonical (Morton-sorted) order.
//
// Every decode failure is typed: errors.Is(err, ErrMissingReference) means
// a P-frame arrived without its GOP reference, and any other failure wraps
// ErrCorruptFrame (truncated or bit-flipped payload, header lies, wrong
// design). A failed decode never mutates reference state, so the decoder
// resyncs cleanly at the next I-frame.
func (d *Decoder) DecodeFrame(f *EncodedFrame) (*geom.VoxelCloud, error) {
	var (
		vc  *geom.VoxelCloud
		err error
	)
	switch d.opts.Design {
	case TMC13:
		vc, err = d.decodeTMC13(f)
	case CWIPC:
		vc, err = d.decodeCWIPC(f)
	case IntraOnly, IntraInterV1, IntraInterV2:
		vc, err = d.decodeProposed(f)
	default:
		return nil, fmt.Errorf("codec: unknown design %v", d.opts.Design)
	}
	if err != nil && !errors.Is(err, ErrMissingReference) && !errors.Is(err, ErrCorruptFrame) {
		err = fmt.Errorf("%w: %w", ErrCorruptFrame, err)
	}
	return vc, err
}
