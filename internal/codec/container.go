// Package codec assembles the building blocks into the five end-to-end
// designs the paper evaluates (Sec. VI-B):
//
//	TMC13        — BASELINE intra: sequential octree geometry (lossless,
//	               entropy coded) + RAHT attributes.
//	CWIPC        — BASELINE inter: sequential octree geometry per frame +
//	               macro-block-tree motion estimation on 4 CPU threads;
//	               attributes entropy-coded raw.
//	IntraOnly    — CONTRIBUTION intra: Morton-parallel octree geometry +
//	               segment Base+Deltas attributes (2-layer, no entropy).
//	IntraInterV1 — IntraOnly for I-frames + inter-frame block-match
//	               attribute compression for P-frames at the
//	               quality-oriented reuse threshold (the paper's "300").
//	IntraInterV2 — same at the compression-oriented threshold ("1200").
//
// Frames are coded in an IPP group-of-pictures (one I followed by two P,
// Sec. V-B) for the inter designs; intra designs treat every frame as I.
//
// The proposed designs have one encoder (proposed.go): a geometry phase, and
// one attribute phase that cuts the frame into windows of the stage's segment
// grid — the tiles, or one per worker — runs the stage's one encode body over
// them on units the Encoder owns, and frames the result as one stream or one
// per tile (tile.go plans the tiles and holds their geometry fan-out).
//
// The proposed designs have one decoder (decode.go): every frame shape —
// untiled, tiled, a full layer subscription of either — is units filling
// their windows of two columns the Decoder owns, then one fused pass to the
// returned voxels; a partial layer subscription (layer.go) is the one other
// path.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/paroctree"
)

// FrameType distinguishes intra-coded and predicted frames.
type FrameType byte

const (
	// IFrame is intra-coded (self-contained).
	IFrame FrameType = 0
	// PFrame is predicted from the preceding I-frame.
	PFrame FrameType = 1
)

func (t FrameType) String() string {
	if t == PFrame {
		return "P"
	}
	return "I"
}

// EncodedFrame is one compressed frame: a geometry stream and an attribute
// stream plus the header fields the decoder needs.
type EncodedFrame struct {
	Type      FrameType
	Depth     uint8
	NumPoints uint32
	// Rescale carries the tight-cuboid transform for designs whose
	// geometry path re-scales (zero value = identity/absent).
	HasRescale bool
	Rescale    paroctree.Rescale
	// Tiles, when non-empty, marks the frame as tiled: Geometry and Attr
	// are concatenations of per-tile self-contained chunks, sliced by the
	// directory's byte lengths. NumPoints stays the FULL frame total even
	// when tiles are omitted.
	Tiles []TileInfo
	// Layer, when non-nil, marks the frame as layered: every unit's
	// geometry and attribute chunks are concatenations of per-layer
	// slices, recorded in the layer directory (see layer.go).
	Layer    *LayerDir
	Geometry []byte
	Attr     []byte
}

// Tiled reports whether the frame carries a tile directory.
func (f *EncodedFrame) Tiled() bool { return len(f.Tiles) > 0 }

// Size returns the total compressed size in bytes (the Fig. 8c metric),
// including the container header.
func (f *EncodedFrame) Size() int64 {
	n := int64(frameHeaderSize(f.HasRescale)) + int64(tileDirSize(len(f.Tiles))) +
		int64(len(f.Geometry)) + int64(len(f.Attr))
	if f.Layered() {
		n += int64(layerDirSize(layerUnits(len(f.Tiles)), int(f.Layer.Layers)))
	}
	return n
}

const frameMagic = "PCVF"

// Container header sizes: the fixed prefix (magic, type, depth, flags,
// numPoints) and the optional rescale block (3 x u32 min, 3 x u64 scale).
const (
	fixedHeaderSize = 4 + 1 + 1 + 1 + 4
	rescaleSize     = 3*4 + 3*8
)

// Header flag bits; the rest are reserved and must be zero.
const (
	flagRescale = 1 << 0
	flagTiled   = 1 << 1
	flagLayered = 1 << 2
)

func frameHeaderSize(hasRescale bool) int {
	n := fixedHeaderSize + 4 + 4 // + geomLen, attrLen
	if hasRescale {
		n += rescaleSize
	}
	return n
}

// MaxTiles caps the tile count per frame: per-viewer tile masks are 64-bit
// words throughout the streaming layer.
const MaxTiles = 64

// Tile flag bits in the container's tile directory.
const (
	// TileOmitted marks a tile stripped from the frame entirely (per-viewer
	// viewport culling); its geometry and attribute lengths are zero.
	TileOmitted = 1 << 0
	// TileCoarse marks a tile kept for geometry but stripped of attributes
	// (the frustum-margin "coarsened" representation); the decoder renders
	// it with zero colours.
	TileCoarse = 1 << 1
)

// TileInfo is one entry of a tiled frame's directory: the tile's flags, its
// FULL point count (unchanged by per-viewer stripping, so the decoder can
// keep global indexing for the inter-frame reference), the byte lengths of
// its self-contained geometry and attribute chunks within the frame's
// concatenated streams, and its axis-aligned bounding box in the ORIGINAL
// lattice (pre-rescale), which the sender tests against each viewer's
// frustum.
type TileInfo struct {
	Flags   uint8
	Points  uint32
	GeomLen uint32
	AttrLen uint32
	Min     [3]uint32
	Max     [3]uint32
}

// Omitted reports whether the tile was stripped from the frame.
func (ti TileInfo) Omitted() bool { return ti.Flags&TileOmitted != 0 }

// Coarse reports whether the tile carries geometry but no attributes.
func (ti TileInfo) Coarse() bool { return ti.Flags&TileCoarse != 0 }

// tileRecordSize is one directory entry: flags, points, geomLen, attrLen,
// and the 6-coordinate AABB.
const tileRecordSize = 1 + 4 + 4 + 4 + 6*4

// tileDirSize returns the directory's wire size: a u16 tile count followed
// by the records. Zero for untiled frames (no directory at all).
func tileDirSize(tiles int) int {
	if tiles == 0 {
		return 0
	}
	return 2 + tiles*tileRecordSize
}

// ErrBadContainer reports a malformed frame container.
var ErrBadContainer = errors.New("codec: bad frame container")

// FrameLayout is a frame's span table: unit x layer -> geometry span and
// attribute span, next to each unit's tile record (flags, points, AABB). A
// unit is one tile, or the whole frame when untiled; an unlayered frame has
// one layer. Within either stream the spans sit back to back, unit-major, so
// units*layers+1 offsets per stream describe them all. The table is built
// and checked in one place (EncodedFrame.layout) for serialized and
// in-memory frames alike; decoders, the per-viewer header rewrite and the
// streaming layer's view plans only index it.
type FrameLayout struct {
	Type FrameType
	// Tiles holds the units' tile records; empty for an untiled frame.
	Tiles []TileInfo
	// Layers, Sub and BaseLevel are the layer directory's prologue (see
	// LayerDir); all zero when unlayered.
	Layers    int
	Sub       int
	BaseLevel int
	// GeomOff / AttrOff index the buffer the frame lives in — the
	// serialized frame for ParseFrameLayout, the frame's own Geometry / Attr
	// for EncodedFrame.Layout. Span (u, lay) of a stream is
	// buf[off[i]:off[i+1]] with i = u*max(Layers,1)+lay, which Geom and Attr
	// slice.
	GeomOff []int
	AttrOff []int
	// PointOff holds units+1 point offsets: unit u covers points
	// [PointOff[u], PointOff[u+1]) of the full frame.
	PointOff []int
	// HeaderLen is the byte length of the serialized container header
	// including the directories and the trailing geomLen/attrLen fields;
	// DirOff and LayerDirOff are the offsets of the first tile record and of
	// the layer directory's prologue. Zero for in-memory layouts.
	HeaderLen   int
	DirOff      int
	LayerDirOff int
}

// Layered reports whether the frame carries a layer directory.
func (l *FrameLayout) Layered() bool { return l.Layers != 0 }

// LayerUnits returns the table's unit count.
func (l *FrameLayout) LayerUnits() int { return layerUnits(len(l.Tiles)) }

// cols returns the table's layer count: 1 for an unlayered frame.
func (l *FrameLayout) cols() int { return max(l.Layers, 1) }

// Geom returns unit u's layer-lay geometry span of buf, the buffer GeomOff
// indexes.
func (l *FrameLayout) Geom(buf []byte, u, lay int) []byte {
	i := u*l.cols() + lay
	return buf[l.GeomOff[i]:l.GeomOff[i+1]]
}

// Attr returns unit u's layer-lay attribute span of buf, the buffer AttrOff
// indexes.
func (l *FrameLayout) Attr(buf []byte, u, lay int) []byte {
	i := u*l.cols() + lay
	return buf[l.AttrOff[i]:l.AttrOff[i+1]]
}

// wireLen is the serialized frame's total length: where the last attribute
// span ends.
func (l *FrameLayout) wireLen() int { return l.AttrOff[len(l.AttrOff)-1] }

// Layout checks an in-memory frame's directories and returns its span
// table, indexing f.Geometry and f.Attr.
func (f *EncodedFrame) Layout() (*FrameLayout, error) {
	return f.layout(0, len(f.Geometry), 0, len(f.Attr))
}

// layout is the one validator and the one place a directory length becomes
// a byte offset: it checks the tile records, the layer directory and the
// stream lengths against each other and builds the span table, the streams
// starting at geomBase and attrBase of whatever buffer holds them.
func (f *EncodedFrame) layout(geomBase, geomLen, attrBase, attrLen int) (*FrameLayout, error) {
	units, cols, sub := layerUnits(len(f.Tiles)), 1, 1
	if units > MaxTiles {
		return nil, ErrBadContainer
	}
	l := &FrameLayout{Type: f.Type, Tiles: f.Tiles}
	if ld := f.Layer; ld != nil {
		cols, sub = int(ld.Layers), int(ld.Sub)
		if cols < 2 || cols > MaxLayers || sub < 1 || sub > cols || len(ld.Units) != units {
			return nil, ErrBadContainer
		}
		if ld.BaseLevel < 1 || int(ld.BaseLevel) != int(f.Depth)-cols+1 {
			return nil, ErrBadContainer
		}
		l.Layers, l.Sub, l.BaseLevel = cols, sub, int(ld.BaseLevel)
	}
	n := units * cols
	offs := make([]int, 2*(n+1)+units+1)
	l.GeomOff, l.AttrOff, l.PointOff = offs[:n+1], offs[n+1:2*n+2], offs[2*n+2:]
	l.GeomOff[0], l.AttrOff[0] = geomBase, attrBase
	for u := 0; u < units; u++ {
		// An untiled frame is one unit holding both streams whole.
		ug, ua, pts, omitted := geomLen, attrLen, int(f.NumPoints), false
		if f.Tiled() {
			ti := f.Tiles[u]
			if ti.Flags&^uint8(TileOmitted|TileCoarse) != 0 || ti.Points == 0 {
				return nil, ErrBadContainer
			}
			if ti.Omitted() && (ti.GeomLen != 0 || ti.AttrLen != 0) {
				return nil, ErrBadContainer
			}
			if !ti.Omitted() && ti.Coarse() && ti.AttrLen != 0 {
				return nil, ErrBadContainer
			}
			for a := 0; a < 3; a++ {
				if ti.Min[a] > ti.Max[a] {
					return nil, ErrBadContainer
				}
			}
			ug, ua, pts, omitted = int(ti.GeomLen), int(ti.AttrLen), int(ti.Points), ti.Omitted()
		}
		l.PointOff[u+1] = l.PointOff[u] + pts
		i := u * cols
		if f.Layer == nil {
			l.GeomOff[i+1], l.AttrOff[i+1] = l.GeomOff[i]+ug, l.AttrOff[i]+ua
			continue
		}
		// The stripped layers (lay >= Sub) must be all-zero, every kept layer
		// of a non-omitted unit carries at least its geometry mode byte, and
		// the unit's spans must sum to its chunk lengths.
		spans := f.Layer.Units[u]
		if len(spans) != cols {
			return nil, ErrBadContainer
		}
		for lay, s := range spans {
			if lay >= sub && (s.GeomLen != 0 || s.AttrLen != 0) {
				return nil, ErrBadContainer
			}
			if lay < sub && !omitted && s.GeomLen == 0 {
				return nil, ErrBadContainer
			}
			l.GeomOff[i+lay+1] = l.GeomOff[i+lay] + int(s.GeomLen)
			l.AttrOff[i+lay+1] = l.AttrOff[i+lay] + int(s.AttrLen)
		}
		if l.GeomOff[i+cols]-l.GeomOff[i] != ug || l.AttrOff[i+cols]-l.AttrOff[i] != ua {
			return nil, ErrBadContainer
		}
	}
	if l.GeomOff[n]-geomBase != geomLen || l.AttrOff[n]-attrBase != attrLen || l.PointOff[units] != int(f.NumPoints) {
		return nil, ErrBadContainer
	}
	return l, nil
}

// ParseFrameLayout parses a serialized frame's span table in place. Returns
// nil for plain (untiled, unlayered) frames and for anything ParseFrame or
// ReadFrameFrom would reject — callers treat nil as "not sliceable" and
// fall back to whole-frame handling.
func ParseFrameLayout(wire []byte) *FrameLayout {
	_, l, err := parseHeader(wire)
	if err != nil || len(wire) != l.wireLen() || (len(l.Tiles) == 0 && !l.Layered()) {
		return nil
	}
	return l
}

// RewriteHeaderSub returns a fresh copy of the frame's container header
// with the given tiles marked omitted or coarse and the frame truncated to
// its first sub layers (0 = keep all; ignored when unlayered): the dropped
// spans' directory lengths zeroed, the layer directory's Sub byte, the tile
// lengths and the header's geometry/attribute totals patched to the kept
// sums. Combined with the kept spans of the original wire this is the
// complete per-viewer frame, a self-contained container — no re-encode, no
// payload copy. Omitted units drop every layer; coarse units keep geometry
// but drop all attribute bytes. Point counts stay at the FULL values, so
// the receiver's decoder keeps global indexing for reference concealment.
func (l *FrameLayout) RewriteHeaderSub(wire []byte, omit, coarse uint64, sub uint8) []byte {
	head := append([]byte(nil), wire[:l.HeaderLen]...)
	cols := l.cols()
	keep := cols
	if l.Layered() {
		if sub != 0 && int(sub) < keep {
			keep = int(sub)
		}
		head[l.LayerDirOff+1] = byte(keep)
	}
	var gsum, asum uint32
	for u := 0; u < l.LayerUnits(); u++ {
		var mark uint8
		if len(l.Tiles) > 0 {
			ti, bit := l.Tiles[u], uint64(1)<<uint(u)
			switch {
			case ti.Omitted() || omit&bit != 0:
				mark = TileOmitted
			case ti.Coarse() || coarse&bit != 0:
				mark = TileCoarse
			}
		}
		var ug, ua uint32
		for lay := 0; lay < cols; lay++ {
			i := u*cols + lay
			g, a := uint32(l.GeomOff[i+1]-l.GeomOff[i]), uint32(l.AttrOff[i+1]-l.AttrOff[i])
			if lay >= keep || mark == TileOmitted {
				g, a = 0, 0
			}
			if mark == TileCoarse {
				a = 0
			}
			if l.Layered() {
				rec := head[l.LayerDirOff+3+i*8:]
				binary.LittleEndian.PutUint32(rec[0:4], g)
				binary.LittleEndian.PutUint32(rec[4:8], a)
			}
			ug += g
			ua += a
		}
		if len(l.Tiles) > 0 {
			rec := head[l.DirOff+u*tileRecordSize:]
			rec[0] = l.Tiles[u].Flags | mark
			binary.LittleEndian.PutUint32(rec[5:9], ug)
			binary.LittleEndian.PutUint32(rec[9:13], ua)
		}
		gsum += ug
		asum += ua
	}
	binary.LittleEndian.PutUint32(head[l.HeaderLen-8:l.HeaderLen-4], gsum)
	binary.LittleEndian.PutUint32(head[l.HeaderLen-4:l.HeaderLen], asum)
	return head
}

// WriteTo serializes the frame. Implements io.WriterTo.
func (f *EncodedFrame) WriteTo(w io.Writer) (int64, error) {
	layerDir := 0
	if f.Layered() {
		layerDir = layerDirSize(layerUnits(len(f.Tiles)), int(f.Layer.Layers))
	}
	hdr := make([]byte, 0, frameHeaderSize(f.HasRescale)+tileDirSize(len(f.Tiles))+layerDir)
	hdr = append(hdr, frameMagic...)
	hdr = append(hdr, byte(f.Type), f.Depth)
	var flags byte
	if f.HasRescale {
		flags |= flagRescale
	}
	if f.Tiled() {
		flags |= flagTiled
	}
	if f.Layered() {
		flags |= flagLayered
	}
	hdr = append(hdr, flags)
	hdr = binary.LittleEndian.AppendUint32(hdr, f.NumPoints)
	if f.HasRescale {
		hdr = binary.LittleEndian.AppendUint32(hdr, f.Rescale.MinX)
		hdr = binary.LittleEndian.AppendUint32(hdr, f.Rescale.MinY)
		hdr = binary.LittleEndian.AppendUint32(hdr, f.Rescale.MinZ)
		hdr = binary.LittleEndian.AppendUint64(hdr, f.Rescale.ScaleX)
		hdr = binary.LittleEndian.AppendUint64(hdr, f.Rescale.ScaleY)
		hdr = binary.LittleEndian.AppendUint64(hdr, f.Rescale.ScaleZ)
	}
	if f.Tiled() {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(f.Tiles)))
		for _, ti := range f.Tiles {
			hdr = append(hdr, ti.Flags)
			hdr = binary.LittleEndian.AppendUint32(hdr, ti.Points)
			hdr = binary.LittleEndian.AppendUint32(hdr, ti.GeomLen)
			hdr = binary.LittleEndian.AppendUint32(hdr, ti.AttrLen)
			for a := 0; a < 3; a++ {
				hdr = binary.LittleEndian.AppendUint32(hdr, ti.Min[a])
			}
			for a := 0; a < 3; a++ {
				hdr = binary.LittleEndian.AppendUint32(hdr, ti.Max[a])
			}
		}
	}
	if f.Layered() {
		ld := f.Layer
		hdr = append(hdr, ld.Layers, ld.Sub, ld.BaseLevel)
		for _, spans := range ld.Units {
			for _, s := range spans {
				hdr = binary.LittleEndian.AppendUint32(hdr, s.GeomLen)
				hdr = binary.LittleEndian.AppendUint32(hdr, s.AttrLen)
			}
		}
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(f.Geometry)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(f.Attr)))
	var total int64
	for _, chunk := range [][]byte{hdr, f.Geometry, f.Attr} {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// headerShape is what the size fields of a container header say about it:
// the directory counts, where the directories start, and the header's full
// length.
type headerShape struct {
	tiles, layers       int // 0 = no such directory
	dirOff, layerDirOff int
	size                int
}

// walkHeader reads the size fields of the container header at the start of
// b. While b is too short to hold the next size field, the returned size is
// the length that would hold it (greater than len(b)), so a stream reader
// can call it again after reading that far; otherwise size is the header's
// full length. It refuses counts out of range before anyone sizes a buffer
// by them.
func walkHeader(b []byte) (headerShape, error) {
	h := headerShape{size: fixedHeaderSize}
	if len(b) < h.size {
		return h, nil
	}
	if string(b[:4]) != frameMagic {
		return h, ErrBadContainer
	}
	flags := b[6]
	if flags&^(flagRescale|flagTiled|flagLayered) != 0 {
		return h, fmt.Errorf("%w: reserved flag bits %#x", ErrBadContainer, flags)
	}
	if flags&flagRescale != 0 {
		h.size += rescaleSize
	}
	if flags&flagTiled != 0 {
		h.dirOff = h.size + 2
		h.size = h.dirOff
		if len(b) < h.size {
			return h, nil
		}
		h.tiles = int(binary.LittleEndian.Uint16(b[h.dirOff-2:]))
		if h.tiles < 1 || h.tiles > MaxTiles {
			return h, fmt.Errorf("%w: bad tile count %d", ErrBadContainer, h.tiles)
		}
		h.size += h.tiles * tileRecordSize
	}
	if flags&flagLayered != 0 {
		h.layerDirOff = h.size
		h.size += 3
		if len(b) < h.size {
			return h, nil
		}
		h.layers = int(b[h.layerDirOff])
		if h.layers < 2 || h.layers > MaxLayers {
			return h, ErrBadContainer
		}
		h.size += layerUnits(h.tiles) * h.layers * 8
	}
	h.size += 8 // geomLen, attrLen
	return h, nil
}

// parseHeader is the one container parser: it decodes the header at the
// start of b into a frame (directories filled, streams not attached) and
// runs the one validator over it, returning the frame and its span table
// with offsets into the serialized frame. It never looks past the header,
// so b may stop there.
func parseHeader(b []byte) (*EncodedFrame, *FrameLayout, error) {
	h, err := walkHeader(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < h.size {
		return nil, nil, ErrBadContainer
	}
	f := &EncodedFrame{
		Type:      FrameType(b[4]),
		Depth:     b[5],
		NumPoints: binary.LittleEndian.Uint32(b[7:11]),
	}
	if f.Type != IFrame && f.Type != PFrame {
		return nil, nil, fmt.Errorf("%w: bad frame type %d", ErrBadContainer, f.Type)
	}
	if f.Depth == 0 || f.Depth > 21 {
		return nil, nil, fmt.Errorf("%w: bad depth %d", ErrBadContainer, f.Depth)
	}
	if b[6]&flagRescale != 0 {
		rb := b[fixedHeaderSize:]
		f.HasRescale = true
		f.Rescale = paroctree.Rescale{
			MinX:   binary.LittleEndian.Uint32(rb[0:4]),
			MinY:   binary.LittleEndian.Uint32(rb[4:8]),
			MinZ:   binary.LittleEndian.Uint32(rb[8:12]),
			ScaleX: binary.LittleEndian.Uint64(rb[12:20]),
			ScaleY: binary.LittleEndian.Uint64(rb[20:28]),
			ScaleZ: binary.LittleEndian.Uint64(rb[28:36]),
		}
		if f.Rescale.ScaleX == 0 || f.Rescale.ScaleY == 0 || f.Rescale.ScaleZ == 0 {
			return nil, nil, ErrBadContainer
		}
	}
	if h.tiles > 0 {
		f.Tiles = make([]TileInfo, h.tiles)
		for t := range f.Tiles {
			rec := b[h.dirOff+t*tileRecordSize:]
			ti := TileInfo{
				Flags:   rec[0],
				Points:  binary.LittleEndian.Uint32(rec[1:5]),
				GeomLen: binary.LittleEndian.Uint32(rec[5:9]),
				AttrLen: binary.LittleEndian.Uint32(rec[9:13]),
			}
			for a := 0; a < 3; a++ {
				ti.Min[a] = binary.LittleEndian.Uint32(rec[13+4*a : 17+4*a])
				ti.Max[a] = binary.LittleEndian.Uint32(rec[25+4*a : 29+4*a])
			}
			f.Tiles[t] = ti
		}
	}
	if h.layers > 0 {
		pro := b[h.layerDirOff:]
		units := layerUnits(h.tiles)
		spans := make([]LayerSpan, units*h.layers)
		for i := range spans {
			rec := pro[3+i*8:]
			spans[i] = LayerSpan{
				GeomLen: binary.LittleEndian.Uint32(rec[0:4]),
				AttrLen: binary.LittleEndian.Uint32(rec[4:8]),
			}
		}
		f.Layer = &LayerDir{Layers: pro[0], Sub: pro[1], BaseLevel: pro[2], Units: make([][]LayerSpan, units)}
		for u := range f.Layer.Units {
			f.Layer.Units[u] = spans[u*h.layers : (u+1)*h.layers : (u+1)*h.layers]
		}
	}
	geomLen := binary.LittleEndian.Uint32(b[h.size-8 : h.size-4])
	attrLen := binary.LittleEndian.Uint32(b[h.size-4 : h.size])
	const maxReasonable = 1 << 30
	if geomLen > maxReasonable || attrLen > maxReasonable || f.NumPoints > maxReasonable {
		return nil, nil, ErrBadContainer
	}
	l, err := f.layout(h.size, int(geomLen), h.size+int(geomLen), int(attrLen))
	if err != nil {
		return nil, nil, err
	}
	l.HeaderLen, l.DirOff, l.LayerDirOff = h.size, h.dirOff, h.layerDirOff
	return f, l, nil
}

// ParseFrame deserializes the frame at the start of wire without copying
// it: Geometry and Attr alias wire.
func ParseFrame(wire []byte) (*EncodedFrame, error) {
	f, l, err := parseHeader(wire)
	if err != nil {
		return nil, err
	}
	if len(wire) < l.wireLen() {
		return nil, ErrBadContainer
	}
	f.attach(wire[l.HeaderLen:l.wireLen()], l)
	return f, nil
}

// attach points the frame's streams at payload, the bytes behind the header
// l was parsed from.
func (f *EncodedFrame) attach(payload []byte, l *FrameLayout) {
	g := l.AttrOff[0] - l.HeaderLen
	f.Geometry, f.Attr = payload[:g:g], payload[g:]
}

// payloadChunk bounds what ReadFrameFrom allocates ahead of the bytes that
// actually arrive: a header can claim a gigabyte it does not carry.
const payloadChunk = 256 << 10

// ReadFrameFrom deserializes one frame written by WriteTo, reading exactly
// the frame's bytes from r (frames may follow each other on one reader).
// io.EOF means r ended before the frame began.
func ReadFrameFrom(r io.Reader) (*EncodedFrame, error) {
	head := make([]byte, 0, 64)
	for need := fixedHeaderSize; len(head) < need; {
		n := len(head)
		head = append(head, make([]byte, need-n)...)
		if _, err := io.ReadFull(r, head[n:]); err != nil {
			if err == io.EOF && n == 0 {
				return nil, io.EOF
			}
			return nil, ErrBadContainer
		}
		h, err := walkHeader(head)
		if err != nil {
			return nil, err
		}
		need = h.size
	}
	f, l, err := parseHeader(head)
	if err != nil {
		return nil, err
	}
	size := l.wireLen() - l.HeaderLen
	payload := make([]byte, 0, min(size, payloadChunk))
	for len(payload) < size {
		n := len(payload)
		payload = append(payload, make([]byte, min(size-n, max(n, payloadChunk)))...)
		if _, err := io.ReadFull(r, payload[n:]); err != nil {
			return nil, ErrBadContainer
		}
	}
	f.attach(payload, l)
	return f, nil
}
