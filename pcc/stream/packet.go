package stream

// Real packet framing for the transmit stage. The packetize stage used to
// only COUNT MTU-sized packets; these types emit actual framed packets —
// header, sequence number, fragment bookkeeping, payload checksum — so a
// lossy link (linksim.FaultyLink, or a real datagram socket) can drop,
// duplicate, and reorder them and the Receiver can still reassemble,
// detect gaps, and recover.
//
// Wire layout (little-endian, PacketHeaderSize = 27 bytes):
//
//	offset size field
//	     0    2 magic "PK"
//	     2    1 version (1)
//	     3    1 flags (bit0 retransmit, bit1 control, bit2 cached replay)
//	     4    4 stream/session id
//	     8    4 frame index (data) / control target frame (control)
//	    12    1 frame type: I=0, P=1 (data) / control kind (control)
//	    13    2 fragment index
//	    15    2 fragment count
//	    17    4 packet sequence number
//	    21    2 payload length
//	    23    4 CRC-32 (IEEE) of the payload
//	    27    2 tile id (FlagTiled packets only)
//	     +    1 layer id (FlagLayered packets only, after any tile id)
//	      ... - payload
//
// A frame's fragments carry consecutive sequence numbers, so the first
// fragment's seq is always Seq-Frag and a receiver can attribute a missing
// sequence number to a frame from any sibling fragment.
//
// FlagTiled packets extend the header by a 2-byte tile id: the tile of
// the viewer-culled frame whose bytes the fragment starts in (TileNone
// for the container header/directory). The id is observability metadata —
// reassembly stays a plain in-order concatenation of fragment payloads.

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/codec"
	"repro/internal/viewport"
)

const (
	packetMagic0 = 'P'
	packetMagic1 = 'K'
	// PacketVersion is the framing version emitted by this package.
	PacketVersion = 1
	// PacketHeaderSize is the fixed per-packet header overhead in bytes.
	PacketHeaderSize = 27
	// TileIDSize is the FlagTiled header extension: a 2-byte tile id.
	TileIDSize = 2
	// LayerIDSize is the FlagLayered header extension: a 1-byte layer id.
	LayerIDSize = 1
	// MaxPayload is the largest payload one packet can carry.
	MaxPayload = math.MaxUint16
)

// TileNone is the tile id of fragments that start inside the frame's
// container header or tile directory rather than a tile's bytes.
const TileNone uint16 = 0xFFFF

// LayerNone is the layer id of fragments that start inside the frame's
// container header rather than a layer's bytes.
const LayerNone uint8 = 0xFF

// Packet flag bits.
const (
	// FlagRetransmit marks a packet re-sent in response to a NACK.
	FlagRetransmit byte = 1 << 0
	// FlagControl marks a receiver→sender control packet (NACK, refresh);
	// its FrameType byte holds the ControlKind.
	FlagControl byte = 1 << 1
	// FlagCached marks a packet replayed from a Server's keyframe cache: a
	// late-joining viewer's copy of the last encoded I-frame, sent so it
	// can start decoding mid-GOP without a re-encode. Like FlagRetransmit
	// it sits outside the payload CRC, so senders can set it on buffered
	// packet copies in place.
	FlagCached byte = 1 << 2
	// FlagParity marks a forward-error-correction parity packet: its
	// payload is a ParityGroup (XOR parity over a group of the frame's
	// data packets) rather than frame bytes. Parity packets consume no
	// sequence numbers and are never retransmitted — losing one costs only
	// its repair power.
	FlagParity byte = 1 << 3
	// FlagTiled marks a data packet of a viewport-culled tiled frame: the
	// header carries a 2-byte tile id after the CRC (TileIDSize), and the
	// frame's container was rewritten per viewer (omitted/coarse tiles).
	FlagTiled byte = 1 << 4
	// FlagLayered marks a data packet of a layer-truncated layered frame:
	// the header carries a 1-byte layer id after the (optional) tile id
	// (LayerIDSize), and the frame's container was rewritten per viewer to
	// its first Sub layers. Like the tile id, the layer id is observability
	// metadata — reassembly stays in-order concatenation.
	FlagLayered byte = 1 << 5
)

// ErrBadPacket reports a malformed packet (bad magic, version, or lengths).
var ErrBadPacket = errors.New("stream: malformed packet")

// ErrChecksum reports a packet whose payload fails its CRC — corruption in
// flight. The packet must be treated as lost.
var ErrChecksum = errors.New("stream: packet checksum mismatch")

// PacketHeader is the parsed fixed header of one packet.
type PacketHeader struct {
	Flags      byte
	StreamID   uint32
	FrameIndex uint32
	FrameType  codec.FrameType
	Frag       uint16 // fragment index within the frame
	FragCount  uint16 // total fragments of the frame
	Seq        uint32 // per-stream packet sequence number
	// Tile is the tile the fragment starts in (FlagTiled packets only;
	// TileNone for header/directory fragments).
	Tile uint16
	// Layer is the layer the fragment starts in (FlagLayered packets only;
	// LayerNone for header/directory fragments).
	Layer uint8
}

// Packet is one parsed packet: header plus payload (which aliases the
// buffer passed to ParsePacket).
type Packet struct {
	Header  PacketHeader
	Payload []byte
}

// appendHeader appends h's wire header with the payload length and CRC
// left zero for sealPacket.
func appendHeader(dst []byte, h PacketHeader) []byte {
	dst = append(dst, packetMagic0, packetMagic1, PacketVersion, h.Flags)
	dst = binary.LittleEndian.AppendUint32(dst, h.StreamID)
	dst = binary.LittleEndian.AppendUint32(dst, h.FrameIndex)
	dst = append(dst, byte(h.FrameType))
	dst = binary.LittleEndian.AppendUint16(dst, h.Frag)
	dst = binary.LittleEndian.AppendUint16(dst, h.FragCount)
	dst = binary.LittleEndian.AppendUint32(dst, h.Seq)
	dst = append(dst, 0, 0, 0, 0, 0, 0) // payload length + CRC
	if h.Flags&FlagTiled != 0 {
		dst = binary.LittleEndian.AppendUint16(dst, h.Tile)
	}
	if h.Flags&FlagLayered != 0 {
		dst = append(dst, h.Layer)
	}
	return dst
}

// headerLen is the framed header length of a packet with the given flags:
// the fixed header plus the tile and layer id extensions they switch on.
func headerLen(flags byte) int {
	n := PacketHeaderSize
	if flags&FlagTiled != 0 {
		n += TileIDSize
	}
	if flags&FlagLayered != 0 {
		n += LayerIDSize
	}
	return n
}

// sealPacket patches the payload length and CRC of the packet whose header
// starts at pkt[start] and whose payload is pkt[body:]; crc is the
// payload's CRC-32 (IEEE). Splitting the seal from the header lets a
// sender write a payload straight behind its header, with no staging copy,
// and take the CRC from a cut that computed it once for every receiver.
func sealPacket(pkt []byte, start, body int, crc uint32) []byte {
	binary.LittleEndian.PutUint16(pkt[start+21:], uint16(len(pkt)-body))
	binary.LittleEndian.PutUint32(pkt[start+23:], crc)
	return pkt
}

// AppendPacket appends the framed packet (header + payload) to dst.
func AppendPacket(dst []byte, h PacketHeader, payload []byte) []byte {
	start := len(dst)
	dst = appendHeader(dst, h)
	return sealPacket(append(dst, payload...), start, len(dst), crc32.ChecksumIEEE(payload))
}

// MarshalPacket frames one packet.
func MarshalPacket(h PacketHeader, payload []byte) []byte {
	return AppendPacket(make([]byte, 0, PacketHeaderSize+len(payload)), h, payload)
}

// ParsePacket validates and parses one framed packet. The returned payload
// aliases b. Corrupt payloads return ErrChecksum; structural problems
// return ErrBadPacket.
func ParsePacket(b []byte) (Packet, error) {
	if len(b) < PacketHeaderSize {
		return Packet{}, fmt.Errorf("%w: %d bytes", ErrBadPacket, len(b))
	}
	if b[0] != packetMagic0 || b[1] != packetMagic1 {
		return Packet{}, fmt.Errorf("%w: bad magic", ErrBadPacket)
	}
	if b[2] != PacketVersion {
		return Packet{}, fmt.Errorf("%w: version %d", ErrBadPacket, b[2])
	}
	h := PacketHeader{
		Flags:      b[3],
		StreamID:   binary.LittleEndian.Uint32(b[4:8]),
		FrameIndex: binary.LittleEndian.Uint32(b[8:12]),
		FrameType:  codec.FrameType(b[12]),
		Frag:       binary.LittleEndian.Uint16(b[13:15]),
		FragCount:  binary.LittleEndian.Uint16(b[15:17]),
		Seq:        binary.LittleEndian.Uint32(b[17:21]),
	}
	hdrLen := PacketHeaderSize
	if h.Flags&FlagTiled != 0 {
		hdrLen += TileIDSize
		if len(b) < hdrLen {
			return Packet{}, fmt.Errorf("%w: tiled packet %d bytes", ErrBadPacket, len(b))
		}
		h.Tile = binary.LittleEndian.Uint16(b[hdrLen-TileIDSize : hdrLen])
	}
	if h.Flags&FlagLayered != 0 {
		hdrLen += LayerIDSize
		if len(b) < hdrLen {
			return Packet{}, fmt.Errorf("%w: layered packet %d bytes", ErrBadPacket, len(b))
		}
		h.Layer = b[hdrLen-1]
	}
	plen := int(binary.LittleEndian.Uint16(b[21:23]))
	if len(b) != hdrLen+plen {
		return Packet{}, fmt.Errorf("%w: payload length %d in a %d-byte packet", ErrBadPacket, plen, len(b))
	}
	payload := b[hdrLen:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[23:27]) {
		return Packet{}, ErrChecksum
	}
	if h.Flags&FlagControl == 0 {
		if h.FragCount == 0 || h.Frag >= h.FragCount {
			return Packet{}, fmt.Errorf("%w: fragment %d/%d", ErrBadPacket, h.Frag, h.FragCount)
		}
		if h.FrameType != codec.IFrame && h.FrameType != codec.PFrame {
			return Packet{}, fmt.Errorf("%w: frame type %d", ErrBadPacket, h.FrameType)
		}
	}
	return Packet{Header: h, Payload: payload}, nil
}

// PacketizeFrame splits one frame's wire bytes into MTU-sized framed
// packets with consecutive sequence numbers starting at firstSeq. mtu is
// the payload size per packet (the header adds PacketHeaderSize on top;
// values below 1 mean 1400, values above MaxPayload are capped). A frame
// too large for the 16-bit fragment count (ErrFrameTooLarge) returns nil.
// The packets share large backing chunks, each with no spare capacity, so
// an append to one never reaches another.
func PacketizeFrame(streamID, frameIndex uint32, ftype codec.FrameType, firstSeq uint32, wire []byte, mtu int) [][]byte {
	pkts, _ := identityPlan(wire).packets(PacketHeader{
		StreamID:   streamID,
		FrameIndex: frameIndex,
		FrameType:  ftype,
		Seq:        firstSeq,
	}, clampMTU(mtu, 1, 1400))
	return pkts
}

// Parity (forward error correction) payload framing.
//
// A parity packet carries the XOR of a group of the frame's data packets.
// Each covered packet contributes [uint16 len LE || payload] zero-padded
// to the widest member, so recovering the single missing member of a
// group yields both its exact payload length and its bytes. The covered
// sequence numbers are BaseSeq, BaseSeq+Stride, … (Count members): a
// stride of 1 covers consecutive fragments, a stride of 2 interleaves two
// groups over a span so two consecutive losses land in different groups.
//
// ParityGroup wire layout (the FlagParity payload, little-endian):
//
//	offset size field
//	     0    4 BaseSeq        first covered sequence number
//	     4    1 Count          covered packets (1..MaxParityGroup)
//	     5    1 Stride         sequence step between members (1..MaxParityStride)
//	     6    4 FrameFirstSeq  sequence number of the frame's fragment 0
//	    10    2 FragCount      the frame's fragment count
//	    12    - Body           XOR of [len16 || payload], ≥ 2 bytes
//
// FrameFirstSeq/FragCount repeat the frame geometry so a parity packet
// alone (every data packet of the frame lost or still in flight) is
// enough for the receiver to set up reassembly state.

const (
	// ParityHeaderSize is the fixed prefix of a ParityGroup payload.
	ParityHeaderSize = 12
	// MaxParityGroup caps how many data packets one parity packet covers.
	MaxParityGroup = 64
	// MaxParityStride caps the interleave stride.
	MaxParityStride = 8
)

// ParityGroup is one parsed parity payload.
type ParityGroup struct {
	BaseSeq       uint32
	Count         uint8
	Stride        uint8
	FrameFirstSeq uint32
	FragCount     uint16
	// Body is the XOR of the covered packets' [len16 || payload] records,
	// zero-padded to the widest member (so len(Body) = 2 + widest payload).
	Body []byte
}

// AppendParity appends g's wire form to dst.
func AppendParity(dst []byte, g ParityGroup) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, g.BaseSeq)
	dst = append(dst, g.Count, g.Stride)
	dst = binary.LittleEndian.AppendUint32(dst, g.FrameFirstSeq)
	dst = binary.LittleEndian.AppendUint16(dst, g.FragCount)
	return append(dst, g.Body...)
}

// ParseParity decodes a ParityGroup payload and validates that the group
// geometry is internally consistent: the covered sequence range must fall
// inside the frame [FrameFirstSeq, FrameFirstSeq+FragCount). The returned
// Body aliases b.
func ParseParity(b []byte) (ParityGroup, error) {
	if len(b) < ParityHeaderSize+2 {
		return ParityGroup{}, fmt.Errorf("%w: parity payload %d bytes", ErrBadPacket, len(b))
	}
	g := ParityGroup{
		BaseSeq:       binary.LittleEndian.Uint32(b[0:4]),
		Count:         b[4],
		Stride:        b[5],
		FrameFirstSeq: binary.LittleEndian.Uint32(b[6:10]),
		FragCount:     binary.LittleEndian.Uint16(b[10:12]),
		Body:          b[ParityHeaderSize:],
	}
	if g.Count < 1 || g.Count > MaxParityGroup {
		return ParityGroup{}, fmt.Errorf("%w: parity count %d", ErrBadPacket, g.Count)
	}
	if g.Stride < 1 || g.Stride > MaxParityStride {
		return ParityGroup{}, fmt.Errorf("%w: parity stride %d", ErrBadPacket, g.Stride)
	}
	if g.FragCount == 0 {
		return ParityGroup{}, fmt.Errorf("%w: parity over empty frame", ErrBadPacket)
	}
	base := g.BaseSeq - g.FrameFirstSeq // fragment index of the first member
	last := base + uint32(g.Count-1)*uint32(g.Stride)
	if base >= uint32(g.FragCount) || last >= uint32(g.FragCount) {
		return ParityGroup{}, fmt.Errorf("%w: parity span [%d,%d] outside %d fragments",
			ErrBadPacket, base, last, g.FragCount)
	}
	return g, nil
}

// xorRecord folds one covered packet's [len16 || payload] record into a
// parity body in place. The body must be at least 2+len(payload) bytes.
func xorRecord(body, payload []byte) {
	xorLen(body, len(payload))
	xorBytes(body[2:], payload)
}

// xorLen folds a record's len16 prefix into a parity body; xorBytes folds
// (a piece of) its payload in at dst. A sender whose payload is scattered
// over several spans folds the record piecewise instead of staging it.
func xorLen(body []byte, n int) {
	body[0] ^= byte(n)
	body[1] ^= byte(n >> 8)
}

func xorBytes(dst, src []byte) {
	subtle.XORBytes(dst[:len(src)], dst[:len(src)], src)
}

// ControlKind identifies a receiver→sender control message.
type ControlKind byte

const (
	// ControlNACK requests retransmission of the listed sequence numbers.
	ControlNACK ControlKind = 1
	// ControlRefresh reports GOP reference loss and asks the sender to
	// force the next frame to be an I-frame.
	ControlRefresh ControlKind = 2
	// ControlFeedback carries a periodic receiver feedback report
	// (Feedback): observed loss, NACK work, and frame outcomes over the
	// last report window. The sender's congestion controller consumes it.
	ControlFeedback ControlKind = 3
	// ControlViewport carries the receiver's camera (a 64-byte fixed
	// payload: Pos ×3, Dir ×3, FOVDegrees, MaxDist, all float64 LE). The
	// sender culls tiles of tiled frames outside the camera's frustum for
	// that viewer only. FOVDegrees <= 0 clears the viewport — the viewer
	// receives every tile again.
	ControlViewport ControlKind = 4
	// ControlLayers carries the receiver's layer subscription (a 1-byte
	// payload): ship only the first N layers of layered frames to this
	// viewer. 0 clears the subscription — the viewer receives every layer
	// again from the next keyframe.
	ControlLayers ControlKind = 5
)

func (k ControlKind) String() string {
	switch k {
	case ControlNACK:
		return "NACK"
	case ControlRefresh:
		return "REFRESH"
	case ControlFeedback:
		return "FEEDBACK"
	case ControlViewport:
		return "VIEWPORT"
	case ControlLayers:
		return "LAYERS"
	default:
		return fmt.Sprintf("ControlKind(%d)", byte(k))
	}
}

// FeedbackSize is the fixed wire size of a Feedback payload.
const FeedbackSize = 32

// Feedback is one receiver feedback report: windowed deltas of the
// receiver's recovery counters since its previous report, plus the
// monotonically increasing report number that lets the sender drop
// duplicated or reordered (stale) reports.
//
// Wire layout (the ControlFeedback payload; all fields uint32 LE):
//
//	offset field
//	     0 Report        report number, 1-based, monotonic per receiver
//	     4 HighestFrame  next in-order frame index the receiver needs
//	     8 Received      packets received in the window
//	    12 Lost          packets lost in the window (first-transmission
//	                     NACK-timeout losses; healed reorders excluded,
//	                     and losses later recovered — by parity or a late
//	                     retransmit — are netted back out)
//	    16 NACKs         sequence numbers NACKed in the window
//	    20 Decoded       frames decoded byte-correct in the window
//	    24 Concealed     frames concealed in the window
//	    28 Skipped       frames skipped in the window
type Feedback struct {
	Report       uint32
	HighestFrame uint32
	Received     uint32
	Lost         uint32
	NACKs        uint32
	Decoded      uint32
	Concealed    uint32
	Skipped      uint32
}

// LossRate returns the window's packet loss ratio, Lost/(Received+Lost)
// (0 when the window saw no packets). Lost is net of recoveries, so this
// is the unrecovered wire-loss rate.
func (f Feedback) LossRate() float64 {
	if n := uint64(f.Received) + uint64(f.Lost); n > 0 {
		return float64(f.Lost) / float64(n)
	}
	return 0
}

// CongestionRate returns the knob-steering congestion signal:
// (Lost+NACKs)/(Received+Lost+NACKs). A parity-repaired packet appears in
// neither term — the repair cost the viewer nothing — so FEC-absorbed loss
// reads as a clean link and the controller keeps quality up. A
// retransmit-recovered packet is netted out of Lost but still charges the
// NACK round trips it took, so congestion that FEC cannot absorb keeps
// degrading quality exactly as before parity existed.
func (f Feedback) CongestionRate() float64 {
	if n := uint64(f.Received) + uint64(f.Lost) + uint64(f.NACKs); n > 0 {
		return float64(uint64(f.Lost)+uint64(f.NACKs)) / float64(n)
	}
	return 0
}

// AppendFeedback appends the FeedbackSize-byte wire form to dst.
func AppendFeedback(dst []byte, f Feedback) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, f.Report)
	dst = binary.LittleEndian.AppendUint32(dst, f.HighestFrame)
	dst = binary.LittleEndian.AppendUint32(dst, f.Received)
	dst = binary.LittleEndian.AppendUint32(dst, f.Lost)
	dst = binary.LittleEndian.AppendUint32(dst, f.NACKs)
	dst = binary.LittleEndian.AppendUint32(dst, f.Decoded)
	dst = binary.LittleEndian.AppendUint32(dst, f.Concealed)
	return binary.LittleEndian.AppendUint32(dst, f.Skipped)
}

// ParseFeedback decodes a Feedback payload. Anything but exactly
// FeedbackSize bytes is ErrBadPacket.
func ParseFeedback(b []byte) (Feedback, error) {
	if len(b) != FeedbackSize {
		return Feedback{}, fmt.Errorf("%w: feedback payload %d bytes", ErrBadPacket, len(b))
	}
	return Feedback{
		Report:       binary.LittleEndian.Uint32(b[0:4]),
		HighestFrame: binary.LittleEndian.Uint32(b[4:8]),
		Received:     binary.LittleEndian.Uint32(b[8:12]),
		Lost:         binary.LittleEndian.Uint32(b[12:16]),
		NACKs:        binary.LittleEndian.Uint32(b[16:20]),
		Decoded:      binary.LittleEndian.Uint32(b[20:24]),
		Concealed:    binary.LittleEndian.Uint32(b[24:28]),
		Skipped:      binary.LittleEndian.Uint32(b[28:32]),
	}, nil
}

// ViewportSize is the fixed wire size of a ControlViewport payload:
// eight float64 fields (Pos ×3, Dir ×3, FOVDegrees, MaxDist).
const ViewportSize = 64

// appendViewport appends a camera's 64-byte wire form to dst.
func appendViewport(dst []byte, cam viewport.Camera) []byte {
	for _, f := range [8]float64{
		cam.Pos[0], cam.Pos[1], cam.Pos[2],
		cam.Dir[0], cam.Dir[1], cam.Dir[2],
		cam.FOVDegrees, cam.MaxDist,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// parseViewport decodes a ControlViewport payload. Anything but exactly
// ViewportSize bytes, or any non-finite field, is ErrBadPacket: NaN and
// Inf coordinates would poison every frustum comparison downstream.
func parseViewport(b []byte) (viewport.Camera, error) {
	if len(b) != ViewportSize {
		return viewport.Camera{}, fmt.Errorf("%w: viewport payload %d bytes", ErrBadPacket, len(b))
	}
	var vals [8]float64
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
			return viewport.Camera{}, fmt.Errorf("%w: non-finite viewport field", ErrBadPacket)
		}
	}
	return viewport.Camera{
		Pos:        [3]float64{vals[0], vals[1], vals[2]},
		Dir:        [3]float64{vals[3], vals[4], vals[5]},
		FOVDegrees: vals[6],
		MaxDist:    vals[7],
	}, nil
}

// Control is one receiver→sender control message.
type Control struct {
	Kind     ControlKind
	StreamID uint32
	// FrameIndex is the first frame the receiver could not recover
	// (ControlRefresh only).
	FrameIndex uint32
	// Seqs lists the missing packet sequence numbers (ControlNACK only).
	Seqs []uint32
	// Feedback is the receiver report (ControlFeedback only).
	Feedback Feedback
	// Camera is the receiver's viewport (ControlViewport only);
	// FOVDegrees <= 0 clears it.
	Camera viewport.Camera
	// Layers is the receiver's layer subscription (ControlLayers only);
	// 0 clears it.
	Layers uint8
}

// MarshalControl frames a control message as a packet (FlagControl set,
// checksummed like data).
func MarshalControl(c Control) []byte {
	var payload []byte
	switch c.Kind {
	case ControlNACK:
		payload = make([]byte, 0, 4*len(c.Seqs))
		for _, s := range c.Seqs {
			payload = binary.LittleEndian.AppendUint32(payload, s)
		}
	case ControlFeedback:
		payload = AppendFeedback(make([]byte, 0, FeedbackSize), c.Feedback)
	case ControlViewport:
		payload = appendViewport(make([]byte, 0, ViewportSize), c.Camera)
	case ControlLayers:
		payload = []byte{c.Layers}
	}
	return MarshalPacket(PacketHeader{
		Flags:      FlagControl,
		StreamID:   c.StreamID,
		FrameIndex: c.FrameIndex,
		FrameType:  codec.FrameType(c.Kind),
		FragCount:  1,
	}, payload)
}

// ParseControl decodes a control message from a parsed FlagControl packet.
func ParseControl(p Packet) (Control, error) {
	if p.Header.Flags&FlagControl == 0 {
		return Control{}, fmt.Errorf("%w: not a control packet", ErrBadPacket)
	}
	c := Control{
		Kind:       ControlKind(p.Header.FrameType),
		StreamID:   p.Header.StreamID,
		FrameIndex: p.Header.FrameIndex,
	}
	switch c.Kind {
	case ControlNACK:
		if len(p.Payload)%4 != 0 {
			return Control{}, fmt.Errorf("%w: NACK payload %d bytes", ErrBadPacket, len(p.Payload))
		}
		c.Seqs = make([]uint32, len(p.Payload)/4)
		for i := range c.Seqs {
			c.Seqs[i] = binary.LittleEndian.Uint32(p.Payload[4*i:])
		}
	case ControlRefresh:
	case ControlFeedback:
		fb, err := ParseFeedback(p.Payload)
		if err != nil {
			return Control{}, err
		}
		c.Feedback = fb
	case ControlViewport:
		cam, err := parseViewport(p.Payload)
		if err != nil {
			return Control{}, err
		}
		c.Camera = cam
	case ControlLayers:
		if len(p.Payload) != 1 {
			return Control{}, fmt.Errorf("%w: layers payload %d bytes", ErrBadPacket, len(p.Payload))
		}
		c.Layers = p.Payload[0]
	default:
		return Control{}, fmt.Errorf("%w: control kind %d", ErrBadPacket, byte(c.Kind))
	}
	return c, nil
}
