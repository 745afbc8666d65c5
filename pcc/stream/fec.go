package stream

// Sender-side forward error correction: the layout of the XOR parity
// groups the sender core (sender.go) interleaves with each frame's data
// packets, for every Viewer of a Server.
//
// Group layout. A frame of n fragments with parity group size K gets:
//
//   - P-frames: consecutive stride-1 groups of up to K fragments — one
//     parity packet per group, repairing any single loss in the group.
//   - I-frames: each span of 2K fragments is covered by TWO interleaved
//     stride-2 groups (even offsets and odd offsets), so two consecutive
//     losses land in different groups and both repair. I-frames get the
//     deeper protection because the whole GOP references them: one
//     unrecovered I-frame fragment costs a refresh round trip and skips
//     every dependent P-frame.
//
// Parity packets ride the same PacketOut path as data but consume no
// sequence numbers: the receiver's gap detector never sees them, they are
// never NACKed, and they are never retransmitted. Each group's XOR body is
// built once per (view, MTU) cut of a published frame (sender.go:
// frameCut), reading the cut's plan over the immutable payload in place —
// frame bytes are never copied — and every send of that cut frames it
// under its own header. The groups are laid out at the group size the
// frame was published with, whatever the view.

import (
	"hash/crc32"

	"repro/internal/codec"
)

// FECConfig configures sender-side parity emission.
type FECConfig struct {
	// GroupLen, when > 0, emits one parity packet per GroupLen data
	// packets (clamped to MaxParityGroup). When ≤ 0 no parity is emitted,
	// with or without Options.Adapt, and the packet stream is
	// byte-identical to a pre-FEC sender.
	GroupLen int
}

// groupLen is the parity group size every frame is published with; 0
// means no parity.
func (c FECConfig) groupLen() int {
	return min(max(c.GroupLen, 0), MaxParityGroup)
}

// groupSpec is one parity group in fragment-index space.
type groupSpec struct {
	base   int // first covered fragment index
	count  int
	stride int
}

// end returns the last covered fragment index. Senders emit a group's
// parity packet right after this fragment, interleaved with the frame's
// data, so the repair reaches the receiver as few packet-times as possible
// behind the loss it fixes — well inside the NACK timer.
func (g groupSpec) end() int { return g.base + (g.count-1)*g.stride }

// parityGroups lays out the XOR groups covering n fragments with group
// size k: stride-1 runs for P-frames, interleaved stride-2 pairs per 2k
// span for I-frames (spans of ≤ 2 fragments fall back to one stride-1
// group — interleaving needs at least 3 to beat it).
func parityGroups(n, k int, ftype codec.FrameType) []groupSpec {
	if k < 1 || n < 1 {
		return nil
	}
	var out []groupSpec
	if ftype == codec.IFrame && k >= 2 {
		for at := 0; at < n; at += 2 * k {
			span := min(2*k, n-at)
			if span <= 2 {
				out = append(out, groupSpec{base: at, count: span, stride: 1})
				continue
			}
			out = append(out,
				groupSpec{base: at, count: (span + 1) / 2, stride: 2},
				groupSpec{base: at + 1, count: span / 2, stride: 2})
		}
		return out
	}
	for at := 0; at < n; at += k {
		out = append(out, groupSpec{base: at, count: min(k, n-at), stride: 1})
	}
	return out
}

// parityPacketLen is the framed length of a parity packet with body.
func parityPacketLen(body []byte) int {
	return PacketHeaderSize + ParityHeaderSize + len(body)
}

// appendParityPacket appends one group's parity packet, in the receiver's
// sequence space, to dst. The header Seq mirrors the group's base sequence
// for observability, but parity packets occupy no slot in the data
// sequence stream.
func appendParityPacket(dst []byte, streamID, frameIndex uint32, ftype codec.FrameType, firstSeq uint32, fragCount int, g groupSpec, body []byte) []byte {
	base := firstSeq + uint32(g.base)
	start := len(dst)
	dst = appendHeader(dst, PacketHeader{
		Flags:      FlagParity,
		StreamID:   streamID,
		FrameIndex: frameIndex,
		FrameType:  ftype,
		FragCount:  1,
		Seq:        base,
	})
	payload := len(dst)
	dst = AppendParity(dst, ParityGroup{
		BaseSeq:       base,
		Count:         uint8(g.count),
		Stride:        uint8(g.stride),
		FrameFirstSeq: firstSeq,
		FragCount:     uint16(fragCount),
		Body:          body,
	})
	return sealPacket(dst, start, payload, crc32.ChecksumIEEE(dst[payload:]))
}
