package stream

// Sender-side forward error correction: the layout of the XOR parity
// groups the sender core (sender.go) interleaves with each frame's data
// packets, for a Session and for every Viewer of a Server alike.
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
// built once per published frame over the frame's identity plan (reading
// the immutable payload in place — frame bytes are never copied) and every
// whole-frame send at that MTU reuses it under its own header.

import (
	"repro/internal/codec"
)

// FECConfig configures sender-side parity emission.
type FECConfig struct {
	// GroupLen, when > 0, statically emits one parity packet per GroupLen
	// data packets (clamped to [1, MaxParityGroup]). When 0, parity is
	// emitted only while the adaptive controller's parity knob is raised,
	// with the group size the knob implies — zero overhead on clean links.
	// Negative disables parity entirely, adaptive knob included, making
	// the packet stream byte-identical to a pre-FEC sender.
	GroupLen int
}

// groupLen resolves the effective parity group size: the static
// configuration and the controller's adaptive knob, with the stronger
// (smaller group) winning. 0 means no parity.
func (c FECConfig) groupLen(ctrl *codec.Controller) int {
	if c.GroupLen < 0 {
		return 0
	}
	k := c.GroupLen
	if k > MaxParityGroup {
		k = MaxParityGroup
	}
	if ctrl != nil {
		if a := ctrl.Knobs().ParityGroupLen(); a > 0 && (k == 0 || a < k) {
			k = a
		}
	}
	return k
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

// parityShare is one published frame's parity build, cut from the frame's
// identity plan at the publisher's MTU and attached to the sharedFrame:
// every whole-frame send at that MTU reuses the XOR bodies under its own
// headers; culled sends and sends at other MTUs rebuild theirs from their
// own plan. Bodies are read-only after build (parityPacket copies them
// into the framed payload).
type parityShare struct {
	k      int // effective parity group size at build time
	mtu    int // payload MTU the bodies were split at
	groups []groupSpec
	bodies [][]byte
}

// buildParityShare XORs every parity group body of plan at the given MTU.
// Returns nil when k means no parity.
func buildParityShare(plan *viewPlan, mtu, k int, ftype codec.FrameType) *parityShare {
	groups := parityGroups(fragsAtMTU(plan.total, mtu), k, ftype)
	if len(groups) == 0 {
		return nil
	}
	ps := &parityShare{k: k, mtu: mtu, groups: groups, bodies: make([][]byte, len(groups))}
	for i, g := range groups {
		ps.bodies[i] = plan.parityBody(g, mtu)
	}
	return ps
}

// parityPacket frames one group's parity packet in the receiver's
// sequence space. The header Seq mirrors the group's base sequence for
// observability, but parity packets occupy no slot in the data sequence
// stream.
func parityPacket(streamID, frameIndex uint32, ftype codec.FrameType, firstSeq uint32, fragCount int, g groupSpec, body []byte) []byte {
	base := firstSeq + uint32(g.base)
	pkt := appendHeader(make([]byte, 0, PacketHeaderSize+ParityHeaderSize+len(body)), PacketHeader{
		Flags:      FlagParity,
		StreamID:   streamID,
		FrameIndex: frameIndex,
		FrameType:  ftype,
		FragCount:  1,
		Seq:        base,
	})
	return sealPacket(AppendParity(pkt, ParityGroup{
		BaseSeq:       base,
		Count:         uint8(g.count),
		Stride:        uint8(g.stride),
		FrameFirstSeq: firstSeq,
		FragCount:     uint16(fragCount),
		Body:          body,
	}), 0, PacketHeaderSize)
}
