package stream

// Sequence-window tests: the receiver compares sequence numbers modulo
// 2^32, and a forward jump wider than maxSeqJump opens no per-sequence
// state (RFC 3550 Appendix A.1): it is dropped as corrupt, and a packet
// that follows it resyncs the stream. The NACK tests hold the timer's
// schedule and the NACK on proof of a loss to their bounds.

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/codec"
)

// reseq returns a copy of a framed packet with its sequence number set to
// seq. The packet CRC covers the payload only, so the copy stays valid.
func reseq(t *testing.T, raw []byte, seq uint32) []byte {
	t.Helper()
	p, err := ParsePacket(raw)
	if err != nil {
		t.Fatal(err)
	}
	p.Header.Seq = seq
	return MarshalPacket(p.Header, p.Payload)
}

// cleanPackets is the fresh packets a one-viewer Server sends for three
// loot frames (I P P) over a clean link, in order.
func cleanPackets(t *testing.T) [][]byte {
	t.Helper()
	return runScenario(t, &scenario{name: "I P P", frames: 3, scale: 0.01, opts: v1, viewers: "whole"}, 0).viewers[0].fresh
}

// frozenReceiver is a receiver on a clock that never moves, so no NACK
// timer fires while a test feeds it packets.
func frozenReceiver(outcomes *[]DecodedFrame) *Receiver {
	now := time.Unix(0, 0)
	return NewReceiver(ReceiverConfig{
		Options: testOptions(codec.IntraInterV1),
		Now:     func() time.Time { return now },
		OnFrame: func(f DecodedFrame) { *outcomes = append(*outcomes, f) },
	})
}

// TestReceiverDropsSequenceJump: one CRC-clean packet whose sequence
// number jumps further ahead of the next expected one than the sender's
// retransmit budget, as a corrupted header would, is dropped and counted
// corrupt without allocating per skipped number, and the stream around it
// decodes untouched. A jump of exactly the budget still opens a gap of
// that many NACKable packets: the receiver's window is the sender's buffer.
func TestReceiverDropsSequenceJump(t *testing.T) {
	pkts := cleanPackets(t)
	for _, tc := range []struct {
		name string
		jump uint32 // sequence numbers ahead of the next expected one
		gap  bool   // opens a gap instead of being dropped
	}{
		{"2^22", 1 << 22, false},
		{"budget", retxBudget, true},
		{"budget+1", retxBudget + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outcomes []DecodedFrame
			rx := frozenReceiver(&outcomes)
			rx.Ingest(pkts[0])

			// The jumping copy claims a frame of its own, so a gap it opens
			// overlaps no real frame's fragments.
			p, err := ParsePacket(pkts[1])
			if err != nil {
				t.Fatal(err)
			}
			p.Header.Seq, p.Header.FrameIndex = rx.nextSeq+tc.jump, 3
			jumper := MarshalPacket(p.Header, p.Payload)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rx.Ingest(jumper)
			runtime.ReadMemStats(&after)
			if tc.gap {
				if m := rx.Metrics(); m.PacketsCorrupt != 0 || len(rx.missing) != int(tc.jump) {
					t.Fatalf("after the jump: %d corrupt, %d missing; want 0 and %d", m.PacketsCorrupt, len(rx.missing), tc.jump)
				}
				return
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("a packet %d ahead allocated %d bytes, want < 1 MB", tc.jump, got)
			}
			if m := rx.Metrics(); m.PacketsCorrupt != 1 || len(rx.missing) != 0 {
				t.Fatalf("after the jump: %d corrupt, %d missing; want 1 and 0", m.PacketsCorrupt, len(rx.missing))
			}

			for _, p := range pkts[1:] {
				rx.Ingest(p)
			}
			if err := rx.Finish(3); err != nil {
				t.Fatal(err)
			}
			for _, f := range outcomes {
				if f.Status != FrameDecoded {
					t.Errorf("frame %d: %v (%v)", f.Index, f.Status, f.Err)
				}
			}
			if m := rx.Metrics(); m.PacketsCorrupt != 1 || m.NACKsSent != 0 || len(outcomes) != 3 {
				t.Errorf("%d outcomes, %d corrupt, %d NACKs; want 3, 1, 0", len(outcomes), m.PacketsCorrupt, m.NACKsSent)
			}
		})
	}
}

// TestReceiverTick: the last data packet of frame 1 is lost. Frame 2's
// first packet proves it lost, because frame 1's packets all went out
// before it, and NACKs exactly it at once. Answered, the retransmit heals
// frame 1 with no Tick and releases frame 2 behind it. Never answered, and
// the transport gone quiet, Tick alone drives the timer schedule, which
// the early NACK left as it was: no NACK before nackTimeout, one at it,
// backoff after, and frame 1 (a P-frame) concealed once its retry budget
// runs out, when it was before.
func TestReceiverTick(t *testing.T) {
	pkts := cleanPackets(t)
	lost, next := -1, -1
	var lostSeq uint32
	for i, raw := range pkts {
		p, err := ParsePacket(raw)
		if err != nil {
			t.Fatal(err)
		}
		switch h := p.Header; {
		case h.FrameIndex == 1 && int(h.Frag) == int(h.FragCount)-1:
			lost, lostSeq = i, h.Seq
		case h.FrameIndex == 2 && h.Frag == 0:
			next = i
		}
	}
	if lost < 0 || next != lost+1 || next == len(pkts)-1 {
		t.Fatal("frame 1's last packet is not followed by frame 2's first and more")
	}
	retx := bytes.Clone(pkts[lost])
	retx[3] |= FlagRetransmit
	for _, answer := range []bool{true, false} {
		t.Run(fmt.Sprintf("answered=%v", answer), func(t *testing.T) {
			start := time.Unix(0, 0)
			now := start
			var nacks [][]uint32
			var outcomes []DecodedFrame
			var rx *Receiver
			rx = NewReceiver(ReceiverConfig{
				Options: testOptions(codec.IntraInterV1),
				Now:     func() time.Time { return now },
				OnFrame: func(f DecodedFrame) { outcomes = append(outcomes, f) },
				SendControl: func(c Control) error {
					if c.Kind == ControlNACK {
						nacks = append(nacks, c.Seqs)
						if answer {
							rx.Ingest(retx) // re-entrant: queued, drained behind the NACKing packet
						}
					}
					return nil
				},
			})
			for i, raw := range pkts {
				if i == lost {
					continue
				}
				rx.Ingest(raw)
				if i != next {
					continue
				}
				if len(nacks) != 1 || !slices.Equal(nacks[0], []uint32{lostSeq}) {
					t.Fatalf("frame 2's first packet sent NACKs %v, want [[%d]]", nacks, lostSeq)
				}
				if want := map[bool]int{true: 2, false: 1}[answer]; len(outcomes) != want {
					t.Fatalf("%d frames resolved after frame 2's first packet, want %d", len(outcomes), want)
				}
			}
			if answer {
				m := rx.Metrics()
				if len(outcomes) != 3 || len(nacks) != 1 || m.PacketsLost != 1 || m.PacketsRecovered != 1 {
					t.Fatalf("%d frames resolved, %d NACKs, %d lost, %d recovered; want 3, 1, 1, 1",
						len(outcomes), len(nacks), m.PacketsLost, m.PacketsRecovered)
				}
				for _, f := range outcomes {
					if f.Status != FrameDecoded {
						t.Errorf("frame %d: %v (%v)", f.Index, f.Status, f.Err)
					}
				}
				return
			}
			if len(outcomes) != 1 {
				t.Fatalf("%d frames resolved with frame 1 incomplete, want 1", len(outcomes))
			}

			now = start.Add(nackTimeout - time.Millisecond)
			rx.Tick()
			if len(nacks) != 1 {
				t.Fatalf("Tick before nackTimeout sent NACKs %v after the early one", nacks[1:])
			}
			now = start.Add(nackTimeout)
			rx.Tick()
			if len(nacks) != 2 || !slices.Equal(nacks[1], []uint32{lostSeq}) {
				t.Fatalf("Tick at nackTimeout sent NACKs %v after the early one, want [[%d]]", nacks[1:], lostSeq)
			}
			for len(outcomes) < 3 {
				if now.Sub(start) > time.Second {
					t.Fatal("Tick never resolved frame 1")
				}
				now = now.Add(time.Millisecond)
				rx.Tick()
			}
			// Timer NACKs at 1, then 1+2, timeouts; the budget is spent at 1+2+4.
			if got, want := now.Sub(start), 7*nackTimeout; got != want {
				t.Errorf("frame 1 resolved %v after the loss, want %v", got, want)
			}
			if len(nacks) != 1+rx.cfg.PFrameRetries {
				t.Errorf("%d NACKs before giving up, want the early one and %d", len(nacks), rx.cfg.PFrameRetries)
			}
			for _, n := range nacks {
				if !slices.Equal(n, []uint32{lostSeq}) {
					t.Errorf("NACK %v, want [%d]", n, lostSeq)
				}
			}
			if m := rx.Metrics(); m.PacketsLost != 1 {
				t.Errorf("%d packets counted lost, want 1", m.PacketsLost)
			}
			if f := outcomes[1]; f.Status != FrameConcealed {
				t.Errorf("frame 1: %v (%v), want concealed", f.Status, f.Err)
			}
			if f := outcomes[2]; f.Status != FrameDecoded {
				t.Errorf("frame 2: %v (%v), want decoded", f.Status, f.Err)
			}
		})
	}
}

// TestReceiverSequenceWrap: a stream whose sequence numbers wrap past 2^32
// mid-frame, with the packets either side of the wrap swapped in flight,
// opens one gap at the wrap and heals it when the late packet lands.
func TestReceiverSequenceWrap(t *testing.T) {
	pkts := cleanPackets(t)
	base := uint32(0) - uint32(len(pkts)/2) // the wrap falls inside the stream
	wire := make([][]byte, len(pkts))
	for i, p := range pkts {
		wire[i] = reseq(t, p, base+uint32(i))
	}
	last := len(pkts) / 2 // the packet with sequence number 0
	wire[last-1], wire[last] = wire[last], wire[last-1]

	var outcomes []DecodedFrame
	rx := frozenReceiver(&outcomes)
	rx.nextSeq = base // a long-lived stream reaches the wrap
	for i, p := range wire {
		rx.Ingest(p)
		if i == last-1 && len(rx.missing) != 1 {
			t.Fatalf("the reordered wrap opened %d missing entries, want 1", len(rx.missing))
		}
	}
	if err := rx.Finish(3); err != nil {
		t.Fatal(err)
	}
	m := rx.Metrics()
	if len(outcomes) != 3 || m.FramesDecoded != 3 || len(rx.missing) != 0 {
		t.Fatalf("%d outcomes, %d decoded, %d still missing; want 3, 3, 0", len(outcomes), m.FramesDecoded, len(rx.missing))
	}
	if m.PacketsCorrupt != 0 || m.PacketsDuplicate != 0 || m.NACKsSent != 0 {
		t.Errorf("wrap cost %d corrupt, %d duplicate, %d NACKs; want none", m.PacketsCorrupt, m.PacketsDuplicate, m.NACKsSent)
	}
}

// nackRecorder is a frozen receiver that records the sequence numbers of
// every NACK it sends, one slice per message.
func nackRecorder(nacks *[][]uint32) *Receiver {
	rx := frozenReceiver(new([]DecodedFrame))
	rx.cfg.SendControl = func(c Control) error {
		if c.Kind == ControlNACK {
			*nacks = append(*nacks, c.Seqs)
		}
		return nil
	}
	return rx
}

// TestReceiverNACKBookkeepingBounded: a hostile stream holds maxSeqJump
// gaps open inside one frame, where nothing proves them lost. Its further
// packets prove nothing, NACK nothing, allocate nothing and leave the
// queue of unproven losses and the timer heap as they were. The first
// packet of a later frame then NACKs every gap at once, each once, in
// order, and drains the queue; the packets after it NACK nothing more.
func TestReceiverNACKBookkeepingBounded(t *testing.T) {
	p0, err := ParsePacket(cleanPackets(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	// Frame 3 is a P-frame from sequence number 1 whose fragments from
	// maxSeqJump on arrive: the first opens the gaps, the others run under
	// AllocsPerRun (runs+1 calls). Frame 4 follows it.
	const frags = maxSeqJump + runs + 2
	packet := func(idx uint32, frag uint16) []byte {
		h := p0.Header
		h.FrameIndex, h.FrameType, h.Frag, h.FragCount, h.Seq = idx, codec.PFrame, frag, frags, 1+uint32(frag)
		if idx == 4 {
			h.FragCount, h.Seq = 8, 1+frags+uint32(frag)
		}
		return MarshalPacket(h, p0.Payload)
	}
	var nacks [][]uint32
	rx := nackRecorder(&nacks)
	rx.Ingest(MarshalPacket(p0.Header, p0.Payload))
	rx.Ingest(packet(3, maxSeqJump))
	if len(rx.missing) != maxSeqJump || len(nacks) != 0 {
		t.Fatalf("%d missing, %d NACKs; want %d and 0", len(rx.missing), len(nacks), maxSeqJump)
	}

	var same [][]byte
	for f := maxSeqJump + 1; f < frags; f++ {
		same = append(same, packet(3, uint16(f)))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		rx.Ingest(same[0])
		same = same[1:]
	})
	if allocs != 0 || len(nacks) != 0 || len(rx.missing) != maxSeqJump || len(same) != 0 {
		t.Fatalf("a packet of the gapped frame: %.1f allocations, %d NACKs, %d missing; want 0, 0, %d",
			allocs, len(nacks), len(rx.missing), maxSeqJump)
	}
	if rx.unHead != 0 || len(rx.unproven) != maxSeqJump || len(rx.timers) != maxSeqJump {
		t.Fatalf("queue %d..%d, %d timers; want 0..%d and %d", rx.unHead, len(rx.unproven), len(rx.timers), maxSeqJump, maxSeqJump)
	}

	rx.Ingest(packet(4, 0))
	if len(nacks) != 1 || len(nacks[0]) != maxSeqJump || len(rx.unproven) != 0 {
		t.Fatalf("frame 4's first packet sent %d NACKs for %d missing, %d left queued; want 1 of all %d, 0 queued",
			len(nacks), len(rx.missing), len(rx.unproven)-rx.unHead, maxSeqJump)
	}
	for i, s := range nacks[0] {
		if s != 1+uint32(i) {
			t.Fatalf("NACK seq %d at %d, want %d", s, i, 1+i)
		}
	}
	for f := uint16(1); f < 8; f++ {
		rx.Ingest(packet(4, f))
	}
	if m := rx.Metrics(); len(nacks) != 1 || m.PacketsLost != maxSeqJump {
		t.Errorf("%d NACKs, %d counted lost; want 1 and %d", len(nacks), m.PacketsLost, maxSeqJump)
	}
}

// TestReceiverHostileParity: a parity packet proves losses only from where
// a real one can sit. Frame 0 has two gaps open, unproven. A group that
// overruns its frame is corrupt. A group ending maxSeqJump or more ahead
// of the next expected sequence number folds into reassembly like any
// parity but reveals no gap and NACKs nothing: a data packet that far
// ahead would be dropped. One ending a packet closer reveals exactly
// maxSeqJump missing packets, as a data packet there would, and proves
// everything below its group and in it lost, the two gaps too.
func TestReceiverHostileParity(t *testing.T) {
	pkts := cleanPackets(t)
	p0, err := ParsePacket(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	h0 := p0.Header
	if h0.FragCount < 4 {
		t.Fatalf("frame 0 has %d fragments, want at least 4", h0.FragCount)
	}
	parity := func(idx uint32, g ParityGroup) []byte {
		g.Body = []byte{0, 0}
		return MarshalPacket(PacketHeader{Flags: FlagParity, StreamID: h0.StreamID, FrameIndex: idx,
			FrameType: codec.PFrame, FragCount: 1, Seq: g.BaseSeq}, AppendParity(nil, g))
	}
	// edge is a two-member group of a two-fragment frame 3 ending d past
	// the next expected sequence number (4, once frame 0's packets 0 and 3
	// are in).
	edge := func(d uint32) []byte {
		return parity(3, ParityGroup{BaseSeq: 3 + d, Count: 2, Stride: 1, FrameFirstSeq: 3 + d, FragCount: 2})
	}
	for _, tc := range []struct {
		name             string
		pkt              []byte
		corrupt, missing int
		nacked           int // seqs NACKed
	}{
		{"overruns its frame", parity(0, ParityGroup{BaseSeq: uint32(h0.FragCount) - 1, Count: 2, Stride: 1,
			FragCount: h0.FragCount}), 1, 2, 0},
		{"ends maxSeqJump ahead", edge(maxSeqJump), 0, 2, 0},
		{"ends 2^20 ahead", edge(1 << 20), 0, 2, 0},
		{"ends maxSeqJump-1 ahead", edge(maxSeqJump - 1), 0, 2 + maxSeqJump, 2 + maxSeqJump},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var nacks [][]uint32
			rx := nackRecorder(&nacks)
			rx.Ingest(pkts[0])
			rx.Ingest(pkts[3]) // frame 0's 1 and 2 go missing: same frame, unproven
			rx.Ingest(tc.pkt)
			nacked := 0
			for _, n := range nacks {
				nacked += len(n)
			}
			if m := rx.Metrics(); m.PacketsCorrupt != int64(tc.corrupt) || len(rx.missing) != tc.missing || nacked != tc.nacked {
				t.Errorf("%d corrupt, %d missing, %d NACKed; want %d, %d, %d",
					m.PacketsCorrupt, len(rx.missing), nacked, tc.corrupt, tc.missing, tc.nacked)
			}
		})
	}
	// A group ending maxSeqJump ahead reveals nothing but still repairs:
	// once a data packet completes it, parity rebuilds a member ahead of
	// the next expected seq, and the next frame's first packet opens that
	// member as missing and NACKs it once, though the frame holds it.
	t.Run("rebuilds a member maxSeqJump ahead", func(t *testing.T) {
		var nacks [][]uint32
		rx := nackRecorder(&nacks)
		rx.Ingest(pkts[0])
		rx.Ingest(pkts[3])
		data := func(idx, seq uint32, frags uint16, payload string) []byte {
			return MarshalPacket(PacketHeader{StreamID: h0.StreamID, FrameIndex: idx, FrameType: codec.PFrame,
				FragCount: frags, Seq: seq}, []byte(payload))
		}
		// Frame 3 is three fragments from x; the group is its members x
		// and x+2, ending maxSeqJump past the next expected seq, 4.
		x := uint32(4 + maxSeqJump - 2)
		body := make([]byte, 3)
		xorRecord(body, []byte("a"))
		xorRecord(body, []byte("c"))
		rx.Ingest(MarshalPacket(PacketHeader{Flags: FlagParity, StreamID: h0.StreamID, FrameIndex: 3,
			FrameType: codec.PFrame, FragCount: 1, Seq: x},
			AppendParity(nil, ParityGroup{BaseSeq: x, Count: 2, Stride: 2, FrameFirstSeq: x, FragCount: 3, Body: body})))
		if _, open := rx.missing[x+2]; open || rx.nextSeq != 4 {
			t.Fatalf("the far group revealed its frame: next seq %d", rx.nextSeq)
		}
		rx.Ingest(data(3, x, 3, "a"))
		if pf := rx.frames[3]; pf == nil || string(pf.frags[2]) != "c" || rx.nextSeq != x+1 {
			t.Fatalf("frame 3's last fragment was not rebuilt ahead of next seq %d", rx.nextSeq)
		}
		rx.Ingest(data(4, x+3, 1, "d"))
		times := map[uint32]int{}
		for _, n := range nacks {
			for _, s := range n {
				times[s]++
			}
		}
		if times[x+1] != 1 || times[x+2] != 1 || rx.fec.Snapshot().ParityRepairs != 1 {
			t.Errorf("the lost seq NACKed %d times, the rebuilt one %d, after %d repairs; want 1, 1, 1",
				times[x+1], times[x+2], rx.fec.Snapshot().ParityRepairs)
		}
	})
}

// TestReceiverHoldsEarlyControls: a camera and a layer subscription sent
// before any packet wait, the latest of each, and go out on the stream the
// first packet names.
func TestReceiverHoldsEarlyControls(t *testing.T) {
	pkts := cleanPackets(t)
	var sent []Control
	rx := frozenReceiver(new([]DecodedFrame))
	rx.cfg.SendControl = func(c Control) error {
		sent = append(sent, c)
		return nil
	}
	cam, other := awayCamera(), awayCamera()
	other.MaxDist = 2
	rx.SendLayers(2)
	rx.SendViewport(other)
	rx.SendViewport(cam)
	rx.SendLayers(1)
	if len(sent) != 0 {
		t.Fatalf("%d controls sent before the stream was known", len(sent))
	}
	rx.Ingest(pkts[0])
	p, _ := ParsePacket(pkts[0])
	want := []Control{{Kind: ControlViewport, StreamID: p.Header.StreamID, Camera: cam},
		{Kind: ControlLayers, StreamID: p.Header.StreamID, Layers: 1}}
	if fmt.Sprint(sent) != fmt.Sprint(want) {
		t.Fatalf("sent %+v, want %+v", sent, want)
	}
	rx.Ingest(pkts[1])
	rx.SendLayers(0)
	if len(sent) != 3 || sent[2].Layers != 0 || sent[2].StreamID != p.Header.StreamID {
		t.Fatalf("controls after the first packet: %+v", sent[2:])
	}
}
