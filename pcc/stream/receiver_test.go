package stream

// Sequence-window tests: the receiver compares sequence numbers modulo
// 2^32, and a forward jump wider than maxSeqJump opens no per-sequence
// state (RFC 3550 Appendix A.1): it is dropped as corrupt, and a packet
// that follows it resyncs the stream.

import (
	"fmt"
	"runtime"
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

// TestReceiverTick: on a live transport that goes quiet, Tick alone drives
// recovery. The last data packet of frame 1 is lost, frame 2's packets
// reveal the gap, and then nothing arrives. Before nackTimeout Tick sends
// nothing; at it, one NACK for exactly the lost sequence number. Answered,
// the retransmit heals frame 1 and releases frame 2 behind it. Never
// answered, Tick re-NACKs with backoff and resolves frame 1 (a P-frame:
// concealed) once its retry budget runs out.
func TestReceiverTick(t *testing.T) {
	pkts := cleanPackets(t)
	lost := -1
	var lostSeq uint32
	for i, raw := range pkts {
		p, err := ParsePacket(raw)
		if err != nil {
			t.Fatal(err)
		}
		if h := p.Header; h.FrameIndex == 1 && int(h.Frag) == int(h.FragCount)-1 {
			lost, lostSeq = i, h.Seq
		}
	}
	if lost < 0 || lost == len(pkts)-1 {
		t.Fatal("frame 1 has no last packet with a later one behind it")
	}
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
							rx.Ingest(pkts[lost]) // re-entrant: queued, drained by Tick
						}
					}
					return nil
				},
			})
			for i, raw := range pkts {
				if i != lost {
					rx.Ingest(raw)
				}
			}
			if len(outcomes) != 1 {
				t.Fatalf("%d frames resolved with frame 1 incomplete, want 1", len(outcomes))
			}

			now = start.Add(nackTimeout - time.Millisecond)
			rx.Tick()
			if len(nacks) != 0 {
				t.Fatalf("Tick before nackTimeout sent NACKs %v", nacks)
			}
			now = start.Add(nackTimeout)
			rx.Tick()
			if len(nacks) != 1 || len(nacks[0]) != 1 || nacks[0][0] != lostSeq {
				t.Fatalf("Tick at nackTimeout sent NACKs %v, want [[%d]]", nacks, lostSeq)
			}
			if answer {
				if len(outcomes) != 3 {
					t.Fatalf("%d frames resolved after the retransmit, want 3", len(outcomes))
				}
				for _, f := range outcomes {
					if f.Status != FrameDecoded {
						t.Errorf("frame %d: %v (%v)", f.Index, f.Status, f.Err)
					}
				}
				return
			}

			for len(outcomes) < 3 {
				if now.Sub(start) > time.Second {
					t.Fatal("Tick never resolved frame 1")
				}
				now = now.Add(time.Millisecond)
				rx.Tick()
			}
			// NACKs at 1, then 1+2, timeouts; the budget is spent at 1+2+4.
			if got, want := now.Sub(start), 7*nackTimeout; got != want {
				t.Errorf("frame 1 resolved %v after the loss, want %v", got, want)
			}
			if len(nacks) != rx.cfg.PFrameRetries {
				t.Errorf("%d NACKs before giving up, want %d", len(nacks), rx.cfg.PFrameRetries)
			}
			for _, n := range nacks {
				if len(n) != 1 || n[0] != lostSeq {
					t.Errorf("NACK %v, want [%d]", n, lostSeq)
				}
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
