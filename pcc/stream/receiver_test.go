package stream

// Sequence-window tests: the receiver compares sequence numbers modulo
// 2^32, and a forward jump wider than maxSeqJump opens no per-sequence
// state (RFC 3550 Appendix A.1): it is dropped as corrupt, and a packet
// that follows it resyncs the stream.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/linksim"
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
// number is 2^22 ahead, as a corrupted header would be, is dropped and
// counted corrupt without allocating per skipped number, and the stream
// around it decodes untouched.
func TestReceiverDropsSequenceJump(t *testing.T) {
	pkts, _ := capturePackets(t, 3, FECConfig{})
	var outcomes []DecodedFrame
	rx := frozenReceiver(&outcomes)
	rx.Ingest(pkts[0])

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rx.Ingest(reseq(t, pkts[1], 1<<22))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a packet 2^22 ahead allocated %d bytes, want < 1 MB", got)
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
}

// TestReceiverSequenceWrap: a stream whose sequence numbers wrap past 2^32
// mid-frame, with the packets either side of the wrap swapped in flight,
// opens one gap at the wrap and heals it when the late packet lands.
func TestReceiverSequenceWrap(t *testing.T) {
	pkts, _ := capturePackets(t, 3, FECConfig{})
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

// TestReceiverResyncsAfterBlackout: a link that drops everything for more
// than maxSeqJump packets, then comes back. The first packet after the
// blackout is dropped as a jump, the next one resyncs the sequence space,
// the frames lost in the blackout are skipped, and the stream decodes
// again from the next I-frame on.
func TestReceiverResyncsAfterBlackout(t *testing.T) {
	const total, from, to = 24, 6, 15 // blackout over frames [from, to)
	frames := lossyFrames(t, total, 0.008)
	opts := testOptions(codec.IntraInterV1)
	fl := linksim.NewFaultyLink(linksim.WiFi, linksim.FaultProfile{Seed: 3})
	var outcomes []DecodedFrame
	pipe := NewLossyPipe(fl, ReceiverConfig{
		Options: opts,
		OnFrame: func(f DecodedFrame) { outcomes = append(outcomes, f) },
	})
	s := New(context.Background(), Config{Options: opts, MTU: 64, PacketOut: pipe.PacketOut})
	pipe.Attach(s)
	results := s.Results()
	for i, f := range frames {
		switch i {
		case from:
			fl.SetDropRate(1)
		case to:
			fl.SetDropRate(0)
		}
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
		if _, ok := <-results; !ok {
			t.Fatalf("results closed at frame %d: %v", i, s.Err())
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Finish(total); err != nil {
		t.Fatal(err)
	}
	rx := pipe.Receiver()
	m := rx.Metrics()
	t.Logf("blackout dropped %d packets; receiver: %+v", fl.Stats().Dropped, m)
	if fl.Stats().Dropped <= maxSeqJump {
		t.Fatalf("the blackout dropped %d packets, not more than the %d-packet window: test is vacuous", fl.Stats().Dropped, maxSeqJump)
	}
	if len(outcomes) != total {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), total)
	}
	if m.PacketsCorrupt != 1 || len(rx.missing) != 0 {
		t.Errorf("%d corrupt, %d still missing; want 1 and 0", m.PacketsCorrupt, len(rx.missing))
	}
	resync := -1
	for i, f := range outcomes {
		switch {
		case i < from && f.Status != FrameDecoded:
			t.Errorf("frame %d before the blackout: %v (%v)", i, f.Status, f.Err)
		case i >= from && i < to && f.Status == FrameDecoded:
			t.Errorf("frame %d decoded inside the blackout", i)
		case i >= to && resync < 0 && f.Status == FrameDecoded:
			resync = i
		}
	}
	if resync < 0 || outcomes[resync].Type != codec.IFrame {
		t.Fatalf("no I-frame decoded after the blackout (first decode at %d)", resync)
	}
	for _, f := range outcomes[resync:] {
		if f.Status != FrameDecoded {
			t.Errorf("frame %d after the resync: %v (%v)", f.Index, f.Status, f.Err)
		}
	}
}
