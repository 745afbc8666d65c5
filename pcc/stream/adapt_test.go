package stream

// Congestion feedback: the report wire format (with its fuzz target), the
// per-viewer stale-report filter, and feedback racing viewer churn. The
// worst-percentile reduction into the shared controller and the closed-loop
// step response are rows of the scenario table.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/codec"
)

// adaptOptions is testOptions plus the congestion controller.
func adaptOptions(d codec.Design) codec.Options {
	o := testOptions(d)
	o.Adapt = codec.AdaptiveRate{Enabled: true}
	return o
}

// TestHandleControlFeedback is the table over duplicate, stale, zero, and
// fresh feedback reports one viewer's receiver sends through
// Server.HandleControl: only strictly increasing report numbers may reach
// the controller.
func TestHandleControlFeedback(t *testing.T) {
	steps := []struct {
		name        string
		report      uint32
		loss        float64
		wantReports int64
		wantStale   int64
	}{
		{"first report accepted", 1, 0.5, 1, 0},
		{"duplicate dropped", 1, 0.5, 1, 1},
		{"older dropped", 0, 0.5, 1, 2}, // report 0 is never valid
		{"regression dropped", 1, 0.9, 1, 3},
		{"next accepted", 2, 0.5, 2, 3},
		{"gap accepted", 9, 0.5, 3, 3}, // lost reports don't wedge the stream
		{"post-gap stale dropped", 5, 0.5, 3, 4},
	}
	sv := NewServer(context.Background(), ServerConfig{Options: adaptOptions(codec.IntraInterV2)})
	defer func() { _ = sv.Close() }()
	v, err := sv.Attach(ViewerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		fb := Feedback{Report: st.report, Received: 100, Lost: uint32(100 * st.loss / (1 - st.loss))}
		if err := sv.HandleControl(Control{Kind: ControlFeedback, StreamID: v.StreamID(), Feedback: fb}); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		m := v.Metrics()
		if m.FeedbackReports != st.wantReports || m.FeedbackStale != st.wantStale {
			t.Fatalf("%s: reports=%d stale=%d, want %d/%d",
				st.name, m.FeedbackReports, m.FeedbackStale, st.wantReports, st.wantStale)
		}
		if got := sv.Controller().Snapshot().Counters.FeedbackReports; got != st.wantReports {
			t.Fatalf("%s: controller saw %d reports, want %d", st.name, got, st.wantReports)
		}
	}
}

// TestFeedbackRoundTrip: a feedback report survives the payload encoding
// and the full control-packet framing byte-for-byte.
func TestFeedbackRoundTrip(t *testing.T) {
	fb := Feedback{
		Report: 7, HighestFrame: 41, Received: 1200, Lost: 37,
		NACKs: 44, Decoded: 33, Concealed: 5, Skipped: 2,
	}
	payload := AppendFeedback(nil, fb)
	if len(payload) != FeedbackSize {
		t.Fatalf("payload is %d bytes, want %d", len(payload), FeedbackSize)
	}
	got, err := ParseFeedback(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != fb {
		t.Fatalf("payload roundtrip: %+v != %+v", got, fb)
	}
	raw := MarshalControl(Control{Kind: ControlFeedback, StreamID: 9, FrameIndex: 42, Feedback: fb})
	pkt, err := ParsePacket(raw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseControl(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != ControlFeedback || c.StreamID != 9 || c.Feedback != fb {
		t.Fatalf("control roundtrip: %+v", c)
	}
	if fb.LossRate() != float64(37)/float64(1200+37) {
		t.Errorf("LossRate = %v", fb.LossRate())
	}
	if (Feedback{}).LossRate() != 0 {
		t.Error("empty window must report zero loss")
	}
}

// TestParseFeedbackRejectsBadSizes: anything but exactly FeedbackSize
// bytes is malformed — truncated, padded, or empty.
func TestParseFeedbackRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, FeedbackSize - 1, FeedbackSize + 1, 2 * FeedbackSize} {
		if _, err := ParseFeedback(make([]byte, n)); !errors.Is(err, ErrBadPacket) {
			t.Errorf("%d bytes: err = %v, want ErrBadPacket", n, err)
		}
	}
	// And the error propagates through ParseControl for a framed feedback
	// packet whose payload was truncated in flight.
	raw := MarshalPacket(PacketHeader{
		Flags:     FlagControl,
		FrameType: codec.FrameType(ControlFeedback),
		FragCount: 1,
	}, make([]byte, FeedbackSize-4))
	pkt, err := ParsePacket(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseControl(pkt); !errors.Is(err, ErrBadPacket) {
		t.Errorf("truncated feedback control: err = %v, want ErrBadPacket", err)
	}
}

// FuzzParseFeedback: ParseFeedback must never panic, must accept exactly
// FeedbackSize-byte inputs (every bit pattern is a valid report), and
// accepted reports must re-encode to the identical bytes.
func FuzzParseFeedback(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, FeedbackSize))
	f.Add(make([]byte, FeedbackSize-1))
	f.Add(make([]byte, FeedbackSize+1))
	f.Add(AppendFeedback(nil, Feedback{
		Report: 3, HighestFrame: 17, Received: 900, Lost: 45,
		NACKs: 51, Decoded: 14, Concealed: 2, Skipped: 1,
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fb, err := ParseFeedback(data)
		if err != nil {
			if len(data) == FeedbackSize {
				t.Fatalf("rejected a %d-byte payload: %v", FeedbackSize, err)
			}
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("non-ErrBadPacket failure: %v", err)
			}
			return
		}
		if len(data) != FeedbackSize {
			t.Fatalf("accepted %d bytes", len(data))
		}
		if out := AppendFeedback(nil, fb); !bytes.Equal(out, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, out)
		}
		if lr := fb.LossRate(); lr < 0 || lr > 1 {
			t.Fatalf("loss rate %v outside [0,1] for %+v", lr, fb)
		}
	})
}

// TestServerFeedbackChurnRace floods a live fan-out server with feedback
// reports, refresh requests, and viewer attach/detach churn concurrently
// with the broadcast — the -race acceptance for the aggregation lock
// order (server mu, then viewer mu).
func TestServerFeedbackChurnRace(t *testing.T) {
	frames := videoFrames(t, "loot", 10, 0.01)
	sv := NewServer(context.Background(), ServerConfig{Options: adaptOptions(codec.IntraInterV2)})

	stable, err := sv.Attach(ViewerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	stormed := make(chan struct{}) // the first report reached the stable viewer
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // viewer churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			v, err := sv.Attach(ViewerConfig{})
			if err != nil {
				return // server closed
			}
			_ = sv.HandleControl(Control{Kind: ControlFeedback, StreamID: v.StreamID(),
				Feedback: Feedback{Report: 1, Received: 10, Lost: uint32(i % 5)}})
			sv.Detach(v)
		}
	}()
	go func() { // feedback storm at the stable viewer, reports ascending
		defer wg.Done()
		for i := uint32(1); ; i++ {
			select {
			case <-done:
				return
			default:
			}
			_ = sv.HandleControl(Control{Kind: ControlFeedback, StreamID: stable.StreamID(),
				Feedback: Feedback{Report: i, Received: 100, Lost: i % 30}})
			if i == 1 {
				close(stormed)
			}
		}
	}()
	go func() { // refresh storm: ForceIFrame coalescing under churn
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = sv.HandleControl(Control{Kind: ControlRefresh, StreamID: stable.StreamID()})
		}
	}()

	for _, f := range frames {
		if err := sv.Submit(context.Background(), f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// On a loaded machine the storm goroutine may not have run yet: let it
	// land one report before the storms stop.
	<-stormed
	close(done)
	wg.Wait()
	if err := sv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m := sv.Metrics()
	if m.Pipeline.Adapt.Counters.FeedbackReports == 0 {
		t.Error("no feedback reached the controller under churn")
	}
	if stable.Metrics().FeedbackReports == 0 {
		t.Error("stable viewer consumed no reports")
	}
}
