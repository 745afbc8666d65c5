package stream

// Closed-loop congestion adaptation tests. The deterministic harness runs
// a one-viewer Server LOCKSTEP — submit one frame, wait until the viewer
// has sent it — so each frame's full cycle (encode → publish → viewer send
// → faulty link → receiver ingest → feedback report → Server.HandleControl
// → controller step) completes before the
// next frame's encode reads the knobs. Combined with the virtual-clock
// LossyPipe and the seeded FaultyLink, an entire adaptation trajectory —
// fault pattern, feedback cadence, knob moves, decoded bytes — replays
// identically from the seed alone.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/linksim"
	"repro/internal/metrics"
)

// adaptOptions is testOptions plus the congestion controller.
func adaptOptions(d codec.Design) codec.Options {
	o := testOptions(d)
	o.Adapt = codec.AdaptiveRate{Enabled: true}
	return o
}

// adaptRun captures one lockstep adaptive stream end to end.
type adaptRun struct {
	gops     []int // GOP knob after each frame's cycle
	qscales  []int // quality knob after each frame's cycle
	snaps    []codec.ControllerSnapshot
	atBase   []bool // every knob at baseline after each frame's cycle
	statuses []FrameStatus
	wireHash string // sha256 of the encoder's bytes, as the viewer sent them
	adapt    codec.ControllerSnapshot
	viewer   ViewerMetrics
	recovery metrics.RecoverySnapshot
	faults   linksim.FaultStats
}

// runAdaptive streams frames lockstep through a seeded FaultyLink with the
// controller closed over receiver feedback, stepping the drop rate from
// pre to post before frame stepAt.
func runAdaptive(t testing.TB, frames []*geom.VoxelCloud, seed int64, stepAt int, pre, post float64) adaptRun {
	t.Helper()
	return runAdaptiveSteps(t, frames, adaptOptions(codec.IntraInterV2), seed, pre, dropStep{stepAt, post})
}

// dropStep sets the link's drop rate before frame at.
type dropStep struct {
	at   int
	rate float64
}

// runAdaptiveSteps is runAdaptive for any options and any drop schedule:
// the link starts at pre and takes each step's rate before its frame.
func runAdaptiveSteps(t testing.TB, frames []*geom.VoxelCloud, opts codec.Options, seed int64, pre float64, steps ...dropStep) adaptRun {
	t.Helper()
	fl := linksim.NewFaultyLink(linksim.WiFi, linksim.FaultProfile{DropRate: pre, Seed: seed})
	var run adaptRun
	pipe := NewLossyPipe(fl, ReceiverConfig{
		Options:       opts,
		FeedbackEvery: 4,
		OnFrame:       func(f DecodedFrame) { run.statuses = append(run.statuses, f.Status) },
	})
	clean := newCleanCopy(opts)
	sv, v := oneViewer(t, ServerConfig{Options: opts}, len(frames), clean.tee(pipe.PacketOut))
	pipe.AttachServer(sv)
	ctrl := sv.Controller()
	for i, f := range frames {
		for _, st := range steps {
			if i == st.at {
				fl.SetDropRate(st.rate)
			}
		}
		sendLockstep(t, sv, v, i, f)
		snap := ctrl.Snapshot()
		run.gops = append(run.gops, snap.Knobs.GOP)
		run.qscales = append(run.qscales, snap.Knobs.QScale)
		run.snaps = append(run.snaps, snap)
		run.atBase = append(run.atBase, ctrl.AtBaseline())
	}
	if err := sv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := pipe.Finish(len(frames)); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	run.adapt = ctrl.Snapshot()
	run.viewer = v.Metrics()
	run.recovery = pipe.Receiver().Metrics()
	run.faults = fl.Stats()
	run.wireHash = hex.EncodeToString(clean.sum.Sum(nil))
	return run
}

// TestAdaptConvergesOnDropStep is the step-response acceptance table. Each
// row is a lockstep stream with the controller on: a clean link, then a
// 15% drop step. The controller must shrink the GOP within 24 frames of the
// step, and the trailing window must decode at least 0.70 of its frames.
//
//   - loot: 48 frames, the step at frame 16 and never cleared. Quality
//     must have degraded by the end.
//   - redandblack: the step response at the paper's segment counts scaled
//     to 0.008, 96 frames, the step over frames 24-47, clean again after.
//     Once the link clears, a probing upswitch must bring every knob back
//     to baseline within 30 frames (half the 60 frames passive decay
//     took before the controller probed), and the last third must decode.
//     Run with -v for its table, one row per feedback window.
func TestAdaptConvergesOnDropStep(t *testing.T) {
	const (
		budget    = 24 // frames after the step for the GOP to shrink
		recovery  = 30 // frames after the link clears to reach baseline
		tailFloor = 0.70
	)
	v2 := scaledOptions(codec.IntraInterV2, 0.008)
	v2.Adapt = codec.AdaptiveRate{Enabled: true}
	for _, row := range []struct {
		name            string
		frames          []*geom.VoxelCloud
		opts            codec.Options
		stepAt, clearAt int // clearAt 0: the step never clears
		tail            int // trailing frames held to the floor
	}{
		{"loot", lossyFrames(t, 48, 0.008), adaptOptions(codec.IntraInterV2), 16, 0, 12},
		{dataset.TableI()[0].Name, videoFrames(t, dataset.TableI()[0].Name, 96, 0.008), v2, 24, 48, 32},
	} {
		t.Run(row.name, func(t *testing.T) {
			total := len(row.frames)
			steps := []dropStep{{row.stepAt, 0.15}}
			if row.clearAt > 0 {
				steps = append(steps, dropStep{row.clearAt, 0})
			}
			run := runAdaptiveSteps(t, row.frames, row.opts, 42, 0, steps...)
			stepAt := row.stepAt

			if len(run.statuses) != total || len(run.gops) != total {
				t.Fatalf("accounting: %d statuses, %d knob samples, want %d", len(run.statuses), len(run.gops), total)
			}
			logAdaptWindows(t, run, row.opts, stepAt, row.clearAt)
			// Pre-step: a clean link must never shrink the GOP below its base.
			for i := 0; i < stepAt; i++ {
				if run.gops[i] < 3 {
					t.Fatalf("frame %d (clean link): GOP knob %d below base", i, run.gops[i])
				}
			}
			// Post-step: the GOP must shrink within the budget...
			shrunkAt := -1
			for i := stepAt; i < stepAt+budget && i < total; i++ {
				if run.gops[i] < run.gops[stepAt-1] {
					shrunkAt = i
					break
				}
			}
			if shrunkAt < 0 {
				t.Fatalf("GOP never shrank within %d frames of the drop step (trajectory %v)", budget, run.gops)
			}
			// Controller bookkeeping must reflect the story.
			if run.viewer.FeedbackReports == 0 {
				t.Fatal("no feedback reports consumed")
			}
			a := run.adapt.Counters
			if a.GOPShrinks == 0 || a.QualityDrops == 0 || a.CongestedEnters == 0 {
				t.Errorf("controller counters missing the step response: %+v", a)
			}
			if row.clearAt == 0 {
				// ...and quality must have degraded with it.
				if run.qscales[total-1] <= 1 {
					t.Errorf("quality knob never degraded under 15%% loss (trajectory %v)", run.qscales)
				}
			} else {
				// Probing upswitch: back to baseline within the recovery budget.
				recovered := -1
				for i := row.clearAt; i < total; i++ {
					if run.atBase[i] {
						recovered = i - row.clearAt
						break
					}
				}
				probes := run.adapt.FEC.Probes
				t.Logf("GOP shrank %d frames after the step; every knob at baseline %d frames after the link cleared; %d probes",
					shrunkAt-stepAt, recovered, probes)
				if recovered < 0 || recovered > recovery {
					t.Errorf("knobs back at baseline %d frames after the link cleared, budget %d (-1: never)", recovered, recovery)
				}
				if probes == 0 {
					t.Error("the controller never probed after the loss cleared")
				}
			}
			// Recovery: the trailing window (shrunken GOP in effect) must decode.
			decoded := 0
			for _, st := range run.statuses[total-row.tail:] {
				if st == FrameDecoded {
					decoded++
				}
			}
			ratio := float64(decoded) / float64(row.tail)
			t.Logf("GOP shrank at frame %d (%d→%d); tail decoded %d/%d (%.2f); gops=%v qscales=%v",
				shrunkAt, run.gops[stepAt-1], run.gops[total-1], decoded, row.tail, ratio,
				run.gops, run.qscales)
			if ratio < tailFloor {
				t.Fatalf("trailing decoded ratio %.2f below the %.2f floor", ratio, tailFloor)
			}
		})
	}
}

// logAdaptWindows logs a run's step response, one line per feedback window
// of four frames: the link's drop rate, the knobs after the window (GOP,
// with * while a probe is in flight, quantization, reuse-threshold boost,
// parity), the loss EWMA, and the window's frame fates.
func logAdaptWindows(t *testing.T, run adaptRun, opts codec.Options, stepAt, clearAt int) {
	t.Helper()
	t.Logf("%-6s %4s %4s %6s %5s %6s %9s %3s %7s %4s", "frames", "drop", "gop", "qscale", "boost", "parity", "loss ewma", "ok", "conceal", "skip")
	for lo := 0; lo < len(run.snaps); lo += 4 {
		hi := min(lo+4, len(run.snaps))
		drop := 0.0
		if lo >= stepAt && (clearAt == 0 || lo < clearAt) {
			drop = 0.15
		}
		snap := run.snaps[hi-1]
		probe := ""
		if snap.Probing {
			probe = "*"
		}
		var fates [3]int
		for _, st := range run.statuses[lo:min(hi, len(run.statuses))] {
			fates[st]++
		}
		t.Logf("%-6s %3.0f%% %4s %6d %4.0fx %6.2f %9.3f %3d %7d %4d", fmt.Sprintf("%d-%d", lo, hi-1), drop*100,
			fmt.Sprintf("%d%s", snap.Knobs.GOP, probe), snap.Knobs.QScale, snap.Knobs.Threshold/opts.Inter.Threshold,
			snap.Knobs.Parity, snap.LossEWMA, fates[FrameDecoded], fates[FrameConcealed], fates[FrameSkipped])
	}
}

// TestAdaptDeterministic: the same seed must replay the same knob
// trajectory, frame fates, recovery counters, and the exact same encoded
// bytes — the adaptation loop adds no nondeterminism to the pipeline.
func TestAdaptDeterministic(t *testing.T) {
	frames := lossyFrames(t, 30, 0.008)
	a := runAdaptive(t, frames, 9, 10, 0, 0.15)
	b := runAdaptive(t, frames, 9, 10, 0, 0.15)
	if a.wireHash != b.wireHash {
		t.Errorf("encoded bytes diverged across identical seeded runs:\n a=%s\n b=%s", a.wireHash, b.wireHash)
	}
	for i := range a.gops {
		if a.gops[i] != b.gops[i] || a.qscales[i] != b.qscales[i] {
			t.Fatalf("knob trajectory diverged at frame %d: (%d,%d) vs (%d,%d)",
				i, a.gops[i], a.qscales[i], b.gops[i], b.qscales[i])
		}
	}
	for i := range a.statuses {
		if a.statuses[i] != b.statuses[i] {
			t.Fatalf("frame %d fate diverged: %v vs %v", i, a.statuses[i], b.statuses[i])
		}
	}
	if a.recovery != b.recovery {
		t.Errorf("recovery counters diverged:\n a=%+v\n b=%+v", a.recovery, b.recovery)
	}
	if a.faults != b.faults {
		t.Errorf("fault stats diverged:\n a=%+v\n b=%+v", a.faults, b.faults)
	}
	// A different seed must produce a different fault pattern (and is
	// allowed — expected — to steer the knobs differently).
	c := runAdaptive(t, frames, 10, 10, 0, 0.15)
	if c.faults == a.faults {
		t.Error("different seeds replayed identical fault sequences")
	}
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
	sv, v := oneViewer(t, ServerConfig{Options: adaptOptions(codec.IntraInterV2)}, 1, nil)
	defer func() {
		_ = sv.Close()
	}()
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

// TestReceiverEmitsFeedback: a receiver configured with FeedbackEvery must
// emit monotonically numbered reports whose window deltas sum to its
// lifetime counters.
func TestReceiverEmitsFeedback(t *testing.T) {
	frames := lossyFrames(t, 12, 0.01)
	opts := testOptions(codec.IntraInterV1)
	fl := linksim.NewFaultyLink(linksim.WiFi, linksim.FaultProfile{})
	var reports []Feedback
	pipe := NewLossyPipe(fl, ReceiverConfig{Options: opts, FeedbackEvery: 3})
	recordFeedback(pipe, &reports)
	sv, v := oneViewer(t, ServerConfig{Options: opts}, len(frames), pipe.PacketOut)
	pipe.AttachServer(sv)
	for _, f := range frames {
		if err := sv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Finish(len(frames)); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 { // 12 frames / FeedbackEvery 3
		t.Fatalf("got %d reports, want 4: %+v", len(reports), reports)
	}
	var frameSum int64
	for i, fb := range reports {
		if fb.Report != uint32(i+1) {
			t.Errorf("report %d numbered %d", i, fb.Report)
		}
		frameSum += int64(fb.Decoded) + int64(fb.Concealed) + int64(fb.Skipped)
	}
	if got := pipe.Receiver().Metrics().Frames(); frameSum != got {
		t.Errorf("window deltas sum to %d frames, lifetime counters say %d", frameSum, got)
	}
	if got := v.Metrics().FeedbackReports; got != int64(len(reports)) {
		t.Errorf("viewer consumed %d reports, receiver sent %d", got, len(reports))
	}
}

// recordFeedback appends every feedback report the pipe's receiver sends
// to reports, ahead of the pipe's own control path.
func recordFeedback(pipe *LossyPipe, reports *[]Feedback) {
	send := pipe.rx.cfg.SendControl
	pipe.rx.cfg.SendControl = func(c Control) error {
		if c.Kind == ControlFeedback {
			*reports = append(*reports, c.Feedback)
		}
		return send(c)
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

// TestServerFeedbackAggregation: the shared controller must see the
// worst-percentile viewer loss, not the average and not a lone outlier
// (at the default 0.9 quantile with few viewers, the worst).
func TestServerFeedbackAggregation(t *testing.T) {
	sv := NewServer(context.Background(), ServerConfig{Options: adaptOptions(codec.IntraInterV2)})
	defer func() { _ = sv.Close() }()
	var vs []*Viewer
	for i := 0; i < 4; i++ {
		v, err := sv.Attach(ViewerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	// Three clean viewers, one at 50% loss. Quantile 0.9 over 4 viewers
	// picks index ceil(0.9*4)-1 = 3: the worst.
	for i, v := range vs {
		var lost uint32
		if i == 3 {
			lost = 100
		}
		err := sv.HandleControl(Control{Kind: ControlFeedback, StreamID: v.StreamID(),
			Feedback: Feedback{Report: 1, Received: 100, Lost: lost}})
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := sv.Controller().Snapshot()
	if snap.Counters.FeedbackReports != 4 {
		t.Fatalf("controller saw %d reports, want 4", snap.Counters.FeedbackReports)
	}
	// The last aggregation mixed 0.5 (the worst viewer) into the EWMA; had
	// it averaged (0.125) or taken the best (0), the EWMA could not reach
	// the high-loss region that shrinks the GOP.
	if !snap.Congested || snap.Knobs.GOP >= 3 {
		t.Errorf("worst-percentile signal did not drive congestion: %+v", snap)
	}
	// Per-viewer stale handling: a replayed report must not re-steer.
	before := sv.Controller().Snapshot().Counters.FeedbackReports
	err := sv.HandleControl(Control{Kind: ControlFeedback, StreamID: vs[3].StreamID(),
		Feedback: Feedback{Report: 1, Received: 100, Lost: 100}})
	if err != nil {
		t.Fatal(err)
	}
	vm := vs[3].Metrics()
	if vm.FeedbackStale != 1 || vm.FeedbackReports != 1 {
		t.Errorf("viewer stale handling: %+v", vm)
	}
	if after := sv.Controller().Snapshot().Counters.FeedbackReports; after != before {
		t.Error("stale viewer report reached the controller")
	}
	// Unknown stream ids drop silently (viewer just detached).
	if err := sv.HandleControl(Control{Kind: ControlFeedback, StreamID: 999,
		Feedback: Feedback{Report: 1, Received: 1, Lost: 1}}); err != nil {
		t.Fatal(err)
	}
}

// TestServerFeedbackChurnRace floods a live fan-out server with feedback
// reports, refresh requests, and viewer attach/detach churn concurrently
// with the broadcast — the -race acceptance for the aggregation lock
// order (server mu, then viewer mu).
func TestServerFeedbackChurnRace(t *testing.T) {
	frames := lossyFrames(t, 10, 0.01)
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
