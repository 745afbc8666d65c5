package stream

// End-to-end lossy-transport tests: a one-viewer Server streams real
// packets through a seeded linksim.FaultyLink into a Receiver, and every
// frame's fate is checked against the clean stream. These are the
// acceptance tests for the recovery design:
//
//   - at 5% random loss plus reordering, a 60-frame GOP-3 stream decodes
//     ≥ 95% of frames;
//   - every delivered frame is either byte-correct or explicitly reported
//     concealed/skipped (no silent corruption);
//   - the whole run is deterministic from the fault seed.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/linksim"
	"repro/internal/metrics"
)

// lossyFrames generates n frames at an independent scale (the 60-frame
// acceptance run uses smaller clouds than the 6-frame pipeline tests).
func lossyFrames(t testing.TB, n int, scale float64) []*geom.VoxelCloud {
	t.Helper()
	return videoFrames(t, "loot", n, scale)
}

// videoFrames returns the first n frames of a video at a scale. Frames are
// generated once per video and scale and shared read-only across tests.
func videoFrames(t testing.TB, video string, n int, scale float64) []*geom.VoxelCloud {
	t.Helper()
	spec, err := dataset.SpecByName(video)
	if err != nil {
		t.Fatal(err)
	}
	frameCache.Lock()
	defer frameCache.Unlock()
	key := fmt.Sprintf("%s@%g", video, scale)
	have := frameCache.m[key]
	if len(have) < n {
		g := dataset.NewGenerator(spec, scale)
		for i := len(have); i < n; i++ {
			f, err := g.Frame(i)
			if err != nil {
				t.Fatal(err)
			}
			have = append(have, f)
		}
		frameCache.m[key] = have
	}
	return have[:n:n]
}

var frameCache = struct {
	sync.Mutex
	m map[string][]*geom.VoxelCloud
}{m: map[string][]*geom.VoxelCloud{}}

// scaledOptions is the design's default options with the paper's segment
// counts shrunk in proportion to the dataset scale, so a segment keeps the
// point population it has at full scale.
func scaledOptions(d codec.Design, scale float64) codec.Options {
	o := codec.OptionsFor(d)
	o.IntraAttr.Segments = max(8, int(float64(o.IntraAttr.Segments)*scale))
	o.Inter.Segments = max(8, int(float64(o.Inter.Segments)*scale))
	return o
}

type lossyRun struct {
	outcomes []DecodedFrame
	recovery metrics.RecoverySnapshot
	viewer   ViewerMetrics
	faults   linksim.FaultStats
	// reference holds the clean decode of the encoder's own bytes — the
	// ground truth a byte-correct receiver must match.
	reference []*geom.VoxelCloud
}

// oneViewer starts a one-shard Server with one viewer, stream id 1, whose
// packets go to out. Its queue holds every one of frames frames, so the
// viewer sheds nothing: its stream is the shared pipeline's, frame for
// frame.
func oneViewer(t testing.TB, cfg ServerConfig, frames int, out PacketSendFunc) (*Server, *Viewer) {
	t.Helper()
	cfg.Shards, cfg.ViewerQueue = 1, frames
	sv := NewServer(context.Background(), cfg)
	v, err := sv.Attach(ViewerConfig{PacketOut: out})
	if err != nil {
		t.Fatal(err)
	}
	return sv, v
}

// sendLockstep submits frame i and waits until v has sent it, so the
// frame's whole round trip — link, receiver, control back to the server —
// lands before the next frame is encoded.
func sendLockstep(t testing.TB, sv *Server, v *Viewer, i int, f *geom.VoxelCloud) {
	t.Helper()
	if err := sv.Submit(context.Background(), f); err != nil {
		t.Fatalf("Submit %d: %v", i, err)
	}
	for deadline := time.Now().Add(10 * time.Second); v.Metrics().FramesSent <= int64(i); time.Sleep(50 * time.Microsecond) {
		if err := sv.Err(); err != nil || time.Now().After(deadline) {
			t.Fatalf("frame %d never sent: %v", i, err)
		}
	}
}

// cleanCopy is a lossy run's fault-free twin: a Receiver fed every fresh
// data packet before the packet enters the faulty link, so it decodes the
// encoder's own bytes, and a hash of those bytes.
type cleanCopy struct {
	rx     *Receiver
	clouds []*geom.VoxelCloud
	sum    hash.Hash
}

func newCleanCopy(opts codec.Options) *cleanCopy {
	c := &cleanCopy{sum: sha256.New()}
	c.rx = NewReceiver(ReceiverConfig{
		Options: opts,
		OnFrame: func(f DecodedFrame) { c.clouds = append(c.clouds, f.Cloud) },
	})
	return c
}

// tee returns out, with every fresh data packet copied to the clean
// receiver first.
func (c *cleanCopy) tee(out PacketSendFunc) PacketSendFunc {
	return func(ctx context.Context, pkt []byte) error {
		if p, err := ParsePacket(pkt); err == nil && p.Header.Flags&(FlagParity|FlagRetransmit) == 0 {
			c.sum.Write(p.Payload)
			c.rx.Ingest(bytes.Clone(pkt))
		}
		return out(ctx, pkt)
	}
}

// reference resolves the clean receiver's stream of frames frames and
// returns their decoded clouds, in frame order.
func (c *cleanCopy) reference(t testing.TB, frames int) []*geom.VoxelCloud {
	t.Helper()
	if err := c.rx.Finish(frames); err != nil {
		t.Fatalf("clean receiver: %v", err)
	}
	return c.clouds
}

// runLossy streams frames to a one-viewer Server configured by cfg, over a
// Wi-Fi link with the given fault profile, and collects every outcome. It
// fails the test on any pipeline error.
func runLossy(t *testing.T, frames []*geom.VoxelCloud, prof linksim.FaultProfile, cfg ServerConfig) lossyRun {
	t.Helper()
	fl := linksim.NewFaultyLink(linksim.WiFi, prof)
	var run lossyRun
	pipe := NewLossyPipe(fl, ReceiverConfig{
		Options: cfg.Options,
		// Feedback rides the reliable control path (no fault-PRNG draws),
		// so enabling it here keeps every run seed-deterministic while
		// letting adaptive streams close the congestion loop.
		FeedbackEvery: 4,
		OnFrame:       func(f DecodedFrame) { run.outcomes = append(run.outcomes, f) },
	})
	clean := newCleanCopy(cfg.Options)
	sv, v := oneViewer(t, cfg, len(frames), clean.tee(pipe.PacketOut))
	pipe.AttachServer(sv)
	for _, f := range frames {
		if err := sv.Submit(context.Background(), f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := pipe.Finish(len(frames)); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	run.recovery = pipe.Receiver().Metrics()
	run.viewer = v.Metrics()
	run.faults = fl.Stats()
	run.reference = clean.reference(t, len(frames))
	return run
}

func cloudsEqual(a, b *geom.VoxelCloud) bool {
	if a == nil || b == nil || a.Depth != b.Depth || len(a.Voxels) != len(b.Voxels) {
		return false
	}
	for i := range a.Voxels {
		if a.Voxels[i] != b.Voxels[i] {
			return false
		}
	}
	return true
}

// checkOutcomes asserts the core no-silent-corruption contract: one
// outcome per frame, in order, each either byte-correct against the
// reference stream or explicitly concealed/skipped with a typed error.
func checkOutcomes(t *testing.T, run lossyRun, total int) (decoded int) {
	t.Helper()
	if len(run.outcomes) != total {
		t.Fatalf("got %d frame outcomes, want %d", len(run.outcomes), total)
	}
	for i, f := range run.outcomes {
		if f.Index != i {
			t.Fatalf("outcome %d reports frame %d: out of order", i, f.Index)
		}
		switch f.Status {
		case FrameDecoded:
			decoded++
			if i >= len(run.reference) || !cloudsEqual(f.Cloud, run.reference[i]) {
				t.Errorf("frame %d: decoded cloud differs from clean reference (silent corruption)", i)
			}
		case FrameConcealed:
			if f.Err == nil {
				t.Errorf("frame %d concealed without an error", i)
			}
		case FrameSkipped:
			if f.Err == nil {
				t.Errorf("frame %d skipped without an error", i)
			}
			if f.Cloud != nil {
				t.Errorf("frame %d skipped but carries a cloud", i)
			}
		default:
			t.Fatalf("frame %d has unknown status %v", i, f.Status)
		}
	}
	rs := run.recovery
	if got := rs.FramesDecoded + rs.FramesConcealed + rs.FramesSkipped; got != int64(total) {
		t.Errorf("recovery counters account for %d frames, want %d (%+v)", got, total, rs)
	}
	return decoded
}

// TestLossyStreamNoFaults: a fault-free FaultyLink must decode every frame
// byte-correct with no recovery traffic.
func TestLossyStreamNoFaults(t *testing.T) {
	frames := lossyFrames(t, 9, 0.015)
	run := runLossy(t, frames, linksim.FaultProfile{}, ServerConfig{Options: testOptions(codec.IntraInterV1)})
	if decoded := checkOutcomes(t, run, len(frames)); decoded != len(frames) {
		t.Fatalf("decoded %d/%d frames on a clean link", decoded, len(frames))
	}
	if run.recovery.NACKsSent != 0 || run.viewer.Retransmits != 0 || run.recovery.RefreshRequests != 0 {
		t.Errorf("recovery traffic on a clean link: %+v", run.recovery)
	}
}

// TestLossyStreamRecovers5PercentLoss is the recovery acceptance table:
// GOP-3 streams to a one-viewer Server over seeded fault injection, each row held to a decoded-
// ratio floor. The first row is the 60-frame loot run at 5% loss. The rest
// are the loss sweep: redandblack at scale 0.008 with the paper's segment
// counts scaled to it, seed 42, 0 / 1 / 5 / 10% independent drop (3%
// reordering and 1% duplication on the lossy rows) and a Gilbert–Elliott
// burst row averaging ~4.4% loss in spells, first with NACK recovery alone
// (floor 0.95 up to 5%), then with one XOR parity packet per four data
// packets (floor 0.99 up to 5%). The 10% and burst rows have no floor: they
// log what recovery costs past it. Run with -v for the sweep's table.
func TestLossyStreamRecovers5PercentLoss(t *testing.T) {
	const frames = 60
	loot := lossyFrames(t, frames, 0.008)
	sweep := videoFrames(t, dataset.TableI()[0].Name, frames, 0.008)
	iid := func(drop float64) linksim.FaultProfile {
		p := linksim.FaultProfile{DropRate: drop, ReorderRate: 0.03, DupRate: 0.01, Seed: 42}
		if drop == 0 {
			p.ReorderRate, p.DupRate = 0, 0
		}
		return p
	}
	burst := linksim.FaultProfile{GEBadLoss: 0.6, ReorderRate: 0.03, DupRate: 0.01, Seed: 42}
	type row struct {
		name   string
		frames []*geom.VoxelCloud
		cfg    ServerConfig
		prof   linksim.FaultProfile
		floor  float64
	}
	rows := []row{{"loot 5%", loot, ServerConfig{Options: testOptions(codec.IntraInterV1)}, iid(0.05), 0.95}}
	for _, fec := range []struct {
		name  string
		cfg   FECConfig
		floor float64
	}{{"FEC off", FECConfig{}, 0.95}, {"FEC group 4", FECConfig{GroupLen: 4}, 0.99}} {
		cfg := ServerConfig{Options: scaledOptions(codec.IntraInterV1, 0.008), FEC: fec.cfg}
		for _, drop := range []float64{0, 0.01, 0.05, 0.10} {
			floor := fec.floor
			if drop > 0.05 {
				floor = 0
			}
			rows = append(rows, row{fmt.Sprintf("%s %.0f%%", fec.name, drop*100), sweep, cfg, iid(drop), floor})
		}
		rows = append(rows, row{fec.name + " GE burst", sweep, cfg, burst, 0})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			run := runLossy(t, r.frames, r.prof, r.cfg)
			decoded := checkOutcomes(t, run, frames)
			ratio := float64(decoded) / float64(frames)
			var recovered time.Duration
			var recoveredN int
			for _, f := range run.outcomes {
				if f.Status == FrameDecoded && f.Delay > 0 {
					recovered += f.Delay
					recoveredN++
				}
			}
			recovMs := 0.0
			if recoveredN > 0 {
				recovMs = recovered.Seconds() * 1000 / float64(recoveredN)
			}
			rs := run.recovery
			t.Logf("decoded %d/%d (%.3f), concealed %d, skipped %d; nacks %d, retx %d, parity repairs %d; recov %.1f ms; faults: %+v",
				decoded, frames, ratio, rs.FramesConcealed, rs.FramesSkipped, rs.NACKsSent,
				rs.RetransmitsReceived, rs.FEC.ParityRepairs, recovMs, run.faults)
			if ratio < r.floor {
				t.Fatalf("decoded ratio %.3f below the %.2f floor", ratio, r.floor)
			}
			lossy := r.prof.DropRate > 0 || r.prof.GEBadLoss > 0
			if !lossy {
				return
			}
			if run.faults.Dropped+run.faults.GEDrops == 0 {
				t.Fatal("fault injector dropped nothing: test is vacuous")
			}
			if r.cfg.FEC.GroupLen > 0 {
				if rs.FEC.ParityRepairs == 0 {
					t.Errorf("losses occurred but parity repaired none: %+v", rs.FEC)
				}
			} else if rs.NACKsSent == 0 || run.viewer.Retransmits == 0 {
				t.Errorf("losses occurred but no NACK/retransmit traffic: %+v", rs)
			}
		})
	}
}

// TestLossyStreamDeterministic: the same seed must replay the exact same
// per-frame outcomes and counters; a different seed must diverge somewhere
// in the packet counters.
func TestLossyStreamDeterministic(t *testing.T) {
	frames := lossyFrames(t, 18, 0.008)
	prof := linksim.FaultProfile{
		DropRate:    0.08,
		ReorderRate: 0.05,
		DupRate:     0.02,
		BurstEvery:  300,
		BurstLen:    3,
		Seed:        7,
	}
	cfg := ServerConfig{Options: testOptions(codec.IntraInterV1)}
	a := runLossy(t, frames, prof, cfg)
	b := runLossy(t, frames, prof, cfg)
	if len(a.outcomes) != len(b.outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.outcomes), len(b.outcomes))
	}
	for i := range a.outcomes {
		fa, fb := a.outcomes[i], b.outcomes[i]
		if fa.Status != fb.Status || fa.Type != fb.Type || fa.Delay != fb.Delay {
			t.Errorf("frame %d diverged across identical runs: %+v vs %+v", i, fa, fb)
		}
	}
	if a.recovery != b.recovery {
		t.Errorf("recovery counters diverged:\n a=%+v\n b=%+v", a.recovery, b.recovery)
	}
	if a.faults != b.faults {
		t.Errorf("fault stats diverged:\n a=%+v\n b=%+v", a.faults, b.faults)
	}

	prof.Seed = 8
	c := runLossy(t, frames, prof, cfg)
	if c.faults == a.faults {
		t.Error("different seeds produced identical fault sequences")
	}
}

// TestLossyStreamIFrameLossForcesRefresh kills every packet of one I-frame
// (including retransmits) with a targeted filter: the receiver must skip
// it, request a GOP refresh, resynchronize at the I-frame the server
// forces, and decode cleanly from there on. The victim is the second GOP's
// keyframe and the stream ends before a third GOP would open, so any later
// I-frame is a forced one. Frames go out lockstep over the congested link,
// ~50 ms of virtual time a packet, so the receiver gives up on the victim
// and asks for the refresh while frames are still being encoded.
func TestLossyStreamIFrameLossForcesRefresh(t *testing.T) {
	const gop, total = 6, 11
	const victim = gop
	frames := lossyFrames(t, total, 0.01)
	opts := testOptions(codec.IntraInterV1)
	opts.GOP = gop

	fl := linksim.NewFaultyLink(congested, linksim.FaultProfile{})
	var outcomes []DecodedFrame
	pipe := NewLossyPipe(fl, ReceiverConfig{
		Options: opts,
		OnFrame: func(f DecodedFrame) { outcomes = append(outcomes, f) },
	})
	sv, v := oneViewer(t, ServerConfig{Options: opts}, total, func(ctx context.Context, pkt []byte) error {
		if p, err := ParsePacket(pkt); err == nil && p.Header.FrameIndex == victim {
			return nil // the void eats the victim, first send and every retransmit
		}
		return pipe.PacketOut(ctx, pkt)
	})
	pipe.AttachServer(sv)
	for i, f := range frames {
		sendLockstep(t, sv, v, i, f)
	}
	if m := sv.Metrics(); m.Refreshes == 0 {
		t.Fatal("the refresh request never reached the encoder while it was encoding")
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Finish(total); err != nil {
		t.Fatal(err)
	}

	if len(outcomes) != total {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), total)
	}
	if outcomes[victim].Status != FrameSkipped {
		t.Fatalf("victim I-frame reported %v, want skipped", outcomes[victim].Status)
	}
	if pipe.Receiver().Metrics().RefreshRequests == 0 {
		t.Fatal("no GOP refresh was requested for a lost I-frame")
	}
	// After the refresh lands, the stream must resynchronize: once a frame
	// past the victim decodes, every later frame decodes too.
	resync := -1
	for i := victim + 1; i < total; i++ {
		if outcomes[i].Status == FrameDecoded {
			resync = i
			break
		}
		if outcomes[i].Status != FrameSkipped {
			t.Errorf("frame %d: %v before resync (want skipped: no reference)", i, outcomes[i].Status)
		}
		if !errors.Is(outcomes[i].Err, codec.ErrMissingReference) && !errors.Is(outcomes[i].Err, ErrFrameLost) {
			t.Errorf("frame %d skipped with unexpected error %v", i, outcomes[i].Err)
		}
	}
	if resync < 0 {
		t.Fatal("stream never resynchronized after I-frame loss")
	}
	if outcomes[resync].Type != codec.IFrame || resync%gop == 0 {
		t.Errorf("resync frame %d is a %v; want an I-frame the GOP of %d would not have opened", resync, outcomes[resync].Type, gop)
	}
	for i := resync; i < total; i++ {
		if outcomes[i].Status != FrameDecoded {
			t.Errorf("frame %d after resync: %v", i, outcomes[i].Status)
		}
	}
	for i := 0; i < victim; i++ {
		if outcomes[i].Status != FrameDecoded {
			t.Errorf("frame %d before the loss: %v", i, outcomes[i].Status)
		}
	}
	t.Logf("victim %d, resync at forced I-frame %d; %d refreshes", victim, resync, sv.Metrics().Refreshes)
}

// TestReceiverSenderDropIsNotLoss: frames a viewer's full queue sheds
// leave a frame-index gap but no sequence gap — the receiver must report
// each as a sender drop without NACKing anything. It runs
// slowViewerOverflow's deterministic trace, which sheds frames 1–5 and 7.
func TestReceiverSenderDropIsNotLoss(t *testing.T) {
	_, vm, outcomes, rx := slowViewerOverflow(t)
	if len(outcomes) != 9 {
		t.Fatalf("got %d outcomes, want 9", len(outcomes))
	}
	reported := 0
	for i, f := range outcomes {
		if f.Index != i {
			t.Fatalf("outcome %d is frame %d", i, f.Index)
		}
		switch i {
		case 0, 6, 8:
			if f.Status != FrameDecoded {
				t.Errorf("frame %d: %v (%v), want decoded", i, f.Status, f.Err)
			}
		default:
			if f.Status != FrameSkipped || !errors.Is(f.Err, ErrSenderDropped) {
				t.Errorf("frame %d: %v (%v), want skipped as a sender drop", i, f.Status, f.Err)
			}
			reported++
		}
	}
	if int64(reported) != vm.FramesDropped {
		t.Errorf("receiver saw %d sender drops, the viewer shed %d", reported, vm.FramesDropped)
	}
	if nacks := rx.Metrics().NACKsSent; nacks != 0 {
		t.Errorf("lossless transport but %d NACKs sent: sender drops mistaken for loss", nacks)
	}
}
