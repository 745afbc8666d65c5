package main

import (
	"context"
	"fmt"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/linksim"
	"repro/internal/trace"
	"repro/pcc/stream"
)

// Checked-in convergence contract for the adapt experiment — CI's
// adapt-smoke job fails the build when a change regresses any bound.
const (
	// adaptStepRate is the packet-drop step applied a quarter of the way
	// in and removed again at the half-way mark (15% -> 0%).
	adaptStepRate = 0.15
	// adaptConvergeBudget is how many frames after the loss step the
	// controller has to shrink the GOP below its pre-step value (the PR 5
	// downswitch contract).
	adaptConvergeBudget = 24
	// adaptPassiveDecayFrames is the passive recovery reference: how many
	// frames the controller needed to ease every knob back to baseline from
	// deep congestion on clean-hold decay alone, before it probed (15 clean
	// feedback reports at a report every adaptFeedbackEvery frames).
	// TestProbingUpswitchBeatsPassiveDecay keeps the measured comparison.
	adaptPassiveDecayFrames = 60
	// adaptRecoverBudget is the probing-upswitch recovery contract: after
	// the loss step clears, the controller must return every knob to
	// baseline within this many frames — half the passive decay time.
	adaptRecoverBudget = adaptPassiveDecayFrames / 2
	// adaptDecodedFloor is the minimum decoded-frame ratio over the final
	// third of the run, once the controller has settled.
	adaptDecodedFloor = 0.70
	// adaptSeed fixes the fault injector; the whole closed loop is
	// deterministic, so the printed trajectory replays exactly.
	adaptSeed = 42
	// adaptFeedbackEvery is the receiver's report cadence in frames.
	adaptFeedbackEvery = 4
)

// adaptRun is one deterministic closed-loop run: clean link, drop step at
// stepAt, clean again from recoverAt. Every frame's GOP knob and
// at-baseline state is sampled in lockstep.
type adaptRun struct {
	gops       []int
	atBase     []bool
	statuses   []stream.FrameStatus
	snap       codec.ControllerSnapshot
	metrics    stream.Metrics
	recovered  int // frames after recoverAt until every knob was at baseline
	recoverCap int // nFrames - recoverAt: the "never recovered" ceiling
}

func runAdaptOnce(frames []*geom.VoxelCloud, opts codec.Options, stepAt, recoverAt int, tb *trace.Table) (adaptRun, error) {
	nFrames := len(frames)
	fl := linksim.NewFaultyLink(linksim.WiFi, linksim.FaultProfile{Seed: adaptSeed})
	run := adaptRun{recoverCap: nFrames - recoverAt}
	pipe := stream.NewLossyPipe(fl, stream.ReceiverConfig{
		Options:       opts,
		FeedbackEvery: adaptFeedbackEvery,
		OnFrame: func(f stream.DecodedFrame) {
			run.statuses = append(run.statuses, f.Status)
		},
	})
	s := stream.New(context.Background(), stream.Config{
		Options:   opts,
		PacketOut: pipe.PacketOut,
	})
	pipe.Attach(s)

	results := s.Results()
	winStart := 0
	flushWindow := func(end int) {
		snap := s.Controller().Snapshot()
		rate := 0.0
		if winStart >= stepAt && winStart < recoverAt {
			rate = adaptStepRate
		}
		var ok, conceal, skip int
		for _, st := range run.statuses[min(winStart, len(run.statuses)):min(end, len(run.statuses))] {
			switch st {
			case stream.FrameDecoded:
				ok++
			case stream.FrameConcealed:
				conceal++
			case stream.FrameSkipped:
				skip++
			}
		}
		probe := ""
		if snap.Probing {
			probe = "*"
		}
		tb.Row(fmt.Sprintf("%d-%d", winStart, end-1),
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d%s", snap.Knobs.GOP, probe), snap.Knobs.QScale,
			fmt.Sprintf("%.0fx", snap.Knobs.Threshold/opts.Inter.Threshold),
			fmt.Sprintf("%.2f", snap.Knobs.Parity),
			fmt.Sprintf("%.3f", snap.LossEWMA),
			ok, conceal, skip)
		winStart = end
	}
	for i, f := range frames {
		if i == stepAt {
			fl.SetDropRate(adaptStepRate)
		}
		if i == recoverAt {
			fl.SetDropRate(0)
		}
		if err := s.Submit(context.Background(), f); err != nil {
			return run, err
		}
		if _, open := <-results; !open {
			return run, fmt.Errorf("pipeline failed at frame %d: %v", i, s.Err())
		}
		run.gops = append(run.gops, s.Controller().Knobs().GOP)
		run.atBase = append(run.atBase, s.Controller().AtBaseline())
		if (i+1)%adaptFeedbackEvery == 0 {
			flushWindow(i + 1)
		}
	}
	if err := s.Close(); err != nil {
		return run, err
	}
	if err := pipe.Finish(nFrames); err != nil {
		return run, err
	}
	if winStart < nFrames {
		flushWindow(nFrames)
	}

	run.snap = s.Controller().Snapshot()
	run.metrics = s.Metrics()
	run.recovered = run.recoverCap
	for i := recoverAt; i < nFrames; i++ {
		if run.atBase[i] {
			run.recovered = i - recoverAt
			break
		}
	}
	return run, nil
}

// runAdapt drives the closed-loop congestion controller through a loss
// step and back: a clean link for the first quarter, adaptStepRate packet
// loss until the half-way mark, then clean again. Frames go through the
// real lossy transport (packet framing → seeded FaultyLink → receiver
// recovery) LOCKSTEP — one frame's full encode→transmit→feedback cycle
// completes before the next encode reads the knobs — so the printed step
// response is deterministic. The contract has three legs:
//
//   - downswitch: the GOP shrinks within adaptConvergeBudget frames of
//     the loss step;
//   - probing upswitch: after the loss clears, every knob returns to
//     baseline within adaptRecoverBudget frames — at most half the
//     passive clean-hold decay;
//   - quality: the settled decoded ratio stays above adaptDecodedFloor.
func runAdapt(cfg benchConfig) error {
	spec := cfg.Videos[0]
	nFrames := cfg.Frames
	if nFrames < 48 {
		nFrames = 48 // room for stretch, step, recovery, and a settled tail
	}
	frames, err := loadFrames(spec, cfg.Scale, nFrames)
	if err != nil {
		return err
	}
	nFrames = len(frames)
	stepAt, recoverAt := nFrames/4, nFrames/2

	opts := scaledOptions(codec.IntraInterV2, cfg.Scale)
	opts.Adapt = codec.AdaptiveRate{Enabled: true}

	tb := trace.NewTable(
		fmt.Sprintf("Congestion adaptation — %s, %d frames, %.0f%% drop step over frames %d-%d (seed %d)",
			spec.Name, nFrames, adaptStepRate*100, stepAt, recoverAt-1, adaptSeed),
		"frames", "drop", "gop", "qscale", "boost", "parity", "loss ewma", "ok", "conceal", "skip")
	run, err := runAdaptOnce(frames, opts, stepAt, recoverAt, tb)
	if err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	emit(tb)
	fmt.Println("gop marked * while a probing upswitch is in flight; parity is the FEC knob.")

	snap := run.snap
	fmt.Printf("controller: %d feedback reports, %d stale; gop %d->%d->%d, qscale x%d; "+
		"shrinks %d, drops %d, boosts %d, congested enters %d; probes %d (win %d, revert %d)\n",
		run.metrics.FeedbackReports, run.metrics.FeedbackStale,
		run.gops[0], run.gops[stepAt-1], run.gops[nFrames-1], snap.Knobs.QScale,
		snap.Counters.GOPShrinks, snap.Counters.QualityDrops,
		snap.Counters.ThresholdBoosts, snap.Counters.CongestedEnters,
		snap.FEC.Probes, snap.FEC.ProbeWins, snap.FEC.ProbeReverts)

	// Leg 1 — downswitch contract.
	shrunkAt := -1
	for i := stepAt; i < nFrames; i++ {
		if run.gops[i] < run.gops[stepAt-1] {
			shrunkAt = i
			break
		}
	}
	switch {
	case shrunkAt < 0:
		return fmt.Errorf("adapt: GOP never shrank after the %.0f%% drop step", adaptStepRate*100)
	case shrunkAt-stepAt > adaptConvergeBudget:
		return fmt.Errorf("adapt: GOP took %d frames to react, budget is %d",
			shrunkAt-stepAt, adaptConvergeBudget)
	}

	// Leg 2 — probing upswitch contract.
	fmt.Printf("converged %d frames after the step; recovery to baseline: probing %d frames; "+
		"budget %d (= passive reference %d / 2)\n",
		shrunkAt-stepAt, run.recovered, adaptRecoverBudget, adaptPassiveDecayFrames)
	if run.recovered >= run.recoverCap {
		return fmt.Errorf("adapt: knobs never returned to baseline in the %d clean tail frames", run.recoverCap)
	}
	if run.recovered > adaptRecoverBudget {
		return fmt.Errorf("adapt: recovery took %d frames, budget is %d",
			run.recovered, adaptRecoverBudget)
	}
	if snap.FEC.Probes == 0 {
		return fmt.Errorf("adapt: the controller never probed after the loss cleared")
	}

	// Leg 3 — settled quality.
	tail := run.statuses[len(run.statuses)-nFrames/3:]
	decoded := 0
	for _, st := range tail {
		if st == stream.FrameDecoded {
			decoded++
		}
	}
	ratio := float64(decoded) / float64(len(tail))
	fmt.Printf("settled decoded ratio %.3f (floor %.2f)\n", ratio, adaptDecodedFloor)
	if ratio < adaptDecodedFloor {
		return fmt.Errorf("adapt: settled decoded ratio %.3f below the %.2f floor",
			ratio, adaptDecodedFloor)
	}
	return nil
}
