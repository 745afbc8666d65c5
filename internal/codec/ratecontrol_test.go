package codec

import (
	"testing"
	"time"
)

// adaptOpts builds normalized options with the congestion controller on.
func adaptOpts() Options {
	o := OptionsFor(IntraInterV2)
	o.Adapt = AdaptiveRate{Enabled: true}
	return o.normalized()
}

// feedLoss pushes n feedback reports with a fixed loss rate.
func feedLoss(c *Controller, rate float64, n int) {
	for i := 0; i < n; i++ {
		c.ObserveFeedback(rate)
	}
}

// localSignal builds one transmit-stage observation: queue fill and the
// frame's modelled link time.
func localSignal(queue float64, latency time.Duration) LocalSignal {
	return LocalSignal{QueueFill: queue, Latency: latency}
}

func TestControllerInertWithoutSignals(t *testing.T) {
	o := adaptOpts()
	c := newController(o)
	k := c.Knobs()
	if k.GOP != o.GOP || k.QScale != 1 || k.Threshold != o.Inter.Threshold {
		t.Fatalf("fresh knobs %+v differ from options (GOP %d, threshold %v)", k, o.GOP, o.Inter.Threshold)
	}
	if n := c.Snapshot().Counters.Transitions(); n != 0 {
		t.Fatalf("%d transitions before any signal", n)
	}
}

// TestControllerStepResponse drives the fused state machine through the
// directions the ISSUE pins down: rising loss degrades every knob the
// right way, a clean hold eases them back, and the hysteresis band between
// the two holds everything still.
func TestControllerStepResponse(t *testing.T) {
	t.Run("rising loss shrinks GOP and quality", func(t *testing.T) {
		c := newController(adaptOpts())
		c.ObserveFeedback(0.5) // EWMA 0.25 >= highLoss
		k := c.Knobs()
		if k.GOP >= 3 {
			t.Fatalf("GOP %d did not shrink under loss", k.GOP)
		}
		if k.QScale <= 1 {
			t.Fatalf("QScale %d did not degrade under loss", k.QScale)
		}
		if k.Threshold <= c.baseThreshold {
			t.Fatalf("threshold %v did not boost under loss", k.Threshold)
		}
		s := c.Snapshot()
		if s.Counters.GOPShrinks == 0 || s.Counters.QualityDrops == 0 || s.Counters.ThresholdBoosts == 0 {
			t.Fatalf("missing actuation counters: %+v", s.Counters)
		}
		if s.Counters.CongestedEnters != 1 || !s.Congested {
			t.Fatalf("congested transition not recorded: %+v", s)
		}
	})

	t.Run("falling loss eases after CleanHold", func(t *testing.T) {
		c := newController(adaptOpts())
		feedLoss(c, 0.5, 2) // deep congestion: GOP -> 1, QScale -> 4
		degraded := c.Knobs()
		feedLoss(c, 0, 10) // loss EWMA decays below lowLoss, then holds clean
		eased := c.Knobs()
		if eased.QScale >= degraded.QScale {
			t.Fatalf("QScale %d did not ease from %d", eased.QScale, degraded.QScale)
		}
		if eased.GOP <= degraded.GOP {
			t.Fatalf("GOP %d did not grow from %d", eased.GOP, degraded.GOP)
		}
		if eased.Threshold >= degraded.Threshold {
			t.Fatalf("threshold %v did not ease from %v", eased.Threshold, degraded.Threshold)
		}
		s := c.Snapshot().Counters
		if s.QualityRaises == 0 || s.GOPGrows == 0 || s.ThresholdEases == 0 {
			t.Fatalf("missing ease counters: %+v", s)
		}
	})

	t.Run("hysteresis band holds the knobs", func(t *testing.T) {
		// probeAfter -1: the band-hold invariant is the NON-probing
		// behavior — the probing upswitch deliberately breaks it (that is
		// the feature) and has its own tests below.
		c := newController(adaptOpts())
		c.probeAfter = -1
		c.ObserveFeedback(0.5)
		feedLoss(c, 0, 3) // decay the loss EWMA down into the band
		s := c.Snapshot()
		if s.LossEWMA <= lowLoss || s.LossEWMA >= highLoss {
			t.Fatalf("EWMA %v not inside the band (%v, %v)", s.LossEWMA, lowLoss, highLoss)
		}
		k0 := c.Knobs()
		// Feeding the EWMA's own value is its fixed point: the state stays
		// in the band however many reports arrive, and no knob may move.
		feedLoss(c, s.LossEWMA, 6)
		if k := c.Knobs(); k != k0 {
			t.Fatalf("knobs moved inside the hysteresis band: %+v -> %+v", k0, k)
		}
	})

	t.Run("local congestion degrades quality but not GOP", func(t *testing.T) {
		c := newController(adaptOpts())
		// Saturated link, full queue: every localPeriod-th observation steps.
		for i := 0; i < localPeriod; i++ {
			c.ObserveLocal(localSignal(1, 3*frameBudget))
		}
		k := c.Knobs()
		if k.QScale <= 1 {
			t.Fatalf("QScale %d did not degrade under local congestion", k.QScale)
		}
		if k.GOP != 3 {
			t.Fatalf("GOP %d moved without receiver loss", k.GOP)
		}
		s := c.Snapshot()
		if s.Counters.LocalSignals != localPeriod {
			t.Fatalf("local signals %d, want %d", s.Counters.LocalSignals, localPeriod)
		}
	})
}

// TestControllerClampsAndAntiWindup drives the controller far past every
// clamp and checks (a) no knob escapes its bounds and (b) recovery begins
// on the very first ease — saturation accumulated no hidden integrator.
func TestControllerClampsAndAntiWindup(t *testing.T) {
	c := newController(adaptOpts())
	feedLoss(c, 1, 50) // way past saturation
	k := c.Knobs()
	if k.GOP != 1 {
		t.Fatalf("GOP %d, want clamp 1", k.GOP)
	}
	if k.QScale != maxQScale {
		t.Fatalf("QScale %d, want clamp %d", k.QScale, maxQScale)
	}
	if max := c.baseThreshold * maxBoost; k.Threshold != max {
		t.Fatalf("threshold %v, want clamp %v", k.Threshold, max)
	}
	s := c.Snapshot().Counters
	// Saturated steps must not keep counting actuations.
	if s.QualityDrops > 3 || s.GOPShrinks > 2 || s.ThresholdBoosts > 3 {
		t.Fatalf("actuations counted past the clamps: %+v", s)
	}

	// Anti-windup: the FIRST clean hold must ease — 50 saturated reports
	// must not have buried the recovery under accumulated error.
	feedLoss(c, 0, 20)
	e := c.Knobs()
	if e.QScale == maxQScale && e.GOP == 1 {
		t.Fatalf("knobs still pinned after clean holds: %+v", e)
	}
	// And a long clean run must restore (and clamp at) the configured ends.
	feedLoss(c, 0, 200)
	r := c.Knobs()
	if r.QScale != 1 || r.Threshold != c.baseThreshold {
		t.Fatalf("quality/threshold did not recover: %+v", r)
	}
	if r.GOP != c.maxGOP {
		t.Fatalf("GOP %d did not stretch to maxGOP %d on a clean link", r.GOP, c.maxGOP)
	}
}

// degradeDeep drives the controller to full degradation and returns once
// the loss EWMA is saturated.
func degradeDeep(c *Controller) {
	feedLoss(c, 0.5, 4)
}

// reportsToBaseline feeds clean reports until AtBaseline, returning how
// many it took (capped to keep a broken controller from spinning).
func reportsToBaseline(t *testing.T, c *Controller) int {
	t.Helper()
	for n := 1; n <= 100; n++ {
		c.ObserveFeedback(0)
		if c.AtBaseline() {
			return n
		}
	}
	t.Fatalf("no baseline within 100 clean reports: %+v", c.Knobs())
	return -1
}

// TestProbingUpswitchBeatsPassiveDecay: after congestion clears, the
// probing controller must return every knob to baseline in strictly fewer
// feedback windows than the passive clean-hold decay (probeAfter -1), with
// the probe outcome counters telling the story.
func TestProbingUpswitchBeatsPassiveDecay(t *testing.T) {
	passive := newController(adaptOpts())
	passive.probeAfter = -1
	degradeDeep(passive)
	passiveN := reportsToBaseline(t, passive)

	probing := newController(adaptOpts())
	degradeDeep(probing)
	probingN := reportsToBaseline(t, probing)

	t.Logf("recovery: probing %d reports, passive %d", probingN, passiveN)
	if probingN >= passiveN {
		t.Fatalf("probing recovery (%d reports) not faster than passive (%d)", probingN, passiveN)
	}
	s := probing.Snapshot()
	if s.Counters.Probes == 0 || s.Counters.ProbeWins == 0 {
		t.Fatalf("probe counters missing the upswitch: %+v", s.Counters)
	}
	if s.Counters.ProbeReverts != 0 {
		t.Fatalf("%d reverts on a clean recovery", s.Counters.ProbeReverts)
	}
	if ps := passive.Snapshot(); ps.Counters.Probes != 0 {
		t.Fatalf("probeAfter -1 still probed %d times", ps.Counters.Probes)
	}
}

// probeNow decays the controller into the hysteresis band and feeds band
// reports until a probe launches.
func probeNow(t *testing.T, c *Controller) {
	t.Helper()
	for i := 0; i < 50; i++ {
		s := c.Snapshot()
		rate := s.LossEWMA // EWMA fixed point: holds the band state
		if rate >= highLoss {
			rate = 0 // still above the band: decay
		}
		c.ObserveFeedback(rate)
		if c.Snapshot().Probing {
			return
		}
	}
	t.Fatalf("no probe launched: %+v", c.Snapshot())
}

// TestProbeRevertBacksOff: a probe answered by a congested echo must roll
// the provisional ease back and double the probe interval, capped at
// probeBackoffMax.
func TestProbeRevertBacksOff(t *testing.T) {
	c := newController(adaptOpts())
	degradeDeep(c)
	probeNow(t, c)
	preEcho := c.Knobs()
	interval0 := c.probeInterval

	c.ObserveFeedback(1) // congested echo
	k := c.Knobs()
	if k.QScale < preEcho.QScale || k.GOP > preEcho.GOP {
		t.Fatalf("congested echo did not revert the probe: %+v -> %+v", preEcho, k)
	}
	s := c.Snapshot()
	if s.Probing {
		t.Fatal("still probing after a congested echo")
	}
	if s.Counters.ProbeReverts != 1 {
		t.Fatalf("ProbeReverts = %d, want 1", s.Counters.ProbeReverts)
	}
	if c.probeInterval != 2*interval0 {
		t.Fatalf("probe interval %d after revert, want %d", c.probeInterval, 2*interval0)
	}

	// Every further failed probe doubles again, saturating at the cap.
	for i := 0; i < 8; i++ {
		probeNow(t, c)
		c.ObserveFeedback(1)
	}
	if c.probeInterval != probeBackoffMax {
		t.Fatalf("probe interval %d, want cap %d", c.probeInterval, probeBackoffMax)
	}
}

// TestProbeTimeoutQuietKeep: a probe that never hears a feedback echo (a
// local-signal-only session) must resolve as a quiet keep after
// probeTimeout steps instead of wedging the prober.
func TestProbeTimeoutQuietKeep(t *testing.T) {
	c := newController(adaptOpts())
	degradeDeep(c)
	probeNow(t, c)
	post := c.Knobs()
	// Local steps in the hysteresis band: no echo verdict, just age.
	for i := 0; i < probeTimeout*localPeriod; i++ {
		c.ObserveLocal(localSignal(0, 23*time.Millisecond))
	}
	s := c.Snapshot()
	if s.Probing {
		t.Fatal("probe still pending after the timeout")
	}
	if k := c.Knobs(); k != post {
		t.Fatalf("quiet keep moved the knobs: %+v -> %+v", post, k)
	}
	if s.Counters.ProbeWins != 0 || s.Counters.ProbeReverts != 0 {
		t.Fatalf("timeout resolved as a verdict: %+v", s.Counters)
	}
}

// TestControllerIFrameOnlyStream: an all-intra design with the controller
// on still adapts quality, but the GOP knob is irrelevant and the encoder
// must keep producing I-frames only.
func TestControllerIFrameOnlyStream(t *testing.T) {
	fs := frames(t, 2)
	o := scaledOpts(IntraOnly, fs[0].Len())
	o.Adapt = AdaptiveRate{Enabled: true}
	enc := NewEncoder(dev(), o)
	enc.Controller().ObserveFeedback(0.5)
	for i := 0; i < 4; i++ {
		_, st, err := enc.EncodeFrame(fs[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if st.Type != IFrame {
			t.Fatalf("frame %d: type %v in an intra-only stream", i, st.Type)
		}
	}
}
