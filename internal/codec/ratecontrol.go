package codec

// Congestion control. The paper leaves the direct-reuse threshold as a
// manually tuned knob ("can be adjusted based on the application
// preference", Sec. III-B/VI-E) and evaluates fixed operating points on
// Fig. 10b's static trade-off curve. Controller closes the loop once: it
// fuses receiver feedback (the reports' loss rate) with local pipeline state
// (transmit-queue fill, backpressure sheds, modelled link time) into a
// hysteresis state machine that actuates four knobs — the reuse threshold,
// the attribute quantization step, the GOP length and the FEC parity
// overhead. Sustained loss shrinks the GOP (more I-frames → faster resync
// after a lost reference); clean links stretch it back to amortize I-frame
// cost; congestion without loss degrades quality (bigger quantization step,
// higher reuse threshold) instead of shedding frames.
//
// Its tuning is fixed: the constants below are the only configuration
// anyone runs. Every decision is pure integer/float math on explicit state
// — no clocks, no randomness — so a seeded virtual-time harness
// (pcc/stream.LossyPipe) replays an entire adaptation trajectory
// byte-for-byte.

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// AdaptiveRate configures the closed-loop congestion controller. The zero
// value is disabled.
type AdaptiveRate struct {
	// Enabled turns the controller on. Off, the encoder's knobs never move
	// and the wire output is byte-identical to a controller-free encoder.
	Enabled bool
}

// Controller tuning.
const (
	// highLoss is the loss EWMA at or above which the link counts as lossy:
	// the GOP shrinks and quality degrades. At or below lowLoss it counts as
	// clean; between the two the knobs hold.
	highLoss = 0.04
	lowLoss  = highLoss / 4
	// lossGain is the EWMA weight of a feedback report's loss rate; local
	// signals blend at half this gain.
	lossGain = 0.5
	// frameBudget is the real-time budget per frame (≈ 30 fps) that turns a
	// frame's modelled link time into utilization; at or above highUtil the
	// sender counts as congested even without receiver loss.
	frameBudget = 33 * time.Millisecond
	highUtil    = 1.0
	// localPeriod is how many local (per-frame) observations elapse between
	// steps driven by local state alone, so a session without receiver
	// feedback still adapts at report-like cadence.
	localPeriod = 8
	// cleanHold is how many consecutive clean steps ease the knobs a notch.
	cleanHold = 2
	// maxQScale clamps the quality knob: the attribute quantization steps
	// scale by up to this factor, doubling per degrade.
	maxQScale = 8
	// maxBoost clamps the congestion boost on the reuse threshold.
	maxBoost = 8
	// maxParity clamps the FEC parity-overhead knob; easing decays it to 0.
	maxParity = 0.5
	// defaultProbeAfter is how many non-congested steps the probing upswitch
	// waits, while the knobs are degraded, before provisionally easing one
	// notch (the probe). probeBackoffMax caps the interval's doubling after
	// each reverted probe.
	defaultProbeAfter = 2
	probeBackoffMax   = 16
)

// LocalSignal is one sender-side per-frame observation from the transmit
// stage.
type LocalSignal struct {
	// QueueFill is transmit-queue depth over capacity at observe time.
	QueueFill float64
	// Shed reports that this frame was sacrificed by the backpressure
	// policy before transmission. No caller outside tests sets it: a
	// Session never sheds, and a Server sheds per viewer. The pinned
	// controller trajectories still feed it.
	Shed bool
	// Latency is the frame's modelled link time (zero for a shed frame).
	Latency time.Duration
}

// Knobs is the controller's actuator state, applied by the encoder at the
// next frame boundary.
type Knobs struct {
	// Threshold is the effective inter-frame reuse threshold (base x
	// congestion boost).
	Threshold float64
	// QScale multiplies the configured attribute quantization steps
	// (1 = configured quality).
	QScale int
	// GOP is the effective group-of-pictures length.
	GOP int
	// Parity is the FEC overhead knob: the target fraction of data packets
	// re-sent as XOR parity (0 = no parity). The transport turns it into a
	// parity group size via ParityGroupLen.
	Parity float64
}

// minParityKnob is the smallest parity fraction worth a packet: below
// 1/32 the knob reads as off.
const minParityKnob = 1.0 / 32

// ParityGroupLen converts the parity-overhead knob into an XOR group
// size — one parity packet per K data packets — clamped to [2, 16].
// Returns 0 when the knob is (effectively) off.
func (k Knobs) ParityGroupLen() int {
	if k.Parity < minParityKnob {
		return 0
	}
	g := int(1/k.Parity + 0.5)
	if g < 2 {
		g = 2
	}
	if g > 16 {
		g = 16
	}
	return g
}

// ControllerSnapshot is a point-in-time copy of the controller state.
type ControllerSnapshot struct {
	Knobs     Knobs
	LossEWMA  float64
	UtilEWMA  float64
	QueueEWMA float64
	ShedEWMA  float64
	Congested bool
	// Probing reports an in-flight probing upswitch: a provisional ease
	// whose feedback echo has not been judged yet.
	Probing  bool
	Counters metrics.AdaptSnapshot
}

// Controller is the closed-loop congestion controller. Create through
// Options.Adapt (NewEncoder attaches one); observe signals from any
// goroutine — the encoder consumes the knob state at frame boundaries.
type Controller struct {
	baseThreshold float64
	baseGOP       int
	// maxGOP caps how far a clean link stretches the GOP: 4x the base.
	maxGOP int
	// probeAfter is the probe interval after a win or a timeout:
	// defaultProbeAfter unless a test sets it negative, which disables
	// probing and leaves recovery to the passive clean-hold ease alone.
	probeAfter int

	mu         sync.Mutex
	loss       float64 // receiver-observed loss EWMA
	util       float64 // local link-utilization EWMA
	queue      float64 // transmit-queue fill EWMA
	shed       float64 // backpressure-shed EWMA
	boost      float64 // current threshold congestion boost (>= 1)
	streak     int     // consecutive clean steps since the last reset
	congested  bool
	localCount int
	k          Knobs

	// Probing upswitch state (see armProbe/step): probing marks an applied
	// provisional ease awaiting its feedback echo; probeCountdown counts
	// non-congested degraded steps down to the next probe; probeInterval is
	// the current (backed-off) rearm distance; probeAge bounds how many
	// steps a probe waits for a feedback verdict.
	probing        bool
	probeCountdown int
	probeInterval  int
	probeAge       int

	counters metrics.ControllerCounters
}

// newController builds the controller for normalized options.
func newController(o Options) *Controller {
	return &Controller{
		baseThreshold:  o.Inter.Threshold,
		baseGOP:        o.GOP,
		maxGOP:         4 * o.GOP,
		probeAfter:     defaultProbeAfter,
		boost:          1,
		probeInterval:  defaultProbeAfter,
		probeCountdown: defaultProbeAfter,
		k: Knobs{
			Threshold: o.Inter.Threshold,
			QScale:    1,
			GOP:       o.GOP,
		},
	}
}

// Knobs returns the current actuator state.
func (c *Controller) Knobs() Knobs {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k
}

// Snapshot copies the controller state and its transition counters.
func (c *Controller) Snapshot() ControllerSnapshot {
	c.mu.Lock()
	s := ControllerSnapshot{
		Knobs:     c.k,
		LossEWMA:  c.loss,
		UtilEWMA:  c.util,
		QueueEWMA: c.queue,
		ShedEWMA:  c.shed,
		Congested: c.congested,
		Probing:   c.probing,
	}
	c.mu.Unlock()
	s.Counters = c.counters.Snapshot()
	return s
}

// AtBaseline reports whether every knob sits at its configured clean-link
// operating point — no residual degradation. This is the recovery target
// the probing upswitch races toward after congestion clears (a GOP
// stretched ABOVE its configured base still counts as baseline).
func (c *Controller) AtBaseline() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.degradedLocked()
}

// degradedLocked reports residual degradation on any knob. Runs under c.mu.
func (c *Controller) degradedLocked() bool {
	return c.k.QScale > 1 || c.k.GOP < c.baseGOP || c.boost > 1 || c.k.Parity > 0
}

func mix(old, sample, gain float64) float64 {
	return old*(1-gain) + sample*gain
}

// ObserveFeedback folds one receiver feedback report's loss rate, clamped
// to [0, 1], into the loss EWMA and runs a controller step. Transports feed
// Feedback.CongestionRate here: unrecovered losses plus NACK round trips,
// with zero-RTT parity repairs in neither term — so FEC absorbing the
// link's loss reads as clean and lets quality recover.
func (c *Controller) ObserveFeedback(loss float64) {
	c.counters.FeedbackReport()
	c.mu.Lock()
	defer c.mu.Unlock()
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	c.loss = mix(c.loss, loss, lossGain)
	c.step(true)
}

// ObserveLocal folds one per-frame transmit-stage observation into the
// local EWMAs. Steps driven by local state alone run every localPeriod
// frames, so a feedback-free session still adapts — at report cadence, not
// per frame.
func (c *Controller) ObserveLocal(sig LocalSignal) {
	c.counters.LocalSignal()
	c.mu.Lock()
	defer c.mu.Unlock()
	g := lossGain / 2
	c.util = mix(c.util, float64(sig.Latency)/float64(frameBudget), g)
	c.queue = mix(c.queue, sig.QueueFill, g)
	shed := 0.0
	if sig.Shed {
		shed = 1
	}
	c.shed = mix(c.shed, shed, g)
	c.localCount++
	if c.localCount%localPeriod == 0 {
		c.step(false)
	}
}

// probeTimeout is how many controller steps an in-flight probe waits for
// a feedback verdict before resolving as a quiet keep — a feedback-free
// session cannot wedge the prober (its local congestion signals still
// revert a bad probe through the congested classification).
const probeTimeout = 4

// step is the controller decision: classify the fused state as congested
// (lossy or locally), clean, or in the hysteresis band, actuate, then run
// the probing upswitch state machine. The band: a congested step degrades
// and restarts the clean count; cleanHold consecutive clean steps ease one
// notch; anything in between holds and restarts the count, so a link
// flapping around a threshold does not oscillate the knobs. No integrator
// accumulates anywhere (anti-windup): the next verdict acts from the
// clamped knobs alone. Runs under c.mu.
func (c *Controller) step(fromFeedback bool) {
	lossHigh := c.loss >= highLoss
	high := lossHigh || c.util >= highUtil || c.queue >= 0.9 || c.shed >= 0.25
	clean := c.loss <= lowLoss && c.util < highUtil && c.queue < 0.5 && c.shed < 0.05

	easeNow := false
	switch {
	case high || !clean:
		c.streak = 0
	case c.streak+1 == cleanHold:
		c.streak, easeNow = 0, true
	default:
		c.streak++
	}
	if high {
		if !c.congested {
			c.congested = true
			c.counters.CongestedEnter()
		}
		if c.probing {
			// The probe's echo came back congested: the link cannot absorb
			// the bigger frames yet. Revert the provisional ease and back
			// off the probe cadence.
			c.probeRevert()
		}
		c.degrade(lossHigh)
	} else {
		if c.congested {
			c.congested = false
			c.counters.CongestedExit()
		}
		if c.probing && fromFeedback {
			// The link absorbed the probe's larger frames without pushing
			// loss over highLoss: keep the notch.
			c.probeWin(clean)
		}
		if easeNow {
			c.ease(false)
		}
	}
	c.armProbe(high)
}

// armProbe is the probing upswitch's idle side: while the knobs carry
// residual degradation and the link is not classified congested, count
// non-congested steps down to the next probe. Launching one applies a
// provisional probe ease — the deliberately larger-than-steady-state
// frames ARE the probe — whose echo the next feedback-driven step judges.
func (c *Controller) armProbe(congestedNow bool) {
	if c.probeAfter < 0 {
		return
	}
	if c.probing {
		c.probeAge++
		if c.probeAge >= probeTimeout {
			// No feedback verdict in time: resolve quietly as a keep.
			c.probing = false
			c.probeInterval = c.probeAfter
			c.probeCountdown = c.probeInterval
		}
		return
	}
	if congestedNow || !c.degradedLocked() {
		c.probeCountdown = c.probeInterval
		return
	}
	c.probeCountdown--
	if c.probeCountdown > 0 {
		return
	}
	c.probing = true
	c.probeAge = 0
	c.counters.Probe()
	c.ease(true)
}

// probeWin resolves an in-flight probe whose echo came back non-congested.
// A fully clean echo compounds the win (another probe ease) and rearms at
// the shortest cadence, so consecutive wins chain the knobs back to
// baseline in a few feedback windows; a band echo rearms at the normal
// cadence.
func (c *Controller) probeWin(cleanEcho bool) {
	c.probing = false
	c.counters.ProbeWin()
	if cleanEcho {
		c.ease(true)
		c.probeInterval = 1
	} else {
		c.probeInterval = c.probeAfter
	}
	c.probeCountdown = c.probeInterval
}

// probeRevert rolls back a probe whose echo came back congested — one
// loss-driven degrade undoes exactly the notch the probe applied — and
// doubles the probe interval (capped), so a persistently congested link is
// probed ever more rarely.
func (c *Controller) probeRevert() {
	c.probing = false
	c.counters.ProbeRevert()
	c.degrade(true)
	c.probeInterval = min(2*c.probeInterval, probeBackoffMax)
	c.probeCountdown = c.probeInterval
}

// degrade steps the knobs one notch toward survival: quality halves
// (quantization doubles), the reuse threshold boost doubles, and
// loss-driven congestion halves the GOP for faster resync and raises parity
// toward the observed loss. Every knob saturates at its clamp with no
// windup.
func (c *Controller) degrade(lossDriven bool) {
	if q := c.k.QScale * 2; q <= maxQScale {
		c.k.QScale = q
		c.counters.QualityDrop()
	}
	if lossDriven && c.k.GOP > 1 {
		c.k.GOP /= 2
		c.counters.GOPShrink()
	}
	if b := c.boost * 2; b <= maxBoost {
		c.boost = b
		c.k.Threshold = c.baseThreshold * c.boost
		c.counters.ThresholdBoost()
	}
	if lossDriven {
		c.raiseParity()
	}
}

// parityLossGain scales the observed loss EWMA into the parity-overhead
// knob: at 4x, a 5% lossy link gets ~20% parity (one packet per 5-packet
// group) — enough that single losses per group repair with no round trip.
const parityLossGain = 4

// raiseParity tracks the parity knob up to the observed loss (never down:
// ease decays it once the loss clears).
func (c *Controller) raiseParity() {
	p := min(parityLossGain*c.loss, maxParity)
	if p < minParityKnob {
		p = 0
	}
	if p > c.k.Parity {
		c.k.Parity = p
	}
}

// ease relaxes the knobs one notch: quality recovers a halving, the
// threshold boost halves back toward 1 and the parity knob halves toward
// off. The GOP rule is the caller's. The passive ease after a sustained
// clean window stretches the GOP by one frame, up to maxGOP: clean links
// amortize I-frames further, above the configured base. A probe doubles
// it, up to the configured base — the inverse of degrade.
func (c *Controller) ease(probe bool) {
	if c.k.QScale > 1 {
		c.k.QScale /= 2
		c.counters.QualityRaise()
	}
	next, limit := c.k.GOP+1, c.maxGOP
	if probe {
		next, limit = c.k.GOP*2, c.baseGOP
	}
	if c.k.GOP < limit {
		c.k.GOP = min(next, limit)
		c.counters.GOPGrow()
	}
	if c.boost > 1 {
		c.boost /= 2
		c.k.Threshold = c.baseThreshold * c.boost
		c.counters.ThresholdEase()
	}
	c.k.Parity /= 2
	if c.k.Parity < minParityKnob {
		c.k.Parity = 0
	}
}

// applyKnobs copies the controller's actuator state into the encoder's
// options at a frame boundary. It runs on the goroutine that owns the
// attribute phase (EncodeFrame, or the pipeline's in-order FinishFrame), so
// every field it writes is read only by that same goroutine afterwards.
// With no observed congestion the knobs equal the configured options and
// the encoded bytes are untouched.
func (e *Encoder) applyKnobs() {
	if e.ctrl == nil {
		return
	}
	k := e.ctrl.Knobs()
	e.opts.GOP = k.GOP
	e.opts.IntraAttr.QStep = e.baseIntraQ * k.QScale
	e.opts.Inter.QStep = e.baseInterQ * k.QScale
	e.opts.Inter.Threshold = k.Threshold
}

// Controller returns the encoder's congestion controller, nil when
// Options.Adapt is disabled.
func (e *Encoder) Controller() *Controller { return e.ctrl }
