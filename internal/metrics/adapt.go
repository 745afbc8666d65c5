package metrics

// Congestion-controller instrumentation (internal/codec.Controller): every
// knob actuation and congestion-state transition is counted here, so a live
// session's adaptation behaviour can be scraped — and asserted in tests —
// without peeking at controller internals. Everything is atomic: the
// controller is driven concurrently from the transmit stage (local signals)
// and from HandleControl callers (receiver feedback).

import "sync/atomic"

// ControllerCounters tracks a congestion controller's actuations and state
// transitions. The zero value is ready to use. All methods are safe for
// concurrent use.
type ControllerCounters struct {
	feedbackReports atomic.Int64
	localSignals    atomic.Int64
	// Knob actuations.
	gopShrinks      atomic.Int64
	gopGrows        atomic.Int64
	qualityDrops    atomic.Int64
	qualityRaises   atomic.Int64
	thresholdBoosts atomic.Int64
	thresholdEases  atomic.Int64
	// Congestion-state transitions.
	congestedEnters atomic.Int64
	congestedExits  atomic.Int64
	// Probing upswitch outcomes.
	probes       atomic.Int64
	probeWins    atomic.Int64
	probeReverts atomic.Int64
}

func (c *ControllerCounters) FeedbackReport() { c.feedbackReports.Add(1) }
func (c *ControllerCounters) LocalSignal()    { c.localSignals.Add(1) }
func (c *ControllerCounters) GOPShrink()      { c.gopShrinks.Add(1) }
func (c *ControllerCounters) GOPGrow()        { c.gopGrows.Add(1) }
func (c *ControllerCounters) QualityDrop()    { c.qualityDrops.Add(1) }
func (c *ControllerCounters) QualityRaise()   { c.qualityRaises.Add(1) }
func (c *ControllerCounters) ThresholdBoost() { c.thresholdBoosts.Add(1) }
func (c *ControllerCounters) ThresholdEase()  { c.thresholdEases.Add(1) }
func (c *ControllerCounters) CongestedEnter() { c.congestedEnters.Add(1) }
func (c *ControllerCounters) CongestedExit()  { c.congestedExits.Add(1) }

// Probe records the controller launching a probing upswitch (a
// provisional ease whose echo the next feedback report judges).
func (c *ControllerCounters) Probe() { c.probes.Add(1) }

// ProbeWin records a probe whose echo came back clean: the eased knobs
// are kept.
func (c *ControllerCounters) ProbeWin() { c.probeWins.Add(1) }

// ProbeRevert records a probe whose echo came back congested: the
// provisional ease is rolled back and the probe cadence backs off.
func (c *ControllerCounters) ProbeRevert() { c.probeReverts.Add(1) }

// AdaptSnapshot is a point-in-time copy of a ControllerCounters.
type AdaptSnapshot struct {
	FeedbackReports int64
	LocalSignals    int64
	GOPShrinks      int64
	GOPGrows        int64
	QualityDrops    int64
	QualityRaises   int64
	ThresholdBoosts int64
	ThresholdEases  int64
	CongestedEnters int64
	CongestedExits  int64
	Probes          int64
	ProbeWins       int64
	ProbeReverts    int64
}

// Transitions returns the total number of knob actuations plus congestion
// state changes — the "did anything move" aggregate the adapt sweep tracks.
func (s AdaptSnapshot) Transitions() int64 {
	return s.GOPShrinks + s.GOPGrows + s.QualityDrops + s.QualityRaises +
		s.ThresholdBoosts + s.ThresholdEases + s.CongestedEnters + s.CongestedExits
}

// Snapshot copies the counters. Taken while the session is live, fields are
// individually — not mutually — consistent.
func (c *ControllerCounters) Snapshot() AdaptSnapshot {
	return AdaptSnapshot{
		FeedbackReports: c.feedbackReports.Load(),
		LocalSignals:    c.localSignals.Load(),
		GOPShrinks:      c.gopShrinks.Load(),
		GOPGrows:        c.gopGrows.Load(),
		QualityDrops:    c.qualityDrops.Load(),
		QualityRaises:   c.qualityRaises.Load(),
		ThresholdBoosts: c.thresholdBoosts.Load(),
		ThresholdEases:  c.thresholdEases.Load(),
		CongestedEnters: c.congestedEnters.Load(),
		CongestedExits:  c.congestedExits.Load(),
		Probes:          c.probes.Load(),
		ProbeWins:       c.probeWins.Load(),
		ProbeReverts:    c.probeReverts.Load(),
	}
}
