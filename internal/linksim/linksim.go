// Package linksim models the "Data Transmission" stage of the paper's
// end-to-end pipeline (Fig. 1). The paper's motivation hinges on it: a raw
// 10^6-point frame is 120 Mbit, "impossible to transmit in real-time ...
// from both the latency and energy standpoints" (Sec. II-A) — compression
// is what makes the transmit stage fit the frame budget. This package
// provides wireless-link presets with literature-typical bandwidth, RTT and
// radio energy-per-byte figures so the experiment harness can report
// end-to-end (capture → encode → transmit → decode → render) budgets.
package linksim

import (
	"errors"
	"time"
)

// Link is a point-to-point wireless link model.
type Link struct {
	Name string
	// BandwidthMbps is the sustained application-layer throughput.
	BandwidthMbps float64
	// RTTMs is the one-way latency floor in milliseconds.
	RTTMs float64
	// TxNanojoulePerByte is the sender-side radio energy per payload byte.
	TxNanojoulePerByte float64
	// RxNanojoulePerByte is the receiver-side radio energy per byte.
	RxNanojoulePerByte float64
}

// Presets with typical mid-2020s figures (application-layer, mobile
// device):
//   - Wi-Fi 5/6 indoor: hundreds of Mbps, ~2 ms, tens of nJ/B.
//   - LTE uplink: tens of Mbps, ~30 ms, ~1 uJ/B (radios dominate).
//   - 5G mid-band uplink: ~100-200 Mbps, ~10 ms, a few hundred nJ/B.
var (
	WiFi = Link{Name: "WiFi", BandwidthMbps: 400, RTTMs: 2, TxNanojoulePerByte: 60, RxNanojoulePerByte: 40}
	LTE  = Link{Name: "LTE", BandwidthMbps: 30, RTTMs: 30, TxNanojoulePerByte: 1000, RxNanojoulePerByte: 500}
	NR5G = Link{Name: "5G", BandwidthMbps: 150, RTTMs: 10, TxNanojoulePerByte: 350, RxNanojoulePerByte: 200}
)

// Presets lists the built-in links.
func Presets() []Link { return []Link{WiFi, NR5G, LTE} }

// ErrBadLink reports an unusable link configuration.
var ErrBadLink = errors.New("linksim: bandwidth must be positive")

// ErrBadSize reports a negative payload size, which would otherwise yield a
// negative latency/energy Cost.
var ErrBadSize = errors.New("linksim: payload size must be non-negative")

// Cost is the transmission cost of one payload.
type Cost struct {
	Latency  time.Duration // serialization + propagation
	TxEnergy float64       // joules at the sender
	RxEnergy float64       // joules at the receiver
}

// Transmit returns the cost of sending `bytes` over the link.
func (l Link) Transmit(bytes int64) (Cost, error) {
	if l.BandwidthMbps <= 0 {
		return Cost{}, ErrBadLink
	}
	if bytes < 0 {
		return Cost{}, ErrBadSize
	}
	serialization := float64(bytes) * 8 / (l.BandwidthMbps * 1e6) // seconds
	latency := time.Duration((serialization + l.RTTMs/1000) * float64(time.Second))
	return Cost{
		Latency:  latency,
		TxEnergy: float64(bytes) * l.TxNanojoulePerByte * 1e-9,
		RxEnergy: float64(bytes) * l.RxNanojoulePerByte * 1e-9,
	}, nil
}

// SustainableFPS returns the maximum frame rate the link alone supports for
// frames of the given size (ignoring pipelining of RTT).
func (l Link) SustainableFPS(bytesPerFrame int64) float64 {
	if l.BandwidthMbps <= 0 || bytesPerFrame <= 0 {
		return 0
	}
	return l.BandwidthMbps * 1e6 / 8 / float64(bytesPerFrame)
}
