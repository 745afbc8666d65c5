package stream

// LossyPipe wires one viewer's packet output to a Receiver through a
// linksim.FaultyLink, entirely in process: the harness for loss-sweep
// experiments and deterministic recovery tests. The receiver's control
// messages go back to the viewer's Server, which routes them by stream id:
//
//	viewer ──PacketOut──▶ FaultyLink ──▶ Receiver
//	   ▲                                    │
//	   └──── Server.HandleControl ◀─────────┘  (NACK / refresh / feedback)
//
// Time is virtual: the pipe starts a clock at zero and advances it by the
// modelled link latency of every send (data and control), and the
// Receiver's NACK timeouts read that clock. Combined with the FaultyLink's
// seeded PRNG, an entire lossy stream — faults, timeouts, retransmits,
// concealments — replays identically from the seed alone.
//
// The reverse (control) path is delivered reliably: data-plane recovery
// already tolerates a lost NACK by re-NACKing on the next timeout, so
// faulting the control plane only slows convergence without exercising
// anything new.

import (
	"context"
	"sync"
	"time"

	"repro/internal/linksim"
)

// LossyPipe is an in-process lossy transport between one viewer and one
// Receiver. Create with NewLossyPipe, attach the viewer with PacketOut set
// to pipe.PacketOut, and AttachServer its Server before submitting frames.
type LossyPipe struct {
	fl *linksim.FaultyLink
	rx *Receiver
	// ctrl is where the receiver's control messages go.
	ctrl *Server

	mu  sync.Mutex
	now time.Time
}

// NewLossyPipe builds the receiver side over the given faulty link. The
// pipe overrides rcfg's clock (Now) and control path (SendControl).
func NewLossyPipe(fl *linksim.FaultyLink, rcfg ReceiverConfig) *LossyPipe {
	p := &LossyPipe{fl: fl, now: time.Unix(0, 0)}
	rcfg.Now = p.Now
	rcfg.SendControl = p.control
	p.rx = NewReceiver(rcfg)
	return p
}

// AttachServer wires the viewer's Server as the sender side: control
// messages route to the viewer whose stream id they carry.
func (p *LossyPipe) AttachServer(sv *Server) { p.ctrl = sv }

// Receiver returns the pipe's receive side.
func (p *LossyPipe) Receiver() *Receiver { return p.rx }

// FaultyLink returns the pipe's link fault injector.
func (p *LossyPipe) FaultyLink() *linksim.FaultyLink { return p.fl }

// Now is the pipe's virtual clock, advanced by modelled link latency.
func (p *LossyPipe) Now() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

func (p *LossyPipe) advance(d time.Duration) {
	p.mu.Lock()
	p.now = p.now.Add(d)
	p.mu.Unlock()
}

// PacketOut is the viewer's PacketOut: the packet crosses the faulty link and whatever survives (copies, reordered
// releases) is ingested by the receiver. Re-entrant — NACKs triggered by
// a delivery retransmit through this same path.
func (p *LossyPipe) PacketOut(_ context.Context, pkt []byte) error {
	out, cost, err := p.fl.Send(pkt)
	if err != nil {
		return err
	}
	p.advance(cost.Latency)
	for _, raw := range out {
		p.rx.Ingest(raw)
	}
	return nil
}

// control carries a receiver control message back to the sender, charging
// the (fault-free) reverse path's latency to the virtual clock.
func (p *LossyPipe) control(c Control) error {
	raw := MarshalControl(c)
	if cost, err := p.fl.Link().Transmit(int64(len(raw))); err == nil {
		p.advance(cost.Latency)
	}
	if p.ctrl == nil {
		return nil
	}
	return p.ctrl.HandleControl(c)
}

// Finish ends the stream on the receive side after the Server has closed:
// any reorder-held packet is released, then the receiver resolves its tail
// (final NACK rounds, then conceal/skip). totalFrames is the sender-side
// submitted frame count.
func (p *LossyPipe) Finish(totalFrames int) error {
	for _, raw := range p.fl.Flush() {
		p.rx.Ingest(raw)
	}
	return p.rx.Finish(totalFrames)
}
