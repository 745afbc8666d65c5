package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/linksim"
	"repro/internal/trace"
	"repro/pcc/stream"
)

// lossDecodedFloor is the checked-in acceptance floor for the loss sweep:
// at up to 5% packet loss the recovery protocol must still decode at least
// this fraction of frames. CI fails the experiment if a run regresses.
const lossDecodedFloor = 0.95

// lossFECDecodedFloor replaces lossDecodedFloor when -fec arms parity:
// single losses inside an XOR group repair from the trailing parity packet
// with zero retransmit round trips, so at up to 5% random loss essentially
// every frame must decode.
const lossFECDecodedFloor = 0.99

// lossFECGroupLen is the static parity group size the -fec sweep uses: one
// XOR parity packet per 4 data packets (25% overhead), the same operating
// point the adaptive knob converges to near 5% loss.
const lossFECGroupLen = 4

// lossSeed fixes the fault injector so every sweep replays the same drops.
const lossSeed = 42

// runLoss sweeps packet-loss rates over the lossy transport (real packet
// framing → seeded FaultyLink → receiver with NACK/conceal/refresh
// recovery) and reports the decoded-frame ratio and the recovery latency
// each loss rate costs. The final row trades the i.i.d. dropper for a
// Gilbert–Elliott bursty link at a comparable average rate, where parity
// groups take multi-loss hits and the NACK fallback carries more of the
// repair. Random-loss rates at or below 5% enforce the decoded floor —
// lossFECDecodedFloor with -fec, lossDecodedFloor without.
func runLoss(cfg benchConfig) error {
	spec := cfg.Videos[0]
	nFrames := cfg.Frames
	if nFrames < 12 {
		nFrames = 12 // at least four IPP GOPs so I-frame recovery matters
	}
	frames, err := loadFrames(spec, cfg.Scale, nFrames)
	if err != nil {
		return err
	}
	opts := scaledOptions(codec.IntraInterV1, cfg.Scale)

	var fec stream.FECConfig // off: no controller, so no parity packets
	floor, mode := lossDecodedFloor, "FEC off"
	if cfg.FEC {
		fec = stream.FECConfig{GroupLen: lossFECGroupLen}
		floor, mode = lossFECDecodedFloor, fmt.Sprintf("FEC group %d", lossFECGroupLen)
	}

	tb := trace.NewTable(
		fmt.Sprintf("Loss resilience — %s, %d frames, GOP %d, %s, WiFi + fault injection (seed %d)",
			spec.Name, len(frames), opts.GOP, mode, lossSeed),
		"drop", "decoded", "concealed", "skipped", "ratio", "nacks", "retx", "repairs", "recov ms")

	type sweep struct {
		label string
		prof  linksim.FaultProfile
		gated bool
	}
	var sweeps []sweep
	for _, rate := range []float64{0, 0.01, 0.05, 0.10} {
		prof := linksim.FaultProfile{
			DropRate:    rate,
			ReorderRate: 0.03,
			DupRate:     0.01,
			Seed:        lossSeed,
		}
		if rate == 0 {
			prof.ReorderRate, prof.DupRate = 0, 0
		}
		sweeps = append(sweeps, sweep{
			label: fmt.Sprintf("%.0f%%", rate*100),
			prof:  prof,
			gated: rate <= 0.05,
		})
	}
	// Gilbert–Elliott burst row: ~4.4% average loss (0.02/0.27 of the time
	// in the bad state, dropping 60% there), arriving in spells of ~2-3
	// packets instead of i.i.d. singles. Ungated — bursts are exactly the
	// regime where single-repair parity hands off to the NACK fallback.
	sweeps = append(sweeps, sweep{
		label: "GE burst",
		prof: linksim.FaultProfile{
			GEBadLoss:   0.6,
			ReorderRate: 0.03,
			DupRate:     0.01,
			Seed:        lossSeed,
		},
	})

	type point struct {
		label string
		ratio float64
		gated bool
	}
	var points []point
	for _, sw := range sweeps {
		fl := linksim.NewFaultyLink(linksim.WiFi, sw.prof)
		var recovered time.Duration
		var recoveredN int
		pipe := stream.NewLossyPipe(fl, stream.ReceiverConfig{
			Options: opts,
			OnFrame: func(f stream.DecodedFrame) {
				if f.Status == stream.FrameDecoded && f.Delay > 0 {
					recovered += f.Delay
					recoveredN++
				}
			},
		})
		s := stream.New(context.Background(), stream.Config{
			Options:   opts,
			FEC:       fec,
			PacketOut: pipe.PacketOut,
		})
		pipe.Attach(s)
		col := stream.NewCollector(s)
		for _, f := range frames {
			if err := s.Submit(context.Background(), f); err != nil {
				return err
			}
		}
		if err := s.Close(); err != nil {
			return err
		}
		col.Wait()
		if err := pipe.Finish(len(frames)); err != nil {
			return err
		}

		rs := pipe.Receiver().Metrics()
		ratio := rs.DecodedRatio()
		meanRecov := 0.0
		if recoveredN > 0 {
			meanRecov = recovered.Seconds() * 1000 / float64(recoveredN)
		}
		tb.Row(sw.label,
			fmt.Sprintf("%d/%d", rs.FramesDecoded, rs.Frames()),
			fmt.Sprintf("%d", rs.FramesConcealed),
			fmt.Sprintf("%d", rs.FramesSkipped),
			fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%d", rs.NACKsSent),
			fmt.Sprintf("%d", rs.RetransmitsReceived),
			fmt.Sprintf("%d", rs.FEC.ParityRepairs),
			meanRecov)
		points = append(points, point{sw.label, ratio, sw.gated})
	}
	emit(tb)
	fmt.Println("recov ms = mean first-to-last-packet delay of decoded frames (reassembly plus")
	fmt.Println("recovery); the rise over the 0% row is the latency the loss rate costs.")
	fmt.Println("repairs = packets rebuilt from XOR parity before the NACK timer fired; the GE")
	fmt.Println("burst row averages ~4.4% loss but in spells, so multi-loss groups fall back to NACKs.")
	fmt.Println("concealed frames repeat the last good frame, skipped frames had no usable reference.")

	for _, p := range points {
		if p.gated && p.ratio < floor {
			return fmt.Errorf("loss sweep: decoded ratio %.3f at %s drop is below the %.2f floor",
				p.ratio, p.label, floor)
		}
	}
	return nil
}
