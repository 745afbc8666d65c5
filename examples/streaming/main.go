// Streaming: the paper's end-to-end pipeline (Fig. 1) served to many
// viewers at once by the fan-out stream.Server. One capture feed is
// encoded ONCE — the server pays a single shared encode pipeline — and
// every attached viewer gets its own bounded send queue, packet sequence
// space, retransmit buffer, and modelled link:
//
//   - viewer wifi receives framed packets over a real TCP socket and
//     decodes them with a stream.Receiver, scoring geometry PSNR;
//   - viewer slow has a transport that drains at a 1 Mbps pace, so its
//     4-frame queue overflows: overflow sheds P-frames and I-frames force
//     a resync (flush to the fresh keyframe) — the slow viewer degrades
//     alone, the rest don't;
//   - viewer lossy streams through a seeded fault-injected link with 5%
//     drop and reordering: lost packets are NACKed back through the
//     server to this viewer's retransmit buffer, unrecoverable P-frames
//     conceal, and a lost I-frame forces a (coalesced) GOP refresh; its
//     receiver also emits periodic congestion-feedback reports that the
//     server aggregates into the shared encoder's adaptive controller
//     (Options.Adapt), which trades GOP length and quantization against
//     the observed loss;
//   - viewer late attaches mid-GOP and starts instantly from the server's
//     cached keyframe — no re-encode, no wait for the next GOP;
//   - viewer vp announces a 60° overhead camera in-band (its receiver
//     sends a ControlViewport packet, held until the first packet names
//     the stream, so frame 0 goes whole): the frames are encoded as eight
//     self-contained Morton-range tiles, and the server slices each
//     published frame per viewer — visible tiles ship in full, a widened
//     margin ships geometry only, everything else is dropped. Same
//     encode, a fraction of the bytes.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linksim"
	"repro/internal/viewport"
	"repro/pcc"
	"repro/pcc/stream"
)

const (
	videoName = "redandblack"
	scale     = 0.08
	nFrames   = 9 // three IPP groups
)

func main() {
	video := pcc.NewVideo(videoName, scale)
	originals := make([]*pcc.PointCloud, nFrames)
	var err error
	for i := range originals {
		if originals[i], err = video.Frame(i); err != nil {
			log.Fatal(err)
		}
	}

	opts := pcc.DefaultOptions(pcc.IntraInterV1)
	opts.IntraAttr.Segments = 2500
	opts.Inter.Segments = 4000
	opts.Adapt = pcc.AdaptiveRate{Enabled: true} // close the loop on viewer feedback
	opts.Tiles = 8                               // tiled frames: parallel encode + per-viewer viewport culling

	srv := stream.NewServer(context.Background(), stream.ServerConfig{
		Options:     opts,
		ViewerQueue: 4,
		Shards:      2, // relay tree: viewers partitioned over two shard workers
	})

	// Viewer wifi: framed packets over a real TCP socket, decoded by a
	// Receiver on the display side.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go displayWifi(&wg, ln, originals)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	wifi, err := srv.Attach(stream.ViewerConfig{
		PacketOut: func(_ context.Context, pkt []byte) error { return writePacket(conn, pkt) },
	})
	if err != nil {
		log.Fatal(err)
	}

	// Viewer slow: a transport that drains at 1 Mbps, sped up five times
	// (about 0.3 s a frame), so the send queue genuinely overflows
	// mid-stream.
	slowRx := newLocalReceiver("slow", opts, nil)
	slow, err := srv.Attach(stream.ViewerConfig{
		PacketOut: func(ctx context.Context, pkt []byte) error {
			time.Sleep(time.Duration(len(pkt)) * 8 * time.Microsecond / 5)
			return slowRx.packetOut(ctx, pkt)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Viewer lossy: a seeded fault-injected link with the NACK/refresh
	// control loop routed back through the server.
	faults := linksim.FaultProfile{DropRate: 0.05, ReorderRate: 0.03, Seed: 7}
	pipe := stream.NewLossyPipe(linksim.NewFaultyLink(linksim.WiFi, faults), stream.ReceiverConfig{
		Options:       opts,
		FeedbackEvery: 3, // report loss back to the server's controller each GOP
		OnFrame:       reportFrame("lossy", nil),
	})
	pipe.AttachServer(srv)
	lossy, err := srv.Attach(stream.ViewerConfig{PacketOut: pipe.PacketOut})
	if err != nil {
		log.Fatal(err)
	}

	// Viewer vp: announces its camera in-band, so the server culls tiles
	// outside the frustum from this viewer's copy of every frame.
	vpRx := newLocalReceiver("vp", opts, nil)
	vp, err := srv.Attach(stream.ViewerConfig{PacketOut: vpRx.packetOut})
	if err != nil {
		log.Fatal(err)
	}
	vpRx.bind(vp) // route the receiver's control packets back to its viewer
	vpRx.sendViewport(overheadCamera(originals[0]))

	// Stream the first two GOPs, then attach the late joiner mid-stream.
	for _, f := range originals[:6] {
		if err := srv.Submit(context.Background(), f); err != nil {
			log.Fatal(err)
		}
	}
	for srv.Metrics().FramesEncoded < 6 {
		time.Sleep(time.Millisecond)
	}
	lateRx := newLocalReceiver("late", opts, nil)
	late, err := srv.Attach(stream.ViewerConfig{PacketOut: lateRx.packetOut})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range originals[6:] {
		if err := srv.Submit(context.Background(), f); err != nil {
			log.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	conn.Close() // EOF ends the wifi display
	wg.Wait()

	// Resolve the in-process receivers' tails against each viewer's own
	// frame-index space (queue sheds leave index gaps, counted as sender
	// drops, not loss).
	slowRx.finish(int(slow.Metrics().FramesEnqueued))
	lateRx.finish(int(late.Metrics().FramesEnqueued))
	vpRx.finish(int(vp.Metrics().FramesEnqueued))
	if err := pipe.Finish(int(lossy.Metrics().FramesEnqueued)); err != nil {
		log.Fatal(err)
	}

	m := srv.Metrics()
	fmt.Printf("\n[server] %d viewers served from %d frame encodes (%d I), geometry %v + attributes %v — encode paid once\n",
		m.Viewers, m.FramesEncoded, m.IFrames,
		m.Pipeline.GeometrySim.Round(1e5), m.Pipeline.AttrSim.Round(1e5))
	fmt.Printf("[server] cached-keyframe joins %d, refreshes %d (+%d coalesced)\n",
		m.CachedJoins, m.Refreshes, m.RefreshesCoalesced)
	for _, s := range m.PerShard {
		fmt.Printf("[shard %d] %d viewers (peak %d): relayed %d frames (%d enqueues), retx cache %d frames/%d pkts (%d hits, %d misses), %d feedback reports\n",
			s.Shard, s.Viewers, s.PeakViewers, s.FramesRelayed, s.Enqueues,
			s.CacheFrames, s.CachePackets, s.RetxHits, s.RetxMisses, s.FeedbackReports)
	}
	for _, tag := range []struct {
		name string
		v    *stream.Viewer
	}{{"wifi", wifi}, {"slow", slow}, {"lossy", lossy}, {"late", late}, {"vp", vp}} {
		vm := tag.v.Metrics()
		extra := ""
		if vm.Resyncs > 0 {
			extra = fmt.Sprintf(", %d forced I-frame resyncs", vm.Resyncs)
		}
		if vm.CachedJoin {
			extra = fmt.Sprintf(", joined from cached keyframe in %v", vm.JoinLatency.Round(1e5))
		}
		fmt.Printf("[viewer %-5s] sent %d/%d frames (%d shed), %d pkts / %.1f KB, %d retransmits%s\n",
			tag.name, vm.FramesSent, vm.FramesEnqueued, vm.FramesDropped,
			vm.Packets, float64(vm.WireBytes)/1e3, vm.Retransmits, extra)
	}
	vpm, wifim := vp.Metrics(), wifi.Metrics()
	fmt.Printf("[viewer vp   ] viewport culling: %d tiles omitted, %d geometry-only, %.1f KB saved — %.2fx the full viewer's bytes\n",
		vpm.TilesCulled, vpm.TilesCoarse, float64(vpm.CulledBytes)/1e3,
		float64(vpm.WireBytes)/float64(wifim.WireBytes))
	st, rs := pipe.FaultyLink().Stats(), pipe.Receiver().Metrics()
	fmt.Printf("[viewer lossy] link dropped %d/%d packets (%d reordered); %d NACKs sent, %d retransmits received\n",
		st.Dropped+st.BurstDrops, st.Sent, st.Reordered, rs.NACKsSent, rs.RetransmitsReceived)
	fmt.Printf("[viewer lossy] frames: %d decoded, %d concealed, %d skipped (decoded ratio %.3f)\n",
		rs.FramesDecoded, rs.FramesConcealed, rs.FramesSkipped, rs.DecodedRatio())
	snap := srv.Controller().Snapshot()
	fmt.Printf("[adaptation  ] %d feedback reports aggregated (worst-percentile loss ewma %.3f); knobs: gop %d, qscale x%d, reuse x%.0f; %d knob moves\n",
		snap.Counters.FeedbackReports, snap.LossEWMA,
		snap.Knobs.GOP, snap.Knobs.QScale, snap.Knobs.Threshold/opts.Inter.Threshold,
		snap.Counters.Transitions())
}

// writePacket frames one packet onto the TCP stream (length-prefixed).
func writePacket(w io.Writer, pkt []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(pkt)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(pkt)
	return err
}

// displayWifi accepts the capture side's connection, reassembles the
// length-prefixed packets into a Receiver, and scores geometry PSNR.
func displayWifi(wg *sync.WaitGroup, ln net.Listener, originals []*pcc.PointCloud) {
	defer wg.Done()
	defer ln.Close()
	conn, err := ln.Accept()
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	rx := stream.NewReceiver(stream.ReceiverConfig{
		Options: pcc.DefaultOptions(pcc.IntraInterV1),
		OnFrame: reportFrame("wifi", originals),
	})
	var hdr [4]byte
	got := 0
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			break // EOF: capture side closed
		}
		pkt := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, pkt); err != nil {
			log.Fatal(err)
		}
		rx.Ingest(pkt)
		got++
	}
	if err := rx.Finish(nFrames); err != nil {
		log.Fatal(err)
	}
	rs := rx.Metrics()
	fmt.Printf("[display wifi ] %d packets over TCP: %d/%d frames decoded, decode sim %v\n",
		got, rs.FramesDecoded, nFrames, rx.Device().SimTime().Round(1e5))
}

// localReceiver is an in-process display: packets go straight from the
// viewer's sender into a Receiver, and — once bound — control packets
// (viewport announcements, NACKs) straight back to the viewer. mu
// serializes the Receiver's calls; the control uplink runs inside them, so
// it reads the bound viewer without it.
type localReceiver struct {
	mu   sync.Mutex
	name string
	rx   *stream.Receiver
	v    atomic.Pointer[stream.Viewer]
}

func newLocalReceiver(name string, opts pcc.Options, originals []*pcc.PointCloud) *localReceiver {
	lr := &localReceiver{name: name}
	lr.rx = stream.NewReceiver(stream.ReceiverConfig{
		Options:     opts,
		OnFrame:     reportFrame(name, originals),
		SendControl: lr.sendControl,
	})
	return lr
}

func (lr *localReceiver) bind(v *stream.Viewer) { lr.v.Store(v) }

func (lr *localReceiver) sendControl(c stream.Control) error {
	v := lr.v.Load()
	if v == nil {
		return nil // unbound displays drop their control uplink
	}
	return v.HandleControl(c)
}

func (lr *localReceiver) sendViewport(cam viewport.Camera) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.rx.SendViewport(cam)
}

// overheadCamera is the vp viewer's pose: a 60° close-up hovering an
// eighth of the figure's height above its head, looking straight down
// with range limited to the top quarter — head and shoulders in full,
// torso as a geometry-only halo, the rest culled.
func overheadCamera(f *pcc.PointCloud) viewport.Camera {
	mn := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	mx := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, v := range f.Voxels {
		for a, c := range [3]float64{float64(v.X), float64(v.Y), float64(v.Z)} {
			mn[a] = math.Min(mn[a], c)
			mx[a] = math.Max(mx[a], c)
		}
	}
	height := mx[1] - mn[1] + 1
	return viewport.Camera{
		Pos:        [3]float64{(mn[0] + mx[0]) / 2, mx[1] + height/8, (mn[2] + mx[2]) / 2},
		Dir:        [3]float64{0, -1, 0},
		FOVDegrees: 60,
		MaxDist:    height * 0.25,
	}
}

func (lr *localReceiver) packetOut(_ context.Context, pkt []byte) error {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.rx.Ingest(pkt)
	return nil
}

func (lr *localReceiver) finish(totalFrames int) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if err := lr.rx.Finish(totalFrames); err != nil {
		log.Fatal(err)
	}
}

// reportFrame prints each frame's fate; with originals it also scores
// geometry PSNR (only meaningful when frame indices line up with the
// source, i.e. a from-the-start lossless viewer).
func reportFrame(name string, originals []*pcc.PointCloud) func(stream.DecodedFrame) {
	return func(f stream.DecodedFrame) {
		switch f.Status {
		case stream.FrameDecoded:
			if originals != nil && f.Index < len(originals) {
				psnr, err := pcc.GeometryPSNR(originals[f.Index], f.Cloud)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("[viewer %-5s] frame %d: %s decoded, %6d pts, geometry PSNR %5.1f dB\n",
					name, f.Index, f.Type, f.Cloud.Len(), min(psnr, 120))
				return
			}
			fmt.Printf("[viewer %-5s] frame %d: %s decoded, %6d pts\n",
				name, f.Index, f.Type, f.Cloud.Len())
		case stream.FrameConcealed:
			fmt.Printf("[viewer %-5s] frame %d: %s CONCEALED (%v)\n", name, f.Index, f.Type, f.Err)
		case stream.FrameSkipped:
			fmt.Printf("[viewer %-5s] frame %d: %s skipped (%v)\n", name, f.Index, f.Type, f.Err)
		}
	}
}
