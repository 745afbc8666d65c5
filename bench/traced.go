package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/linksim"
	"repro/internal/morton"
	"repro/internal/paroctree"
	"repro/pcc/stream"
)

// Lengths of the traced pass: brief reruns, because their numbers explain
// the end-to-end metrics and are never quoted as them.
const (
	tracedCodecFrames  = 60
	tracedLiveFrames   = 150
	tracedFanoutFrames = 30
	// oneCoreSeconds is the window of the GOMAXPROCS=1 encode loop and of
	// the all-cores loop it is compared with.
	oneCoreSeconds = 3.0
)

// runTraced is the traced pass of one workload: the harness reruns the
// workload briefly with a span around every public call it makes, calls the
// leaf layers directly on the same frames, and reads the layers' public
// counters. It returns the per-layer metrics and the spans.
func runTraced(fs *frameSet, cfg config, pl *metricSet, ck *checks, info map[string]string) (int64, []span, error) {
	opts := fs.w.opts()
	rec, _, err := record(fs, opts)
	if err != nil {
		return 0, nil, err
	}
	info["stream_sha256"] = rec.sha
	tr := newTracer()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()

	frames := tracedCodecFrames
	if cfg.smoke {
		frames = 2 * len(fs.clouds)
	}
	plainFPS, tracedFPS, plainEnc, err := codecPass(fs, opts, frames, tr, ck)
	if err != nil {
		return 0, nil, err
	}
	if err := probeLayers(fs, opts, tr, pl); err != nil {
		return 0, nil, err
	}
	streamCounts(rec, opts, pl)
	packetProbe(rec, pl)
	microProbes(fs, rec, pl)
	if err := sessionProbe(fs, opts, frames, pl, ck); err != nil {
		return 0, nil, err
	}
	if err := coreScaling(fs, opts, cfg, pl); err != nil {
		return 0, nil, err
	}
	attempted := int64(2 * frames)
	if fs.w.kind != codecLoop {
		n, err := servePass(fs, cfg, tr, pl, ck, info)
		if err != nil {
			return 0, nil, err
		}
		attempted += n
	}

	spans := tr.finished()
	codecSpanMetrics(spans, rec, pl)
	pl.set("harness.trace_overhead_ratio", ratio(plainFPS, tracedFPS)-1)
	pl.set("harness.frame_cover_ratio", rootCover(spans, "frame"))
	pl.setN("harness.encode_p99_ms", plainEnc.p(0.99), plainEnc.n())
	pl.set("edgesim.model_drift_x", ratio(plainEnc.mean(), simMs(rec)))

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	pl.set("harness.cpu_util", ratio((cpuTime()-cpu0).Seconds(), time.Since(t0).Seconds()*float64(runtime.GOMAXPROCS(0))))
	pl.set("harness.peak_heap_mb", float64(ms1.HeapSys)/(1<<20))
	pl.set("harness.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	return attempted, spans, nil
}

func simMs(rec *recorded) float64 {
	var sim time.Duration
	for _, st := range rec.stats {
		sim += st.TotalTime
	}
	return ms(sim) / float64(len(rec.stats))
}

// codecPass runs the codec loop-back with every public call under its own
// span: a `frame` root with children codec.geometry, codec.finish,
// codec.write, codec.layout_parse, packet.packetize, codec.read,
// codec.decode. Cycles of the frame set alternate between traced and plain
// (same encoder, same calls, nil tracer), so the two throughputs differ by
// the cost of the spans alone. It returns both, and the plain cycles'
// per-frame encode (geometry+finish+write) times.
func codecPass(fs *frameSet, opts codec.Options, frames int, tr *tracer, ck *checks) (plainFPS, tracedFPS float64, encMs *dist, err error) {
	dev := edgesim.NewXavier(edgesim.Mode15W)
	enc := codec.NewEncoder(dev, opts)
	dec := codec.NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	n := len(fs.clouds)
	cycles := (frames + n - 1) / n
	encMs = &dist{}
	var buf bytes.Buffer
	var wall [2]time.Duration // plain, traced
	// Cycle 0 is untimed: arenas and pools at steady state.
	for c := 0; c <= 2*cycles; c++ {
		var t *tracer
		if c > 0 && c%2 == 0 {
			t = tr
		}
		start := time.Now()
		for k, vc := range fs.clouds {
			i := (c/2-1)*n + k // frame id within the traced cycles
			root := t.begin("frame", -1, i, "frame")
			t0 := time.Now()
			var g *codec.GeometryIntermediate
			t.in("codec.geometry", root, i, func() { g, err = enc.EncodeGeometryOn(dev, vc) })
			if err != nil {
				return 0, 0, nil, fmt.Errorf("geometry: %w", err)
			}
			var ef *codec.EncodedFrame
			var st codec.FrameStats
			t.in("codec.finish", root, i, func() { ef, st, err = enc.FinishFrame(g) })
			if err != nil {
				return 0, 0, nil, fmt.Errorf("finish: %w", err)
			}
			buf.Reset()
			t.in("codec.write", root, i, func() { _, err = ef.WriteTo(&buf) })
			if err != nil {
				return 0, 0, nil, fmt.Errorf("write: %w", err)
			}
			if c%2 == 1 && c > 0 {
				encMs.add(ms(time.Since(t0)))
			}
			wire := buf.Bytes()
			// The serving layers' per-frame calls on the same bytes.
			t.in("codec.layout_parse", root, i, func() { codec.ParseFrameLayout(wire) })
			t.in("packet.packetize", root, i, func() { stream.PacketizeFrame(1, uint32(k), ef.Type, 0, wire, 1400) })
			var rf *codec.EncodedFrame
			t.in("codec.read", root, i, func() { rf, err = codec.ReadFrameFrom(bytes.NewReader(wire)) })
			if err != nil {
				return 0, 0, nil, fmt.Errorf("read: %w", err)
			}
			var cloud *geom.VoxelCloud
			t.in("codec.decode", root, i, func() { cloud, err = dec.DecodeFrame(rf) })
			t.end(root)
			if err != nil || cloud.Len() != st.Points {
				ck.fail("traced pass frame %d: decode err %v", i, err)
			}
		}
		if c > 0 {
			wall[(c+1)%2] += time.Since(start)
		}
	}
	done := float64(cycles * n)
	return done / wall[0].Seconds(), done / wall[1].Seconds(), encMs, nil
}

// probeLayers calls the leaf layers directly, one `probe` root per frame of
// the set, on the very frames the workload encodes.
func probeLayers(fs *frameSet, opts codec.Options, tr *tracer, pl *metricSet) error {
	var (
		dev      = edgesim.NewXavier(edgesim.Mode15W)
		keyed    []morton.Keyed
		sortSc   morton.SortScratch
		buildSc  paroctree.BuildScratch
		attrSc   attr.Scratch
		interSc  interframe.EncodeScratch
		occ, ent []byte
		plain    []byte
		colors   []geom.Color
		ref      []geom.Voxel
		pvox     []geom.Voxel

		points, pPoints           int64
		occBytes, entBytes        int64
		encodeNs, sortNs, buildNs int64
		deserNs, attrEncNs        int64
		attrDecNs, interEncNs     int64
		interDecNs, compNs, decNs int64
	)
	var t *tracer // nil on the warming pass
	timed := func(name string, root int32, frame int, acc *int64, f func()) {
		t0 := time.Now()
		t.in(name, root, frame, f)
		*acc += int64(time.Since(t0))
	}
	gop := opts.GOP
	if gop < 1 {
		gop = 3
	}
	// Two passes over the set; the first warms the scratch arenas.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			t = tr
		}
		points, pPoints, occBytes, entBytes = 0, 0, 0, 0
		encodeNs, sortNs, buildNs, deserNs, attrEncNs = 0, 0, 0, 0, 0
		attrDecNs, interEncNs, interDecNs, compNs, decNs = 0, 0, 0, 0, 0
		for i, vc := range fs.clouds {
			var err error
			root := t.begin("probe", -1, i, "probe")
			timed("morton.encode", root, i, &encodeNs, func() { keyed = morton.EncodeCloudInto(keyed, vc) })
			timed("morton.sort", root, i, &sortNs, func() { sortSc.Sort(dev.Pool(), keyed, 8) })
			var built *paroctree.BuildResult
			timed("paroctree.build", root, i, &buildNs, func() { built, err = paroctree.BuildWith(dev, vc, &buildSc) })
			if err != nil {
				return fmt.Errorf("probe build: %w", err)
			}
			occ = built.Tree.SerializeInto(dev, occ)
			timed("paroctree.deserialize", root, i, &deserNs, func() { _, err = paroctree.Deserialize(dev, occ, vc.Depth) })
			if err != nil {
				return fmt.Errorf("probe deserialize: %w", err)
			}
			timed("entropy.compress", root, i, &compNs, func() { ent = entropy.AppendCompressBytes(ent[:0], occ) })
			timed("entropy.decompress", root, i, &decNs, func() { plain, err = entropy.AppendDecompressBytes(plain[:0], ent) })
			if err != nil {
				return fmt.Errorf("probe decompress: %w", err)
			}
			occBytes += int64(len(occ))
			entBytes += int64(len(ent))

			sorted := built.Sorted
			points += int64(len(sorted))
			colors = colors[:0]
			for _, k := range sorted {
				colors = append(colors, k.Voxel.C)
			}
			var data []byte
			timed("attr.encode", root, i, &attrEncNs, func() { data, err = attr.EncodeWith(dev, colors, opts.IntraAttr, &attrSc, nil) })
			if err != nil {
				return fmt.Errorf("probe attr encode: %w", err)
			}
			timed("attr.decode", root, i, &attrDecNs, func() { _, err = attr.Decode(dev, data) })
			if err != nil {
				return fmt.Errorf("probe attr decode: %w", err)
			}

			if opts.Design.UsesInter() {
				if i%gop == 0 {
					ref = ref[:0]
					for _, k := range sorted {
						ref = append(ref, k.Voxel)
					}
				} else {
					pvox = pvox[:0]
					for _, k := range sorted {
						pvox = append(pvox, k.Voxel)
					}
					pPoints += int64(len(pvox))
					timed("interframe.encode_p", root, i, &interEncNs, func() {
						data, _, err = interframe.EncodePWith(dev, ref, pvox, opts.Inter, &interSc)
					})
					if err != nil {
						return fmt.Errorf("probe inter encode: %w", err)
					}
					timed("interframe.decode_p", root, i, &interDecNs, func() { _, err = interframe.DecodeP(dev, data, ref) })
					if err != nil {
						return fmt.Errorf("probe inter decode: %w", err)
					}
				}
			}
			t.end(root)
		}
	}
	per := func(ns, n int64) float64 { return ratio(float64(ns), float64(n)) }
	pl.set("morton.encode_ns_per_pt", per(encodeNs, int64(fs.points)))
	pl.set("morton.sort_ns_per_pt", per(sortNs, int64(fs.points)))
	pl.set("paroctree.build_ns_per_pt", per(buildNs, int64(fs.points)))
	pl.set("paroctree.deserialize_ns_per_pt", per(deserNs, points))
	pl.set("attr.encode_ns_per_pt", per(attrEncNs, points))
	pl.set("attr.decode_ns_per_pt", per(attrDecNs, points))
	pl.set("interframe.encode_ns_per_pt", per(interEncNs, pPoints))
	pl.set("interframe.decode_ns_per_pt", per(interDecNs, pPoints))
	pl.set("entropy.compress_mb_s", ratio(float64(occBytes)/1e6, float64(compNs)/1e9))
	pl.set("entropy.decompress_mb_s", ratio(float64(occBytes)/1e6, float64(decNs)/1e9))
	pl.set("entropy.ratio", ratio(float64(entBytes), float64(occBytes)))
	return nil
}

// streamCounts reads the exact per-point byte counts and the device ledger
// off the recorded stream.
func streamCounts(rec *recorded, opts codec.Options, pl *metricSet) {
	var geomB, intraB, interB, intraPts, interPts int64
	var blocks, reused int64
	var energy float64
	for i, w := range rec.wires {
		ef, err := codec.ReadFrameFrom(bytes.NewReader(w))
		if err != nil {
			continue
		}
		geomB += int64(len(ef.Geometry))
		st := rec.stats[i]
		if ef.Type == codec.PFrame {
			interB += int64(len(ef.Attr))
			interPts += int64(st.Points)
		} else {
			intraB += int64(len(ef.Attr))
			intraPts += int64(st.Points)
		}
		blocks += int64(st.Inter.Blocks)
		reused += int64(st.Inter.DirectReuse)
		energy += st.EnergyJ
	}
	pl.set("paroctree.geom_bytes_per_pt", ratio(float64(geomB), float64(rec.points)))
	pl.set("attr.bytes_per_pt", ratio(float64(intraB), float64(intraPts)))
	pl.set("interframe.bytes_per_pt", ratio(float64(interB), float64(interPts)))
	pl.set("interframe.reuse_ratio", ratio(float64(reused), float64(blocks)))
	pl.set("edgesim.sim_ms_per_frame", simMs(rec))
	pl.set("edgesim.sim_energy_mj_per_frame", energy*1e3/float64(len(rec.stats)))
	var link time.Duration
	var tx float64
	for _, w := range rec.wires {
		c := wifiCost(int64(len(w)))
		link += c.Latency
		tx += c.TxEnergy
	}
	pl.set("linksim.sim_link_ms_per_frame", ms(link)/float64(len(rec.wires)))
	pl.set("linksim.sim_tx_mj_per_frame", tx*1e3/float64(len(rec.wires)))
}

// packetProbe times packet framing and parsing on the workload's own
// container bytes.
func packetProbe(rec *recorded, pl *metricSet) {
	const rounds = 20
	var pkts, payload, total int64
	var all [][]byte
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, w := range rec.wires {
			ps := stream.PacketizeFrame(1, uint32(i), codec.IFrame, 0, w, 1400)
			if r == 0 {
				all = append(all, ps...)
			}
			pkts += int64(len(ps))
		}
	}
	packNs := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range all {
			pk, err := stream.ParsePacket(p)
			if err == nil && r == 0 {
				payload += int64(len(pk.Payload))
				total += int64(len(p))
			}
		}
	}
	parseNs := time.Since(t0)
	pl.set("packet.packetize_ns_per_pkt", ratio(float64(packNs), float64(pkts)))
	pl.set("packet.parse_ns_per_pkt", ratio(float64(parseNs), float64(rounds*len(all))))
	pl.set("packet.count_per_frame", ratio(float64(len(all)), float64(len(rec.wires))))
	pl.set("packet.header_overhead_ratio", ratio(float64(total-payload), float64(total)))
}

// microProbes times the small fixed-cost calls whose share grows on small
// frames: a pool dispatch over an empty body, a frustum test, a layout
// parse of the recorded containers.
func microProbes(fs *frameSet, rec *recorded, pl *metricSet) {
	dev := edgesim.NewXavier(edgesim.Mode15W)
	const dispatches = 2000
	t0 := time.Now()
	for i := 0; i < dispatches; i++ {
		dev.ParallelFor(len(fs.clouds[0].Voxels), func(int, int) {})
	}
	pl.set("edgesim.pool_dispatch_us", us(time.Since(t0))/dispatches)

	// One box per frame: each frame's own bounds (tile boxes when tiled).
	var boxes [][2][3]float64
	for _, w := range rec.wires {
		if l := codec.ParseFrameLayout(w); l != nil {
			for _, ti := range l.Tiles {
				boxes = append(boxes, [2][3]float64{toF(ti.Min), toF(ti.Max)})
			}
		}
	}
	if len(boxes) == 0 {
		g := float64(fs.clouds[0].GridSize())
		boxes = append(boxes, [2][3]float64{{0, 0, 0}, {g, g, g}})
	}
	const rounds = 2000
	seen := 0
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range boxes {
			if fs.cam.SeesAABB(b[0], b[1]) {
				seen++
			}
		}
	}
	pl.set("viewport.sees_aabb_ns", float64(time.Since(t0))/float64(rounds*len(boxes)))
	_ = seen
}

func toF(v [3]uint32) [3]float64 { return [3]float64{float64(v[0]), float64(v[1]), float64(v[2])} }

// sessionProbe pushes frames through a one-viewer Session whose PacketOut
// feeds a Receiver, and reports the Session's own emit loop per frame:
// first PacketOut call to the return of the last, minus the time spent
// inside the callbacks. It is the number a one-viewer Server must match.
func sessionProbe(fs *frameSet, opts codec.Options, frames int, pl *metricSet, ck *checks) error {
	var (
		decoded            int
		curFrame           = -1
		first, last, inner time.Duration
		emit               dist
		epoch              = time.Now()
	)
	rx := stream.NewReceiver(stream.ReceiverConfig{Options: opts, OnFrame: func(f stream.DecodedFrame) {
		if f.Status == stream.FrameDecoded {
			decoded++
		}
	}})
	flush := func() {
		if curFrame >= 0 {
			emit.add(us(last - first - inner))
		}
	}
	sess := stream.New(context.Background(), stream.Config{
		Options: opts,
		PacketOut: func(_ context.Context, pkt []byte) error {
			t0 := time.Since(epoch)
			if idx, fresh := frameIndexOf(pkt); fresh && idx != curFrame {
				flush()
				curFrame, first, inner = idx, t0, 0
			}
			rx.Ingest(pkt)
			last = time.Since(epoch)
			inner += last - t0
			return nil
		},
	})
	col := stream.NewCollector(sess)
	for i := 0; i < frames; i++ {
		if err := sess.Submit(context.Background(), fs.clouds[i%len(fs.clouds)]); err != nil {
			return fmt.Errorf("session submit: %w", err)
		}
	}
	if err := sess.Close(); err != nil {
		return fmt.Errorf("session close: %w", err)
	}
	col.Wait()
	flush()
	if err := rx.Finish(frames); err != nil {
		return fmt.Errorf("session receiver: %w", err)
	}
	if decoded != frames {
		ck.fail("session probe: decoded %d of %d frames", decoded, frames)
	}
	pl.setN("session.emit_us_per_frame", emit.mean(), emit.n())
	return nil
}

// coreScaling runs the plain encode loop at GOMAXPROCS=1 and at the
// process's setting: the speed-up the tile fan-out and the worker pool
// were built for, which no single-core benchmark could ever show.
func coreScaling(fs *frameSet, opts codec.Options, cfg config, pl *metricSet) error {
	if runtime.NumCPU() == 1 {
		return nil
	}
	seconds := oneCoreSeconds
	if cfg.smoke {
		seconds = 0.1
	}
	loop := func() (float64, float64, float64, error) {
		enc := codec.NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
		var buf bytes.Buffer
		n := len(fs.clouds)
		encode := func(i int) error {
			ef, _, err := enc.EncodeFrame(fs.clouds[i%n])
			if err != nil {
				return err
			}
			buf.Reset()
			_, err = ef.WriteTo(&buf)
			return err
		}
		for i := 0; i < n; i++ {
			if err := encode(i); err != nil {
				return 0, 0, 0, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start, i := time.Now(), 0
		for ; time.Since(start).Seconds() < seconds || i%n != 0; i++ {
			if err := encode(i); err != nil {
				return 0, 0, 0, err
			}
		}
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		return float64(i) / wall, float64(m1.Mallocs-m0.Mallocs) / float64(i), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(i), nil
	}
	all, allocs, allocBytes, err := loop()
	if err != nil {
		return fmt.Errorf("encode loop: %w", err)
	}
	prev := runtime.GOMAXPROCS(1)
	one, _, _, err := loop()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return fmt.Errorf("one-core encode loop: %w", err)
	}
	pl.set("codec.allocs_per_frame", allocs)
	pl.set("codec.alloc_bytes_per_frame", allocBytes)
	pl.set("codec.encode_fps_1core", one)
	pl.set("codec.core_scaling_x", ratio(all, one))
	return nil
}

// codecSpanMetrics turns the codec pass's spans into per-call means.
func codecSpanMetrics(spans []span, rec *recorded, pl *metricSet) {
	tot := totalsByName(spans)
	mean := func(name string, unit float64) (float64, int) {
		t := tot[name]
		return ratio(float64(t.dur)/unit, float64(t.n)), t.n
	}
	for name, m := range map[string]string{
		"codec.geometry": "codec.geometry_ms", "codec.finish": "codec.finish_ms", "codec.decode": "codec.decode_ms",
	} {
		v, n := mean(name, 1e6)
		pl.setN(m, v, n)
	}
	for name, m := range map[string]string{
		"codec.write": "codec.write_us", "codec.read": "codec.read_us", "codec.layout_parse": "codec.layout_parse_us",
	} {
		v, n := mean(name, 1e3)
		pl.setN(m, v, n)
	}
	// I- and P-frame encode time: geometry + finish of the frames of each type.
	var iNs, pNs int64
	var iN, pN int
	for _, s := range spans {
		if s.Frame < 0 || (s.Name != "codec.geometry" && s.Name != "codec.finish") {
			continue
		}
		if rec.stats[s.Frame%len(rec.stats)].Type == codec.PFrame {
			pNs += s.dur()
			pN++
		} else {
			iNs += s.dur()
			iN++
		}
	}
	pl.setN("codec.iframe_ms", ratio(float64(iNs)/1e6, float64(iN)/2), iN/2)
	pl.setN("codec.pframe_ms", ratio(float64(pNs)/1e6, float64(pN)/2), pN/2)
}

// wifiCost is the modelled link cost of one frame's bytes on the default
// downlink, for the workloads that have no viewer to charge it to.
func wifiCost(bytes int64) linksim.Cost {
	c, err := linksim.WiFi.Transmit(bytes)
	if err != nil {
		return linksim.Cost{}
	}
	return c
}
