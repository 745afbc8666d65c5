package codec

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
)

// steadyFrames returns a deterministic 60-frame GOP session (redandblack at
// 5% scale, frames cycling through the generator's articulation loop).
func steadyFrames(tb testing.TB, n int) []*geom.VoxelCloud {
	return sessionFrames(tb, "redandblack", 0.05, n)
}

// sparseFrames is steadyFrames' sparse LiDAR session: kitti-sparse at the
// sparse benchmark workload's 25% scale, whose raw occupancy streams are over
// entropy.SliceBytes.
func sparseFrames(tb testing.TB, n int) []*geom.VoxelCloud {
	return sessionFrames(tb, "kitti-sparse", 0.25, n)
}

// sessionFrames returns n frames of a video at a scale, cycling through its
// frames.
func sessionFrames(tb testing.TB, video string, scale float64, n int) []*geom.VoxelCloud {
	tb.Helper()
	spec, err := dataset.SpecByName(video)
	if err != nil {
		tb.Fatal(err)
	}
	g := dataset.NewGenerator(spec, scale)
	frames := make([]*geom.VoxelCloud, n)
	for i := range frames {
		if frames[i], err = g.Frame(i % spec.Frames); err != nil {
			tb.Fatal(err)
		}
	}
	return frames
}

func steadyOpts(d Design) Options {
	o := OptionsFor(d)
	o.IntraAttr.Segments = 1500
	o.Inter.Segments = 2500
	return o
}

// BenchmarkEncodeSteadyState measures the real-execution encode hot path
// over a 60-frame GOP session: the workload every scaling PR (session
// multiplexing, FEC) rides on. Run with -benchmem; allocs/op divided by 60
// is allocs/frame.
func BenchmarkEncodeSteadyState(b *testing.B) {
	frames := steadyFrames(b, 60)
	for _, d := range []Design{IntraOnly, IntraInterV1} {
		b.Run(d.String(), func(b *testing.B) {
			enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), steadyOpts(d))
			// Warm up one full session so arena buffers reach steady state.
			for _, f := range frames {
				if _, _, err := enc.EncodeFrame(f); err != nil {
					b.Fatal(err)
				}
			}
			var pts int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range frames {
					_, st, err := enc.EncodeFrame(f)
					if err != nil {
						b.Fatal(err)
					}
					pts += int64(st.Points)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(60*b.N)/sec, "frames/s")
			b.ReportMetric(float64(pts)/sec/1e6, "Mpts/s")
		})
	}
}

// TestSteadyStateAllocsPerFrame is the encode side's allocation gate: after
// a one-session warmup, a session of steady-state encoding stays under a hard
// allocs/frame cap and allocates little more than the frames it returns, for
// every frame shape — untiled, tiled, layered, and tiles x layers, which is
// what the streaming servers run. Measured at 1500/2500 segments on two
// cores: 39.0 / 39.0 / 41.0 / 42.0 / 44.0 allocations per frame (24 / 24 / 25
// / 27 / 28 at GOMAXPROCS=1) and 1.10-1.11 times the wire frame on every row;
// 88.0 / 84.0 / 47.0 / 87.0 / 50.0 while every ledger row booked allocated a
// key string, when the caps were set. The allocation caps sat 10% above that
// measurement, which is the same in plain and -race builds because nothing on
// the path is pooled — the encoder indexes its units and keeps its geometry
// arenas on a free list; the bytes cap is 1.25 times the wire frame. What is
// left is the escaping frame, its two payloads (Attr sized from the last
// frame of its type plus an eighth) and its directories, the sort's per-pass
// dispatch and the fan-outs' closures; the geometry sweep, the unit chunk
// buffers, the attribute bodies, the base medians and the ledger allocate
// nothing. The
// layered rows read 122.9 and 234.8 allocations and 3.38 and 5.69 times the
// wire frame while a post-pass rebuilt a finished frame into its layers; the
// pre-arena figures (~45k/~36k allocs/frame) fail the caps by two orders of
// magnitude. The sparse LiDAR row, with geometry entropy on, codes its
// ~46 KB raw occupancy streams as two mode-2 slices: 18.0 allocations per
// frame (13.0 at GOMAXPROCS=1), two more than the dense intra row for the
// slices' fan-out, and 1.13 times the wire frame; its slice coders and their
// outputs live in the geometry arena. Its cap is 10% above that.
func TestSteadyStateAllocsPerFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full frames")
	}
	dense, sparse := steadyFrames(t, 60), sparseFrames(t, 60)
	for _, row := range []struct {
		design        Design
		tiles, layers int
		sparse        bool    // the sparse session, with geometry entropy
		capAllocs     float64 // per frame
		capBytes      float64 // per frame, in units of the wire frame
	}{
		{IntraOnly, 0, 0, false, 98, 1.25},
		{IntraInterV1, 0, 0, false, 94, 1.25},
		{IntraInterV1, 8, 0, false, 52, 1.25},
		{IntraInterV1, 0, 3, false, 96, 1.25},
		{IntraInterV1, 8, 3, false, 55, 1.25},
		{IntraOnly, 0, 0, true, 20, 1.25},
	} {
		name := row.design.String()
		if row.tiles > 0 {
			name = fmt.Sprintf("%s/tiles=%d", name, row.tiles)
		}
		if row.layers > 0 {
			name = fmt.Sprintf("%s/layers=%d", name, row.layers)
		}
		frames := dense
		if row.sparse {
			name, frames = name+"/sparse, entropy geometry", sparse
		}
		t.Run(name, func(t *testing.T) {
			opts := steadyOpts(row.design)
			opts.Tiles, opts.Layers, opts.EntropyGeometry = row.tiles, row.layers, row.sparse
			enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			for _, f := range frames { // warmup session
				if _, _, err := enc.EncodeFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			var wire int64
			runtime.ReadMemStats(&before)
			for _, f := range frames {
				ef, _, err := enc.EncodeFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				wire += ef.Size()
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / 60
			perWire := float64(after.TotalAlloc-before.TotalAlloc) / float64(wire)
			t.Logf("%s: %.1f allocs/frame (cap %.0f), %.2f x the %d B wire frame (cap %.2f)", name, allocs, row.capAllocs, perWire, wire/60, row.capBytes)
			if allocs > row.capAllocs || perWire > row.capBytes {
				t.Errorf("%s steady-state encode allocations regressed", name)
			}
		})
	}
}

// BenchmarkDecodeSteadyState is the decode side of
// BenchmarkEncodeSteadyState: a warm Decoder over the same 60-frame session.
func BenchmarkDecodeSteadyState(b *testing.B) {
	frames := steadyFrames(b, 60)
	for _, row := range []struct {
		design        Design
		tiles, layers int
		sub           uint8 // layers a shedding viewer keeps; 0: all
	}{{IntraOnly, 0, 0, 0}, {IntraInterV1, 0, 0, 0}, {IntraInterV1, 8, 3, 0}, {IntraInterV1, 8, 3, 1}, {IntraInterV1, 8, 3, 2}} {
		b.Run(fmt.Sprintf("%v/tiles=%d/layers=%d/sub=%d", row.design, row.tiles, row.layers, row.sub), func(b *testing.B) {
			opts := steadyOpts(row.design)
			opts.Tiles, opts.Layers = row.tiles, row.layers
			enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			dec := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			encoded := make([]*EncodedFrame, len(frames))
			var pts int64
			for i, f := range frames { // encode, and warm the decoder
				var err error
				if encoded[i], _, err = enc.EncodeFrame(f); err != nil {
					b.Fatal(err)
				}
				if row.sub > 0 {
					encoded[i] = stripLayers(encoded[i], nil, row.sub)
				}
				vc, err := dec.DecodeFrame(encoded[i])
				if err != nil {
					b.Fatal(err)
				}
				pts += int64(vc.Len())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ef := range encoded {
					if _, err := dec.DecodeFrame(ef); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(60*b.N)/sec, "frames/s")
			b.ReportMetric(float64(pts)*float64(b.N)/sec/1e6, "Mpts/s")
		})
	}
}

// TestDecodeSteadyStateAllocs is the decode side's allocation gate: a warm
// Decoder over a 60-frame session allocates little more than the clouds it
// returns, whatever the viewer subscribed to. Measured on two cores, where an
// untiled frame decodes as two windows: 8.0 allocations per frame on every
// row, full or partial, untiled or tiled (6.0 on one core, where the fan-outs
// run inline) — the returned cloud and its voxel slice, the frame's span
// table, the two fan-outs' closures and their wait groups — and 1.01 times
// the 16 B per point of the returned voxels on every row. The caps were set
// 10% above the measurement while every ledger row booked allocated a key
// string and an untiled frame was one unit on the calling core: 26.0 / 22.7
// / 11.0 for full subscriptions and 11.0 / 11.0 for a viewer that keeps one
// or two of three layers (25.0 / 21.7 / 12.0 when the decoder got its
// arena). All read the same in plain and -race builds, because nothing on
// the path is pooled. Before the Decoder owned its memory the full rows read
// 4556 / 10648 / 9429 allocations per frame and 5.5 / 4.4 / 5.5 times the
// output; the partial rows, the last to move into the arena, 131.2 / 146.1
// allocations and 5.76 / 5.38 times. The sparse LiDAR row, whose geometry
// chunks are two mode-2 entropy slices, reads 10.0 (7.0 on one core): the
// slices' fan-out adds a closure and a wait group, their coders live in the
// unit arena. Its cap is 10% above that.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full frames")
	}
	dense, sparse := steadyFrames(t, 60), sparseFrames(t, 60)
	for _, row := range []struct {
		design        Design
		tiles, layers int
		sub           uint8   // layers a shedding viewer keeps; 0: all
		sparse        bool    // the sparse session, with geometry entropy
		capAllocs     float64 // per frame
		capBytes      float64 // per returned point, in units of the 16 B output voxel
	}{
		{IntraOnly, 0, 0, 0, false, 28, 1.1},
		{IntraInterV1, 0, 0, 0, false, 24, 1.1},
		{IntraInterV1, 8, 3, 0, false, 14, 1.1},
		{IntraInterV1, 8, 3, 1, false, 12.1, 1.1},
		{IntraInterV1, 8, 3, 2, false, 12.1, 1.1},
		{IntraOnly, 0, 0, 0, true, 11, 1.1},
	} {
		name := row.design.String()
		if row.tiles > 0 {
			name = fmt.Sprintf("%s/tiles=%d/layers=%d", name, row.tiles, row.layers)
		}
		if row.sub > 0 {
			name = fmt.Sprintf("%s/sub=%d", name, row.sub)
		}
		frames := dense
		if row.sparse {
			name, frames = name+"/sparse, entropy geometry", sparse
		}
		t.Run(name, func(t *testing.T) {
			opts := steadyOpts(row.design)
			opts.Tiles, opts.Layers, opts.EntropyGeometry = row.tiles, row.layers, row.sparse
			enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			dec := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			encoded := make([]*EncodedFrame, len(frames))
			points := 0
			for i, f := range frames { // encode, and warm the decoder
				var err error
				if encoded[i], _, err = enc.EncodeFrame(f); err != nil {
					t.Fatal(err)
				}
				if row.sub > 0 {
					encoded[i] = stripLayers(encoded[i], nil, row.sub)
				}
				vc, err := dec.DecodeFrame(encoded[i])
				if err != nil {
					t.Fatal(err)
				}
				points += vc.Len()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, ef := range encoded {
				if _, err := dec.DecodeFrame(ef); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / 60
			perPoint := float64(after.TotalAlloc-before.TotalAlloc) / float64(16*points)
			t.Logf("%s: %.1f allocs/frame (cap %.1f), %.2f x 16 B per returned point (cap %.1f)", name, allocs, row.capAllocs, perPoint, row.capBytes)
			if allocs > row.capAllocs || perPoint > row.capBytes {
				t.Errorf("%s steady-state decode allocations regressed", name)
			}
		})
	}
}
