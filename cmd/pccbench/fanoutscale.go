package main

// Relay-tree viewer-scaling sweep: how much does ONE MORE viewer cost once
// the encode is amortized? TestServerEncodeOnceFanOut proves the encode is
// paid once; this sweep prices the fan-out itself — per-viewer CPU cost as the
// audience grows 64 → 16k — and makes the sub-linear scaling claim
// executable: encode-once is enforced at every point, and the per-viewer
// cost at the top of the sweep must stay within a small factor of the cost
// at the bottom (flat cost = a true relay tree; growth = the encode path
// leaking into the per-viewer work).
//
//	pccbench fanout-scale                         sweep 64 → 16384 viewers
//	pccbench -maxviewers 2048 fanout-scale        CI-sized sweep
//	pccbench -maxviewers 2048 -ceiling 50 fanout-scale
//	                                              fail when the largest
//	                                              point costs > 50 µs of
//	                                              CPU per viewer-frame
//	pccbench -ratio 2 fanout-scale                fail when cost(max) >
//	                                              2 x cost(min)
//	pccbench -benchout BENCH_6.json fanout-scale  tracked results file
//
// (Flags precede the experiment name.) Viewers run with nil PacketOut:
// every frame is packetized, sequence-stamped, recorded for NACK, and
// link-accounted, but nothing hits a socket — the sweep measures the
// serving machinery, not the kernel's network stack.
//
// The workload is deliberately small (redandblack @ 0.8%, 12 frames): the
// point is the per-viewer slope, not encode throughput, and 16k viewers x
// 12 frames already exercises ~200k full frame sends.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/pcc/stream"
)

// fanoutScale pins the sweep workload (overridable via -scale / -frames).
const (
	fanoutScaleScale  = 0.008
	fanoutScaleFrames = 12
)

// scalePoint is one viewer-count measurement.
type scalePoint struct {
	Viewers       int     `json:"viewers"`
	FramesEncoded int64   `json:"frames_encoded"`
	ViewerFrames  int64   `json:"viewer_frames"`
	Dropped       int64   `json:"dropped"`
	WallMs        float64 `json:"wall_ms"`
	CPUMs         float64 `json:"cpu_ms"`
	// CostUs is the headline number: CPU microseconds per delivered
	// viewer-frame — the marginal price of serving one viewer one frame.
	CostUs float64 `json:"cpu_us_per_viewer_frame"`
}

// scaleFile is the BENCH_6.json schema.
type scaleFile struct {
	Benchmark  string       `json:"benchmark"`
	Video      string       `json:"video"`
	Scale      float64      `json:"scale"`
	Frames     int          `json:"frames"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Shards     int          `json:"shards"`
	CPUSource  string       `json:"cpu_source"` // "getrusage" or "wall"
	Points     []scalePoint `json:"points"`
	// CostRatioMaxVsMin compares the per-viewer cost at the sweep's top to
	// its bottom; ~1 means fan-out cost is flat in the audience size.
	CostRatioMaxVsMin float64 `json:"cost_ratio_max_vs_min"`
	// CeilingUs echoes the -ceiling gate the run was held to, if any.
	CeilingUs float64 `json:"ceiling_us,omitempty"`
}

// fanoutScaleFrameSet builds the sweep workload at its own (small) scale.
func fanoutScaleFrameSet(scale float64, n int) ([]*geom.VoxelCloud, error) {
	spec, err := dataset.SpecByName(benchVideo)
	if err != nil {
		return nil, err
	}
	g := dataset.NewGenerator(spec, scale)
	frames := make([]*geom.VoxelCloud, n)
	for i := range frames {
		if frames[i], err = g.Frame(i % spec.Frames); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// runFanoutScalePoint serves the workload to n viewers and prices it.
// Attachment happens before the clock starts: the sweep measures
// steady-state serving, and joins are priced by the churn tests instead.
func runFanoutScalePoint(n int, frames []*geom.VoxelCloud) (scalePoint, bool, error) {
	srv := stream.NewServer(context.Background(), stream.ServerConfig{
		Options:     benchOptions(codec.IntraInterV1),
		ViewerQueue: 64,
	})
	for i := 0; i < n; i++ {
		if _, err := srv.Attach(stream.ViewerConfig{}); err != nil {
			return scalePoint{}, false, err
		}
	}
	cpu0, haveCPU := processCPUTime()
	start := time.Now()
	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			return scalePoint{}, false, err
		}
	}
	if err := srv.Close(); err != nil {
		return scalePoint{}, false, err
	}
	wall := time.Since(start)
	cpu := wall
	if haveCPU {
		cpu1, _ := processCPUTime()
		cpu = cpu1 - cpu0
	}

	m := srv.Metrics()
	pt := scalePoint{
		Viewers:       n,
		FramesEncoded: m.FramesEncoded,
		WallMs:        round2(float64(wall.Microseconds()) / 1e3),
		CPUMs:         round2(float64(cpu.Microseconds()) / 1e3),
	}
	for _, vm := range m.PerViewer {
		pt.ViewerFrames += vm.FramesSent
		pt.Dropped += vm.FramesDropped
	}
	if pt.FramesEncoded != int64(len(frames)) {
		return pt, haveCPU, fmt.Errorf(
			"fanout-scale: encoded %d frames for %d viewers, want %d (encode-once violated)",
			pt.FramesEncoded, n, len(frames))
	}
	if pt.ViewerFrames == 0 {
		return pt, haveCPU, fmt.Errorf("fanout-scale: %d viewers delivered zero frames", n)
	}
	pt.CostUs = round3(float64(cpu.Microseconds()) / float64(pt.ViewerFrames))
	return pt, haveCPU, nil
}

// runFanoutScale is the `fanout-scale` experiment entry point.
func runFanoutScale(cfg benchConfig) error {
	scale, nframes := fanoutScaleScale, fanoutScaleFrames
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			scale = cfg.Scale
		case "frames":
			nframes = cfg.Frames
		}
	})
	frames, err := fanoutScaleFrameSet(scale, nframes)
	if err != nil {
		return err
	}

	sweep := []int{64, 256, 1024, 2048, 4096, 16384}
	if *flagMaxViewers > 0 {
		kept := sweep[:0]
		for _, n := range sweep {
			if n <= *flagMaxViewers {
				kept = append(kept, n)
			}
		}
		sweep = kept
	}
	if len(sweep) == 0 {
		return fmt.Errorf("fanout-scale: -maxviewers %d leaves no sweep points", *flagMaxViewers)
	}

	out := scaleFile{
		Benchmark:  "fanout-scale",
		Video:      benchVideo,
		Scale:      scale,
		Frames:     nframes,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     runtime.NumCPU(),
		CPUSource:  "getrusage",
		CeilingUs:  *flagCeiling,
	}
	fmt.Printf("fanout-scale: %s @ %.3f, %d frames, %d relay shards, GOMAXPROCS=%d\n\n",
		benchVideo, scale, len(frames), out.Shards, out.GoMaxProcs)
	fmt.Printf("%8s %12s %14s %10s %10s %16s\n",
		"viewers", "enc-frames", "viewer-frames", "wall ms", "cpu ms", "cpu µs/vframe")

	for _, n := range sweep {
		pt, haveCPU, err := runFanoutScalePoint(n, frames)
		if err != nil {
			return err
		}
		if !haveCPU {
			out.CPUSource = "wall"
		}
		out.Points = append(out.Points, pt)
		fmt.Printf("%8d %12d %14d %10.1f %10.1f %16.3f\n",
			n, pt.FramesEncoded, pt.ViewerFrames, pt.WallMs, pt.CPUMs, pt.CostUs)
	}

	lo, hi := out.Points[0], out.Points[len(out.Points)-1]
	if lo.CostUs > 0 {
		out.CostRatioMaxVsMin = round3(hi.CostUs / lo.CostUs)
		fmt.Printf("\nper-viewer cost %d → %d viewers: %.3f → %.3f µs/vframe (ratio %.2fx)\n",
			lo.Viewers, hi.Viewers, lo.CostUs, hi.CostUs, out.CostRatioMaxVsMin)
	}

	if *flagBenchOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*flagBenchOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *flagBenchOut)
	}
	if *flagCeiling > 0 && hi.CostUs > *flagCeiling {
		return fmt.Errorf("fanout-scale: %.3f µs/viewer-frame at %d viewers exceeds ceiling %.3f",
			hi.CostUs, hi.Viewers, *flagCeiling)
	}
	if *flagCeiling > 0 {
		fmt.Printf("ceiling passed: %.3f µs/vframe <= %.3f at %d viewers\n",
			hi.CostUs, *flagCeiling, hi.Viewers)
	}
	if *flagRatio > 0 && len(out.Points) > 1 {
		if out.CostRatioMaxVsMin > *flagRatio {
			return fmt.Errorf("fanout-scale: cost ratio %.2fx (%d vs %d viewers) exceeds %.2fx",
				out.CostRatioMaxVsMin, hi.Viewers, lo.Viewers, *flagRatio)
		}
		fmt.Printf("ratio passed: %.2fx <= %.2fx\n", out.CostRatioMaxVsMin, *flagRatio)
	}
	return nil
}
