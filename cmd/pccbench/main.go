// Command pccbench regenerates every table and figure of the paper's
// evaluation (Sec. VI) on the synthetic dataset and the edge-device model:
//
//	pccbench table1            Table I   dataset summary
//	pccbench fig2              Fig. 2    baseline stage latency breakdown
//	pccbench fig3a             Fig. 3a   spatial attribute locality CDFs
//	pccbench fig3b             Fig. 3b   temporal attribute locality CDFs
//	pccbench fig8              Figs. 8a-c latency / energy / size+PSNR,
//	                                      five designs x six videos
//	pccbench fig9              Fig. 9    inter-frame kernel energy breakdown
//	pccbench fig10b            Fig. 10b  reuse-threshold sensitivity
//	pccbench power             Sec. VI-C 15 W vs 10 W mode
//	pccbench decode            Sec. VI-C decode latency
//	pccbench ablation          Sec. IV-B3 entropy / layers / segments
//	pccbench future            future-work ASIC projection
//	pccbench endtoend          Fig. 1 end-to-end budget with wireless transmission
//	pccbench lod               progressive level-of-detail decoding
//	pccbench capture           capture-rig sweep
//	pccbench all               everything above
//	pccbench hotpath           entropy/Morton hot-loop micros + sparse row (BENCH_8.json)
//	pccbench fanout-scale      relay-tree viewer scaling 64 → 16k (BENCH_6.json)
//	pccbench tiles             tile-parallel encode sweep + viewport egress (BENCH_9.json)
//
// The loss-recovery, congestion-adaptation and layered-serving floors are
// pcc/stream tests (TestLossyStreamRecovers5PercentLoss,
// TestAdaptConvergesOnDropStep, TestServerLayerSubscriptionSweep);
// steady-state encode throughput is the BENCHMARK.json ledger's encode_fps.
//
// Flags:
//
//	-scale f    dataset scale (fraction of Table I points/frame; default 0.1)
//	-frames n   frames per video per experiment (default 3)
//	-videos csv comma-separated subset of video names (default all six)
//
// Latency and energy are simulated Jetson-AGX-Xavier numbers from the
// device model; they scale linearly with point count, so sub-scale runs
// preserve every ratio the paper reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataset"
)

var (
	flagScale  = flag.Float64("scale", 0.1, "dataset scale (1.0 = Table I point counts)")
	flagFrames = flag.Int("frames", 3, "frames per video per experiment")
	flagVideos = flag.String("videos", "", "comma-separated subset of videos (default: all six)")
	flagCSV    = flag.String("csv", "", "also write each result table as CSV into this directory")

	// Gate flags of hotpath, tiles and fanout-scale.
	flagBenchOut = flag.String("benchout", "", "hotpath, tiles, fanout-scale: write machine-readable results to this JSON file")
	flagBaseline = flag.String("baseline", "", "hotpath, tiles: compare against this BENCH JSON and fail on regression")
	flagGate     = flag.Float64("gate", 0.20, "hotpath, tiles: regression tolerance as a fraction")

	// fanout-scale flags (see fanoutscale.go).
	flagMaxViewers = flag.Int("maxviewers", 0, "fanout-scale: cap the sweep (0 = full 64..16384)")
	flagCeiling    = flag.Float64("ceiling", 0, "fanout-scale: fail when per-viewer CPU cost (µs/viewer-frame) at the largest point exceeds this")
	flagRatio      = flag.Float64("ratio", 0, "fanout-scale: fail when cost(largest)/cost(smallest) exceeds this")
)

// experiments is the one ordered list of experiments: the usage line, the
// dispatch and `all` (the entries with inAll, in this order) read it. The
// hotpath, fanout-scale and tiles gates stay out of `all`.
var experiments = []struct {
	name  string
	run   func(benchConfig) error
	inAll bool
}{
	{"table1", runTable1, true},
	{"fig2", runFig2, true},
	{"fig3a", runFig3a, true},
	{"fig3b", runFig3b, true},
	{"fig8", runFig8, true},
	{"fig9", runFig9, true},
	{"fig10b", runFig10b, true},
	{"power", runPower, true},
	{"decode", runDecode, true},
	{"ablation", runAblation, true},
	{"future", runFuture, true},
	{"endtoend", runEndToEnd, true},
	{"lod", runLoD, true},
	{"capture", runCapture, true},
	{"hotpath", runHotpath, false},
	{"fanout-scale", runFanoutScale, false},
	{"tiles", runTiles, false},
}

func main() {
	flag.Usage = func() {
		names := make([]string, 0, len(experiments))
		for _, e := range experiments {
			names = append(names, e.name)
		}
		fmt.Fprintf(os.Stderr, "usage: pccbench [flags] <experiment>\nexperiments: %s all\n", strings.Join(names, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if *flagCSV != "" {
		if err := os.MkdirAll(*flagCSV, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "pccbench:", err)
			os.Exit(1)
		}
		csvDir = *flagCSV
	}
	cfg := benchConfig{
		Scale:  *flagScale,
		Frames: *flagFrames,
		Videos: selectVideos(*flagVideos),
	}
	if cfg.Frames < 1 {
		cfg.Frames = 1
	}

	ran := false
	for _, e := range experiments {
		if cmd == e.name || cmd == "all" && e.inAll {
			if cmd == "all" {
				fmt.Printf("\n===== %s =====\n", e.name)
			}
			if err := e.run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "pccbench %s: %v\n", e.name, err)
				os.Exit(1)
			}
			ran = true
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// benchConfig carries the experiment-wide knobs.
type benchConfig struct {
	Scale  float64
	Frames int
	Videos []dataset.VideoSpec
}

func selectVideos(csv string) []dataset.VideoSpec {
	all := dataset.TableI()
	if csv == "" {
		return all
	}
	var out []dataset.VideoSpec
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		spec, err := dataset.SpecByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		out = append(out, spec)
	}
	return out
}
