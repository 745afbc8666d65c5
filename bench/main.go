// Command bench is the one benchmark of the whole stack: four named
// workloads, end-to-end metrics measured with tracing off, per-layer
// metrics from a short traced pass, every call timed from outside the
// program under test. See README.md; BENCHMARK.json at the repository root
// describes it to the driver.
//
//	go run ./bench                         the whole suite, both passes
//	go run ./bench -workload live-lossy    one workload
//	go run ./bench -repeat 5               five suites, spread against bounds
//	go run ./bench compare A.json B.json   judge B against baseline A
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                       one driver run: last line is JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is one run's measuring time (BENCHMARK.json run_seconds).
const defaultSeconds = 20

// smokeSeconds is the measuring time of a -smoke run.
const smokeSeconds = 0.4

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
}

// result is one run of one workload in one mode.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"ops_attempted"`
	Failed    int64             `json:"ops_failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info carries what is reported but not compared: the stream hash,
	// p99s, failed checks.
	Info map[string]string `json:"info,omitempty"`
}

// environment is recorded in every result file.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	// Windows spells out how Seconds is split, per workload kind.
	Windows map[string]string `json:"windows"`
	Started string            `json:"started"`
}

// resultFile is what a suite writes and `bench compare` reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []result    `json:"runs"`
}

func currentEnv(cfg config) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Windows: map[string]string{
			"setup":  fmt.Sprintf("whole set-ups repeated until %v are spent (at most 5), median reported", setUpBudget),
			"codec":  "rounds of one encode cycle and one decode cycle over the frame set for seconds, after a one-cycle warm-up",
			"live":   "30 submissions/s for seconds, after a one-cycle warm-up; windows of >= 200 tail-viewer samples, median window reported",
			"fanout": "saturating Submit for about 3/5 of seconds (whole cycles), drain, then 10 submissions/s for 3 cycles; after a one-cycle warm-up",
			"traced": fmt.Sprintf("%d codec frames / %d live submissions / %d+%d fan-out frames", tracedCodecFrames, tracedLiveFrames, tracedFanoutFrames, tracedFanoutFrames),
		},
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// runWorkload performs one run: set-up, then either the untraced
// measurement (end-to-end metrics) or the traced pass (per-layer metrics).
func runWorkload(w workload, cfg config, traced bool) (*result, error) {
	if cfg.smoke {
		w = w.smoke()
	}
	res := &result{Workload: w.name, Seed: cfg.seed, Traced: traced, Info: map[string]string{}}
	var (
		ck  checks
		set *metricSet
		err error
	)
	switch {
	case traced:
		var fs *frameSet
		if fs, err = generate(w, cfg.seed); err != nil {
			return nil, err
		}
		set = newMetricSet(perLayer)
		set.set("dataset.gen_ms_per_frame", ms(fs.genTime)/float64(len(fs.clouds)))
		var spans []span
		res.Attempted, spans, err = runTraced(fs, cfg, set, &ck, res.Info)
		if err == nil && cfg.outDir != "" {
			err = exportSpans(cfg.outDir, w.name, spans)
		}
	case w.kind == codecLoop:
		set = newMetricSet(endToEnd)
		var sys *codecSystem
		var times *dist
		sys, times, err = setUp(cfg.setUpBudget(), func() (*codecSystem, error) { return prepareCodec(w, cfg.seed) }, nil)
		if err != nil {
			return nil, err
		}
		set.setN("setup_s", times.p(0.5), times.n())
		res.Attempted, err = runCodec(sys, cfg.seconds, set, res.Info)
		ck = sys.ck
	default:
		set = newMetricSet(endToEnd)
		var run *serveRun
		var times *dist
		run, times, err = setUp(cfg.setUpBudget(), func() (*serveRun, error) { return prepareServe(w, cfg.seed, nil) },
			func(run *serveRun) { run.srv.Cancel() })
		if err != nil {
			return nil, err
		}
		set.setN("setup_s", times.p(0.5), times.n())
		res.Attempted, err = runServe(run, cfg.seconds, set, &ck, res.Info)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := set.complete(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Metrics = set.m
	res.Failed = ck.failed
	res.Correct = ck.failed == 0
	for i, m := range ck.msgs {
		res.Info[fmt.Sprintf("failed_check_%d", i)] = m
	}
	return res, nil
}

// setUpBudget is how long a run may spend repeating its set-up (a smoke
// run sets up once).
func (c config) setUpBudget() time.Duration {
	if c.smoke {
		return 0
	}
	return setUpBudget
}

func exportSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, workload+".spans.jsonl"), spans); err != nil {
		return err
	}
	return writeChrome(filepath.Join(dir, workload+".trace.json"), spans)
}

// print lists a run's metrics by name with unit and sample count.
func (r *result) print(table []metricDef) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (seed %d, %s): ops_attempted %d, ops_failed %d\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	for _, d := range table {
		m := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-36s %16.4f %s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Println(line)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  info %-31s %s\n", k, r.Info[k])
	}
}

// driverLine is the benchmark contract's result object.
func (r *result) driverLine() string {
	type dm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]dm, len(r.Metrics))
	for k, m := range r.Metrics {
		ms[k] = dm{m.Value, m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": ms})
	return string(b)
}

func writeResultFile(path string, f resultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == keepAwakeArg {
		keepAwakeMain(os.Args[2])
		return
	}
	os.Exit(mainExit())
}

func mainExit() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}
	var (
		flagWorkload = flag.String("workload", "", "run one workload (default: all four)")
		flagSeed     = flag.Int64("seed", 0, "input seed: VideoSpec.Seed offset, fault seeds, camera placement")
		flagSeconds  = flag.Float64("seconds", 0, fmt.Sprintf("measuring time of one untraced run (default %d, with -smoke %v)", defaultSeconds, smokeSeconds))
		flagTrace    = flag.String("trace", "", "0: untraced run only, 1: traced pass only (default: both)")
		flagSmoke    = flag.Bool("smoke", false, "tiny inputs and windows (tests)")
		flagRepeat   = flag.Int("repeat", 1, "run the suite N times, alternating workload order, and print spreads")
		flagOut      = flag.String("out", "bench/out", "directory for result and trace files")
	)
	flag.Parse()
	cfg := config{seed: *flagSeed, seconds: *flagSeconds, smoke: *flagSmoke, outDir: *flagOut}
	switch {
	case cfg.seconds > 0:
	case cfg.smoke:
		cfg.seconds = smokeSeconds
	default:
		cfg.seconds = defaultSeconds
	}
	stop := startKeepAwake()
	err := run(cfg, *flagWorkload, *flagTrace, *flagRepeat)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func run(cfg config, only, trace string, repeat int) error {
	ws := workloads
	if only != "" {
		w, err := workloadByName(only)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	var modes []bool
	switch trace {
	case "":
		modes = []bool{false, true}
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	driver := only != "" && len(modes) == 1

	var file resultFile
	if !driver {
		file.Env = currentEnv(cfg)
	}
	var last *result
	for rep := 0; rep < repeat; rep++ {
		order := append([]workload(nil), ws...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for _, traced := range modes {
				res, err := runWorkload(w, cfg, traced)
				if err != nil {
					return err
				}
				table := endToEnd
				if traced {
					table = perLayer
				}
				res.print(table)
				file.Runs = append(file.Runs, *res)
				last = res
			}
		}
	}
	if repeat > 1 {
		printSpreads(file)
	}
	if driver {
		// The driver's checkout is read-only territory beyond the build
		// directory: no result file, just the contract's last line.
		fmt.Println(last.driverLine())
		return nil
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	if err := writeResultFile(path, file); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, r := range file.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %d operations failed", r.Workload, r.Failed)
		}
	}
	return nil
}
