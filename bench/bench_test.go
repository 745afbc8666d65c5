package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own keep-awake spinner, the
// way the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == keepAwakeArg {
		keepAwakeMain(os.Args[2])
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the driver's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the Go tables in
// step: `bench compare` judges with the tables, the driver with the file.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, program %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file %+v, program %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: file %+v, program %+v", i, got, d)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload, both passes, at smoke
// size: each declared metric comes out exactly once, finite, with its
// unit; every correctness check passes; the traced pass leaves spans whose
// layers account for their frame roots.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	cfg := config{seed: 3, seconds: smokeSeconds, smoke: true, outDir: out}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(table))
			}
			for _, d := range table {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", w.name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%v: %d operations failed: %v", w.name, traced, res.Failed, res.Info)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w.name, traced, res.Attempted)
			}
			if res.Info["stream_sha256"] == "" {
				t.Errorf("%s traced=%v: no stream hash", w.name, traced)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
				t.Fatalf("driver line: %v", err)
			}
			keys := make([]string, 0, len(line))
			for k := range line {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("driver line keys %v", keys)
			}
			if traced {
				if c := res.Metrics["harness.frame_cover_ratio"].Value; c < 0.9 {
					t.Errorf("%s: layers cover %.2f of their frame roots, want >= 0.9", w.name, c)
				}
				for _, ext := range []string{".spans.jsonl", ".trace.json"} {
					st, err := os.Stat(filepath.Join(out, w.name+ext))
					if err != nil || st.Size() == 0 {
						t.Errorf("%s: span file %s missing or empty (%v)", w.name, ext, err)
					}
				}
			}
		}
	}
}

// TestPercentileRule: a percentile is supported only with ten samples
// beyond it.
func TestPercentileRule(t *testing.T) {
	var d dist
	for i := 1; i <= 199; i++ {
		d.add(float64(i))
	}
	if d.supports(0.95) {
		t.Errorf("199 samples: p95 has %d beyond, must not be supported", d.beyond(0.95))
	}
	if got := d.highest(); got != 0.9 {
		t.Errorf("199 samples: highest supported percentile %v, want 0.9", got)
	}
	d.add(200)
	if !d.supports(0.95) || d.beyond(0.95) != 10 {
		t.Errorf("200 samples: p95 has %d beyond, want exactly 10", d.beyond(0.95))
	}
	if got := d.p(0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := d.p(0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if d.supports(0.99) {
		t.Error("200 samples must not support p99")
	}
	var few dist
	for i := 0; i < 15; i++ {
		few.add(1)
	}
	if got := few.highest(); got != 0.5 {
		t.Errorf("15 samples: highest %v, want the median only", got)
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestSelfTime: self time is duration minus the union of the children's
// cover, clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "frame", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: another goroutine
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		{ID: 4, Parent: 0, Name: "d", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "e", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int32]int64{0: 100 - (40 + 10 + 10), 1: 20, 2: 20, 3: 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	if got := rootCover(spans, "frame"); got != 0.6 {
		t.Errorf("root cover %v, want 0.6", got)
	}
	tot := totalsByName(spans)
	if tot["b"].dur != 30 || tot["b"].self != 20 || tot["b"].n != 1 {
		t.Errorf("totals of b: %+v", tot["b"])
	}
}

// TestTracerNilIsOff: the untraced windows run the same call sites.
func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	ran := false
	id := tr.begin("x", -1, 0, "")
	tr.in("y", id, 0, func() { ran = true })
	tr.end(id)
	tr.extendTo(id, 5)
	if !ran || id != -1 || tr.finished() != nil {
		t.Errorf("nil tracer: ran=%v id=%d", ran, id)
	}
}

// TestChromeLanes: overlapping roots land on different rows, children on
// their parent's row unless they name a track.
func TestChromeLanes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "frame", Track: "frame", Start: 0, End: 50},
		{ID: 1, Parent: -1, Name: "frame", Track: "frame", Start: 30, End: 80},
		{ID: 2, Parent: 0, Name: "server.submit", Start: 0, End: 1},
		{ID: 3, Parent: 1, Name: "viewer.send", Track: "viewer-B", Start: 40, End: 70},
		{ID: 4, Parent: 3, Name: "receiver.ingest", Start: 41, End: 42},
	}
	tid := map[int32]int{}
	for _, e := range chromeEvents(spans) {
		if e.Ph == "X" {
			tid[e.Args["id"].(int32)] = e.Tid
		}
	}
	if tid[0] == tid[1] {
		t.Error("overlapping frame roots share a row")
	}
	if tid[2] != tid[0] {
		t.Error("a child without a track must sit on its parent's row")
	}
	if tid[3] == tid[1] || tid[4] != tid[3] {
		t.Errorf("track rows: %v", tid)
	}
}

// TestOpenLoopTimesFromDue: the schedule never slips with the system — a
// stalled submit makes later frames late, it does not move their due times.
func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	fake := clock{
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d) },
	}
	period := 10 * time.Millisecond
	var late dist
	var dues, submitted []time.Duration
	err := openLoop(fake, start, period, 6, &late, func(i int, due time.Time) error {
		dues = append(dues, due.Sub(start))
		submitted = append(submitted, now.Sub(start))
		cost := time.Millisecond
		if i == 1 {
			cost = 25 * time.Millisecond // a stall longer than two periods
		}
		now = now.Add(cost)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dues {
		if d != time.Duration(i)*period {
			t.Errorf("frame %d due at %v, want %v", i, d, time.Duration(i)*period)
		}
	}
	// Frame 1 starts on time at 10ms and returns at 35ms: frames 2 and 3
	// (due 20, 30) go out late, back to back; frame 4 (due 40) is on time.
	wantSubmit := []time.Duration{0, 10, 35, 36, 40, 50}
	wantLate := []float64{0, 0, 15, 6, 0, 0}
	for i := range wantSubmit {
		if submitted[i] != wantSubmit[i]*time.Millisecond {
			t.Errorf("frame %d submitted at %v, want %vms", i, submitted[i], wantSubmit[i])
		}
		if late.v[i] != wantLate[i] {
			t.Errorf("frame %d lateness %vms, want %v", i, late.v[i], wantLate[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_fps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "within"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{lower, steady, []float64{85, 86, 84, 85, 85}, "better"},
		{higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{higher, steady, []float64{115, 116, 114, 115, 115}, "better"},
		// Spread wider than the bound: unresolved, unless every run wins.
		{lower, []float64{80, 100, 120, 90, 110}, []float64{95, 100, 105, 99, 101}, "unresolved"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{50, 55, 60, 52, 58}, "better"},
	}
	for i, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

// TestCompareExitCode: a worse median or more failures fail the comparison.
func TestCompareExitCode(t *testing.T) {
	mk := func(fps float64, failed int64) resultFile {
		var f resultFile
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, result{
				Workload: "dense-inter", Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"encode_fps": {Value: fps + float64(i)/10, Unit: "frames/s"}},
			})
		}
		return f
	}
	if got := compareFiles(mk(30, 0), mk(30.5, 0)); got != 0 {
		t.Errorf("equal runs: exit %d", got)
	}
	if got := compareFiles(mk(30, 0), mk(20, 0)); got != 1 {
		t.Errorf("slower runs: exit %d, want 1", got)
	}
	if got := compareFiles(mk(30, 0), mk(30, 1)); got != 1 {
		t.Errorf("more failures: exit %d, want 1", got)
	}
}
