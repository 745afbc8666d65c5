package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/viewport"
	"repro/pcc/stream"
)

// kind selects the loop a workload drives.
type kind int

const (
	// codecLoop: one caller, closed loop, on the codec's own API.
	codecLoop kind = iota
	// liveLoop: open loop at a fixed frame rate through a Server to two
	// receiving viewers, one of them across a lossy link.
	liveLoop
	// fanoutLoop: one caller saturating Server.Submit with a thousand
	// capacity viewers attached.
	fanoutLoop
)

// workload is one named set of inputs. The names are fixed: later issues
// and BENCHMARK.json cite them.
type workload struct {
	name   string
	why    string
	kind   kind
	video  string
	scale  float64
	frames int
	opts   func() codec.Options
	// viewers is the capacity-viewer count of a fan-out workload.
	viewers int
	// rate is the open loop's submissions per second: the whole run of
	// a live workload, the latency phase of a fan-out one.
	rate float64
}

func denseOpts() codec.Options {
	o := codec.OptionsFor(codec.IntraInterV1)
	o.GOP = 3
	return o
}

func sparseOpts() codec.Options {
	o := codec.OptionsFor(codec.IntraOnly)
	o.EntropyGeometry = true
	return o
}

// serveOpts is the streaming configuration: every serving feature on.
func serveOpts() codec.Options {
	o := codec.OptionsFor(codec.IntraInterV1)
	o.GOP = 3
	o.Tiles = 8
	o.Layers = 3
	return o
}

var workloads = []workload{
	{
		name: "dense-inter", kind: codecLoop,
		why:   "Dense IPP video, the paper's headline case: interframe block matching does most of the encode work, entropy none; a block-match change shows here, a range-coder change does not.",
		video: "longdress", scale: 0.05, frames: 30, opts: denseOpts,
	},
	{
		name: "sparse-intra", kind: codecLoop,
		why:   "Sparse intra-only LiDAR with geometry entropy on, the opposite layer mix: interframe idle; entropy, paroctree+morton and attr share the encode. Bypasses block-match changes, exercises the rest.",
		video: "kitti-sparse", scale: 0.25, frames: 16, opts: sparseOpts,
	},
	{
		name: "live-lossy", kind: liveLoop,
		why:   "Open loop at 30 frames/s through the whole pipeline to a clean viewer and a culled viewer behind a bursty lossy link: tiles, layers, FEC, NACK and culling all work; timed from each frame's due time.",
		video: "longdress", scale: 0.02, frames: 30, opts: serveOpts, rate: 30,
	},
	{
		name: "fanout-1k", kind: fanoutLoop,
		why:   "Small frames to 1024 viewers of four kinds: the serving machinery (ring, shards, view plans, shared or rebuilt parity) does most of the work and the codec little, the inverse of dense-inter.",
		video: "redandblack", scale: 0.008, frames: 30, opts: serveOpts, viewers: 1024, rate: 10,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload so the whole suite runs in seconds under `go
// test`: same code paths, inputs too small to mean anything.
func (w workload) smoke() workload {
	w.scale /= 5
	w.frames = 6
	if w.viewers > 0 {
		w.viewers = 32
	}
	return w
}

// frameSet is a workload's input: frames generated once and cycled.
type frameSet struct {
	w      workload
	clouds []*geom.VoxelCloud
	points int // per cycle
	cam    viewport.Camera
	// faultSeed seeds the lossy link.
	faultSeed int64
	// genTime is what generating the set took.
	genTime time.Duration
}

// generate makes the inputs from the seed alone: the seed moves the
// texture (VideoSpec.Seed), the lossy link's fault sequence and the
// close-up camera's placement. Seed 0 is the presets unchanged.
func generate(w workload, seed int64) (*frameSet, error) {
	spec, err := dataset.SpecByName(w.video)
	if err != nil {
		return nil, err
	}
	spec.Seed += uint32(seed)
	t0 := time.Now()
	g := dataset.NewGenerator(spec, w.scale)
	fs := &frameSet{w: w, clouds: make([]*geom.VoxelCloud, w.frames), faultSeed: seed + 1}
	for i := range fs.clouds {
		if fs.clouds[i], err = g.Frame(i % spec.Frames); err != nil {
			return nil, fmt.Errorf("generate %s frame %d: %w", w.video, i, err)
		}
		fs.points += fs.clouds[i].Len()
	}
	fs.cam = closeUpCamera(fs.clouds[0], rand.New(rand.NewSource(seed)))
	fs.genTime = time.Since(t0)
	return fs, nil
}

// setUpBudget bounds how long a run spends repeating its set-up.
const setUpBudget = 2500 * time.Millisecond

// setUp runs once — one whole set-up: generate the inputs, build the system
// under test, run the untimed warm-up pass — repeatedly, and returns the
// last system with every repetition's wall time, so set-up cost is a
// median with a spread like any other timing. discard tears down a system
// that will not be measured. Expensive set-ups (the LiDAR ray caster) are
// not repeated past the budget.
func setUp[T any](budget time.Duration, once func() (T, error), discard func(T)) (T, *dist, error) {
	var (
		sys   T
		times dist
		total time.Duration
	)
	for rep := 0; rep < 5 && (rep == 0 || total < budget); rep++ {
		if rep > 0 && discard != nil {
			discard(sys)
		}
		t0 := time.Now()
		var err error
		if sys, err = once(); err != nil {
			return sys, nil, err
		}
		d := time.Since(t0)
		total += d
		times.add(d.Seconds())
	}
	return sys, &times, nil
}

// closeUpCamera is the culled viewer's pose (the BENCH_9 one): hovering an
// eighth of the subject's height above its head, looking straight down its
// long axis, range limited to the top quarter — it keeps the head and
// shoulder tiles, coarsens the torso and drops the rest. The seed nudges
// the position by a few voxels.
func closeUpCamera(f *geom.VoxelCloud, rng *rand.Rand) viewport.Camera {
	mn := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	mx := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, v := range f.Voxels {
		for a, c := range [3]float64{float64(v.X), float64(v.Y), float64(v.Z)} {
			mn[a] = math.Min(mn[a], c)
			mx[a] = math.Max(mx[a], c)
		}
	}
	height := mx[1] - mn[1] + 1
	jitter := func() float64 { return (rng.Float64() - 0.5) * height / 50 }
	return viewport.Camera{
		Pos:        [3]float64{(mn[0]+mx[0])/2 + jitter(), mx[1] + height/8, (mn[2]+mx[2])/2 + jitter()},
		Dir:        [3]float64{0, -1, 0},
		FOVDegrees: 60,
		MaxDist:    height * 0.25,
	}
}

// viewerKind returns the i-th capacity viewer's configuration: the four
// kinds use the same send path differently (identity plan, culled plan,
// layer-truncated plan, parity rebuilt at another MTU).
func (fs *frameSet) viewerKind(i int) stream.ViewerConfig {
	switch i % 4 {
	case 1:
		cam := fs.cam
		return stream.ViewerConfig{Viewport: &cam}
	case 2:
		return stream.ViewerConfig{Layers: 1}
	case 3:
		return stream.ViewerConfig{MTU: 1200}
	}
	return stream.ViewerConfig{}
}
