package main

// Hot-path microbenchmarks and regression gate (BENCH_8.json).
//
// `pccbench hotpath` pins the two hot loops the byte-sliced coder rewrite
// targets, on REAL pipeline payloads rather than synthetic ones:
//
//   - entropy: the optional entropy stage of the ablation path (geometry
//     occupancy stream + attribute residual payload of a redandblack frame),
//     batched byte-tree slabs vs the scalar bit-at-a-time ancestor that is
//     still exported (ByteModel.Encode / EncodeBit per call). The streams
//     are byte-identical; only the loop structure differs.
//   - morton: slab EncodeBatch (serial and kernel-pool forms) vs the
//     per-point Encode ancestor over a 1M-voxel slab tiled from real frame
//     geometry.
//
// plus two steady-state rows tracked for regression: the entropy-enabled
// ablation encode (IntraOnly + EntropyGeometry + attr entropy) and the
// sparse LiDAR regime (kitti-sparse), both measured by benchDesignOpts over
// the steady-state session.
//
// The speedup floors are HARD gates (entropy >= 1.3x, morton >= 2.0x):
// they fail the run even without -baseline. With -baseline BENCH_8.json the
// fps/allocs rows are additionally gated against the committed figures with
// the -gate tolerance.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/morton"
)

const (
	entropySpeedupFloor = 1.3
	mortonSpeedupFloor  = 2.0
	sparseBenchVideo    = "kitti-sparse"
)

// EntropyMicro is the batched-vs-scalar entropy stage measurement.
type EntropyMicro struct {
	PayloadBytes int     `json:"payload_bytes"`
	BatchedMBs   float64 `json:"batched_mb_s"`
	ScalarMBs    float64 `json:"scalar_mb_s"`
	Speedup      float64 `json:"speedup"`
}

// MortonMicro is the slab-vs-scalar Morton measurement.
type MortonMicro struct {
	Points        int     `json:"points"`
	BatchMptsS    float64 `json:"batch_mpts_s"` // best of serial slab / pooled slab
	SerialMptsS   float64 `json:"serial_mpts_s"`
	ScalarMptsS   float64 `json:"scalar_mpts_s"`
	Speedup       float64 `json:"speedup"`
	PooledFastest bool    `json:"pooled_fastest"`
}

// HotpathFile is the BENCH_8.json schema.
type HotpathFile struct {
	Benchmark       string       `json:"benchmark"`
	GoMaxProcs      int          `json:"gomaxprocs"`
	Entropy         EntropyMicro `json:"entropy"`
	Morton          MortonMicro  `json:"morton"`
	AblationEntropy BenchResult  `json:"ablation_entropy"` // IntraOnly + entropy stages on
	SparseVideo     string       `json:"sparse_video"`
	Sparse          BenchResult  `json:"sparse"` // kitti-sparse, IntraOnly fast path
}

// scalarCompressBytes is the bit-at-a-time ancestor of
// entropy.CompressBytes: fresh coder and models per call, per-byte
// ByteModel.Encode (one EncodeBit method call per bit). Kept here as the
// measurement baseline — the library's batched path must stay byte-identical
// to it, which TestByteModelSliceMatchesScalar pins.
func scalarCompressBytes(data []byte) []byte {
	e := entropy.NewEncoder()
	lm := entropy.NewUintModel()
	bm := entropy.NewByteModel()
	lm.Encode(e, uint64(len(data)))
	for _, b := range data {
		bm.Encode(e, b)
	}
	return append([]byte(nil), e.Bytes()...)
}

// timeOps runs fn repeatedly until minWall elapsed and returns seconds/op.
func timeOps(minWall time.Duration, fn func()) float64 {
	fn() // warmup
	var n int
	start := time.Now()
	for time.Since(start) < minWall {
		fn()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// ablationPayloads captures the real byte streams the entropy-enabled
// ablation path feeds to the coder: the BFS occupancy stream and the packed
// attribute payload of a redandblack frame.
func ablationPayloads() ([]byte, error) {
	spec, err := dataset.SpecByName(benchVideo)
	if err != nil {
		return nil, err
	}
	g := dataset.NewGenerator(spec, benchScale*2)
	f, err := g.Frame(0)
	if err != nil {
		return nil, err
	}
	o := benchOptions(codec.IntraOnly)
	o.EntropyGeometry = false // capture the RAW streams, pre-entropy
	enc := codec.NewEncoder(edgesim.NewXavier(edgesim.Mode15W), o)
	ef, _, err := enc.EncodeFrame(f)
	if err != nil {
		return nil, err
	}
	// Geometry carries a 1-byte entropy flag; strip it to get the raw
	// occupancy stream the GeomEntropy stage would compress.
	if len(ef.Geometry) < 2 {
		return nil, fmt.Errorf("hotpath: degenerate geometry stream")
	}
	return ef.Geometry[1:], nil
}

func runEntropyMicro() (EntropyMicro, error) {
	payload, err := ablationPayloads()
	if err != nil {
		return EntropyMicro{}, err
	}
	if batched, scalar := entropy.CompressBytes(payload), scalarCompressBytes(payload); string(batched) != string(scalar) {
		return EntropyMicro{}, fmt.Errorf("hotpath: batched and scalar entropy streams differ (%d vs %d bytes)", len(batched), len(scalar))
	}
	var sink []byte
	tBatched := timeOps(time.Second, func() { sink = entropy.AppendCompressBytes(sink[:0], payload) })
	tScalar := timeOps(time.Second, func() { sink = scalarCompressBytes(payload) })
	_ = sink
	mb := float64(len(payload)) / 1e6
	return EntropyMicro{
		PayloadBytes: len(payload),
		BatchedMBs:   round2(mb / tBatched),
		ScalarMBs:    round2(mb / tScalar),
		Speedup:      round2(tScalar / tBatched),
	}, nil
}

func runMortonMicro() (MortonMicro, error) {
	spec, err := dataset.SpecByName(benchVideo)
	if err != nil {
		return MortonMicro{}, err
	}
	g := dataset.NewGenerator(spec, benchScale)
	f, err := g.Frame(0)
	if err != nil {
		return MortonMicro{}, err
	}
	// Tile the real frame geometry up to a 1M-point slab.
	const target = 1 << 20
	xs := make([]uint32, target)
	ys := make([]uint32, target)
	zs := make([]uint32, target)
	for i := 0; i < target; i++ {
		v := f.Voxels[i%f.Len()]
		xs[i], ys[i], zs[i] = v.X, v.Y, v.Z
	}
	dst := make([]morton.Code, target)

	tScalar := timeOps(time.Second, func() {
		for i := range dst {
			dst[i] = morton.Encode(xs[i], ys[i], zs[i])
		}
	})
	tSerial := timeOps(time.Second, func() { morton.EncodeBatch(nil, dst, xs, ys, zs) })
	pool := edgesim.DefaultPool()
	tPooled := timeOps(time.Second, func() { morton.EncodeBatch(pool, dst, xs, ys, zs) })

	tBatch := tSerial
	pooledFastest := tPooled < tSerial
	if pooledFastest {
		tBatch = tPooled
	}
	mpts := float64(target) / 1e6
	return MortonMicro{
		Points:        target,
		BatchMptsS:    round2(mpts / tBatch),
		SerialMptsS:   round2(mpts / tSerial),
		ScalarMptsS:   round2(mpts / tScalar),
		Speedup:       round2(tScalar / tBatch),
		PooledFastest: pooledFastest,
	}, nil
}

func sparseFrameSet() ([]*geom.VoxelCloud, error) {
	spec, err := dataset.SpecByName(sparseBenchVideo)
	if err != nil {
		return nil, err
	}
	g := dataset.NewGenerator(spec, benchScale)
	frames := make([]*geom.VoxelCloud, benchFrames)
	for i := range frames {
		if frames[i], err = g.Frame(i % spec.Frames); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// runHotpath is the `hotpath` experiment entry point (BENCH_8.json).
func runHotpath(cfg benchConfig) error {
	out := HotpathFile{
		Benchmark:   "hotpath-micro",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		SparseVideo: sparseBenchVideo,
	}

	em, err := runEntropyMicro()
	if err != nil {
		return err
	}
	out.Entropy = em
	fmt.Printf("entropy stage (ablation payload, %d bytes):\n", em.PayloadBytes)
	fmt.Printf("  %-22s %8.2f MB/s\n", "batched slabs", em.BatchedMBs)
	fmt.Printf("  %-22s %8.2f MB/s\n", "scalar bit-at-a-time", em.ScalarMBs)
	fmt.Printf("  %-22s %8.2fx (floor %.1fx)\n\n", "speedup", em.Speedup, entropySpeedupFloor)

	mm, err := runMortonMicro()
	if err != nil {
		return err
	}
	out.Morton = mm
	fmt.Printf("morton keying (%d-point slab, real geometry):\n", mm.Points)
	fmt.Printf("  %-22s %8.2f Mpts/s\n", "scalar Encode loop", mm.ScalarMptsS)
	fmt.Printf("  %-22s %8.2f Mpts/s\n", "serial slab", mm.SerialMptsS)
	fmt.Printf("  %-22s %8.2f Mpts/s (pooled fastest: %v)\n", "best slab", mm.BatchMptsS, mm.PooledFastest)
	fmt.Printf("  %-22s %8.2fx (floor %.1fx)\n\n", "speedup", mm.Speedup, mortonSpeedupFloor)

	// Entropy-enabled ablation encode path, steady-state.
	denseFrames, err := benchFrameSet()
	if err != nil {
		return err
	}
	ablOpts := benchOptions(codec.IntraOnly)
	ablOpts.EntropyGeometry = true
	ablOpts.IntraAttr.Entropy = true
	abl, err := benchDesignOpts(ablOpts, denseFrames)
	if err != nil {
		return err
	}
	out.AblationEntropy = abl
	fmt.Printf("ablation encode (IntraOnly + entropy stages): %.2f fps, %.3f Mpts/s, %.1f allocs/frame\n",
		abl.FPS, abl.MptsPerS, abl.AllocsPerFrame)

	// Sparse LiDAR regime row.
	sparseFrames, err := sparseFrameSet()
	if err != nil {
		return err
	}
	sp, err := benchDesignOpts(benchOptions(codec.IntraOnly), sparseFrames)
	if err != nil {
		return err
	}
	out.Sparse = sp
	fmt.Printf("sparse regime (%s, IntraOnly):               %.2f fps, %.3f Mpts/s, %.1f allocs/frame\n\n",
		sparseBenchVideo, sp.FPS, sp.MptsPerS, sp.AllocsPerFrame)

	if *flagBenchOut != "" {
		if err := writeHotpathFile(*flagBenchOut, out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *flagBenchOut)
	}

	// Hard speedup floors, baseline or not.
	if em.Speedup < entropySpeedupFloor {
		return fmt.Errorf("hotpath gate: entropy batched speedup %.2fx below %.1fx floor", em.Speedup, entropySpeedupFloor)
	}
	if mm.Speedup < mortonSpeedupFloor {
		return fmt.Errorf("hotpath gate: morton slab speedup %.2fx below %.1fx floor", mm.Speedup, mortonSpeedupFloor)
	}
	if *flagBaseline != "" {
		return gateHotpath(*flagBaseline, out, *flagGate)
	}
	return nil
}

func writeHotpathFile(path string, f HotpathFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gateHotpath fails when a steady-state row's fps fell, or allocs/frame
// rose, beyond tol vs the committed BENCH_8.json. (The micro speedups are
// machine-load-sensitive ratios; they are gated by the absolute floors
// above, not against the baseline file.)
func gateHotpath(path string, cur HotpathFile, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("hotpath gate: %w", err)
	}
	var base HotpathFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("hotpath gate: %s: %w", path, err)
	}
	fmt.Printf("\nregression gate vs %s (tolerance %.0f%%):\n", path, tol*100)
	var failed bool
	check := func(name string, b, c BenchResult) {
		fpsFloor := b.FPS * (1 - tol)
		allocCap := b.AllocsPerFrame * (1 + tol)
		status := "ok"
		if c.FPS < fpsFloor || c.AllocsPerFrame > allocCap {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("  %-18s fps %8.2f (floor %8.2f)  allocs/frame %8.1f (cap %8.1f)  %s\n",
			name, c.FPS, fpsFloor, c.AllocsPerFrame, allocCap, status)
	}
	check("ablation+entropy", base.AblationEntropy, cur.AblationEntropy)
	check("sparse "+base.SparseVideo, base.Sparse, cur.Sparse)
	if failed {
		return fmt.Errorf("hotpath gate: steady-state rows regressed beyond %.0f%% tolerance", tol*100)
	}
	fmt.Println("  gate passed")
	return nil
}
