package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/morton"
	"repro/internal/trace"
)

// csvDir, when set via -csv, receives one CSV file per emitted table.
var csvDir string

// emit prints a table and optionally writes it as CSV.
func emit(tb *trace.Table) {
	fmt.Print(tb)
	if csvDir == "" {
		return
	}
	slug := slugify(tb.Title)
	path := filepath.Join(csvDir, slug+".csv")
	if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pccbench: csv %s: %v\n", path, err)
	}
}

func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
			b.WriteRune('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	if len(out) > 60 {
		out = out[:60]
	}
	return out
}

// frameCache avoids regenerating frames across experiments in `all` runs.
var frameCache = map[string][]*geom.VoxelCloud{}

// loadFrames generates (or returns cached) frames of one video.
func loadFrames(spec dataset.VideoSpec, scale float64, n int) ([]*geom.VoxelCloud, error) {
	key := fmt.Sprintf("%s/%g/%d", spec.Name, scale, n)
	if fs, ok := frameCache[key]; ok {
		return fs, nil
	}
	g := dataset.NewGenerator(spec, scale)
	if n > spec.Frames {
		n = spec.Frames
	}
	out := make([]*geom.VoxelCloud, n)
	for i := range out {
		f, err := g.Frame(i)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	frameCache[key] = out
	return out, nil
}

// scaledOptions shrinks the paper's segment counts proportionally to the
// dataset scale so blocks keep their per-block point population.
func scaledOptions(d codec.Design, scale float64) codec.Options {
	o := codec.OptionsFor(d)
	o.IntraAttr.Segments = max(8, int(float64(o.IntraAttr.Segments)*scale))
	o.Inter.Segments = max(8, int(float64(o.Inter.Segments)*scale))
	return o
}

// sortedVoxels Morton-sorts and dedups a frame (the locality studies need
// the sorted view).
func sortedVoxels(vc *geom.VoxelCloud) []geom.Voxel {
	k := morton.EncodeCloud(vc)
	morton.Sort(k)
	k = morton.Dedup(k)
	return morton.Voxels(k)
}

// videoRun is the measured outcome of encoding (and decoding) a few frames
// of one video under one design.
type videoRun struct {
	Video   string
	Design  codec.Design
	Frames  int
	RawMB   float64
	SizeMB  float64
	GeoMS   float64 // mean per-frame simulated geometry latency
	AttrMS  float64
	TotalMS float64
	EnergyJ float64 // mean per-frame energy
	DecMS   float64 // mean per-frame decode latency
	// AttrPSNR is the mean attribute PSNR over lossy frames (dB);
	// GeoPSNR is the worst-frame geometry PSNR (dB, capped at 120
	// for lossless).
	AttrPSNR float64
	GeoPSNR  float64
	Reuse    float64 // mean direct-reuse fraction over P-frames
}

// runVideo encodes cfg.Frames frames of one video under one design and
// gathers all metrics.
func runVideo(spec dataset.VideoSpec, scale float64, nFrames int, design codec.Design) (videoRun, error) {
	frames, err := loadFrames(spec, scale, nFrames)
	if err != nil {
		return videoRun{}, err
	}
	opts := scaledOptions(design, scale)
	encDev := edgesim.NewXavier(edgesim.Mode15W)
	decDev := edgesim.NewXavier(edgesim.Mode15W)
	enc := codec.NewEncoder(encDev, opts)
	dec := codec.NewDecoder(decDev, opts)

	r := videoRun{Video: spec.Name, Design: design, Frames: len(frames), GeoPSNR: math.Inf(1)}
	var attrSum float64
	var attrN, pFrames int
	for _, f := range frames {
		ef, st, err := enc.EncodeFrame(f)
		if err != nil {
			return r, err
		}
		out, err := dec.DecodeFrame(ef)
		if err != nil {
			return r, err
		}
		r.RawMB += float64(f.RawBytes()) / 1e6
		r.SizeMB += float64(st.SizeBytes) / 1e6
		r.GeoMS += st.GeometryTime.Seconds() * 1000
		r.AttrMS += st.AttrTime.Seconds() * 1000
		r.TotalMS += st.TotalTime.Seconds() * 1000
		r.EnergyJ += st.EnergyJ
		if st.Type == codec.PFrame {
			pFrames++
			r.Reuse += st.Inter.ReuseFraction()
		}

		gp, ap := frameQuality(f, out)
		if gp < r.GeoPSNR {
			r.GeoPSNR = gp
		}
		if !math.IsInf(ap, 1) {
			attrSum += ap
			attrN++
		}
	}
	n := float64(len(frames))
	r.GeoMS /= n
	r.AttrMS /= n
	r.TotalMS /= n
	r.EnergyJ /= n
	r.DecMS = decDev.SimTime().Seconds() * 1000 / n
	if pFrames > 0 {
		r.Reuse /= float64(pFrames)
	}
	if attrN > 0 {
		r.AttrPSNR = attrSum / float64(attrN)
	} else {
		r.AttrPSNR = math.Inf(1)
	}
	if math.IsInf(r.GeoPSNR, 1) || r.GeoPSNR > 120 {
		r.GeoPSNR = 120
	}
	if math.IsInf(r.AttrPSNR, 1) || r.AttrPSNR > 120 {
		r.AttrPSNR = 120
	}
	return r, nil
}

// frameQuality computes geometry PSNR and nearest-neighbour attribute PSNR
// of a decoded frame against its original.
func frameQuality(orig, decoded *geom.VoxelCloud) (geoPSNR, attrPSNR float64) {
	gp, err := metrics.GeometryPSNR(orig, decoded)
	if err != nil {
		return 0, 0
	}
	idx := geom.NewGridIndex(decoded, 2)
	var mse float64
	for _, v := range orig.Voxels {
		j, _ := idx.Nearest(v)
		mse += float64(v.C.Dist2(decoded.Voxels[j].C)) / 3
	}
	mse /= float64(orig.Len())
	return gp, metrics.PSNRFromMSE(mse, 255)
}

// The steady-state session the hotpath, tiles and fanout-scale experiments
// encode: redandblack at 5% scale, 60 frames cycling through the video, the
// paper's segment counts scaled to 1500 intra / 2500 inter (the session
// the codec's allocation gates measure).
const (
	benchVideo  = "redandblack"
	benchScale  = 0.05
	benchFrames = 60
)

// BenchResult is one steady-state encode measurement.
type BenchResult struct {
	FPS            float64 `json:"fps"`
	MptsPerS       float64 `json:"mpts_per_s"`
	MBPerS         float64 `json:"mb_per_s"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
}

func benchFrameSet() ([]*geom.VoxelCloud, error) {
	spec, err := dataset.SpecByName(benchVideo)
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

func benchOptions(d codec.Design) codec.Options {
	o := codec.OptionsFor(d)
	o.IntraAttr.Segments = 1500
	o.Inter.Segments = 2500
	return o
}

// benchDesignOpts measures steady-state encoding of frames under opts: a
// full warmup session brings the arenas to steady state, one session counts
// allocations, then sessions run until at least two seconds of timed work.
func benchDesignOpts(opts codec.Options, frames []*geom.VoxelCloud) (BenchResult, error) {
	enc := codec.NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	runSession := func() (pts, bytes int64, err error) {
		for _, f := range frames {
			frame, st, err := enc.EncodeFrame(f)
			if err != nil {
				return 0, 0, err
			}
			pts += int64(st.Points)
			bytes += frame.Size()
		}
		return pts, bytes, nil
	}
	if _, _, err := runSession(); err != nil { // warmup
		return BenchResult{}, err
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, _, err := runSession(); err != nil {
		return BenchResult{}, err
	}
	runtime.ReadMemStats(&m1)
	allocsPerFrame := float64(m1.Mallocs-m0.Mallocs) / float64(len(frames))

	const minWall = 2 * time.Second
	var pts, bytes, nframes int64
	start := time.Now()
	for time.Since(start) < minWall {
		p, b, err := runSession()
		if err != nil {
			return BenchResult{}, err
		}
		pts += p
		bytes += b
		nframes += int64(len(frames))
	}
	sec := time.Since(start).Seconds()
	return BenchResult{
		FPS:            round2(float64(nframes) / sec),
		MptsPerS:       round3(float64(pts) / sec / 1e6),
		MBPerS:         round2(float64(bytes) / sec / 1e6),
		AllocsPerFrame: round2(allocsPerFrame),
	}, nil
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }
