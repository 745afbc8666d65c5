package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/morton"
)

// The conformance table. A row is one configuration of the codec: a design,
// its options, a run of clouds and a device. Its line in
// testdata/conformance.txt holds what the codec makes of it: the SHA-256 of
// the serialized stream, the digest of the encode ledger, and for every way a
// viewer decodes the stream (confView) the SHA-256 of the decoded clouds and
// the digest of the decode ledger; a row the window axes run (windowed) adds
// the outcome of decoding damaged copies of its first two frames.
//
// The rows are every configuration a per-feature pin held, and a pairwise
// covering array over the axes (confAxes). Each row runs under one test: the
// name of the pin it replaced, or TestConformance. The invariance axes run a
// subset of the rows again with something changed that must not show, and
// hold them to the same line; the framing rule (framingKey) holds rows that
// differ only in how the stream is framed or booked to the same clouds.
//
// go test ./internal/codec -run TestConformance -update rewrites the file from
// the codec as it is; review the rewrite as a diff (git diff --word-diff).

var update = flag.Bool("update", false, "rewrite testdata/conformance.txt from the codec as it is")

const conformancePath = "testdata/conformance.txt"

// confTable is the table: the test each row runs under — Test/subtest, or
// Test alone for a subtest named by the row — and the row. A row reads: the
// design; tiles=, layers= (default 1); the flags geom-entropy, attr-entropy,
// lossless, ycocg and accel (a device with the fixed-function unit); the
// clouds as name:frames (confClouds); gop= (default 3); and seg=intra,inter
// segment counts (default 1500,2500) or per-seg=, points per segment in both
// stages.
var confTable = []struct{ test, row string }{
	// Every design on the six golden frames (two GOPs).
	{"TestGoldenStreams/TMC13", "TMC13 golden:6"},
	{"TestGoldenStreams/CWIPC", "CWIPC golden:6"},
	{"TestGoldenStreams/Intra-Only", "Intra-Only golden:6"},
	{"TestGoldenStreams/Intra-Inter-V1", "Intra-Inter-V1 golden:6"},
	{"TestGoldenStreams/Intra-Inter-V2", "Intra-Inter-V2 golden:6"},
	// Tiles and layers 0 are 1.
	{"TestTiledT1ByteIdentical", "Intra-Only tiles=0 golden:6"},
	{"TestTiledT1ByteIdentical", "Intra-Inter-V1 tiles=0 golden:6"},
	{"TestLayeredOffByteIdentical", "Intra-Only layers=0 golden:6"},
	{"TestLayeredOffByteIdentical", "Intra-Inter-V1 layers=0 golden:6"},
	// Tiled and layered streams.
	{"TestTiledStreamsPinned/Intra-Only/tiles=4/layers=0", "Intra-Only tiles=4 golden:6"},
	{"TestTiledStreamsPinned/Intra-Only/tiles=4/layers=3", "Intra-Only tiles=4 layers=3 golden:6"},
	{"TestTiledStreamsPinned/Intra-Only/tiles=8/layers=0", "Intra-Only tiles=8 golden:6"},
	{"TestTiledStreamsPinned/Intra-Only/tiles=8/layers=3", "Intra-Only tiles=8 layers=3 golden:6"},
	{"TestTiledStreamsPinned/Intra-Inter-V1/tiles=4/layers=0", "Intra-Inter-V1 tiles=4 golden:6"},
	{"TestTiledStreamsPinned/Intra-Inter-V1/tiles=4/layers=3", "Intra-Inter-V1 tiles=4 layers=3 golden:6"},
	{"TestTiledStreamsPinned/Intra-Inter-V1/tiles=8/layers=0", "Intra-Inter-V1 tiles=8 golden:6"},
	{"TestTiledStreamsPinned/Intra-Inter-V1/tiles=8/layers=3", "Intra-Inter-V1 tiles=8 layers=3 golden:6"},
	{"TestTiledStreamsPinned/Intra-Inter-V1/tiles=4/attribute entropy", "Intra-Inter-V1 tiles=4 attr-entropy golden:6"},
	{"TestTiledStreamsPinned/Intra-Inter-V1/tiles=4/YCoCg", "Intra-Inter-V1 tiles=4 ycocg golden:6"},
	{"TestTiledStreamsPinned/Intra-Inter-V1/tiles=4/geometry entropy", "Intra-Inter-V1 tiles=4 geom-entropy golden:6"},
	{"TestTiledDecodeExact", "Intra-Only tiles=2 golden:6"},
	{"TestTiledDecodeExact", "Intra-Inter-V1 tiles=2 golden:6"},
	{"TestLayeredStreamsPinned/Intra-Only/tiles=0/layers=3", "Intra-Only layers=3 golden:6"},
	{"TestLayeredStreamsPinned/Intra-Inter-V1/tiles=0/layers=3", "Intra-Inter-V1 layers=3 golden:6"},
	{"TestLayeredStreamsPinned/Intra-Inter-V1/tiles=0/layers=3/geometry entropy", "Intra-Inter-V1 layers=3 geom-entropy golden:6"}, // the top layer's chunk is mode 2
	{"TestLayeredStreamsPinned/Intra-Inter-V1/tiles=4/layers=3/geometry entropy", "Intra-Inter-V1 tiles=4 layers=3 geom-entropy golden:6"},
	{"TestLayeredStreamsPinned/Intra-Inter-V1/tiles=0/layers=8", "Intra-Inter-V1 layers=8 golden:6"},
	// One GOP layered and not, with YCoCg and the geometry entropy stage.
	{"TestLayeredFullDecodeExact", "Intra-Only golden:3"},
	{"TestLayeredFullDecodeExact", "Intra-Only ycocg golden:3"},
	{"TestLayeredFullDecodeExact", "Intra-Inter-V1 golden:3"},
	{"TestLayeredFullDecodeExact", "Intra-Inter-V1 ycocg golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Only/T0/ycocg=false/entropy=false", "Intra-Only layers=3 golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Only/T0/ycocg=true/entropy=false", "Intra-Only layers=3 ycocg golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Only/T0/ycocg=false/entropy=true", "Intra-Only layers=3 geom-entropy golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Only/T4/ycocg=false/entropy=false", "Intra-Only tiles=4 layers=3 golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Inter-V1/T0/ycocg=false/entropy=false", "Intra-Inter-V1 layers=3 golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Inter-V1/T0/ycocg=true/entropy=false", "Intra-Inter-V1 layers=3 ycocg golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Inter-V1/T4/ycocg=false/entropy=false", "Intra-Inter-V1 tiles=4 layers=3 golden:3"},
	{"TestLayeredFullDecodeExact/Intra-Inter-V1/T4/ycocg=false/entropy=true", "Intra-Inter-V1 tiles=4 layers=3 geom-entropy golden:3"},
	// Three GOPs of two frame sizes, decoded whole, layer-shed and culled.
	{"TestDecodedCloudsPinned", "Intra-Inter-V1 golden+2%:9"},
	{"TestDecodedCloudsPinned", "Intra-Inter-V1 geom-entropy attr-entropy ycocg golden+2%:9"},
	{"TestDecodedCloudsPinned", "Intra-Inter-V1 tiles=4 golden+2%:9"},
	{"TestDecodedCloudsPinned", "Intra-Inter-V1 tiles=8 geom-entropy attr-entropy golden+2%:9"},
	{"TestDecodedCloudsPinned", "Intra-Inter-V1 layers=3 geom-entropy attr-entropy golden+2%:9"},
	{"TestDecodedCloudsPinned", "Intra-Inter-V1 tiles=4 layers=3 ycocg golden+2%:9"},
	{"TestPartialDecodesPinned", "Intra-Inter-V1 layers=3 golden+2%:9"},
	{"TestPartialDecodesPinned", "Intra-Inter-V1 layers=3 geom-entropy golden+2%:9"},
	{"TestPartialDecodesPinned", "Intra-Inter-V1 tiles=4 layers=3 golden+2%:9"},
	{"TestPartialDecodesPinned", "Intra-Inter-V1 tiles=4 layers=3 geom-entropy golden+2%:9"},
	// The ledgers of one I (and one P) frame; the untiled entropy row is mode 2.
	{"TestEncodeLedgerPinned", "Intra-Inter-V1 golden:2"},
	{"TestEncodeLedgerPinned", "Intra-Inter-V1 accel golden:2"},
	{"TestEncodeLedgerPinned", "Intra-Inter-V1 layers=3 golden:2"},
	{"TestEncodeLedgerPinned", "Intra-Inter-V1 tiles=4 golden:2"},
	{"TestEncodeLedgerPinned", "Intra-Inter-V1 tiles=4 geom-entropy golden:2"},
	{"TestDecodeLedgerPinned", "Intra-Only geom-entropy attr-entropy golden:1"},
	{"TestDecodeLedgerPinned", "Intra-Inter-V1 tiles=4 layers=3 geom-entropy golden:2"},
	{"TestPartialDecodeLedgerPinned", "Intra-Inter-V1 layers=3 geom-entropy golden:2"},
	// Progressive decodes of an I and a P frame.
	{"TestConformance", "Intra-Inter-V1 1.5%:2 seg=300,500"},
	{"TestConformance", "Intra-Inter-V1 geom-entropy 1.5%:2 seg=300,500"},
	{"TestConformance", "Intra-Inter-V1 layers=3 1.5%:2 seg=300,500"},
	{"TestConformance", "Intra-Inter-V1 layers=3 geom-entropy 1.5%:2 seg=300,500"},
	// The pairwise covering array over confAxes.
	{"TestConformance", "Intra-Only 2%:2 gop=1 per-seg=1"},
	{"TestConformance", "Intra-Only tiles=4 layers=3 geom-entropy attr-entropy lossless ycocg sparse:2 per-seg=16"},
	{"TestConformance", "Intra-Inter-V1 tiles=8 geom-entropy lossless 40-points:2 per-seg=25"},
	{"TestConformance", "Intra-Inter-V2 tiles=8 layers=3 attr-entropy ycocg one-cell:2 gop=1 per-seg=25"},
	{"TestConformance", "Intra-Inter-V1 tiles=4 attr-entropy dups-at-cuts:2 gop=1 per-seg=16"},
	{"TestConformance", "Intra-Inter-V2 layers=3 geom-entropy lossless ycocg dups-at-cuts:2 per-seg=1"},
	{"TestConformance", "Intra-Inter-V2 tiles=4 lossless one-cell:2 per-seg=16"},
	{"TestConformance", "Intra-Inter-V1 layers=3 geom-entropy attr-entropy ycocg 2%:2 per-seg=1"},
	{"TestConformance", "Intra-Only tiles=8 ycocg sparse:2 gop=1 per-seg=1"},
	{"TestConformance", "Intra-Only layers=3 attr-entropy 40-points:2 gop=1 per-seg=16"},
	{"TestConformance", "Intra-Only geom-entropy lossless one-cell:2 gop=1 per-seg=25"},
	{"TestConformance", "Intra-Inter-V2 tiles=4 lossless 2%:2 gop=1 per-seg=25"},
	{"TestConformance", "Intra-Inter-V2 tiles=4 ycocg 40-points:2 gop=1 per-seg=1"},
	{"TestConformance", "Intra-Inter-V1 sparse:2 gop=1 per-seg=25"},
	{"TestConformance", "Intra-Only tiles=8 dups-at-cuts:2 gop=1 per-seg=16"},
	{"TestConformance", "Intra-Inter-V1 one-cell:2 gop=1 per-seg=1"},
	{"TestConformance", "Intra-Only tiles=8 2%:2 gop=1 per-seg=16"},
	{"TestConformance", "Intra-Inter-V2 sparse:2 gop=1 per-seg=1"},
	{"TestConformance", "Intra-Only dups-at-cuts:2 gop=1 per-seg=25"},
	// The baselines on the other clouds.
	{"TestConformance", "TMC13 sparse:2 per-seg=25"},
	{"TestConformance", "TMC13 40-points:2 per-seg=25"},
	{"TestConformance", "TMC13 one-cell:2 per-seg=25"},
	{"TestConformance", "TMC13 dups-at-cuts:2 per-seg=25"},
	{"TestConformance", "CWIPC sparse:2 per-seg=25"},
	{"TestConformance", "CWIPC 40-points:2 per-seg=25"},
	{"TestConformance", "CWIPC one-cell:2 per-seg=25"},
	{"TestConformance", "CWIPC dups-at-cuts:2 per-seg=25"},
}

// confRow is a parsed row.
type confRow struct {
	name                     string
	design                   Design
	tiles, layers, gop       int
	geomEntropy, attrEntropy bool
	lossless, ycocg, accel   bool
	cloud                    string
	frames                   int
	perSeg                   int
	seg                      [2]int
}

func parseConfRow(s string) (confRow, error) {
	words := strings.Fields(s)
	r := confRow{name: s, design: -1, tiles: 1, layers: 1, gop: 3, seg: [2]int{1500, 2500}}
	for _, d := range Designs() {
		if d.String() == words[0] {
			r.design = d
		}
	}
	flags := map[string]*bool{"geom-entropy": &r.geomEntropy, "attr-entropy": &r.attrEntropy,
		"lossless": &r.lossless, "ycocg": &r.ycocg, "accel": &r.accel}
	ints := map[string]*int{"tiles": &r.tiles, "layers": &r.layers, "gop": &r.gop, "per-seg": &r.perSeg}
	for _, w := range words[1:] {
		key, val, _ := strings.Cut(w, "=")
		var err error
		if p, ok := flags[w]; ok {
			*p = true
		} else if p, ok := ints[key]; ok {
			*p, err = strconv.Atoi(val)
		} else if key == "seg" {
			_, err = fmt.Sscanf(val, "%d,%d", &r.seg[0], &r.seg[1])
		} else if r.cloud, val, _ = strings.Cut(w, ":"); val != "" {
			r.frames, err = strconv.Atoi(val)
		} else {
			err = fmt.Errorf("unknown word %q", w)
		}
		if err != nil {
			return r, fmt.Errorf("row %q: %v", s, err)
		}
	}
	if r.design < 0 || r.frames == 0 {
		return r, fmt.Errorf("row %q: no design or no clouds", s)
	}
	return r, nil
}

func (r confRow) proposed() bool { return r.design != TMC13 && r.design != CWIPC }

// options are the row's codec options for clouds of n points.
func (r confRow) options(n int) Options {
	o := OptionsFor(r.design)
	o.GOP, o.Tiles, o.Layers = r.gop, r.tiles, r.layers
	o.EntropyGeometry, o.Lossless = r.geomEntropy, r.lossless
	o.IntraAttr.Entropy, o.IntraAttr.YCoCg = r.attrEntropy, r.ycocg
	o.IntraAttr.Segments, o.Inter.Segments = r.seg[0], r.seg[1]
	if r.perSeg > 0 {
		o.IntraAttr.Segments, o.Inter.Segments = max(n/r.perSeg, 1), max(n/r.perSeg, 1)
	}
	return o
}

func (r confRow) device() *edgesim.Device {
	if r.accel {
		return edgesim.New(edgesim.WithAccelerator(edgesim.XavierConfig(edgesim.Mode15W), edgesim.DefaultAccel()))
	}
	return dev()
}

// confAxes are the axes the covering array spans, and their values.
var confAxes = []struct {
	name   string
	values []string
	of     func(confRow) string
}{
	{"design", []string{"Intra-Only", "Intra-Inter-V1", "Intra-Inter-V2"}, func(r confRow) string { return r.design.String() }},
	{"tiles", []string{"1", "4", "8"}, func(r confRow) string { return strconv.Itoa(r.tiles) }},
	{"layers", []string{"1", "3"}, func(r confRow) string { return strconv.Itoa(r.layers) }},
	{"geom-entropy", []string{"false", "true"}, func(r confRow) string { return strconv.FormatBool(r.geomEntropy) }},
	{"attr-entropy", []string{"false", "true"}, func(r confRow) string { return strconv.FormatBool(r.attrEntropy) }},
	{"lossless", []string{"false", "true"}, func(r confRow) string { return strconv.FormatBool(r.lossless) }},
	{"ycocg", []string{"false", "true"}, func(r confRow) string { return strconv.FormatBool(r.ycocg) }},
	{"cloud", []string{"2%", "sparse", "40-points", "one-cell", "dups-at-cuts"}, func(r confRow) string { return r.cloud }},
	{"gop", []string{"1", "3"}, func(r confRow) string { return strconv.Itoa(r.gop) }},
	{"per-seg", []string{"1", "16", "25"}, func(r confRow) string { return strconv.Itoa(r.perSeg) }},
}

// confCulls are the tile marks a culling viewer applies, by tile count.
var confCulls = map[int][]map[int]uint8{
	4: {{1: TileOmitted, 2: TileCoarse}, {0: TileCoarse, 3: TileOmitted}},
	8: {{0: TileOmitted, 1: TileOmitted, 4: TileOmitted, 7: TileOmitted}},
}

// confView is one way a viewer decodes a row's stream: every layer or the
// first sub, every tile or with marks — on every frame when it also sheds
// layers, otherwise on three frames of four, so that P-frames meet concealed
// and whole references — or, for an untiled row's first two frames, geometry
// only at every level from 0 to one past the depth, hashing each level's
// prefix bytes before its cloud.
type confView struct {
	name   string
	sub    uint8
	marks  map[int]uint8
	levels bool
}

func (r confRow) views() []confView {
	views := []confView{{name: "whole"}}
	if !r.proposed() {
		return views
	}
	culls := confCulls[r.tiles]
	for _, m := range culls {
		views = append(views, confView{name: "cull-" + marksName(m), marks: m})
	}
	for sub := uint8(1); int(sub) < r.layers; sub++ {
		views = append(views, confView{name: fmt.Sprintf("sub%d", sub), sub: sub})
		for _, m := range culls {
			views = append(views, confView{name: fmt.Sprintf("sub%d-cull-%s", sub, marksName(m)), sub: sub, marks: m})
		}
	}
	if r.tiles > 1 {
		return views // a tiled frame has no frame-wide prefix
	}
	return append(views, confView{name: "levels", levels: true})
}

// marksName spells tile marks as tile number and o (omitted) or c (coarse).
func marksName(m map[int]uint8) string {
	var s string
	for tile := 0; tile < MaxTiles; tile++ {
		if f, ok := m[tile]; ok {
			s += strconv.Itoa(tile) + map[uint8]string{TileOmitted: "o", TileCoarse: "c"}[f]
		}
	}
	return s
}

// confField is one field of a row's line; a ledger digest keeps its kernel
// records for the mismatch report.
type confField struct {
	name, value string
	ledger      []edgesim.KernelRecord
}

// ledgerField digests a device's ledger: every kernel's name, stage, launch
// count, items, ops, bytes and simulated time, in first-launch order.
func ledgerField(name string, d *edgesim.Device) confField {
	h, ks := sha256.New(), d.Kernels()
	for _, k := range ks {
		fmt.Fprintln(h, ledgerLine(k))
	}
	return confField{name: name, value: hex.EncodeToString(h.Sum(nil)), ledger: ks}
}

func ledgerLine(k edgesim.KernelRecord) string {
	return fmt.Sprintf("%s %s %d %d %v %v %d", k.Name, k.Stage, k.Launches, k.Items, k.Ops, k.Bytes, int64(k.SimTime))
}

// goldenFrames is a deterministic two-GOP redandblack sequence at 5 % scale.
func goldenFrames(t testing.TB) []*geom.VoxelCloud {
	t.Helper()
	return generate(t, "redandblack", 0.05, 6)
}

func generate(t testing.TB, video string, scale float64, n int) []*geom.VoxelCloud {
	t.Helper()
	spec, err := dataset.SpecByName(video)
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.NewGenerator(spec, scale)
	out := make([]*geom.VoxelCloud, n)
	for i := range out {
		if out[i], err = g.Frame(i); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

var confCloudCache map[string][]*geom.VoxelCloud

// confClouds returns the clouds a row names: the golden frames, the golden
// frames then three at 2 %, two redandblack frames at 1.5 % and at 2 %, two
// kitti-sparse frames at 5 %, and the two at 2 % cut to 40 points, folded
// into one cell of the sort's cut level, or with duplicates of every
// cut-level cell's first and last voxels appended in other colours — so that
// the sort's stability decides which survives — whichever cell boundary a
// window cut falls on.
func confClouds(t *testing.T, name string) []*geom.VoxelCloud {
	t.Helper()
	if confCloudCache == nil {
		golden, dense := goldenFrames(t), frames(t, 3)
		c := map[string][]*geom.VoxelCloud{
			"golden": golden, "golden+2%": append(slices.Clone(golden), dense...), "2%": dense[:2],
			"1.5%": generate(t, "redandblack", 0.015, 2), "sparse": generate(t, "kitti-sparse", 0.05, 2),
		}
		for _, vc := range dense[:2] {
			depth := vc.Depth
			c["40-points"] = append(c["40-points"], &geom.VoxelCloud{Depth: depth, Voxels: vc.Voxels[:40]})
			side := uint32(1) << (depth - morton.CellLevel(depth, 64))
			one := &geom.VoxelCloud{Depth: depth}
			for _, v := range vc.Voxels {
				v.X, v.Y, v.Z = 3*side+v.X%side, 3*side+v.Y%side, 3*side+v.Z%side
				one.Voxels = append(one.Voxels, v)
			}
			c["one-cell"] = append(c["one-cell"], one)
			shift := 3 * (depth - morton.CellLevel(depth, 2))
			ends := map[morton.Code][2]geom.Voxel{}
			for _, v := range vc.Voxels {
				code := morton.Encode(v.X, v.Y, v.Z)
				e, ok := ends[code>>shift]
				if !ok || code < morton.Encode(e[0].X, e[0].Y, e[0].Z) {
					e[0] = v
				}
				if !ok || code > morton.Encode(e[1].X, e[1].Y, e[1].Z) {
					e[1] = v
				}
				ends[code>>shift] = e
			}
			dups := &geom.VoxelCloud{Depth: depth, Voxels: slices.Clone(vc.Voxels)}
			for _, cell := range slices.Sorted(maps.Keys(ends)) {
				for _, v := range ends[cell] {
					v.C = geom.Color{R: ^v.C.R, G: v.C.G, B: ^v.C.B}
					dups.Voxels = append(dups.Voxels, v)
				}
			}
			c["dups-at-cuts"] = append(c["dups-at-cuts"], dups)
		}
		confCloudCache = c
	}
	clouds, ok := confCloudCache[name]
	if !ok {
		t.Fatalf("no clouds named %q", name)
	}
	return clouds
}

// hashCloud folds a decoded cloud — its length, then every voxel's position
// and colour — into h.
func hashCloud(h hash.Hash, vc *geom.VoxelCloud) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(len(vc.Voxels)))
	h.Write(b[:8])
	for _, v := range vc.Voxels {
		binary.LittleEndian.PutUint32(b[0:], v.X)
		binary.LittleEndian.PutUint32(b[4:], v.Y)
		binary.LittleEndian.PutUint32(b[8:], v.Z)
		b[12], b[13], b[14], b[15] = v.C.R, v.C.G, v.C.B, 0
		h.Write(b[:])
	}
}

// damaged returns broken copies of ef whose containers still parse: bit
// flips spread over both payloads and, for an unlayered frame, both payloads
// cut short.
func damaged(ef *EncodedFrame) []*EncodedFrame {
	var out []*EncodedFrame
	for _, geometry := range []bool{true, false} {
		payload := ef.Attr
		if geometry {
			payload = ef.Geometry
		}
		for k := 1; k <= 3; k++ {
			at := k * len(payload) / 4
			flipped := *ef
			mut := bytes.Clone(payload)
			mut[at] ^= byte(0x11 << (k % 4))
			if flipped.Attr = mut; geometry {
				flipped.Attr, flipped.Geometry = ef.Attr, mut
			}
			out = append(out, &flipped)
			if ef.Layered() {
				continue
			}
			short := *ef
			if short.Attr = payload[:at]; geometry {
				short.Attr, short.Geometry = ef.Attr, payload[:at]
			}
			out = append(out, &short)
		}
	}
	return out
}

// encode runs the row's clouds through enc and returns the frames and the
// stream and encode-ledger fields.
func (r confRow) encode(t *testing.T, enc *Encoder) ([]*EncodedFrame, []confField) {
	t.Helper()
	clouds := confClouds(t, r.cloud)[:r.frames]
	h := sha256.New()
	var out []*EncodedFrame
	for _, vc := range clouds {
		ef, _, err := enc.EncodeFrame(vc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ef.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		out = append(out, ef)
	}
	return out, []confField{{name: "stream", value: hex.EncodeToString(h.Sum(nil))}, ledgerField("encode-ledger", enc.Device())}
}

func (r confRow) encoder(t *testing.T, windows int) *Encoder {
	enc := NewEncoder(r.device(), r.options(confClouds(t, r.cloud)[0].Len()))
	enc.windows = windows
	return enc
}

// decode decodes frames through every view of the row, on decoders cut into
// the given number of windows (0: one per core), and returns their fields.
func (r confRow) decode(t *testing.T, frames []*EncodedFrame, windows int) []confField {
	t.Helper()
	opts := r.options(confClouds(t, r.cloud)[0].Len())
	decoder := func() *Decoder {
		dec := NewDecoder(r.device(), opts)
		dec.windows = windows
		return dec
	}
	var out []confField
	for _, v := range r.views() {
		dec, h := decoder(), sha256.New()
		for i, ef := range frames {
			for level := uint(0); v.levels && i < 2 && level <= uint(ef.Depth)+1; level++ {
				vc, prefix, err := dec.decodeTo(ef, level, true)
				if err != nil {
					t.Fatalf("level %d of frame %d: %v", level, i, err)
				}
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(prefix)))
				hashCloud(h, vc)
			}
			if v.levels {
				continue
			}
			switch {
			case v.sub == 0 && (v.marks == nil || i%4 == 3):
			case ef.Layered():
				ef = stripLayers(ef, v.marks, v.sub)
			default:
				ef = stripTiles(ef, v.marks)
			}
			vc, err := dec.DecodeFrame(ef)
			if err != nil && v.name == "whole" {
				t.Fatalf("frame %d: %v", i, err)
			}
			hashOutcome(h, vc, err)
		}
		out = append(out, confField{name: v.name, value: hex.EncodeToString(h.Sum(nil))}, ledgerField(v.name+"-ledger", dec.Device()))
	}
	if !windowed(r) {
		return out
	}
	// Every damaged copy of the first two frames, decoded after the frames
	// before it on a fresh decoder.
	h := sha256.New()
	for i := range min(2, len(frames)) {
		for _, bad := range damaged(frames[i]) {
			dec := decoder()
			for _, ef := range append(frames[:i:i], bad) {
				vc, err := dec.DecodeFrame(ef)
				hashOutcome(h, vc, err)
			}
		}
	}
	return append(out, confField{name: "damaged", value: hex.EncodeToString(h.Sum(nil))})
}

// hashOutcome folds a decode's cloud, or its error, into h.
func hashOutcome(h hash.Hash, vc *geom.VoxelCloud, err error) {
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	hashCloud(h, vc)
}

// confCase is a parsed entry of confTable: the test the row runs under and
// its subtest name there.
type confCase struct {
	top, sub string
	row      confRow
}

var confCases []confCase

func conformanceCases(t *testing.T) []confCase {
	t.Helper()
	if confCases == nil {
		for _, e := range confTable {
			r, err := parseConfRow(e.row)
			if err != nil {
				t.Fatal(err)
			}
			top, sub, ok := strings.Cut(e.test, "/")
			if !ok {
				sub = r.name
			}
			confCases = append(confCases, confCase{top, sub, r})
		}
	}
	return confCases
}

var confLines map[string][]confField

// conformanceLines reads the testdata file once: row name -> fields.
func conformanceLines(t *testing.T) map[string][]confField {
	t.Helper()
	if confLines != nil {
		return confLines
	}
	confLines = map[string][]confField{}
	data, err := os.ReadFile(conformancePath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, "\t")
		var fields []confField
		for _, kv := range strings.Fields(rest) {
			k, v, _ := strings.Cut(kv, "=")
			fields = append(fields, confField{name: k, value: v})
		}
		confLines[name] = fields
	}
	return confLines
}

func writeConformance(t *testing.T) {
	var b strings.Builder
	b.WriteString("# The codec conformance table (conformance_test.go): one line per row,\n" +
		"# then the row's fields. Rewrite with\n" +
		"#   go test ./internal/codec -run TestConformance -update\n")
	for _, c := range conformanceCases(t) {
		fields, ok := confLines[c.row.name]
		if !ok {
			continue
		}
		b.WriteString(c.row.name)
		sep := "\t"
		for _, f := range fields {
			b.WriteString(sep + f.name + "=" + f.value)
			sep = " "
		}
		b.WriteString("\n")
	}
	if err := os.WriteFile(conformancePath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func fieldOf(fields []confField, name string) (string, bool) {
	i := slices.IndexFunc(fields, func(f confField) bool { return f.name == name })
	if i < 0 {
		return "", false
	}
	return fields[i].value, true
}

// check holds fields to the row's line in want; it names each field that
// differs, and prints a differing ledger as it now reads.
func check(t *testing.T, want []confField, got []confField) {
	t.Helper()
	if want == nil {
		t.Fatalf("testdata has no line for this row: run TestConformance with -update")
	}
	for _, g := range got {
		switch w, ok := fieldOf(want, g.name); {
		case !ok:
			t.Errorf("field %s: not in testdata", g.name)
		case w != g.value:
			var ledger string
			for _, k := range g.ledger {
				ledger += "\n\t" + ledgerLine(k)
			}
			t.Errorf("field %s is %s, testdata has %s%s", g.name, g.value, w, ledger)
		}
	}
}

// framingKey is what the field of a row's line depends on. Tiles and layers 0
// are 1. The entropy stages are lossless and the accelerator is accounting, so
// the clouds of no view depend on them; tiles and layers frame the stream, so
// the clouds of a whole decode do not depend on them either.
func framingKey(r confRow, field string) string {
	r.name, r.tiles, r.layers = "", max(r.tiles, 1), max(r.layers, 1)
	if field != "stream" && field != "levels" && field != "damaged" && !strings.HasSuffix(field, "-ledger") {
		r.geomEntropy, r.attrEntropy, r.accel = false, false, false
	}
	if field == "whole" {
		r.tiles, r.layers = 1, 1
	}
	return fmt.Sprintf("%s %+v", field, r)
}

// checkFraming holds every field of r's line to the same field of every row
// with the same framing key.
func checkFraming(t *testing.T, r confRow) {
	t.Helper()
	lines := conformanceLines(t)
	for _, f := range lines[r.name] {
		key := framingKey(r, f.name)
		for _, c := range conformanceCases(t) {
			if c.row.name == r.name || framingKey(c.row, f.name) != key {
				continue
			}
			if v, ok := fieldOf(lines[c.row.name], f.name); ok && v != f.value {
				t.Errorf("field %s differs from that of %q, which decodes the same clouds", f.name, c.row.name)
			}
		}
	}
}

// runRows runs the rows of the table that run under t — under -update,
// TestConformance runs every row and records its line.
func runRows(t *testing.T) {
	for _, c := range conformanceCases(t) {
		if c.top != t.Name() && !(*update && t.Name() == "TestConformance") {
			continue
		}
		t.Run(c.sub, func(t *testing.T) {
			frames, fields := c.row.encode(t, c.row.encoder(t, 0))
			fields = append(fields, c.row.decode(t, frames, 0)...)
			if lines := conformanceLines(t); *update {
				lines[c.row.name] = fields
			} else {
				check(t, lines[c.row.name], fields)
				checkFraming(t, c.row)
			}
		})
	}
}

// The per-feature pins' names: each runs its rows of the table.
func TestGoldenStreams(t *testing.T)             { runRows(t) }
func TestTiledT1ByteIdentical(t *testing.T)      { runRows(t) }
func TestLayeredOffByteIdentical(t *testing.T)   { runRows(t) }
func TestTiledStreamsPinned(t *testing.T)        { runRows(t) }
func TestTiledDecodeExact(t *testing.T)          { runRows(t) }
func TestLayeredStreamsPinned(t *testing.T)      { runRows(t) }
func TestLayeredFullDecodeExact(t *testing.T)    { runRows(t) }
func TestDecodedCloudsPinned(t *testing.T)       { runRows(t) }
func TestPartialDecodesPinned(t *testing.T)      { runRows(t) }
func TestEncodeLedgerPinned(t *testing.T)        { runRows(t) }
func TestDecodeLedgerPinned(t *testing.T)        { runRows(t) }
func TestPartialDecodeLedgerPinned(t *testing.T) { runRows(t) }

// TestConformance runs the rows no pin held, checks that the testdata has no
// line without a row and that the rows cover every pair of axis values; under
// -update it computes every row and rewrites the testdata.
func TestConformance(t *testing.T) {
	lines := conformanceLines(t)
	cases := conformanceCases(t)
	if *update {
		t.Cleanup(func() { writeConformance(t) })
	}
	for name := range lines {
		if !*update && !slices.ContainsFunc(cases, func(c confCase) bool { return c.row.name == name }) {
			t.Errorf("testdata has a line for %q, which is no row", name)
		}
	}
	runRows(t)
	if *update {
		for _, c := range cases {
			checkFraming(t, c.row)
		}
	}
	for a, x := range confAxes {
		for _, y := range confAxes[a+1:] {
			for _, vx := range x.values {
				for _, vy := range y.values {
					if !slices.ContainsFunc(cases, func(c confCase) bool { return c.row.proposed() && x.of(c.row) == vx && y.of(c.row) == vy }) {
						t.Errorf("no row of a proposed design has %s=%s and %s=%s", x.name, vx, y.name, vy)
					}
				}
			}
		}
	}
}

// The invariance axes run the proposed designs' rows of two frames or fewer,
// but for the golden frames only those with a mode-2 geometry chunk
// (windowed); the window counts include more windows than a 40-point frame
// has segments.
var confWindows = []int{1, 2, 3, 8, 64}

func windowed(r confRow) bool {
	return r.proposed() && r.frames <= 2 && (r.cloud != "golden" || r.geomEntropy)
}

// dense reports whether r's clouds are whole redandblack frames.
func dense(r confRow) bool { return r.cloud == "golden" || r.cloud == "1.5%" || r.cloud == "2%" }

// TestEncodeWorkerCountInvariant and TestGeometryWindowCountInvariant: the
// windows both encode phases cut a frame into are not in the stream nor in
// the ledger — on the dense clouds, and on the sparse and edge-case clouds of
// the sort's window cuts.
func TestEncodeWorkerCountInvariant(t *testing.T) { encodeWindows(t, dense) }

func TestGeometryWindowCountInvariant(t *testing.T) {
	encodeWindows(t, func(r confRow) bool { return !dense(r) })
}

func encodeWindows(t *testing.T, clouds func(confRow) bool) {
	for _, c := range conformanceCases(t) {
		if !windowed(c.row) || !clouds(c.row) {
			continue
		}
		t.Run(c.row.name, func(t *testing.T) {
			for _, w := range confWindows {
				_, fields := c.row.encode(t, c.row.encoder(t, w))
				check(t, conformanceLines(t)[c.row.name], fields)
			}
		})
	}
}

// TestDecodeWindowCountInvariant: the windows a decoder cuts an untiled frame
// into are not in what any view decodes, nor in the ledger, nor in what a
// damaged frame decodes to or fails with.
func TestDecodeWindowCountInvariant(t *testing.T) {
	for _, c := range conformanceCases(t) {
		if !windowed(c.row) || c.row.tiles > 1 {
			continue // a tile is one window of its own stream
		}
		t.Run(c.row.name, func(t *testing.T) {
			frames, _ := c.row.encode(t, c.row.encoder(t, 0))
			for _, w := range confWindows {
				check(t, conformanceLines(t)[c.row.name], c.row.decode(t, frames, w))
			}
		})
	}
}

// TestGoldenStreamsControlLoopInert: the congestion controller attached but
// never fed moves no knob and no byte, on the golden streams and every row of
// two frames or fewer.
func TestGoldenStreamsControlLoopInert(t *testing.T) {
	for _, c := range conformanceCases(t) {
		name := c.sub
		if c.top != "TestGoldenStreams" {
			if name = c.row.name; c.row.frames > 2 {
				continue
			}
		}
		t.Run(name, func(t *testing.T) {
			opts := c.row.options(confClouds(t, c.row.cloud)[0].Len())
			opts.Adapt = AdaptiveRate{Enabled: true}
			enc := NewEncoder(c.row.device(), opts)
			_, fields := c.row.encode(t, enc)
			check(t, conformanceLines(t)[c.row.name], fields)
			if n := enc.Controller().Snapshot().Counters.Transitions(); n != 0 {
				t.Errorf("%d controller transitions without any signal", n)
			}
		})
	}
}

// TestGoldenStreamsSplitPhase: the proposed designs' golden streams with the
// geometry phase on a device of its own, as the streaming pipeline runs it.
func TestGoldenStreamsSplitPhase(t *testing.T) {
	for _, c := range conformanceCases(t) {
		if c.top != "TestGoldenStreams" || !c.row.proposed() {
			continue
		}
		t.Run(c.sub, func(t *testing.T) {
			enc, geomDev, h := c.row.encoder(t, 0), dev(), sha256.New()
			for _, vc := range confClouds(t, c.row.cloud)[:c.row.frames] {
				g, err := enc.EncodeGeometryOn(geomDev, vc)
				if err != nil {
					t.Fatal(err)
				}
				ef, _, err := enc.FinishFrame(g)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ef.WriteTo(h); err != nil {
					t.Fatal(err)
				}
			}
			check(t, conformanceLines(t)[c.row.name], []confField{{name: "stream", value: hex.EncodeToString(h.Sum(nil))}})
		})
	}
}
