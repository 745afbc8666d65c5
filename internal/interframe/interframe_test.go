package interframe

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/morton"
)

func dev() *edgesim.Device { return edgesim.NewXavier(edgesim.Mode15W) }

// sortedFrame produces a Morton-sorted frame with smooth colours.
func sortedFrame(seed int64, n int) []geom.Voxel {
	rng := rand.New(rand.NewSource(seed))
	seen := map[morton.Code]bool{}
	keyed := make([]morton.Keyed, 0, n)
	for len(keyed) < n {
		x, y, z := uint32(rng.Intn(512)), uint32(rng.Intn(512)), uint32(rng.Intn(512))
		c := morton.Encode(x, y, z)
		if seen[c] {
			continue
		}
		seen[c] = true
		keyed = append(keyed, morton.Keyed{Code: c, Voxel: geom.Voxel{
			X: x, Y: y, Z: z,
			C: geom.Color{R: uint8(x / 2), G: uint8(y / 2), B: uint8(z / 2)},
		}})
	}
	morton.Sort(keyed)
	return morton.Voxels(keyed)
}

// jitterColors perturbs every colour by at most amp (simulating small
// temporal change with identical geometry).
func jitterColors(frame []geom.Voxel, seed int64, amp int) []geom.Voxel {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Voxel, len(frame))
	copy(out, frame)
	for i := range out {
		out[i].C = out[i].C.Add(rng.Intn(2*amp+1)-amp, rng.Intn(2*amp+1)-amp, rng.Intn(2*amp+1)-amp)
	}
	return out
}

func TestIdenticalFramesFullyReuse(t *testing.T) {
	d := dev()
	f := sortedFrame(1, 5000)
	p := Params{Segments: 200, Candidates: 50, Threshold: 0, QStep: 1}
	data, st, err := EncodeP(d, f, f, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirectReuse != st.Blocks {
		t.Fatalf("identical frames: reuse %d of %d blocks", st.DirectReuse, st.Blocks)
	}
	got, err := DecodeP(d, data, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if got[i] != f[i].C {
			t.Fatalf("point %d: %v != %v", i, got[i], f[i].C)
		}
	}
	// A fully-reused frame is tiny: bitmap + pointers only.
	if len(data) > len(f) {
		t.Fatalf("fully-reused stream %d bytes for %d points", len(data), len(f))
	}
}

func TestDeltaBlocksLosslessAtQ1(t *testing.T) {
	d := dev()
	iF := sortedFrame(2, 4000)
	pF := jitterColors(iF, 3, 20)
	p := Params{Segments: 150, Candidates: 40, Threshold: -1, QStep: 1} // force all delta
	data, st, err := EncodeP(d, iF, pF, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirectReuse != 0 {
		t.Fatalf("threshold -1 must force delta blocks, got %d reuse", st.DirectReuse)
	}
	got, err := DecodeP(d, data, iF)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pF {
		if got[i] != pF[i].C {
			t.Fatalf("point %d: %v != %v", i, got[i], pF[i].C)
		}
	}
}

func TestQuantizedErrorBound(t *testing.T) {
	d := dev()
	iF := sortedFrame(4, 3000)
	pF := jitterColors(iF, 5, 15)
	q := 8
	p := Params{Segments: 100, Candidates: 30, Threshold: -1, QStep: q}
	data, _, err := EncodeP(d, iF, pF, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeP(d, data, iF)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pF {
		dr, dg, db := got[i].Sub(pF[i].C)
		for _, dd := range []int{dr, dg, db} {
			if dd < 0 {
				dd = -dd
			}
			if dd > q/2 {
				t.Fatalf("point %d channel error %d > q/2=%d", i, dd, q/2)
			}
		}
	}
}

func TestThresholdControlsReuseFraction(t *testing.T) {
	d := dev()
	iF := sortedFrame(6, 6000)
	pF := jitterColors(iF, 7, 6)
	frac := func(th float64) float64 {
		_, st, err := EncodeP(d, iF, pF, Params{Segments: 200, Candidates: 40, Threshold: th, QStep: 4})
		if err != nil {
			t.Fatal(err)
		}
		return st.ReuseFraction()
	}
	loose := frac(100000)
	tight := frac(10)
	if loose != 1 {
		t.Fatalf("huge threshold must reuse everything, got %.2f", loose)
	}
	if tight >= loose {
		t.Fatalf("tight threshold reuse %.2f >= loose %.2f", tight, loose)
	}
}

func TestHigherThresholdSmallerStream(t *testing.T) {
	d := dev()
	iF := sortedFrame(8, 8000)
	pF := jitterColors(iF, 9, 10)
	size := func(th float64) int {
		data, _, err := EncodeP(d, iF, pF, Params{Segments: 300, Candidates: 40, Threshold: th, QStep: 4})
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	// The V2 (loose) configuration must compress better than V1 (tight) —
	// the Fig. 10b trade-off.
	if v2, v1 := size(5000), size(100); v2 >= v1 {
		t.Fatalf("loose threshold %d >= tight %d bytes", v2, v1)
	}
}

func TestReuseQualityDegradesGracefully(t *testing.T) {
	d := dev()
	iF := sortedFrame(10, 5000)
	pF := jitterColors(iF, 11, 5)
	// Full reuse: decoded P equals I's colours; error bounded by jitter.
	data, st, err := EncodeP(d, iF, pF, Params{Segments: 200, Candidates: 40, Threshold: 1e12, QStep: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReuseFraction() != 1 {
		t.Fatalf("reuse = %.2f", st.ReuseFraction())
	}
	got, err := DecodeP(d, data, iF)
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := range pF {
		dr, dg, db := got[i].Sub(pF[i].C)
		mse += float64(dr*dr+dg*dg+db*db) / 3
	}
	mse /= float64(len(pF))
	psnr := 10 * math.Log10(255*255/mse)
	if psnr < 30 {
		t.Fatalf("full-reuse PSNR %.1f dB too low for 5-step jitter", psnr)
	}
}

func TestDifferentGeometrySizes(t *testing.T) {
	d := dev()
	iF := sortedFrame(12, 3000)
	pF := sortedFrame(13, 2500) // different points entirely
	data, _, err := EncodeP(d, iF, pF, Params{Segments: 100, Candidates: 30, Threshold: 500, QStep: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeP(d, data, iF)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pF) {
		t.Fatalf("decoded %d attrs, want %d", len(got), len(pF))
	}
}

func TestEmptyPFrame(t *testing.T) {
	d := dev()
	iF := sortedFrame(14, 100)
	data, st, err := EncodeP(d, iF, nil, DefaultParamsV1())
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 0 {
		t.Fatal("empty P-frame has no blocks")
	}
	got, err := DecodeP(d, data, iF)
	if err != nil || got != nil {
		t.Fatalf("empty decode: %v %v", got, err)
	}
}

func TestEmptyReferenceRejected(t *testing.T) {
	d := dev()
	pF := sortedFrame(15, 100)
	if _, _, err := EncodeP(d, nil, pF, DefaultParamsV1()); err == nil {
		t.Fatal("empty reference must fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	d := dev()
	iF := sortedFrame(16, 100)
	if _, err := DecodeP(d, nil, iF); err == nil {
		t.Error("empty stream must fail")
	}
	pF := jitterColors(iF, 17, 5)
	data, _, _ := EncodeP(d, iF, pF, Params{Segments: 10, Candidates: 10, Threshold: -1, QStep: 1})
	if _, err := DecodeP(d, data[:len(data)/3], iF); err == nil {
		t.Error("truncated stream must fail")
	}
}

// uvarints is a stream header: the concatenated uvarint codes of vs.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// hostileHeader is the 11-byte stream whose header claims 2^28 points in
// 2^28 blocks (QStep 1) and carries nothing else.
var hostileHeader = uvarints(1<<28, 1<<28, 1)

// TestDecodePHostileHeaderBoundedAlloc: header counts that the input cannot
// back must be refused before they size any allocation. At 2^28 blocks the
// segment grid alone was 2 GB.
func TestDecodePHostileHeaderBoundedAlloc(t *testing.T) {
	d := dev()
	iF := sortedFrame(51, 200)
	// The tile stream appends its block window to the header. All 2^28
	// blocks cannot fit; a window of one block can, and must cost one
	// block's memory.
	whole := append(append([]byte(nil), hostileHeader...), uvarints(0, 1<<28)...)
	one := append(append([]byte(nil), hostileHeader...), uvarints(1<<27, 1)...)
	one = append(one, 1, 0) // bitmap: reuse; pointer: the centre block
	for _, tc := range []struct {
		name   string
		decode func(t *testing.T)
	}{
		{"DecodeP", func(t *testing.T) {
			if _, err := DecodeP(d, hostileHeader, iF); !errors.Is(err, ErrBadStream) {
				t.Errorf("%v, want ErrBadStream", err)
			}
		}},
		{"DecodePTile, every block", func(t *testing.T) {
			if _, _, _, err := DecodePTile(whole, iF); !errors.Is(err, ErrBadStream) {
				t.Errorf("%v, want ErrBadStream", err)
			}
		}},
		{"DecodePTile, one block", func(t *testing.T) {
			colors, lo, hi, err := DecodePTile(one, iF)
			if err != nil || len(colors) != 1 || lo != 1<<27 || hi != 1<<27+1 {
				t.Errorf("%d colours [%d,%d), %v", len(colors), lo, hi, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.decode(t)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("allocated %d bytes", n)
			}
		})
	}
}

// hostileCount is the 8-byte stream that codes 102 685 612 points as one
// direct-reuse block: a bitmap bit and a pointer byte for all of them, so
// only the geometry can say it is lying. DecodeP used to return it 308 MB of
// colours and no error.
var hostileCount = []byte{0xac, 0xb7, 0xfb, 0x30, 0x00, 0x30, 0x31, 0x00}

// TestDecodeCountFromGeometry: the decoder sizes nothing from a stream's own
// point count. The destination the caller cut from its geometry is the
// count — and for a tile the position — and a stream that claims another is
// refused before a block of it is read.
func TestDecodeCountFromGeometry(t *testing.T) {
	iF := sortedFrame(61, 4)
	ref := frameColors(iF)
	var s DecodeScratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodePOne(&s, make([]geom.Color, 4), hostileCount, ref)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadStream) {
		t.Errorf("8-byte stream coding 102 685 612 points over a 4-point geometry: %v, want ErrBadStream", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusal allocated %d bytes", n)
	}

	// A tile stream is held to its count and to its place in the frame.
	big := sortedFrame(62, 300)
	pF := jitterColors(big, 63, 6)
	p := Params{Segments: 20, Candidates: 10, Threshold: 50, QStep: 2}
	pBounds, iBounds := attr.SegmentBoundsIn(nil, len(pF), p.Segments), attr.SegmentBoundsIn(nil, len(big), p.Segments)
	tile, _, err := encodePTile(packColors(nil, big), packColors(nil, pF), p, pBounds, iBounds, 5, 10, new(EncodeScratch))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pBounds[5], pBounds[15]
	st, err := OpenPTile(tile, lo, hi-lo)
	if err == nil {
		err = s.DecodeWindow(make([]geom.Color, hi-lo), frameColors(big), &st, 0, 1)
	}
	if err != nil {
		t.Errorf("tile at its own window: %v", err)
	}
	if _, err := OpenPTile(tile, lo+1, hi-lo); !errors.Is(err, ErrBadStream) {
		t.Errorf("tile one point off its window: %v, want ErrBadStream", err)
	}
	if _, err := OpenPTile(tile, lo, hi-lo+1); !errors.Is(err, ErrBadStream) {
		t.Errorf("tile into a window one point too long: %v, want ErrBadStream", err)
	}
}

// decodePOne decodes an untiled P stream as one window into dst, whose
// length is the point count the caller's geometry gives the frame.
func decodePOne(s *DecodeScratch, dst []geom.Color, data []byte, ref []geom.Color) error {
	st, err := OpenP(dev(), data, len(dst))
	if err == nil {
		err = s.DecodeWindow(dst, ref, &st, 0, 1)
	}
	return err
}

func TestKernelLedgerHasFig9Kernels(t *testing.T) {
	d := dev()
	iF := sortedFrame(18, 4000)
	pF := jitterColors(iF, 19, 8)
	if _, _, err := EncodeP(d, iF, pF, DefaultParamsV1()); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, k := range d.Kernels() {
		names[k.Name] = true
	}
	for _, want := range []string{"Diff_Squared", "Squared_Sum", "AddressGen", "Reuse_Pointer", "Delta_Quantize"} {
		if !names[want] {
			t.Errorf("missing Fig. 9 kernel %q (have %v)", want, names)
		}
	}
}

func TestPairIndex(t *testing.T) {
	if pairIndex(0, 4, 8) != 0 || pairIndex(3, 4, 8) != 6 {
		t.Error("pairIndex scaling wrong")
	}
	if pairIndex(5, 10, 1) != 0 {
		t.Error("pairIndex with tiny reference")
	}
	if pairIndex(0, 1, 0) != -1 {
		t.Error("pairIndex with empty reference")
	}
	// The coders walk the pairing with a pairStep: it must reproduce
	// pairIndex, in range, for all shapes.
	for kp := 1; kp <= 40; kp++ {
		for ki := 1; ki <= 40; ki++ {
			st := newPairStep(kp, ki)
			for i := 0; i < kp; i++ {
				p := pairIndex(i, kp, ki)
				if p < 0 || p >= ki {
					t.Fatalf("pairIndex(%d,%d,%d) = %d out of range", i, kp, ki, p)
				}
				if got := st.next(); got != p {
					t.Fatalf("pairStep(%d,%d) step %d = %d, pairIndex = %d", kp, ki, i, got, p)
				}
			}
		}
	}
}

func TestStatsReuseFraction(t *testing.T) {
	s := Stats{Blocks: 4, DirectReuse: 3, DeltaBlocks: 1}
	if s.ReuseFraction() != 0.75 {
		t.Errorf("ReuseFraction = %v", s.ReuseFraction())
	}
	if (Stats{}).ReuseFraction() != 0 {
		t.Error("empty stats fraction must be 0")
	}
}

// ledgerRow is what the ledger pin compares of a kernel record.
type ledgerRow struct {
	name, stage string
	launches    int
	items       int64
	ops, bytes  float64
	sim         time.Duration
}

// TestEncodePLedgerPinned pins what the one-shot front end books on a fresh
// device — kernels, order, launches, items, ops, bytes and simulated time,
// with and without the fixed-function unit — as captured at the commit before
// the encoder became one body under two framings (the ledger
// TestKernelLedgerHasFig9Kernels samples).
func TestEncodePLedgerPinned(t *testing.T) {
	iF := sortedFrame(18, 4000)
	pF := jitterColors(iF, 19, 8)
	accel := func() *edgesim.Device {
		return edgesim.New(edgesim.WithAccelerator(edgesim.XavierConfig(edgesim.Mode15W), edgesim.DefaultAccel()))
	}
	for _, tc := range []struct {
		name string
		dev  func() *edgesim.Device
		p    Params
		want []ledgerRow
	}{
		{"paper defaults", dev, DefaultParamsV1(), []ledgerRow{
			{"Diff_Squared", "", 1, 4000, 4.4e+06, 2.4e+06, 240352},
			{"Squared_Sum", "", 1, 400000, 2e+06, 400000, 120160},
			{"ReuseDecide", "", 1, 4000, 340000, 32000, 37027},
			{"Reuse_Pointer", "", 1, 4000, 80000, 8000, 24006},
			{"AddressGen", "", 1, 4000, 4e+06, 48000, 220320},
			{"Delta_Quantize", "", 1, 4000, 780000, 44000, 59062},
		}},
		{"200 blocks", dev, Params{Segments: 200, Candidates: 40, Threshold: 45, QStep: 4}, []ledgerRow{
			{"Diff_Squared", "", 1, 200, 1.76e+06, 960000, 108141},
			{"Squared_Sum", "", 1, 160000, 800000, 160000, 60064},
			{"ReuseDecide", "", 1, 200, 17000, 1600, 20851},
			{"Reuse_Pointer", "", 1, 200, 4000, 400, 20200},
			{"AddressGen", "", 1, 4000, 4e+06, 48000, 220320},
			{"Delta_Quantize", "", 1, 200, 780000, 44000, 59062},
		}},
		{"paper defaults with the accelerator", accel, DefaultParamsV1(), []ledgerRow{
			{"Diff_Squared", "", 1, 4000, 4.4e+06, 2.4e+06, 35500},
			{"Squared_Sum", "", 1, 400000, 2e+06, 400000, 20500},
			{"ReuseDecide", "", 1, 4000, 340000, 32000, 37027},
			{"Reuse_Pointer", "", 1, 4000, 80000, 8000, 24006},
			{"AddressGen", "", 1, 4000, 4e+06, 48000, 220320},
			{"Delta_Quantize", "", 1, 4000, 780000, 44000, 59062},
		}},
	} {
		d := tc.dev()
		if _, _, err := EncodeP(d, iF, pF, tc.p); err != nil {
			t.Fatal(err)
		}
		var got []ledgerRow
		for _, k := range d.Kernels() {
			got = append(got, ledgerRow{k.Name, k.Stage, k.Launches, k.Items, k.Ops, k.Bytes, k.SimTime})
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s ledger:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}
