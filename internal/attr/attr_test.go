package attr

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/edgesim"
	"repro/internal/geom"
)

func dev() *edgesim.Device { return edgesim.NewXavier(edgesim.Mode15W) }

func smoothColors(seed int64, n int) []geom.Color {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Color, n)
	r, g, b := 128.0, 100.0, 60.0
	for i := range out {
		// Smooth random walk: neighbours in Morton order are similar —
		// the spatial-locality property Fig. 3a demonstrates.
		r += rng.Float64()*6 - 3
		g += rng.Float64()*6 - 3
		b += rng.Float64()*6 - 3
		out[i] = geom.Color{R: clampU8i(int32(r)), G: clampU8i(int32(g)), B: clampU8i(int32(b))}
	}
	return out
}

func TestSegmentBounds(t *testing.T) {
	b := SegmentBoundsIn(nil, 10, 3)
	if len(b) != 4 || b[0] != 0 || b[3] != 10 {
		t.Fatalf("bounds = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("bounds not monotone: %v", b)
		}
	}
	// More segments than points: one point per block.
	b = SegmentBoundsIn(nil, 3, 100)
	if len(b) != 4 {
		t.Fatalf("bounds = %v", b)
	}
	// Degenerate inputs.
	if got := SegmentBoundsIn(nil, 0, 5); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty bounds = %v", got)
	}
	if got := SegmentBoundsIn(nil, 7, 0); got[len(got)-1] != 7 {
		t.Fatalf("zero-segment bounds = %v", got)
	}
}

func TestSegmentBoundsProperty(t *testing.T) {
	f := func(n, s uint16) bool {
		b := SegmentBoundsIn(nil, int(n), int(s)%1000+1)
		if b[0] != 0 || b[len(b)-1] != int(n) {
			return false
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianOf(t *testing.T) {
	cases := []struct {
		in   []int32
		want int32
	}{
		{[]int32{5}, 5},
		{[]int32{5, 1}, 1},
		{[]int32{3, 1, 2}, 2},
		{[]int32{10, 10, 10, 10}, 10},
		{[]int32{-5, 100, 0, 3}, 0},
	}
	for _, tc := range cases {
		if got := Median(tc.in, nil); got != tc.want {
			t.Errorf("Median(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestQuantize(t *testing.T) {
	cases := []struct{ v, q, want int32 }{
		{7, 1, 7}, {7, 4, 2}, {6, 4, 2}, {5, 4, 1}, {-7, 4, -2}, {-5, 4, -1}, {0, 4, 0},
	}
	for _, tc := range cases {
		if got := Quantize(tc.v, tc.q); got != tc.want {
			t.Errorf("Quantize(%d,%d) = %d, want %d", tc.v, tc.q, got, tc.want)
		}
	}
}

// bodyRecon runs the encode body over every segment of a frame as one window
// and returns its reconstruction.
func bodyRecon(colors []geom.Color, p Params) ([]geom.Color, error) {
	var s Scratch
	var c Columns
	grid := SegmentBoundsIn(nil, len(colors), p.Segments)
	c.Reset(grid, p, 1)
	recon := make([]geom.Color, len(colors))
	return recon, s.EncodeWindow(&c, 0, colors, 0, len(grid)-1, recon)
}

func grayColors(raw []uint8) []geom.Color {
	colors := make([]geom.Color, len(raw))
	for i, v := range raw {
		colors[i] = geom.Color{R: v, G: v / 2, B: 255 - v}
	}
	return colors
}

func TestLayerRoundTripLossless(t *testing.T) {
	f := func(raw []uint8, segs uint8, twoLayers bool) bool {
		colors := grayColors(raw)
		p := Params{Segments: int(segs) + 1, QStep: 1, Layers: 1}
		if twoLayers {
			p.Layers = 2
		}
		recon, err := bodyRecon(colors, p)
		return err == nil && slices.Equal(recon, colors)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLayerQuantizedErrorBound(t *testing.T) {
	f := func(raw []uint8, q8 uint8) bool {
		q := int(q8%15) + 1
		colors := grayColors(raw)
		recon, err := bodyRecon(colors, Params{Segments: 4, QStep: q, Layers: 2})
		if err != nil {
			return false
		}
		for i, c := range colors {
			r := recon[i]
			for _, d := range [3]int{int(r.R) - int(c.R), int(r.G) - int(c.G), int(r.B) - int(c.B)} {
				if d < 0 {
					d = -d
				}
				if d > q/2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitPackRoundTrip(t *testing.T) {
	f := func(vals []int32, w8 uint8) bool {
		w := widthFor(vals)
		packed := append([]byte{byte(w)}, make([]byte, (len(vals)*int(w)+7)/8)...)
		packInto(packed[1:], vals, w)
		c := NewCursor(packed)
		raw, width, ok := c.Packed(len(vals))
		if !ok || width != w || c.Len() != 0 {
			return false
		}
		got := make([]int32, len(vals))
		Unpack(got, raw, width, 0, 0, 1)
		// A window of the column unpacks from its bit offset.
		from := int(w8) % (len(vals) + 1)
		tail := make([]int32, len(vals)-from)
		Unpack(tail, raw, width, from, 0, 1)
		return slices.Equal(got, vals) && slices.Equal(tail, vals[from:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWidthFor(t *testing.T) {
	if w := widthFor(nil); w != 0 {
		t.Errorf("widthFor(nil) = %d", w)
	}
	if w := widthFor([]int32{0, 0}); w != 0 {
		t.Errorf("widthFor(zeros) = %d", w)
	}
	if w := widthFor([]int32{1}); w != 2 { // zig(1)=2 -> 2 bits
		t.Errorf("widthFor([1]) = %d", w)
	}
	if w := widthFor([]int32{-1}); w != 1 { // zig(-1)=1 -> 1 bit
		t.Errorf("widthFor([-1]) = %d", w)
	}
}

// Fig. 6 worked example: three points with near-identical attributes split
// into two segments compress to Base+Deltas and reconstruct exactly at q=1.
func TestFig6Example(t *testing.T) {
	d := dev()
	colors := []geom.Color{{R: 52}, {R: 50}, {R: 54}} // P1, P0, P2 in sorted order
	p := Params{Segments: 2, QStep: 1, Layers: 1}
	data, err := Encode(d, colors, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(d, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range colors {
		if got[i] != colors[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], colors[i])
		}
	}
}

func TestEncodeDecodeRoundTripLossless(t *testing.T) {
	colors := smoothColors(1, 5000)
	d := dev()
	for _, layers := range []int{1, 2} {
		p := Params{Segments: 200, QStep: 1, Layers: layers}
		data, err := Encode(d, colors, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(d, data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range colors {
			if got[i] != colors[i] {
				t.Fatalf("layers=%d point %d: %v != %v", layers, i, got[i], colors[i])
			}
		}
	}
}

func TestEncodeDecodeQuantizedErrorBound(t *testing.T) {
	colors := smoothColors(2, 3000)
	d := dev()
	p := Params{Segments: 100, QStep: 8, Layers: 2}
	data, err := Encode(d, colors, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(d, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range colors {
		dr, dg, db := got[i].Sub(colors[i])
		for _, dd := range []int{dr, dg, db} {
			if dd < 0 {
				dd = -dd
			}
			if dd > 4 { // q/2
				t.Fatalf("point %d error %d exceeds q/2", i, dd)
			}
		}
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	colors := smoothColors(3, 50000)
	d := dev()
	p := Params{Segments: 2000, QStep: 4, Layers: 2}
	data, err := Encode(d, colors, p)
	if err != nil {
		t.Fatal(err)
	}
	raw := 3 * len(colors)
	if len(data) >= raw/2 {
		t.Fatalf("compressed %d >= raw/2 %d", len(data), raw/2)
	}
}

func TestTwoLayerBeatsOneLayerOnSmoothData(t *testing.T) {
	colors := smoothColors(4, 50000)
	d := dev()
	one, _ := Encode(d, colors, Params{Segments: 2000, QStep: 4, Layers: 1})
	two, _ := Encode(d, colors, Params{Segments: 2000, QStep: 4, Layers: 2})
	// The second layer exploits residual similarity; on smooth data it
	// should not lose (paper uses the 2-layer form for exactly this).
	if len(two) > len(one)*11/10 {
		t.Fatalf("2-layer %d much larger than 1-layer %d", len(two), len(one))
	}
}

func TestEntropyOptionShrinksAndRoundTrips(t *testing.T) {
	colors := smoothColors(5, 20000)
	d := dev()
	plain, err := Encode(d, colors, Params{Segments: 700, QStep: 4, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ent, err := Encode(d, colors, Params{Segments: 700, QStep: 4, Layers: 2, Entropy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ent) >= len(plain) {
		t.Fatalf("entropy-coded %d >= plain %d", len(ent), len(plain))
	}
	got, err := Decode(d, ent)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Decode(d, plain)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entropy round trip mismatch at %d", i)
		}
	}
}

func TestEmptyFrame(t *testing.T) {
	d := dev()
	data, err := Encode(d, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(d, data)
	if err != nil || got != nil {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := dev()
	if _, err := Decode(d, nil); err == nil {
		t.Error("nil stream must fail")
	}
	if _, err := Decode(d, []byte{7}); err == nil {
		t.Error("bad flag must fail")
	}
	if _, err := Decode(d, []byte{0}); err == nil {
		t.Error("truncated header must fail")
	}
	if _, err := Decode(d, []byte{0, 10, 2, 1, 3}); err == nil {
		t.Error("bad layer count must fail")
	}
	// Truncated body.
	colors := smoothColors(6, 100)
	data, _ := Encode(d, colors, Params{Segments: 10, QStep: 1, Layers: 2})
	if _, err := Decode(d, data[:len(data)/2]); err == nil {
		t.Error("truncated body must fail")
	}
}

// hostileCount is the 15-byte stream that codes 2^27 points in one segment
// of width-0 residuals behind width-0 bases: no input per point, so only the
// geometry can say it is lying. Decoding it used to allocate 3.6 GB.
var hostileCount = append(append([]byte{0}, binary.AppendUvarint(nil, 1<<27)...),
	1, 1, // segments, qstep
	1, 0, // layers, RGB
	0, 0, 0, 0, 0, 0) // per channel: base width, residual width

// TestDecodeCountFromGeometry: the decoder sizes nothing from a stream's own
// point count. The destination the caller cut from its geometry is the
// count, and a stream that claims another is refused before a byte of it is
// unpacked.
func TestDecodeCountFromGeometry(t *testing.T) {
	d := dev()
	var s DecodeScratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeOne(&s, make([]geom.Color, 4), hostileCount)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadStream) {
		t.Errorf("%d-byte stream coding 2^27 points over a 4-point geometry: %v, want ErrBadStream", len(hostileCount), err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusal allocated %d bytes", n)
	}
	// The same bytes are a sound stream for a geometry of 2^27 points, and
	// an honest one must still decode: four points, the same way.
	honest := append([]byte{0, 4}, hostileCount[5:]...)
	got := []geom.Color{{R: 1}, {G: 2}, {B: 3}, {R: 4}}
	if err := decodeOne(&s, got, honest); err != nil || !slices.Equal(got, make([]geom.Color, 4)) {
		t.Errorf("4-point stream of zero residuals: %v, %v", got, err)
	}
	// An empty frame has an empty destination, and no other.
	empty, _ := Encode(d, nil, DefaultParams())
	if err := decodeOne(&s, nil, empty); err != nil {
		t.Errorf("empty stream into an empty destination: %v", err)
	}
	if err := decodeOne(&s, got, empty); !errors.Is(err, ErrBadStream) {
		t.Errorf("empty stream into 4 colours: %v, want ErrBadStream", err)
	}
}

// decodeOne decodes an untiled stream as one window into dst, whose length
// is the point count the caller's geometry gives the frame.
func decodeOne(s *DecodeScratch, dst []geom.Color, data []byte) error {
	st, err := s.OpenFrame(dev(), data, len(dst))
	if err == nil {
		err = s.DecodeWindow(dst, &st, 0, 1)
	}
	return err
}

func TestRoundTripProperty(t *testing.T) {
	d := dev()
	f := func(raw []uint8, segs uint8, layers bool) bool {
		colors := make([]geom.Color, len(raw))
		for i, v := range raw {
			colors[i] = geom.Color{R: v, G: v / 2, B: 255 - v}
		}
		p := Params{Segments: int(segs)%50 + 1, QStep: 1, Layers: 1}
		if layers {
			p.Layers = 2
		}
		data, err := Encode(d, colors, p)
		if err != nil {
			return false
		}
		got, err := Decode(d, data)
		if err != nil {
			return false
		}
		if len(got) != len(colors) {
			return false
		}
		for i := range colors {
			if got[i] != colors[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDeviceKernelsAreGPU(t *testing.T) {
	colors := smoothColors(7, 2000)
	d := dev()
	if _, err := Encode(d, colors, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, k := range d.Kernels() {
		names[k.Name] = true
		if k.Engine != edgesim.EngineGPU {
			t.Errorf("kernel %s on %v, want GPU", k.Name, k.Engine)
		}
	}
	for _, want := range []string{"MidResidual", "MidResidual_L2", "PackBits", "Quantize"} {
		if !names[want] {
			t.Errorf("missing kernel %s in ledger (have %v)", want, names)
		}
	}
}

func BenchmarkIntraAttrEncode100K(b *testing.B) {
	colors := smoothColors(8, 100000)
	d := dev()
	p := DefaultParams()
	p.Segments = 4000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(d, colors, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestYCoCgTransformRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		y, co, cg := rgbToYCoCg(int32(r), int32(g), int32(b))
		rr, gg, bb := yCoCgToRGB(y, co, cg)
		return rr == int32(r) && gg == int32(g) && bb == int32(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestYCoCgCodecRoundTripLossless(t *testing.T) {
	colors := smoothColors(21, 3000)
	d := dev()
	p := Params{Segments: 120, QStep: 1, Layers: 2, YCoCg: true}
	data, err := Encode(d, colors, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(d, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range colors {
		if got[i] != colors[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], colors[i])
		}
	}
}

func TestYCoCgImprovesCompressionOnNaturalColors(t *testing.T) {
	// Correlated RGB (grey-ish texture with brightness variation): YCoCg
	// concentrates the signal into Y, so chroma residuals collapse.
	rng := rand.New(rand.NewSource(22))
	colors := make([]geom.Color, 30000)
	v := 128.0
	for i := range colors {
		v += rng.Float64()*8 - 4
		if v < 20 {
			v = 20
		}
		if v > 235 {
			v = 235
		}
		colors[i] = geom.Color{
			R: uint8(v) + uint8(rng.Intn(3)),
			G: uint8(v),
			B: uint8(v) - uint8(rng.Intn(3)),
		}
	}
	d := dev()
	base := Params{Segments: 1200, QStep: 2, Layers: 2}
	rgb, err := Encode(d, colors, base)
	if err != nil {
		t.Fatal(err)
	}
	base.YCoCg = true
	ycocg, err := Encode(d, colors, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ycocg) >= len(rgb) {
		t.Fatalf("YCoCg %d >= RGB %d bytes on correlated colours", len(ycocg), len(rgb))
	}
}

// The encoder's recon by-product (used as the inter-frame reference without
// a decode round-trip) must be bit-exact with what Decode reconstructs from
// the payload, across every parameter combination that changes the math.
func TestEncodeWithReconMatchesDecode(t *testing.T) {
	cases := []Params{
		{Segments: 64, QStep: 4, Layers: 2},
		{Segments: 64, QStep: 4, Layers: 2, YCoCg: true},
		{Segments: 64, QStep: 1, Layers: 2, YCoCg: true},
		{Segments: 64, QStep: 6, Layers: 1},
		{Segments: 64, QStep: 6, Layers: 1, YCoCg: true},
		{Segments: 1, QStep: 4, Layers: 2},
		{Segments: 7, QStep: 3, Layers: 2, YCoCg: true},
		{Segments: 5000, QStep: 4, Layers: 2, YCoCg: true}, // more segments than points
		{Segments: 64, QStep: 4, Layers: 2, Entropy: true},
	}
	colors := smoothColors(7, 997)
	for _, p := range cases {
		d := dev()
		var s Scratch
		recon := make([]geom.Color, len(colors))
		payload, err := EncodeWith(d, colors, p, &s, recon)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		decoded, err := Decode(d, payload)
		if err != nil {
			t.Fatalf("%+v: decode: %v", p, err)
		}
		if len(decoded) != len(recon) {
			t.Fatalf("%+v: decoded %d colours, recon %d", p, len(decoded), len(recon))
		}
		for i := range decoded {
			if decoded[i] != recon[i] {
				t.Fatalf("%+v: colour %d: recon %v, decoder %v", p, i, recon[i], decoded[i])
			}
		}
	}
}

// ledgerRow is what the ledger pins compare of a kernel record.
type ledgerRow struct {
	name, stage string
	launches    int
	items       int64
	ops, bytes  float64
	sim         time.Duration
}

func ledgerOf(d *edgesim.Device) []ledgerRow {
	var rows []ledgerRow
	for _, k := range d.Kernels() {
		rows = append(rows, ledgerRow{k.Name, k.Stage, k.Launches, k.Items, k.Ops, k.Bytes, k.SimTime})
	}
	return rows
}

// TestEncodeLedgerPinned pins what the one-shot front end books on a fresh
// device — kernels, order, launches, items, ops, bytes and simulated time —
// as captured at the commit before the encoder became one body under two
// framings (the ledger TestDeviceKernelsAreGPU samples).
func TestEncodeLedgerPinned(t *testing.T) {
	colors := smoothColors(7, 2000)
	withEntropy := DefaultParams()
	withEntropy.Entropy = true
	for _, tc := range []struct {
		name string
		p    Params
		want []ledgerRow
	}{
		{"paper defaults", DefaultParams(), []ledgerRow{
			{"MidResidual", "", 3, 6000, 1.068e+06, 48000, 113484},
			{"Quantize", "", 3, 6000, 354000, 48000, 77727},
			{"MidResidual_L2", "", 3, 6000, 1.068e+06, 48000, 113484},
			{"PackBits", "", 3, 6000, 534000, 18000, 86742},
		}},
		{"entropy stage on", withEntropy, []ledgerRow{
			{"MidResidual", "", 3, 6000, 1.068e+06, 48000, 113484},
			{"Quantize", "", 3, 6000, 354000, 48000, 77727},
			{"MidResidual_L2", "", 3, 6000, 1.068e+06, 48000, 113484},
			{"PackBits", "", 3, 6000, 534000, 18000, 86742},
			{"AttrEntropy", "", 1, 12514, 1.8771e+06, 25028, 1877100},
		}},
		{"one layer, 64 segments", Params{Segments: 64, QStep: 2, Layers: 1}, []ledgerRow{
			{"MidResidual", "", 3, 192, 1.068e+06, 48000, 113484},
			{"Quantize", "", 3, 6000, 354000, 48000, 77727},
			{"PackBits", "", 3, 192, 534000, 18000, 86742},
		}},
	} {
		d := dev()
		if _, err := Encode(d, colors, tc.p); err != nil {
			t.Fatal(err)
		}
		if got := ledgerOf(d); !slices.Equal(got, tc.want) {
			t.Errorf("%s ledger:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}
