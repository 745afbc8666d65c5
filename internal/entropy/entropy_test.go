package entropy

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := make([]int, 10000)
	for i := range bits {
		// Skewed source: mostly zeros.
		if rng.Intn(10) == 0 {
			bits[i] = 1
		}
	}
	e := NewEncoder()
	p := NewProb()
	for _, b := range bits {
		e.EncodeBit(&p, b)
	}
	data := e.Bytes()
	if len(data) >= len(bits)/8 {
		t.Errorf("skewed bits did not compress: %d bytes for %d bits", len(data), len(bits))
	}
	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	q := NewProb()
	for i, want := range bits {
		if got := d.DecodeBit(&q); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestDirectBitsRoundTrip(t *testing.T) {
	e := NewEncoder()
	vals := []uint64{0, 1, 0xDEAD, 0xFFFFFFFF, 12345}
	widths := []int{1, 4, 16, 32, 20}
	for i, v := range vals {
		e.EncodeDirect(v, widths[i])
	}
	d, err := NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got := d.DecodeDirect(widths[i]); got != want {
			t.Fatalf("direct %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestByteModelRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		e := NewEncoder()
		m := NewByteModel()
		for _, b := range data {
			m.Encode(e, b)
		}
		d, err := NewDecoder(e.Bytes())
		if err != nil {
			return false
		}
		m2 := NewByteModel()
		for _, want := range data {
			if m2.Decode(d) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUintModelRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		e := NewEncoder()
		m := NewUintModel()
		for _, v := range vals {
			m.Encode(e, v)
		}
		d, err := NewDecoder(e.Bytes())
		if err != nil {
			return false
		}
		m2 := NewUintModel()
		for _, want := range vals {
			if m2.Decode(d) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUintModelBoundaries(t *testing.T) {
	vals := []uint64{0, 1, 2, 3, 255, 256, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	e := NewEncoder()
	m := NewUintModel()
	for _, v := range vals {
		m.Encode(e, v)
	}
	d, err := NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewUintModel()
	for _, want := range vals {
		if got := m2.Decode(d); got != want {
			t.Fatalf("boundary %d: got %d", want, got)
		}
	}
}

func TestZigZag(t *testing.T) {
	cases := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, -64: 127}
	for v, want := range cases {
		if got := ZigZag(v); got != want {
			t.Errorf("ZigZag(%d) = %d, want %d", v, got, want)
		}
	}
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntModelRoundTrip(t *testing.T) {
	vals := []int64{0, -1, 1, 127, -128, 1 << 40, -(1 << 40)}
	e := NewEncoder()
	m := NewIntModel()
	for _, v := range vals {
		m.Encode(e, v)
	}
	d, err := NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewIntModel()
	for _, want := range vals {
		if got := m2.Decode(d); got != want {
			t.Fatalf("int %d: got %d", want, got)
		}
	}
}

func TestCompressBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		out, err := DecompressBytes(CompressBytes(data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompressBytesShrinksRedundantData(t *testing.T) {
	data := bytes.Repeat([]byte{0, 0, 0, 1}, 4096)
	c := CompressBytes(data)
	if len(c) > len(data)/4 {
		t.Errorf("redundant data compressed to %d/%d bytes", len(c), len(data))
	}
}

func TestCompressBytesEmpty(t *testing.T) {
	out, err := DecompressBytes(CompressBytes(nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty round trip: %v, %v", out, err)
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	if _, err := NewDecoder(nil); err == nil {
		t.Error("nil stream must fail")
	}
	if _, err := NewDecoder([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("stream not starting with 0 must fail")
	}
	if _, err := NewDecoder([]byte{0, 1}); err == nil {
		t.Error("truncated stream must fail")
	}
}

func TestDecompressRejectsHugeLength(t *testing.T) {
	e := NewEncoder()
	m := NewUintModel()
	m.Encode(e, 1<<40) // absurd claimed length
	if _, err := DecompressBytes(e.Bytes()); err == nil {
		t.Error("absurd length must be rejected")
	}
}

// TestDecompressLengthBackedByInput: the declared payload length sizes the
// output buffer, so it must be refused — before the buffer exists — when
// the stream is too short to code that many bytes. The stream that declares
// 2^27 bytes and codes none used to cost 128 MB and two seconds.
func TestDecompressLengthBackedByInput(t *testing.T) {
	e := NewEncoder()
	NewUintModel().Encode(e, 1<<27)
	hostile := e.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecompressBytes(hostile)
	runtime.ReadMemStats(&after)
	if err != ErrCorrupt {
		t.Errorf("%d-byte stream declaring 2^27 bytes: %v, want ErrCorrupt", len(hostile), err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("refusal allocated %d bytes", n)
	}
	// The most compressible payloads there are stay inside the bound.
	for _, b := range []byte{0x00, 0xff, 0x55} {
		data := bytes.Repeat([]byte{b}, 1<<20)
		packed := CompressBytes(data)
		if len(data) > MaxExpansion*len(packed)*3/4 {
			t.Errorf("1 MiB of %#02x codes to %d bytes: too close to the %dx bound", b, len(packed), MaxExpansion)
		}
		got, err := DecompressBytes(packed)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("1 MiB of %#02x (%d bytes coded) does not round-trip: %v", b, len(packed), err)
		}
	}
}

func TestEncoderLen(t *testing.T) {
	e := NewEncoder()
	if e.Len() != 0 {
		t.Error("fresh encoder has nonzero Len")
	}
	m := NewByteModel()
	for i := 0; i < 1000; i++ {
		m.Encode(e, byte(i))
	}
	if e.Len() == 0 {
		t.Error("Len must grow as bytes are emitted")
	}
}

func BenchmarkCompressBytes64K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(rng.Intn(8)) // skewed
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressBytes(data)
	}
}
