package attr

import (
	"testing"

	"repro/internal/geom"
)

func TestBaseMediansRoundTrip(t *testing.T) {
	colors := []geom.Color{
		{R: 10, G: 20, B: 30},
		{R: 12, G: 18, B: 33},
		{R: 11, G: 19, B: 31},
		{R: 200, G: 0, B: 255},
		{R: 100, G: 50, B: 25},
		{R: 150, G: 60, B: 20},
	}
	runs := []int{0, 3, 4, 6}
	wire := new(Scratch).AppendBaseMedians(nil, colors, runs)
	meds, err := DecodeBaseMedians(wire)
	if err != nil {
		t.Fatal(err)
	}
	want := []geom.Color{
		// cell 0: lower medians of {10,12,11}, {20,18,19}, {30,33,31}
		{R: 11, G: 19, B: 31},
		// cell 1: singleton
		{R: 200, G: 0, B: 255},
		// cell 2: even count — lower median of {100,150}, {50,60}, {25,20}
		{R: 100, G: 50, B: 20},
	}
	if len(meds) != len(want) {
		t.Fatalf("got %d cells, want %d", len(meds), len(want))
	}
	for i := range want {
		if meds[i] != want[i] {
			t.Errorf("cell %d: got %v, want %v", i, meds[i], want[i])
		}
	}
}

func TestBaseMediansEmpty(t *testing.T) {
	wire := new(Scratch).AppendBaseMedians(nil, nil, []int{0})
	meds, err := DecodeBaseMedians(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(meds) != 0 {
		t.Fatalf("got %d cells from empty encode", len(meds))
	}
}

func TestBaseMediansBadStreams(t *testing.T) {
	good := new(Scratch).AppendBaseMedians(nil,
		[]geom.Color{{R: 1}, {R: 2}}, []int{0, 1, 2})
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
		"huge":      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for name, b := range cases {
		if _, err := DecodeBaseMedians(b); err == nil {
			t.Errorf("%s: decode accepted a malformed stream", name)
		}
	}
}
