package attr

import (
	"slices"
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
	// The inverse paints every colour of a cell with the cell's median; one
	// colour per cell reads the medians themselves back.
	meds := make([]geom.Color, len(runs)-1)
	if err := DecodeBaseMedians(meds, wire, 3, 0, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	painted := make([]geom.Color, len(colors))
	if err := DecodeBaseMedians(painted, wire, 3, 0, runs); err != nil {
		t.Fatal(err)
	}
	for c := range meds {
		for i := runs[c]; i < runs[c+1]; i++ {
			if painted[i] != meds[c] {
				t.Errorf("colour %d of cell %d painted %v, median %v", i, c, painted[i], meds[c])
			}
		}
	}
	// A window of the last two cells paints what the whole stream painted
	// there, and a window past the last cell is refused.
	window := make([]geom.Color, 3)
	if err := DecodeBaseMedians(window, wire, 3, 1, []int{0, 1, 3}); err != nil || !slices.Equal(window, painted[3:]) {
		t.Fatalf("window of cells 1-2: %v, %v; whole stream painted %v", window, err, painted[3:])
	}
	if err := DecodeBaseMedians(window, wire, 3, 2, []int{0, 1, 3}); err == nil {
		t.Fatal("a window past the last cell was painted")
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
	if err := DecodeBaseMedians(nil, wire, 0, 0, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := DecodeBaseMedians(make([]geom.Color, 1), wire, 0, 0, []int{0, 1}); err == nil {
		t.Fatal("an empty stream painted a cell")
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
		if err := DecodeBaseMedians(make([]geom.Color, 2), b, 2, 0, []int{0, 1, 2}); err == nil {
			t.Errorf("%s: decode accepted a malformed stream", name)
		}
	}
}
