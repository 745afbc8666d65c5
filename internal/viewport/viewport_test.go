package viewport

import "testing"

func TestSeesEdgeCases(t *testing.T) {
	c := Camera{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{0, 0, 0}, FOVDegrees: 10}
	if !c.sees(1, 2, 3) {
		t.Fatal("zero view direction must degrade to seeing everything")
	}
	if !c.sees(0, 0, 0) {
		t.Fatal("the eye point itself is visible")
	}
}

func TestSeesConventions(t *testing.T) {
	cases := []struct {
		name    string
		cam     Camera
		x, y, z float64
		want    bool
	}{
		{"zero dir omnidirectional", Camera{FOVDegrees: 10}, 5, -3, 2, true},
		{"zero dir bounded by maxdist", Camera{FOVDegrees: 10, MaxDist: 1}, 5, -3, 2, false},
		{"zero dir maxdist inclusive", Camera{FOVDegrees: 10, MaxDist: 5}, 5, 0, 0, true},
		{"eye point always visible", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 0}, 0, 0, 0, true},
		{"fov 0 closed shutter", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 0}, 0, 0, 10, false},
		{"fov 360 full sphere", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 360}, 0, 0, -10, true},
		{"behind the eye", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 90}, 0, 0, -10, false},
		{"on axis", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 60}, 0, 0, 10, true},
		{"unnormalised dir", Camera{Dir: [3]float64{0, 0, 5}, FOVDegrees: 60}, 0, 0, 10, true},
		{"fov 360 bounded by maxdist", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 360, MaxDist: 1}, 0, 0, -10, false},
		{"directed camera beyond maxdist", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 60, MaxDist: 5}, 0, 0, 10, false},
		{"off axis outside a narrow cone", Camera{Dir: [3]float64{0, 0, 1}, FOVDegrees: 10}, 10, 0, 100, false},
		{"off-origin eye aimed at the point", Camera{Pos: [3]float64{25, 5, -400}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 30}, 25, 5, 100, true},
		{"off-origin eye, point far off axis", Camera{Pos: [3]float64{25, 5, -400}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 30}, 925, 5, 100, false},
		{"eye looking away", Camera{Pos: [3]float64{512, 5000, 512}, Dir: [3]float64{0, 1, 0}, FOVDegrees: 60}, 512, 512, 512, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cam.sees(tc.x, tc.y, tc.z); got != tc.want {
				t.Fatalf("sees(%v,%v,%v) = %v, want %v", tc.x, tc.y, tc.z, got, tc.want)
			}
		})
	}
}

func TestSeesAABB(t *testing.T) {
	box := func(x0, y0, z0, x1, y1, z1 float64) [2][3]float64 {
		return [2][3]float64{{x0, y0, z0}, {x1, y1, z1}}
	}
	look := func(cam Camera) Camera { return cam } // readability no-op
	cases := []struct {
		name string
		cam  Camera
		box  [2][3]float64
		want bool
	}{
		{
			"camera inside the tile sees it",
			look(Camera{Pos: [3]float64{5, 5, 5}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 1}),
			box(0, 0, 0, 10, 10, 10), true,
		},
		{
			"camera inside, even with a closed shutter",
			look(Camera{Pos: [3]float64{5, 5, 5}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 0}),
			box(0, 0, 0, 10, 10, 10), true,
		},
		{
			"tile fully behind the eye",
			look(Camera{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 90}),
			box(-10, -10, -100, 10, 10, -50), false,
		},
		{
			"tile ahead on the axis",
			look(Camera{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 60}),
			box(-10, -10, 50, 10, 10, 100), true,
		},
		{
			"maxdist boundary exactly on the nearest corner is inclusive",
			// Nearest corner of the box is (3, 4, 0): distance exactly 5.
			look(Camera{Pos: [3]float64{0, 0, 0}, FOVDegrees: 360, MaxDist: 5}),
			box(3, 4, 0, 10, 10, 10), true,
		},
		{
			"just beyond maxdist is culled",
			look(Camera{Pos: [3]float64{0, 0, 0}, FOVDegrees: 360, MaxDist: 4.999}),
			box(3, 4, 0, 10, 10, 10), false,
		},
		{
			"degenerate FOV 0 sees no outside box",
			look(Camera{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 0}),
			box(-1, -1, 50, 1, 1, 60), false,
		},
		{
			"degenerate FOV 360 sees everything in range",
			look(Camera{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 360}),
			box(-60, -60, -60, -50, -50, -50), true,
		},
		{
			"zero dir sees everything in range",
			look(Camera{Pos: [3]float64{0, 0, 0}, FOVDegrees: 10}),
			box(-60, -60, -60, -50, -50, -50), true,
		},
		{
			"off-axis box outside a narrow cone",
			look(Camera{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 20}),
			box(90, 90, 0, 100, 100, 10), false,
		},
		{
			"wide FOV >= 180 keeps a side box (conservative)",
			look(Camera{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 200}),
			box(50, 0, -5, 60, 10, 5), true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cam.SeesAABB(tc.box[0], tc.box[1]); got != tc.want {
				t.Fatalf("SeesAABB(%v, %v) = %v, want %v", tc.box[0], tc.box[1], got, tc.want)
			}
		})
	}
}

// TestSeesAABBConservative cross-checks the box test against brute-force
// point sampling: a box containing any visible sample must be reported
// visible (the no-false-negative guarantee the tile culler relies on).
func TestSeesAABBConservative(t *testing.T) {
	cams := []Camera{
		{Pos: [3]float64{50, 50, -80}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 60},
		{Pos: [3]float64{0, 0, 0}, Dir: [3]float64{1, 1, 1}, FOVDegrees: 35, MaxDist: 120},
		{Pos: [3]float64{100, 0, 0}, Dir: [3]float64{-1, 0, 0.2}, FOVDegrees: 100},
		{Pos: [3]float64{20, 20, 20}, FOVDegrees: 15, MaxDist: 60}, // zero dir
	}
	for ci, cam := range cams {
		for bx := 0; bx < 4; bx++ {
			for by := 0; by < 4; by++ {
				for bz := 0; bz < 4; bz++ {
					min := [3]float64{float64(bx * 40), float64(by * 40), float64(bz * 40)}
					max := [3]float64{min[0] + 40, min[1] + 40, min[2] + 40}
					anyVisible := false
					const steps = 5
					for ix := 0; ix <= steps && !anyVisible; ix++ {
						for iy := 0; iy <= steps && !anyVisible; iy++ {
							for iz := 0; iz <= steps && !anyVisible; iz++ {
								x := min[0] + (max[0]-min[0])*float64(ix)/steps
								y := min[1] + (max[1]-min[1])*float64(iy)/steps
								z := min[2] + (max[2]-min[2])*float64(iz)/steps
								if cam.sees(x, y, z) {
									anyVisible = true
								}
							}
						}
					}
					if anyVisible && !cam.SeesAABB(min, max) {
						t.Fatalf("cam %d: box %v-%v has visible points but SeesAABB is false", ci, min, max)
					}
				}
			}
		}
	}
}
