package pcc

import "testing"

func TestCaptureRenderExtras(t *testing.T) {
	v := testVideo(t)
	truth, err := v.Frame(0)
	if err != nil {
		t.Fatal(err)
	}

	// Capture.
	rig := FrontalCaptureRig(2, 1024)
	raw, err := rig.Capture(truth)
	if err != nil {
		t.Fatal(err)
	}
	captured, err := Voxelize(raw, 10)
	if err != nil {
		t.Fatal(err)
	}
	if captured.Len() == 0 {
		t.Fatal("capture produced nothing")
	}

	// Render.
	o := DefaultRenderOptions()
	o.Width, o.Height = 64, 64
	img, err := RenderFrame(captured, o)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 64 {
		t.Fatal("render size")
	}

	// Link.
	c, err := Link5G.Transmit(1_000_000)
	if err != nil || c.Latency <= 0 {
		t.Fatalf("link: %v %v", c, err)
	}
}
