package linksim

import (
	"testing"
	"time"
)

func TestRawFrameDoesNotFitRealTime(t *testing.T) {
	// The paper's Sec. II-A motivation: a 10^6-point raw frame is 120 Mbit
	// and cannot stream at 30-60 fps over typical links.
	const rawFrame = 15_000_000 // bytes
	for _, l := range []Link{LTE, NR5G} {
		if fps := l.SustainableFPS(rawFrame); fps >= 30 {
			t.Fatalf("%s sustains %.1f fps on raw frames; motivation broken", l.Name, fps)
		}
	}
}

func TestCompressedFrameFits(t *testing.T) {
	// A ~1 MB compressed frame streams at 10+ fps over Wi-Fi/5G.
	const compressed = 1_200_000
	for _, l := range []Link{WiFi, NR5G} {
		if fps := l.SustainableFPS(compressed); fps < 10 {
			t.Fatalf("%s sustains only %.1f fps on compressed frames", l.Name, fps)
		}
	}
}

func TestTransmitCost(t *testing.T) {
	c, err := WiFi.Transmit(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// 8 Mbit over 400 Mbps = 20 ms + 2 ms RTT.
	want := 22 * time.Millisecond
	if c.Latency < want-time.Millisecond || c.Latency > want+time.Millisecond {
		t.Fatalf("latency = %v, want ~%v", c.Latency, want)
	}
	if c.TxEnergy <= 0 || c.RxEnergy <= 0 || c.TxEnergy < c.RxEnergy {
		t.Fatalf("energy: tx %v rx %v", c.TxEnergy, c.RxEnergy)
	}
	// 1 MB at 60 nJ/B = 0.06 J.
	if c.TxEnergy < 0.059 || c.TxEnergy > 0.061 {
		t.Fatalf("tx energy = %v J, want 0.06", c.TxEnergy)
	}
}

func TestBadLink(t *testing.T) {
	if _, err := (Link{}).Transmit(100); err != ErrBadLink {
		t.Fatalf("err = %v", err)
	}
	if (Link{}).SustainableFPS(100) != 0 {
		t.Fatal("zero-bandwidth fps must be 0")
	}
	if WiFi.SustainableFPS(0) != 0 {
		t.Fatal("zero-size fps must be 0")
	}
}

func TestTransmitNegativeBytes(t *testing.T) {
	// Regression: negative sizes used to yield a negative latency/energy
	// Cost instead of an error.
	if _, err := WiFi.Transmit(-1); err != ErrBadSize {
		t.Fatalf("Transmit(-1) err = %v, want ErrBadSize", err)
	}
	if c, err := WiFi.Transmit(0); err != nil || c.TxEnergy != 0 {
		t.Fatalf("Transmit(0) = %+v, %v", c, err)
	}
}

func TestPresetsOrdering(t *testing.T) {
	if len(Presets()) != 3 {
		t.Fatal("three presets")
	}
	// Radio energy per byte: WiFi < 5G < LTE.
	if !(WiFi.TxNanojoulePerByte < NR5G.TxNanojoulePerByte && NR5G.TxNanojoulePerByte < LTE.TxNanojoulePerByte) {
		t.Fatal("energy ordering broken")
	}
	// Latency floor: WiFi < 5G < LTE.
	if !(WiFi.RTTMs < NR5G.RTTMs && NR5G.RTTMs < LTE.RTTMs) {
		t.Fatal("RTT ordering broken")
	}
}
