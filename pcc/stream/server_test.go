package stream

// Attach/detach churn racing a live stream, under -race. Encode-once,
// late join, control coalescing, slow-viewer shedding and transport
// isolation are rows of the scenario table.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
)

// Attaching and detaching viewers mid-GOP while the stream runs must be
// race-free: joins see either the cached keyframe or a skipped-P prefix,
// detaches free the retransmit buffer, and nothing panics or deadlocks.
// Run under -race.
func TestServerViewerChurn(t *testing.T) {
	frames := testFrames(t, 9)
	opts := testOptions(codec.IntraInterV1)

	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 4})
	stable, err := srv.Attach(ViewerConfig{}) // nil PacketOut: account only
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := srv.Attach(ViewerConfig{})
				if err != nil {
					return // server closed while we were attaching
				}
				time.Sleep(100 * time.Microsecond)
				v.Close()
				if vm := v.Metrics(); vm.RetxBuffered != 0 {
					t.Errorf("detached viewer retains %d packets", vm.RetxBuffered)
					return
				}
			}
		}()
	}

	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if m.FramesEncoded != int64(len(frames)) {
		t.Fatalf("FramesEncoded = %d, want %d — churn must not re-encode", m.FramesEncoded, len(frames))
	}
	if sm := stable.Metrics(); sm.FramesSent == 0 {
		t.Fatal("stable viewer sent nothing")
	}
	if _, err := srv.Attach(ViewerConfig{}); err == nil {
		t.Fatal("Attach after Close succeeded")
	}
}
