package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/linksim"
)

// congested is a link narrow enough that realistic frames take hundreds of
// simulated milliseconds each.
var congested = linksim.Link{Name: "congested", BandwidthMbps: 1, RTTMs: 40,
	TxNanojoulePerByte: 1000, RxNanojoulePerByte: 500}

// testFrames is the first n frames of loot at scale 0.02.
func testFrames(t testing.TB, n int) []*geom.VoxelCloud { return videoFrames(t, "loot", n, 0.02) }

// testOptions shrinks the paper's segment counts to the test scale.
func testOptions(d codec.Design) codec.Options {
	o := codec.OptionsFor(d)
	o.IntraAttr.Segments = 64
	o.Inter.Segments = 96
	o.Inter.Candidates = 16
	return o
}

// newPCVSession starts a Session that also writes its .pcv stream to w
// through FrameOut, after cfg's own FrameOut (if any) takes each frame:
// the stream header before the first frame, then each frame's wire bytes.
// The header carries the options as of New, before any rate knob moves.
func newPCVSession(ctx context.Context, cfg Config, w io.Writer) *Session {
	var hdr codec.Options
	wroteHdr := false
	next := cfg.FrameOut
	cfg.FrameOut = func(ctx context.Context, seq int, ftype codec.FrameType, wire []byte) error {
		if next != nil {
			if err := next(ctx, seq, ftype, wire); err != nil {
				return err
			}
		}
		if !wroteHdr {
			if err := core.WriteStreamHeader(w, hdr); err != nil {
				return err
			}
			wroteHdr = true
		}
		_, err := w.Write(wire)
		return err
	}
	s := New(ctx, cfg)
	hdr = s.Options()
	return s
}

// checkOrdered asserts results cover seqs 0..n-1 in strictly increasing
// order.
func checkOrdered(t *testing.T, results []Result, n int) {
	t.Helper()
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("result %d has seq %d: delivery out of order", i, r.Seq)
		}
	}
}

// The pipelined encoder must produce the exact byte stream of the
// sequential core.VideoWriter: same frames, same order, same bits — the
// strongest in-order-delivery check available.
func TestPipelineMatchesSequentialStream(t *testing.T) {
	frames := testFrames(t, 6)
	opts := testOptions(codec.IntraInterV1)

	var seq bytes.Buffer
	vw := core.NewVideoWriter(&seq, edgesim.NewXavier(edgesim.Mode15W), opts)
	for _, f := range frames {
		if _, err := vw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Close(); err != nil {
		t.Fatal(err)
	}

	var piped bytes.Buffer
	s := newPCVSession(context.Background(), Config{Options: opts}, &piped)
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkOrdered(t, col.Wait(), len(frames))
	if !bytes.Equal(seq.Bytes(), piped.Bytes()) {
		t.Fatalf("pipelined stream (%d B) differs from sequential stream (%d B)",
			piped.Len(), seq.Len())
	}
	m := s.Metrics()
	if m.Submitted != int64(len(frames)) || m.Delivered != int64(len(frames)) || m.Dropped != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.GeometrySim <= 0 || m.AttrSim <= 0 {
		t.Fatalf("per-stage device ledgers empty: geom=%v attr=%v", m.GeometrySim, m.AttrSim)
	}
}

// TestSubmitRacingClose: a producer looping Submit while Close runs never
// panics on the closed ingest queue. The Submit that loses the race fails —
// context.Canceled from a Session, ErrServerClosed from a Server — and
// every frame whose Submit returned nil is delivered. Run under -race in
// CI.
func TestSubmitRacingClose(t *testing.T) {
	frame := videoFrames(t, "loot", 1, 0.005)[0]
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		lost error
		// start returns the owner's Submit and Close, and after Close the
		// count of frames it delivered.
		start func() (submit func() error, close func() error, delivered func() int)
	}{
		{"Session", context.Canceled, func() (func() error, func() error, func() int) {
			s := New(ctx, Config{Options: testOptions(codec.IntraOnly)})
			col := NewCollector(s)
			return func() error { return s.Submit(ctx, frame) }, s.Close,
				func() int { return len(col.Wait()) }
		}},
		{"Server", ErrServerClosed, func() (func() error, func() error, func() int) {
			sv := NewServer(ctx, ServerConfig{Options: testOptions(codec.IntraOnly), Shards: 2})
			return func() error { return sv.Submit(ctx, frame) }, sv.Close,
				func() int { return int(sv.Metrics().FramesEncoded) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			submit, closeFn, delivered := tc.start()
			accepted := 0
			lost := make(chan error, 1)
			go func() {
				for {
					if err := submit(); err != nil {
						lost <- err
						return
					}
					accepted++
				}
			}()
			time.Sleep(5 * time.Millisecond) // the ingest queue fills, Submit blocks
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}
			if err := <-lost; !errors.Is(err, tc.lost) {
				t.Fatalf("losing Submit: %v, want %v", err, tc.lost)
			}
			if got := delivered(); got != accepted {
				t.Fatalf("%d frames delivered, %d Submits returned nil", got, accepted)
			}
		})
	}
}

// A transmit stage held at a gate until every frame has been submitted — a
// deterministic stand-in for a link so congested nothing drains during
// capture — stalls the producer and loses nothing: every frame is
// delivered, in order, and the stage queues never exceed their capacity.
func TestBlockPolicyIsLossless(t *testing.T) {
	frames := testFrames(t, 8)
	gate := make(chan struct{})
	s := New(context.Background(), Config{
		Options: testOptions(codec.IntraInterV1),
		FrameOut: func(ctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkOrdered(t, col.Wait(), len(frames))
	m := s.Metrics()
	if m.Delivered != int64(len(frames)) || m.Dropped != 0 {
		t.Fatalf("delivered %d of %d, dropped %d", m.Delivered, len(frames), m.Dropped)
	}
	for _, q := range m.Queues {
		if q.MaxDepth > stageQueue {
			t.Fatalf("queue %s watermark %d exceeds capacity %d", q.Name, q.MaxDepth, stageQueue)
		}
	}
}

// Cancelling mid-GOP must tear the whole pipeline down promptly: Submit
// refuses further frames, Results closes, Close reports the cancellation.
func TestGracefulCancelMidGOP(t *testing.T) {
	frames := testFrames(t, 6)
	s := New(context.Background(), Config{
		Options: testOptions(codec.IntraInterV1),
		// The link is stuck: only cancellation releases the transmitter.
		FrameOut: func(ctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	col := NewCollector(s)
	// Fill the pipeline partway into the second GOP (frames 0..4).
	for _, f := range frames[:5] {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	s.Cancel()
	if err := s.Submit(context.Background(), frames[5]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after Cancel = %v, want context.Canceled", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Close = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after Cancel: pipeline failed to drain")
	}
	col.Wait()
}

// A parent-context cancellation aborts the session the same way Cancel does.
func TestParentContextCancellation(t *testing.T) {
	frames := testFrames(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	s := New(ctx, Config{
		Options: testOptions(codec.IntraOnly),
		FrameOut: func(sctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
			<-sctx.Done()
			return sctx.Err()
		},
	})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	col.Wait()
}

// A transport failure surfaces as the session error.
func TestTransportErrorAborts(t *testing.T) {
	frames := testFrames(t, 2)
	boom := errors.New("link down")
	s := New(context.Background(), Config{
		Options:  testOptions(codec.IntraOnly),
		FrameOut: func(context.Context, int, codec.FrameType, []byte) error { return boom },
	})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			break // pipeline may already have aborted
		}
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want transport error", err)
	}
	col.Wait()
}

// ≥2 concurrent sessions, ≥8 frames each in an IPP GOP, full pipeline,
// transmit stages held at a gate until every frame is in: per-session
// in-order delivery, GOP structure and bounded queue depth. Run with -race:
// the sessions share nothing but the Go runtime.
func TestMultiSessionCongestedRace(t *testing.T) {
	const nSessions, nFrames = 2, 9
	frames := testFrames(t, nFrames)

	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for sid := 0; sid < nSessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			gate := make(chan struct{})
			s := New(context.Background(), Config{
				Options: testOptions(codec.IntraInterV1),
				FrameOut: func(ctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
					select {
					case <-gate:
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				},
			})
			col := NewCollector(s)
			for _, f := range frames {
				if err := s.Submit(context.Background(), f); err != nil {
					errs <- fmt.Errorf("session %d submit: %w", sid, err)
					return
				}
			}
			close(gate)
			if err := s.Close(); err != nil {
				errs <- fmt.Errorf("session %d close: %w", sid, err)
				return
			}
			results := col.Wait()
			if len(results) != nFrames {
				errs <- fmt.Errorf("session %d: %d results", sid, len(results))
				return
			}
			for i, r := range results {
				if r.Seq != i {
					errs <- fmt.Errorf("session %d: result %d has seq %d", sid, i, r.Seq)
					return
				}
				if want := (i%3 == 0); want != (r.Stats.Type == codec.IFrame) {
					errs <- fmt.Errorf("session %d: frame %d is a %v, breaking the IPP GOP", sid, i, r.Stats.Type)
					return
				}
			}
			m := s.Metrics()
			for _, q := range m.Queues {
				if q.MaxDepth > stageQueue {
					errs <- fmt.Errorf("session %d: queue %s watermark %d exceeds capacity", sid, q.Name, q.MaxDepth)
					return
				}
			}
			if m.Delivered != nFrames {
				errs <- fmt.Errorf("session %d: delivered %d of %d", sid, m.Delivered, nFrames)
			}
		}(sid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
