package metrics

import (
	"sync"
	"testing"
)

func TestQueueGaugeSequential(t *testing.T) {
	g := NewQueueGauge("tx")
	g.Enqueue()
	g.Enqueue()
	g.Drop()
	g.Dequeue()
	s := g.Snapshot()
	if s.Name != "tx" {
		t.Fatalf("name = %q", s.Name)
	}
	if s.Depth != 1 || s.MaxDepth != 2 || s.Enqueued != 2 || s.Dequeued != 1 || s.Dropped != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// A channel-backed queue's consumer uncounts an item only after its receive
// has freed the slot, so a producer can count the next item in while the
// running count still holds the one just taken: the watermark follows the
// depth the producer read, never the lagging count.
func TestQueueGaugeEnqueueAtLaggingDequeue(t *testing.T) {
	g := NewQueueGauge("geometry")
	ch := make(chan int, 2)
	for i := 0; i < 2; i++ {
		ch <- i
		g.EnqueueAt(len(ch))
	}
	<-ch // received, not yet uncounted
	ch <- 2
	g.EnqueueAt(len(ch))
	g.Dequeue()
	s := g.Snapshot()
	if s.MaxDepth != 2 || s.Depth != 2 || s.Enqueued != 3 || s.Dequeued != 1 {
		t.Fatalf("snapshot = %+v, want watermark 2 (the channel's capacity)", s)
	}
}

// The gauge is updated from every pipeline stage concurrently; totals must
// balance and the watermark must never exceed the true peak. Run with -race.
func TestQueueGaugeConcurrent(t *testing.T) {
	g := NewQueueGauge("q")
	const producers, perProducer = 8, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				g.Enqueue()
				g.Dequeue()
			}
		}()
	}
	wg.Wait()
	s := g.Snapshot()
	if s.Depth != 0 {
		t.Fatalf("depth = %d after balanced ops", s.Depth)
	}
	if s.Enqueued != producers*perProducer || s.Dequeued != producers*perProducer {
		t.Fatalf("enqueued/dequeued = %d/%d", s.Enqueued, s.Dequeued)
	}
	if s.MaxDepth < 1 || s.MaxDepth > producers {
		t.Fatalf("maxDepth = %d, want within [1,%d]", s.MaxDepth, producers)
	}
}
