package metrics

// Pipeline instrumentation: lock-free depth/watermark/drop counters for the
// bounded stage queues of the concurrent streaming pipeline (pcc/stream).
// The encode/transmit stages update gauges on their hot path, so everything
// here is a handful of atomic operations — safe under -race and cheap
// enough to leave enabled in production sessions.

import "sync/atomic"

// QueueGauge tracks one bounded queue: its instantaneous depth, high-water
// mark, and enqueue/dequeue/drop totals. The zero value is NOT usable; use
// NewQueueGauge. All methods are safe for concurrent use.
type QueueGauge struct {
	name     string
	depth    atomic.Int64
	maxDepth atomic.Int64
	enqueued atomic.Int64
	dequeued atomic.Int64
	dropped  atomic.Int64
}

// NewQueueGauge creates a gauge for the named stage queue.
func NewQueueGauge(name string) *QueueGauge { return &QueueGauge{name: name} }

// Name returns the stage-queue name.
func (g *QueueGauge) Name() string { return g.name }

// Enqueue records one item entering the queue, updating the watermark
// from the running count.
func (g *QueueGauge) Enqueue() {
	g.enqueued.Add(1)
	g.raise(g.depth.Add(1))
}

// EnqueueAt records one item entering a queue whose depth the caller has
// just read (a channel's len after its send), updating the watermark from
// that reading. A channel's consumer can only call Dequeue after its
// receive has freed the slot, so between the two the running count reads
// one above what the channel holds; the reading never does.
func (g *QueueGauge) EnqueueAt(depth int) {
	g.enqueued.Add(1)
	g.depth.Add(1)
	g.raise(int64(depth))
}

// raise lifts the watermark to d.
func (g *QueueGauge) raise(d int64) {
	for {
		m := g.maxDepth.Load()
		if d <= m || g.maxDepth.CompareAndSwap(m, d) {
			return
		}
	}
}

// Dequeue records one item leaving the queue (transmitted or dropped).
func (g *QueueGauge) Dequeue() {
	g.depth.Add(-1)
	g.dequeued.Add(1)
}

// Drop records one queued item being abandoned by the backpressure policy.
// The item still leaves the queue through Dequeue when it is popped, so
// Enqueued == Dequeued holds at drain regardless of drops.
func (g *QueueGauge) Drop() { g.dropped.Add(1) }

// Depth returns the instantaneous queue depth.
func (g *QueueGauge) Depth() int64 { return g.depth.Load() }

// QueueSnapshot is a point-in-time copy of a gauge's counters.
type QueueSnapshot struct {
	Name     string
	Depth    int64
	MaxDepth int64
	Enqueued int64
	Dequeued int64
	Dropped  int64
}

// Snapshot captures the gauge's counters. Taken while producers are still
// running, the fields are individually — not mutually — consistent.
func (g *QueueGauge) Snapshot() QueueSnapshot {
	return QueueSnapshot{
		Name:     g.name,
		Depth:    g.depth.Load(),
		MaxDepth: g.maxDepth.Load(),
		Enqueued: g.enqueued.Load(),
		Dequeued: g.dequeued.Load(),
		Dropped:  g.dropped.Load(),
	}
}
