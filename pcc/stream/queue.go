package stream

import (
	"errors"
	"sync"

	"repro/internal/codec"
	"repro/internal/metrics"
)

// errCanceled is returned by queue operations after the session aborts.
var errCanceled = errors.New("stream: session canceled")

// frameQueue is the bounded transmit queue where the backpressure policy
// acts. Unlike the channel-backed stage queues, a full push can resolve by
// dropping: under DropOldestP the oldest still-pending P-frame is marked
// dropped (its payload is released and the transmitter skips the link for
// it), which bounds queueing latency without ever reordering frames or
// sacrificing an I-frame. I-frames are never dropped; a queue full of
// I-frames blocks the producer instead.
type frameQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []*job
	capacity int
	policy   Policy
	gauge    *metrics.QueueGauge
	closed   bool
	canceled bool
}

func newFrameQueue(capacity int, policy Policy, gauge *metrics.QueueGauge) *frameQueue {
	q := &frameQueue{capacity: capacity, policy: policy, gauge: gauge}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends j, waiting while the queue is full. Under DropOldestP a full
// queue first sacrifices (at most) one pending P-frame per push attempt.
// Returns errCanceled if the session aborted while waiting.
func (q *frameQueue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	marked := false
	for {
		if q.canceled {
			return errCanceled
		}
		if len(q.items) < q.capacity {
			q.items = append(q.items, j)
			q.gauge.Enqueue()
			q.cond.Broadcast()
			return nil
		}
		if q.policy == DropOldestP && !marked {
			marked = q.dropOldestPLocked()
		}
		q.cond.Wait()
	}
}

// dropOldestPLocked marks the oldest undropped P-frame as dropped and
// releases its payload. Returns false when the queue holds only I-frames
// (which are never dropped) or already-dropped items.
func (q *frameQueue) dropOldestPLocked() bool {
	for _, j := range q.items {
		if !j.dropped && j.stats.Type == codec.PFrame {
			j.dropped = true
			j.wire = nil
			q.gauge.Drop()
			// Wake the transmitter: a dropped frame pops without link time,
			// so the slot this push is waiting for frees up quickly.
			q.cond.Broadcast()
			return true
		}
	}
	return false
}

// pop removes the head item in FIFO order, waiting while empty. The second
// return is false once the queue is drained after close (or canceled).
func (q *frameQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.canceled {
			return nil, false
		}
		if len(q.items) > 0 {
			j := q.items[0]
			copy(q.items, q.items[1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			q.gauge.Dequeue()
			q.cond.Broadcast()
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// closeQ marks the producer side finished; pops drain the remainder.
func (q *frameQueue) closeQ() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// cancelQ aborts all waiters immediately, discarding queued items.
func (q *frameQueue) cancelQ() {
	q.mu.Lock()
	q.canceled = true
	q.items = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}
