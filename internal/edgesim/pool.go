package edgesim

import (
	"runtime"
	"sync"
)

// Persistent kernel worker pool.
//
// Every kernel launch used to spawn fresh goroutines (~20 launches/frame ×
// 30 fps × N sessions), so steady-state serving paid goroutine-create cost
// on every launch. The pool below is created once per process (the modelled
// board has one set of cores, shared by every Device the way N sessions
// share one SoC) and parks one worker per GOMAXPROCS core on a channel;
// a kernel launch is then a channel wake, not a goroutine spawn.
//
// Pool tasks are leaves: a body handed to the pool must not itself submit
// to the pool (the compound-kernel API, GPUCompute, keeps that invariant by
// running orchestration on the calling goroutine).
// As a defensive backstop, submission never blocks: when every worker is
// busy and the queue is full, the chunk runs inline on the caller, so the
// pool cannot deadlock even under pathological nesting.

// Pool is a fixed set of persistent worker goroutines executing contiguous
// index ranges.
type Pool struct {
	workers int
	tasks   chan poolTask
}

type poolTask struct {
	body   func(start, end int)
	lo, hi int
	done   *sync.WaitGroup
}

var (
	poolOnce   sync.Once
	sharedPool *Pool
)

// newSharedPool returns the process-wide kernel worker pool, creating it
// (with one worker per GOMAXPROCS core) on first use.
func newSharedPool() *Pool {
	poolOnce.Do(func() {
		w := runtime.GOMAXPROCS(0)
		if w < 1 {
			w = 1
		}
		p := &Pool{workers: w, tasks: make(chan poolTask, 4*w)}
		for i := 0; i < w; i++ {
			go p.worker()
		}
		sharedPool = p
	})
	return sharedPool
}

func (p *Pool) worker() {
	for t := range p.tasks {
		t.body(t.lo, t.hi)
		t.done.Done()
	}
}

// Workers returns the pool's worker count (the real-execution core budget).
func (p *Pool) Workers() int { return p.workers }

// DefaultPool returns the process-wide kernel worker pool, creating it on
// first use.
func DefaultPool() *Pool { return newSharedPool() }

// Ranges is the exported form of the pool's range decomposition, for
// algorithm packages (e.g. the radix sort) that orchestrate their own
// phases. body must be a leaf task (it must not submit to the pool). The
// decomposition is deterministic: workers is clamped to the pool size and
// to items, chunks are ceil(items/workers) long, and each body invocation
// receives one chunk [lo, hi) with lo a multiple of the chunk length.
func (p *Pool) Ranges(workers, items int, body func(start, end int)) {
	p.ranges(workers, items, body)
}

// ranges splits [0, items) into one contiguous chunk per worker and runs
// body over all chunks: up to workers-1 on pool workers, the rest (always at
// least one) inline on the caller. It returns once every chunk completes.
// The chunk decomposition is identical to the old spawn-per-launch code, so
// kernel bodies see the same ranges.
func (p *Pool) ranges(workers, items int, body func(start, end int)) {
	if items <= 0 {
		return
	}
	if workers > p.workers {
		workers = p.workers
	}
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		body(0, items)
		return
	}
	chunk := (items + workers - 1) / workers
	var wg sync.WaitGroup
	// Submit all chunks but the first; the caller runs chunk 0 itself so a
	// launch always makes progress even with every worker busy.
	for w := 1; w < workers; w++ {
		lo := w * chunk
		if lo >= items {
			break
		}
		hi := lo + chunk
		if hi > items {
			hi = items
		}
		wg.Add(1)
		select {
		case p.tasks <- poolTask{body: body, lo: lo, hi: hi, done: &wg}:
		default:
			// Queue full: run inline rather than block (no-deadlock backstop).
			body(lo, hi)
			wg.Done()
		}
	}
	body(0, min(chunk, items))
	wg.Wait()
}

// Pool exposes the device's kernel worker pool (shared process-wide).
func (d *Device) Pool() *Pool { return d.pool }

// Workers returns the number of real-execution workers kernels run over.
func (d *Device) Workers() int { return d.pool.Workers() }

// ParallelFor runs body over [0, items) on the worker pool without any
// accounting — the raw real-execution primitive for use inside compound
// kernels (GPUCompute) whose cost is accounted once at the kernel level.
func (d *Device) ParallelFor(items int, body func(start, end int)) {
	d.pool.ranges(d.pool.workers, items, body)
}
