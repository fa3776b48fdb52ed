// Package par provides the small worker-pool primitive of the supernodal
// sparse-Cholesky factorization.
//
// The design constraint is determinism: callers partition work into blocks
// whose results are independent of which worker runs them (disjoint writes,
// or per-block partial results reduced in block order afterwards), so the
// numerical output is bit-identical for any worker count. The pool therefore
// only provides dynamic block dispatch — never a reduction of its own.
//
// A nil *Pool (or worker count 1) runs every block inline on the calling
// goroutine with no synchronization and no allocation, so serial callers pay
// nothing for the shared code path.
//
// Workers are persistent: the first parallel dispatch spawns workers−1
// helper goroutines that park on a channel between dispatches, so steady-state
// dispatch allocates nothing (the per-call goroutine spawn of the previous
// design cost ~1.5k allocs/op in the multi-worker FEA benchmarks). The caller
// always participates as slot 0. Dispatches are serialized by an internal
// mutex, so a pool may be shared between goroutines — concurrent Run calls
// queue rather than race. Run/RunW must not be called from inside a running
// block function of the same pool (self-deadlock).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// Pool is a fixed-width worker pool. The zero value and nil are both valid
// and mean "serial".
type Pool struct {
	workers int

	// mu serializes parallel dispatches and guards lazy worker start-up and
	// Close. The serial fast path never touches it.
	mu      sync.Mutex
	started bool
	closed  bool
	wake    chan struct{} // one token per helper participating in a dispatch
	done    chan struct{} // completion signal from the last finishing worker
	quit    chan struct{} // closed by Close; terminates parked workers

	// Dispatch state, written under mu before tokens are sent. Exactly one
	// of fn/fnw is non-nil per dispatch.
	nblocks int
	fn      func(b int)
	fnw     func(b, slot int)
	next    atomic.Int64
	pending atomic.Int64
}

// New returns a pool of the given width. workers <= 0 selects
// runtime.GOMAXPROCS(0). Helper goroutines are spawned lazily on the first
// parallel dispatch and parked between dispatches; Close releases them.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// sharedPools caches one never-closed pool per width for callers whose pool
// lifetime is "the whole process" (the spice solver pool). Reusing one pool per width keeps repeated solves from respawning
// workers on every call.
var (
	sharedMu    sync.Mutex
	sharedPools map[int]*Pool
)

// Shared returns the process-wide pool of the given width (<= 0 selects
// GOMAXPROCS), creating it on first use. Shared pools are never closed; their
// parked workers persist for the life of the process. Dispatches from
// concurrent goroutines onto the same shared pool serialize.
func Shared(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedPools == nil {
		sharedPools = make(map[int]*Pool)
	}
	p := sharedPools[workers]
	if p == nil {
		p = New(workers)
		sharedPools[workers] = p
	}
	return p
}

// Workers returns the pool width; nil and zero-value pools report 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Close releases the pool's parked worker goroutines. It is idempotent and
// nil-safe. A closed pool remains usable — subsequent Run/RunW calls execute
// serially on the caller.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.started {
		close(p.quit)
	}
}

// Run invokes fn(b) for every block index b in [0, nblocks), dispatching
// blocks dynamically across the pool's workers. fn must write only to
// block-b-owned state; under that contract the result is identical for any
// worker count. Run returns when every block has finished.
func (p *Pool) Run(nblocks int, fn func(b int)) {
	if nblocks <= 0 {
		return
	}
	w := p.Workers()
	if w > nblocks {
		w = nblocks
	}
	if w <= 1 {
		// The serial path is deliberately uninstrumented: it sits inside
		// the hot loops of serial callers, where even a single atomic load
		// per call would be measurable.
		for b := 0; b < nblocks; b++ {
			fn(b)
		}
		return
	}
	p.dispatch(nblocks, w, fn, nil)
}

// RunW is Run with a worker-slot argument: fn(b, slot) receives the identity
// of the worker running block b, a stable integer in [0, Workers()) with the
// caller as slot 0. Callers use it to index per-worker scratch (sized
// Workers()) without synchronization. Block results must not depend on slot —
// scratch must be fully overwritten or cleared per block — so the output
// remains bit-identical for any worker count.
func (p *Pool) RunW(nblocks int, fn func(b, slot int)) {
	if nblocks <= 0 {
		return
	}
	w := p.Workers()
	if w > nblocks {
		w = nblocks
	}
	if w <= 1 {
		for b := 0; b < nblocks; b++ {
			fn(b, 0)
		}
		return
	}
	p.dispatch(nblocks, w, nil, fn)
}

// dispatch runs one parallel invocation with w >= 2 participants.
func (p *Pool) dispatch(nblocks, w int, fn func(int), fnw func(int, int)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		// Closed pools degrade to serial rather than panic: per-solve pools
		// may race a deferred Close against a final flush elsewhere.
		p.runSerial(nblocks, fn, fnw)
		return
	}
	if !p.started {
		p.started = true
		p.wake = make(chan struct{}, p.workers-1)
		p.done = make(chan struct{}, 1)
		p.quit = make(chan struct{})
		for id := 1; id < p.workers; id++ {
			go p.workerLoop(id)
		}
	}
	// Utilization telemetry (parallel dispatches only): busy time is the
	// summed in-worker time, wall time is the dispatch duration weighted by
	// the worker count; their ratio is the fleet utilization. time.Now is
	// only read when telemetry is enabled.
	reg := telemetry.Default()
	var run0, w0 time.Time
	var busy *telemetry.Counter
	if reg != nil {
		reg.Counter(telemetry.ParRuns).Inc()
		reg.Counter(telemetry.ParBlocks).Add(int64(nblocks))
		busy = reg.Counter(telemetry.ParBusyNanos)
		run0 = time.Now()
	}
	// Trace span for the parallel dispatch only — the serial path stays
	// uninstrumented for the same hot-loop reason as telemetry.
	runSpan := trace.Default().Span("par.run")

	p.nblocks = nblocks
	p.fn = fn
	p.fnw = fnw
	p.next.Store(0)
	helpers := w - 1
	p.pending.Store(int64(helpers) + 1)
	for i := 0; i < helpers; i++ {
		p.wake <- struct{}{}
	}
	if busy != nil {
		w0 = time.Now()
	}
	p.loop(0)
	if busy != nil {
		busy.Add(int64(time.Since(w0)))
	}
	if p.pending.Add(-1) != 0 {
		<-p.done
	}
	p.fn = nil
	p.fnw = nil

	runSpan()
	if reg != nil {
		reg.Counter(telemetry.ParWallNanos).Add(int64(w) * int64(time.Since(run0)))
	}
}

func (p *Pool) runSerial(nblocks int, fn func(int), fnw func(int, int)) {
	if fnw != nil {
		for b := 0; b < nblocks; b++ {
			fnw(b, 0)
		}
		return
	}
	for b := 0; b < nblocks; b++ {
		fn(b)
	}
}

// workerLoop is the body of one persistent helper goroutine. It parks on the
// wake channel between dispatches; each token admits it to exactly one
// dispatch. The channel receive orders the dispatch-state writes of the
// caller before the reads here.
func (p *Pool) workerLoop(id int) {
	for {
		select {
		case <-p.wake:
		case <-p.quit:
			return
		}
		var w0 time.Time
		var busy *telemetry.Counter
		if reg := telemetry.Default(); reg != nil {
			busy = reg.Counter(telemetry.ParBusyNanos)
			w0 = time.Now()
		}
		p.loop(id)
		if busy != nil {
			busy.Add(int64(time.Since(w0)))
		}
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// loop drains dispatch blocks on behalf of worker slot.
func (p *Pool) loop(slot int) {
	n := p.nblocks
	if fw := p.fnw; fw != nil {
		for {
			b := int(p.next.Add(1)) - 1
			if b >= n {
				return
			}
			fw(b, slot)
		}
	}
	f := p.fn
	for {
		b := int(p.next.Add(1)) - 1
		if b >= n {
			return
		}
		f(b)
	}
}

// Blocks returns the number of fixed-size blocks covering n items. The block
// size is a property of the work, not of the pool, so partial results stay
// comparable across worker counts.
func Blocks(n, blockSize int) int {
	if n <= 0 {
		return 0
	}
	return (n + blockSize - 1) / blockSize
}
