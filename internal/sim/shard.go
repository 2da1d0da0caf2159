// Sharded execution: one simulation partitioned across per-geo-cell
// Engines that advance concurrently under a conservative time-window
// protocol.
//
// The decomposition exploits the structure of the swarm model: devices
// interact with devices in other cells only through the wireless
// medium, and the medium has a minimum latency (MAC + propagation) it
// declares as its *lookahead* L. Any event a cell executes at virtual
// time t can therefore influence another cell no earlier than t+L.
// That bound makes the following window protocol safe:
//
//	w1 = min over cells of (earliest pending event time) + L
//
// Every cell runs independently up to w1 — no locks, no rollback —
// buffering cross-cell deliveries in a per-cell outbox. At the window
// barrier the outboxes are exchanged: because every send happened at
// some t >= minNext and was stamped at least L in the future, every
// delivery lands at or after w1, i.e. in a window nobody has simulated
// yet. Causality holds without ever peeking into a neighbour's queue.
//
// Determinism is by construction and independent of the worker count:
//
//   - the cell decomposition is fixed by the scenario, not by the
//     machine, and each cell's Engine seeds its RNG from
//     SeedFor(rootSeed, cellID) (a splitmix64 hash), so a cell draws
//     the same random stream whether one worker or sixteen advance
//     the cells;
//   - window boundaries depend only on queue minima, which are the
//     same under any scheduling of the independent cells;
//   - outboxes are drained in (source cell, send order) at the
//     barrier, so tie-breaking seq numbers in the destination engine
//     are assigned identically on every run.
//
// The -shards knob therefore only changes wall-clock time; reports are
// byte-identical at every setting, which is what the shard-parity CI
// lane asserts.
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// SeedFor derives the deterministic RNG seed for one cell of a sharded
// run from the root seed, using a splitmix64-style hash so nearby
// (seed, cell) pairs produce uncorrelated streams. Cell 0 of a 1-cell
// run and cell 0 of a 64-cell run see the same stream: a run's
// randomness depends on the decomposition, never on the worker count.
func SeedFor(root int64, cell int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(uint64(cell)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// LookaheadError reports a sharded configuration whose declared
// cross-cell lookahead cannot make the window protocol safe. A zero
// (or negative) lookahead would collapse every window to a point and
// let a cell influence a neighbour "now" — conservative synchronization
// is impossible, so the configuration is rejected up front.
type LookaheadError struct {
	LookaheadS Time
}

// Error implements error.
func (e *LookaheadError) Error() string {
	return fmt.Sprintf("sim: cross-cell lookahead must be positive, got %g s", e.LookaheadS)
}

// crossEvent is one buffered cross-cell delivery.
type crossEvent struct {
	to int
	at Time
	fn func()
}

// Cell is one shard of a sharded simulation: an Engine plus the outbox
// for cross-cell sends. Model code running inside a cell's events may
// use the cell's Engine freely and must route any interaction with
// state owned by another cell through Send.
type Cell struct {
	se  *ShardedEngine
	id  int
	eng *Engine
	out []crossEvent
	// executed accumulates events run by this cell; written only by
	// whichever worker holds the cell during a window.
	executed uint64
}

// ID returns the cell's index.
func (c *Cell) ID() int { return c.id }

// Engine returns the cell's private engine. Scheduling on it is only
// legal from the cell's own events (or before Run starts).
func (c *Cell) Engine() *Engine { return c.eng }

// Send schedules fn at absolute time at inside cell to. It must be
// called from within the sending cell's own event execution (or before
// Run starts). Cross-cell sends must respect the declared lookahead:
// at >= now + lookahead. Violating that bound is a model bug that
// would corrupt causality under parallel execution, so it panics just
// like scheduling in the past does on a plain Engine. Sends to the own
// cell are unconstrained — they are ordinary local events.
func (c *Cell) Send(to int, at Time, fn func()) {
	if to == c.id {
		c.eng.DeferAt(at, fn)
		return
	}
	if to < 0 || to >= len(c.se.cells) {
		panic(fmt.Sprintf("sim: send to unknown cell %d of %d", to, len(c.se.cells)))
	}
	if horizon := c.eng.now + c.se.lookahead; at < horizon {
		panic(fmt.Sprintf("sim: cross-cell send at %g violates lookahead horizon %g (now %g, lookahead %g)",
			at, horizon, c.eng.now, c.se.lookahead))
	}
	c.out = append(c.out, crossEvent{to: to, at: at, fn: fn})
}

// ShardedEngine executes one simulation partitioned into per-cell
// Engines under conservative time-window synchronization. Construct
// with NewSharded, populate the cells' engines, then Run.
type ShardedEngine struct {
	cells     []*Cell
	lookahead Time
	workers   int

	// Per-window scheduling state: windowEnd is published to workers
	// by the barrier's generation bump (happens-before), cursor hands
	// out order's cells to whichever worker is free. order holds the
	// same cells as cells; only tests ever permute it.
	windowEnd Time
	cursor    atomic.Int64
	order     []*Cell

	windows uint64
	crossed uint64
	timing  Timing
}

// Timing is a sharded executive's wall-clock accounting, accumulated
// over every Run call. Unlike Windows or Steps it depends on the host
// and the worker count, so no simulation result may include it.
// Busy and Wait are summed over the goroutines that sweep cells, so
// Busy+Wait is the sweep phase's wall time times their number.
type Timing struct {
	// Busy is time spent advancing cells.
	Busy time.Duration
	// Wait is barrier time: from a window's publication to the start of
	// a goroutine's sweep, plus from the end of its sweep until every
	// sweep of the window is done.
	Wait time.Duration
	// Exchange is time spent draining outboxes between windows.
	Exchange time.Duration
}

// NewSharded builds a sharded executive with the given number of cells.
// lookaheadS is the declared minimum cross-cell latency in seconds and
// must be positive (a zero lookahead makes conservative windows
// impossible; the typed *LookaheadError reports it). workers bounds how
// many OS goroutines advance cells concurrently — 0 means NumCPU. Each
// cell's engine is seeded from SeedFor(rootSeed, cell).
func NewSharded(rootSeed int64, cells int, lookaheadS Time, workers int) (*ShardedEngine, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("sim: sharded run needs at least one cell, got %d", cells)
	}
	if lookaheadS <= 0 {
		return nil, &LookaheadError{LookaheadS: lookaheadS}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > cells {
		workers = cells
	}
	se := &ShardedEngine{lookahead: lookaheadS, workers: workers}
	se.cells = make([]*Cell, cells)
	for i := range se.cells {
		se.cells[i] = &Cell{se: se, id: i, eng: NewEngine(SeedFor(rootSeed, i))}
	}
	se.order = slices.Clone(se.cells)
	return se, nil
}

// Cells returns the number of cells.
func (s *ShardedEngine) Cells() int { return len(s.cells) }

// Cell returns cell i.
func (s *ShardedEngine) Cell(i int) *Cell { return s.cells[i] }

// Workers returns the worker-goroutine bound.
func (s *ShardedEngine) Workers() int { return s.workers }

// Lookahead returns the declared cross-cell lookahead in seconds.
func (s *ShardedEngine) Lookahead() Time { return s.lookahead }

// Windows returns how many synchronization windows have executed.
func (s *ShardedEngine) Windows() uint64 { return s.windows }

// Timing returns the executive's wall-clock accounting so far. Call it
// between Run calls.
func (s *ShardedEngine) Timing() Timing { return s.timing }

// CrossMessages returns how many cross-cell deliveries have been
// exchanged at barriers so far.
func (s *ShardedEngine) CrossMessages() uint64 { return s.crossed }

// Steps sums executed events across cells.
func (s *ShardedEngine) Steps() uint64 {
	var n uint64
	for _, c := range s.cells {
		n += c.eng.Steps()
	}
	return n
}

// Now returns the synchronized virtual time. Between Run calls every
// cell's clock sits on the same window boundary.
func (s *ShardedEngine) Now() Time { return s.cells[0].eng.Now() }

// minNext returns the earliest pending event time across all cells
// (Infinity when every queue is empty). Cancelled events still count —
// a too-early window is merely a shorter safe window, never an unsafe
// one — and an empty cell contributes nothing, so it can never stall
// the protocol.
func (s *ShardedEngine) minNext() Time {
	min := Infinity
	for _, c := range s.cells {
		if h := c.eng.events; len(h) > 0 && h[0].at < min {
			min = h[0].at
		}
	}
	return min
}

// sweep advances cells to the current window end until none remain.
// Cells are handed out through an atomic cursor, so any number of
// workers can share the sweep without coordinating beyond the barrier.
func (s *ShardedEngine) sweep() {
	end := s.windowEnd
	n := len(s.cells)
	for {
		i := int(s.cursor.Add(1)) - 1
		if i >= n {
			return
		}
		c := s.order[i]
		c.executed += c.eng.RunUntil(end)
	}
}

// exchange drains every outbox into the destination engines. Iteration
// order (source cell ascending, send order within a cell) is fixed, so
// the seq tie-breakers the destination engine assigns are identical on
// every run regardless of how the preceding window was scheduled. It
// reports how many messages moved.
func (s *ShardedEngine) exchange() int {
	moved := 0
	for _, c := range s.cells {
		for _, m := range c.out {
			dst := s.cells[m.to]
			// The lookahead bound guarantees at >= the window boundary
			// every clock now sits on, so this never schedules in the
			// destination's past.
			dst.eng.DeferAt(m.at, m.fn)
			moved++
		}
		c.out = c.out[:0]
	}
	s.crossed += uint64(moved)
	return moved
}

// shuffleSweep, when set, permutes the order in which the next
// window's sweep hands out cells. Only tests set it: results must not
// depend on that order.
var shuffleSweep func(order []*Cell)

// spinFor bounds how long a goroutine polls the barrier before it
// parks. A window's sweep and exchange take tens to hundreds of
// microseconds, so a short spin catches most handoffs without the
// wake-up latency of a parked goroutine, and a long window costs at
// most this much CPU per waiter.
const spinFor = 50 * time.Microsecond

// barrier is the window handshake between Run's goroutine and its
// workers. Run publishes a window by bumping gen; each worker sweeps
// and counts itself into done. Both sides wait the same way: poll the
// atomic for up to spinFor, if a spin slot is free, then park. At most
// GOMAXPROCS-1 goroutines spin at once, so spinning never starves the
// goroutines being waited for of a processor.
type barrier struct {
	gen  atomic.Uint64 // window generation; bumped to publish a window
	done atomic.Int32  // workers finished with the current window
	quit atomic.Bool   // set before the final bump: workers exit

	spinners atomic.Int32
	maxSpin  int32

	workers, main parker
}

// parker is where goroutines waiting on one barrier condition sleep.
type parker struct {
	mu     sync.Mutex
	cond   sync.Cond
	parked atomic.Int32
}

// slotTries is how many polls a waiter without a spin slot makes,
// retrying for one, before it parks: at a handoff the goroutine being
// woken usually still holds its slot for a few nanoseconds.
const slotTries = 128

// wait returns once ready reports true. A waiter that holds a spin
// slot polls for up to spinFor; one that cannot get a slot polls only
// while it retries for one. Either then parks on p.
func (b *barrier) wait(p *parker, ready func() bool) {
	var start time.Time
	slot := false
	for i := 0; ; i++ {
		if ready() {
			if slot {
				b.spinners.Add(-1)
			}
			return
		}
		if !slot {
			if i >= slotTries {
				break
			}
			if n := b.spinners.Load(); n < b.maxSpin && b.spinners.CompareAndSwap(n, n+1) {
				slot, start = true, time.Now()
			}
			continue
		}
		if i%64 == 0 && time.Since(start) > spinFor {
			b.spinners.Add(-1)
			break
		}
	}
	p.mu.Lock()
	// Announce the park before the final check: the waker makes ready
	// true before it reads parked, so one of the two sees the other.
	p.parked.Add(1)
	for !ready() {
		p.cond.Wait()
	}
	p.parked.Add(-1)
	p.mu.Unlock()
}

// wake rouses p's parked goroutines, if any. Call it after making
// their condition true.
func (p *parker) wake() {
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Run executes events with timestamps <= limit across all cells and
// advances every cell's clock to exactly limit (mirroring
// Engine.RunUntil's window-stepping contract). It returns the number
// of events executed during this call.
func (s *ShardedEngine) Run(limit Time) uint64 {
	before := s.Steps()

	// Persistent workers for this Run call, spawned only when the
	// configuration actually allows parallelism: each window they
	// sweep alongside Run's goroutine and meet it at the barrier. Run
	// stops them and waits for them to exit before it returns.
	nw := s.workers
	if nw > len(s.cells) {
		nw = len(s.cells)
	}
	b := &barrier{maxSpin: int32(runtime.GOMAXPROCS(0) - 1)}
	b.workers.cond.L = &b.workers.mu
	b.main.cond.L = &b.main.mu
	var busy atomic.Int64 // nanoseconds, summed over sweeping goroutines
	var windowWall time.Duration
	var exited sync.WaitGroup
	for w := 1; w < nw; w++ {
		exited.Add(1)
		go func() {
			defer exited.Done()
			for gen := uint64(1); ; gen++ {
				b.wait(&b.workers, func() bool { return b.gen.Load() >= gen })
				if b.quit.Load() {
					return
				}
				t := time.Now()
				s.sweep()
				busy.Add(int64(time.Since(t)))
				if b.done.Add(1) == int32(nw-1) {
					b.main.wake()
				}
			}
		}()
	}
	if nw > 1 {
		defer func() {
			b.quit.Store(true)
			b.gen.Add(1)
			b.workers.wake()
			exited.Wait()
		}()
	}

	for {
		minNext := s.minNext()
		if minNext > limit || minNext >= Infinity {
			break
		}
		end := minNext + s.lookahead
		if end > limit {
			end = limit
		}
		if shuffleSweep != nil {
			shuffleSweep(s.order)
		}
		s.windowEnd = end
		s.cursor.Store(0)
		b.done.Store(0)
		t := time.Now()
		if nw > 1 {
			b.gen.Add(1)
			b.workers.wake()
		}
		sweepStart := time.Now()
		s.sweep()
		busy.Add(int64(time.Since(sweepStart)))
		if nw > 1 {
			b.wait(&b.main, func() bool { return b.done.Load() == int32(nw-1) })
		}
		windowWall += time.Since(t)
		s.windows++

		t = time.Now()
		s.exchange()
		s.timing.Exchange += time.Since(t)
	}
	s.timing.Busy += time.Duration(busy.Load())
	s.timing.Wait += time.Duration(nw)*windowWall - time.Duration(busy.Load())

	// Land every clock exactly on limit, like RunUntil does for a
	// window boundary (queues may still hold events beyond limit).
	if limit < Infinity {
		for _, c := range s.cells {
			if c.eng.Now() < limit {
				c.eng.RunUntil(limit)
			}
		}
	}
	return s.Steps() - before
}
