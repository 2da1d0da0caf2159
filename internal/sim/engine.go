// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is callback-based: model code schedules closures at virtual
// times on an Engine, and the Engine executes them in time order (ties
// broken by scheduling order, which makes runs with the same seed fully
// deterministic). On top of the raw event loop the package provides
// cancellable timers and multi-server FIFO resources with queueing
// statistics — the building blocks for the queueing-network swarm
// simulator described in Section 5.6 of the HiveMind paper.
//
// The event loop is the hot path under the entire evaluation sweep
// (every figure re-runs the swarm simulator), so it is tuned to shed
// allocations: event structs are recycled through a per-engine free
// list (safe because Cancel drops the callback and recycling bumps a
// generation counter that stale Timer handles check), and the priority
// queue is a hand-rolled binary heap with inlined comparisons rather
// than container/heap's interface-dispatched one. Each heap slot holds
// its event's (time, seq) key inline, so a sift compares adjacent
// memory instead of chasing two event pointers per comparison.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in seconds.
type Time = float64

// Infinity is a time later than any event the simulator will ever reach.
const Infinity Time = 1e18

// event is a scheduled closure. gen counts recycles: a Timer binds to
// (event, gen) and goes inert once the event is returned to the pool,
// so handle reuse cannot cancel an unrelated later event. The event
// carries no sort key and no heap index: its (at, seq) key lives
// inline in the heap entry that points at it.
type event struct {
	fn     func()
	cancel bool
	gen    uint32 // bumped on every recycle
}

// entry is one heap slot: the event's sort key stored next to the
// pointer, so a sift compares keys without dereferencing scattered
// events. seq breaks ties between events scheduled for the same
// instant so execution order matches scheduling order.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// Engine is a discrete-event simulation executive. It is not safe for
// concurrent use; all model code runs on the caller's goroutine inside
// Run / RunUntil.
type Engine struct {
	now    Time
	events []entry // binary min-heap on (at, seq)
	seq    uint64
	rng    *rand.Rand
	// free recycles event structs. It is deliberately per-engine rather
	// than a shared sync.Pool: the evaluation runner executes many
	// engines on concurrent goroutines, and a cross-engine pool would
	// let a stale Timer in one engine read an event another engine is
	// rewriting. Engines are single-goroutine, so this list needs no
	// synchronization at all.
	free    []*event
	stopped bool
	steps   uint64
}

// NewEngine returns an engine at time zero with a deterministic RNG
// seeded by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// less orders entries by time, ties broken by scheduling order.
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts x into the heap. The common case — an event scheduled
// later than everything pending — is a single append plus one parent
// comparison; out-of-order inserts sift up as usual.
func (e *Engine) push(x entry) {
	h := append(e.events, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	e.events = h
}

// pop removes and returns the earliest entry. It sifts a hole down and
// drops the displaced tail entry in once, halving writes versus
// swap-based sift.
func (e *Engine) pop() entry {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && less(&h[r], &h[c]) {
				c = r
			}
			if !less(&h[c], &last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.events = h
	return top
}

// recycle returns a popped event to the free list. The generation bump
// makes any Timer still holding the event inert.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// schedule is the allocation-lean core of At/After/Defer: it takes an
// event from the free list and enqueues it without creating a Timer
// handle.
func (e *Engine) schedule(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.fn = fn
	ev.cancel = false
	e.push(entry{at: t, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires.
type Timer struct {
	ev        *event
	gen       uint32
	cancelled bool
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op. It reports whether
// the callback was actually prevented.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.cancelled {
		return false
	}
	ev := t.ev
	if ev.gen != t.gen || ev.fn == nil {
		// The event fired (and was recycled, possibly into a new life)
		// or is mid-dispatch; nothing to prevent.
		return false
	}
	// A popped event is recycled (gen bumped) before its callback runs,
	// so a matching gen with a live fn means the event is still queued.
	ev.cancel = true
	// Release the closure immediately: a cancelled event can sit in the
	// heap until popped, and fn may capture large model state.
	ev.fn = nil
	t.cancelled = true
	return true
}

// Stopped reports whether the timer has been cancelled.
func (t *Timer) Stopped() bool { return t == nil || t.ev == nil || t.cancelled }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it indicates a model bug that would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) *Timer {
	ev := e.schedule(t, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds from now. Negative delays are
// clamped to zero.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Defer schedules fn to run d seconds from now, like After, but without
// materialising a Timer handle. It is the right call in hot model loops
// that never cancel: the event struct itself is pool-recycled, so a
// Defer round trip is allocation-free at steady state.
func (e *Engine) Defer(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn)
}

// DeferAt is Defer with an absolute deadline.
func (e *Engine) DeferAt(t Time, fn func()) {
	e.schedule(t, fn)
}

// Alarm is a reusable one-shot timer for model components that re-arm
// the same callback over and over (flow-completion timers, keep-alive
// expirations). Unlike After, re-arming an Alarm allocates nothing: the
// callback is bound once and the Alarm tracks its pending event through
// the engine's recycling generations.
type Alarm struct {
	eng *Engine
	fn  func()
	ev  *event
	gen uint32
}

// NewAlarm binds fn to a reusable timer. The alarm starts unarmed.
func (e *Engine) NewAlarm(fn func()) *Alarm {
	return &Alarm{eng: e, fn: fn}
}

// armed reports whether the alarm's event is still pending and its own
// (not recycled into a new life, not cancelled, not mid-dispatch).
func (a *Alarm) armed() bool {
	return a.ev != nil && a.ev.gen == a.gen && a.ev.fn != nil
}

// Set arms the alarm to fire d seconds from now (clamped at zero),
// replacing any pending firing.
func (a *Alarm) Set(d Time) {
	if d < 0 {
		d = 0
	}
	a.SetAt(a.eng.now + d)
}

// SetAt arms the alarm to fire at absolute time t, replacing any
// pending firing.
func (a *Alarm) SetAt(t Time) {
	a.Stop()
	a.ev = a.eng.schedule(t, a.fn)
	a.gen = a.ev.gen
}

// Stop cancels the pending firing, if any. Safe to call when unarmed.
func (a *Alarm) Stop() {
	if a.armed() {
		a.ev.cancel = true
		a.ev.fn = nil
	}
	a.ev = nil
}

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events still queued (including cancelled
// ones that have not yet been popped).
func (e *Engine) Pending() int { return len(e.events) }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.RunUntil(Infinity) }

// RunUntil executes events with timestamps <= limit and then advances
// the clock to limit, even when the queue emptied earlier — callers
// stepping a simulation in fixed windows rely on Now() landing exactly
// on each window boundary. The two exceptions leave the clock at the
// last executed event: Stop (the run was interrupted mid-window) and
// Run, whose limit of Infinity is a horizon, not a boundary. It returns
// the number of events executed during this call.
func (e *Engine) RunUntil(limit Time) uint64 {
	e.stopped = false
	var executed uint64
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > limit {
			e.now = limit
			return executed
		}
		top := e.pop()
		next := top.ev
		if next.cancel {
			e.recycle(next)
			continue
		}
		e.now = top.at
		fn := next.fn
		next.fn = nil
		e.recycle(next)
		fn()
		e.steps++
		executed++
	}
	if !e.stopped && limit < Infinity && limit > e.now {
		e.now = limit
	}
	return executed
}

// Every schedules fn to run every period seconds starting at now+period,
// until the returned Ticker is stopped. Jitter, if positive, offsets
// each firing by a zero-mean uniform phase drawn from
// [-jitter/2, jitter/2), desynchronizing periodic processes
// (heartbeats, monitors) without biasing the mean period: firings stay
// anchored to the ideal k*period grid, so the long-run firing rate is
// exactly 1/period regardless of jitter.
func (e *Engine) Every(period, jitter Time, fn func()) *Ticker {
	t := &Ticker{eng: e, period: period, jitter: jitter, fn: fn, base: e.now}
	// One closure for the ticker's whole life; each firing re-arms the
	// same reusable alarm, so steady-state ticking allocates nothing.
	t.next = e.NewAlarm(func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
	t.arm()
	return t
}

// Ticker repeatedly schedules a callback. Stop it to end the cycle.
type Ticker struct {
	eng    *Engine
	period Time
	jitter Time
	fn     func()
	next   *Alarm
	// base is the unjittered anchor of the last scheduled firing; each
	// arm advances it by exactly period so jitter perturbs the phase of
	// individual firings without accumulating into the period.
	base    Time
	stopped bool
}

func (t *Ticker) arm() {
	t.base += t.period
	at := t.base
	if t.jitter > 0 {
		at += (t.eng.Rand().Float64() - 0.5) * t.jitter
	}
	// A large jitter (> period) can draw a phase behind the clock;
	// clamp rather than schedule in the past.
	if at < t.eng.now {
		at = t.eng.now
	}
	t.next.SetAt(at)
}

// Stop ends the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.next.Stop()
}
