package sim

import "testing"

// drainPool returns an engine whose next schedule reuses recycled
// events: run one throwaway event through the loop so the pool holds at
// least one recycled struct.
func primePool(e *Engine) {
	e.Defer(0, func() {})
	e.RunUntil(e.Now())
}

// TestCancelledTimerEventIsReused pins the pooling contract for the
// cancel path: a cancelled event is recycled once popped, and the stale
// Timer handle must go inert — it cannot cancel whatever event next
// occupies the recycled struct.
func TestCancelledTimerEventIsReused(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(1, func() { t.Fatal("cancelled event fired") })
	if !tm.Cancel() {
		t.Fatal("Cancel reported false for a pending timer")
	}
	// Pop (and recycle) the cancelled event.
	e.RunUntil(2)
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
	}

	// Schedule new work; with a single-threaded engine the pool hands
	// back the recycled struct. The stale handle must stay inert either
	// way — gen guards correctness even if the pool misses.
	fired := false
	e.At(3, func() { fired = true })
	if tm.Cancel() {
		t.Fatal("stale Timer cancelled a recycled event")
	}
	if !tm.Stopped() {
		t.Fatal("cancelled timer lost its Stopped state")
	}
	e.RunUntil(4)
	if !fired {
		t.Fatal("new event did not fire — stale handle corrupted it")
	}
}

// TestFiredTimerHandleIsInert: after an event fires and its struct is
// recycled into a new schedule, Cancel via the old handle must be a
// no-op and report false.
func TestFiredTimerHandleIsInert(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(1, func() {})
	e.RunUntil(2)
	if tm.Cancel() {
		t.Fatal("Cancel reported true for an already-fired timer")
	}
	fired := false
	e.At(3, func() { fired = true })
	if tm.Cancel() {
		t.Fatal("stale fired-timer handle cancelled a recycled event")
	}
	e.RunUntil(4)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestPendingAccountsCancelledEvents: Pending counts cancelled events
// until they are popped, and drops to zero once the loop drains them.
func TestPendingAccountsCancelledEvents(t *testing.T) {
	e := NewEngine(1)
	var tms []*Timer
	for i := 1; i <= 5; i++ {
		tms = append(tms, e.At(Time(i), func() {}))
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", e.Pending())
	}
	tms[1].Cancel()
	tms[3].Cancel()
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d after cancels, want 5 (cancelled events stay queued)", e.Pending())
	}
	if n := e.RunUntil(3); n != 2 {
		t.Fatalf("executed %d events to t=3, want 2 (one cancelled)", n)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d at t=3, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
	}
}

// TestSelfCancelDuringDispatchIsNoop: a callback cancelling its own
// timer mid-dispatch must report false and not disturb the loop.
func TestSelfCancelDuringDispatchIsNoop(t *testing.T) {
	e := NewEngine(1)
	var tm *Timer
	ran := false
	tm = e.At(1, func() {
		ran = true
		if tm.Cancel() {
			t.Error("self-cancel during dispatch reported true")
		}
	})
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
}

// TestTimerCancelDuringOwnDispatch: a popped event is recycled before
// its callback runs, so a callback that schedules again may be handed
// its own event struct back in a new life. Cancelling the old handle
// from inside the callback must still report false and must leave the
// new event alone — the property that lets Cancel drop the heap index.
func TestTimerCancelDuringOwnDispatch(t *testing.T) {
	e := NewEngine(1)
	var tm *Timer
	var reused, followUp bool
	tm = e.At(1, func() {
		next := e.At(2, func() { followUp = true })
		reused = next.ev == tm.ev
		if tm.Cancel() {
			t.Error("Cancel from the timer's own callback reported true")
		}
		if next.Stopped() {
			t.Error("cancelling the fired handle stopped the recycled event")
		}
	})
	e.Run()
	if !reused {
		t.Fatal("follow-up did not reuse the dispatched event; test exercises nothing")
	}
	if !followUp {
		t.Fatal("the follow-up scheduled on the recycled event never ran")
	}
}

// TestScheduleFireLoopAllocs asserts the steady-state allocation budget
// of the schedule-fire hot loop: with pooled events, a Defer round trip
// is allocation-free and an After round trip costs at most the Timer
// handle (≤1 alloc/op).
func TestScheduleFireLoopAllocs(t *testing.T) {
	e := NewEngine(1)
	primePool(e)

	var step func()
	step = func() { e.Defer(0.001, step) }
	step()
	e.RunUntil(e.Now() + 1)
	allocs := testing.AllocsPerRun(2000, func() {
		e.RunUntil(e.Now() + 0.001)
	})
	if allocs > 0.1 {
		t.Fatalf("Defer schedule-fire loop allocates %.2f/op, want ~0", allocs)
	}

	e2 := NewEngine(2)
	primePool(e2)
	var step2 func()
	step2 = func() { e2.After(0.001, step2) }
	step2()
	e2.RunUntil(e2.Now() + 1)
	allocs = testing.AllocsPerRun(2000, func() {
		e2.RunUntil(e2.Now() + 0.001)
	})
	if allocs > 1.1 {
		t.Fatalf("After schedule-fire loop allocates %.2f/op, want <=1", allocs)
	}
}

// TestHeapOrderAfterPooling re-checks time ordering with interleaved
// cancels and reuse, exercising the hand-rolled sift paths.
func TestHeapOrderAfterPooling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	// Two rounds so round two runs entirely on recycled events.
	for round := 0; round < 2; round++ {
		base := e.Now()
		var cancels []*Timer
		for i := 0; i < 50; i++ {
			at := base + Time((i*37)%50)/10
			tm := e.At(at, func() { fired = append(fired, e.Now()) })
			if i%5 == 0 {
				cancels = append(cancels, tm)
			}
		}
		for _, tm := range cancels {
			tm.Cancel()
		}
		e.RunUntil(base + 10)
	}
	if len(fired) != 2*40 {
		t.Fatalf("fired %d events, want 80", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out-of-order firing at %d: %g < %g", i, fired[i], fired[i-1])
		}
	}
}
