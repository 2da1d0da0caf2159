package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- shed / deadline error wire round-trips -------------------------

func TestShedErrorRoundTrip(t *testing.T) {
	err := ShedError(40 * time.Millisecond)
	if !IsShed(err) {
		t.Fatal("ShedError not recognised by IsShed")
	}
	ra, ok := ShedRetryAfter(err)
	if !ok || ra != 40*time.Millisecond {
		t.Fatalf("retry-after = %v, %v", ra, ok)
	}
	// Across the wire a handler error arrives as ServerError(err.Error()).
	wire := ServerError(err.Error())
	if !IsShed(wire) {
		t.Fatal("shed error lost its identity across the wire")
	}
	if ra, ok := ShedRetryAfter(wire); !ok || ra != 40*time.Millisecond {
		t.Fatalf("wire retry-after = %v, %v", ra, ok)
	}
	if IsShed(errors.New("rpc: something else")) {
		t.Fatal("IsShed matched an unrelated error")
	}
}

func TestDeadlineExceededErrorRoundTrip(t *testing.T) {
	err := &DeadlineExceededError{Late: 12 * time.Millisecond}
	if !IsDeadlineExceeded(err) {
		t.Fatal("typed deadline error not recognised")
	}
	wire := ServerError(err.Error())
	if !IsDeadlineExceeded(wire) {
		t.Fatal("deadline error lost its identity across the wire")
	}
	if !IsDeadlineExceeded(context.DeadlineExceeded) {
		t.Fatal("context.DeadlineExceeded not recognised")
	}
	if !IsDeadlineExceeded(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)) {
		t.Fatal("wrapped context.DeadlineExceeded not recognised")
	}
	if IsDeadlineExceeded(ShedError(time.Millisecond)) {
		t.Fatal("shed classified as deadline exceeded")
	}
}

// --- retry budget ----------------------------------------------------

func TestRetryBudgetEarnAndSpend(t *testing.T) {
	b := NewRetryBudget(0.5, 4) // starts full at 4
	for i := 0; i < 4; i++ {
		if !b.Withdraw() {
			t.Fatalf("withdraw %d refused from a full budget", i)
		}
	}
	if b.Withdraw() {
		t.Fatal("withdraw granted from an empty budget")
	}
	b.Success()
	b.Success() // earns 2 × 0.5 = 1 token
	if !b.Withdraw() {
		t.Fatal("earned token not withdrawable")
	}
	if b.Withdraw() {
		t.Fatal("budget granted more than it earned")
	}
}

func TestRetryBudgetNilIsUnlimited(t *testing.T) {
	var b *RetryBudget
	b.Success() // must not panic
	for i := 0; i < 100; i++ {
		if !b.Withdraw() {
			t.Fatal("nil budget refused a withdraw")
		}
	}
	if b.Tokens() != 0 {
		t.Fatalf("nil budget tokens = %v", b.Tokens())
	}
}

func TestRetryBudgetCapsAtMax(t *testing.T) {
	b := NewRetryBudget(1.0, 2)
	for i := 0; i < 50; i++ {
		b.Success()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

// TestRetryBudgetConcurrent hammers one budget from many goroutines
// (the shape the -race lane watches) and checks conservation: grants
// can never exceed the initial fill plus what successes earned.
func TestRetryBudgetConcurrent(t *testing.T) {
	const (
		goroutines = 16
		iterations = 500
		ratio      = 0.1
		max        = 64.0
	)
	b := NewRetryBudget(ratio, max)
	var granted, successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if i%3 == 0 {
					b.Success()
					successes.Add(1)
				}
				if b.Withdraw() {
					granted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	earned := max + ratio*float64(successes.Load())
	if float64(granted.Load()) > earned+1 { // +1: fractional carry
		t.Fatalf("granted %d withdraws from a budget that earned %.1f", granted.Load(), earned)
	}
	if tok := b.Tokens(); tok < 0 || tok > max {
		t.Fatalf("tokens = %v, want within [0, %v]", tok, max)
	}
}

// --- wire deadline propagation ---------------------------------------

// TestWireDeadlinePropagation checks a client ctx deadline crosses the
// wire and is visible to the server handler's context.
func TestWireDeadlinePropagation(t *testing.T) {
	srv := NewServer()
	got := make(chan time.Time, 1)
	srv.RegisterCtx("m", func(ctx context.Context, in []byte) ([]byte, error) {
		d, ok := ctx.Deadline()
		if !ok {
			d = time.Time{}
		}
		got <- d
		return in, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	cl := NewClient(cc, 4)
	defer cl.Close()
	defer srv.Close()

	want := time.Now().Add(5 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, err := cl.Call(ctx, "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	d := <-got
	if d.IsZero() {
		t.Fatal("deadline did not propagate to the server handler")
	}
	if diff := d.Sub(want); diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("propagated deadline off by %v", diff)
	}

	// A deadline-free call must not grow one on the way over.
	if _, err := cl.Call(context.Background(), "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := <-got; !d.IsZero() {
		t.Fatalf("deadline-free call arrived with deadline %v", d)
	}
}

// TestServerDropsExpiredQueuedWork wedges a one-worker server pool and
// checks that a request whose wire deadline expires while queued is
// answered with DeadlineExceededError without ever executing.
func TestServerDropsExpiredQueuedWork(t *testing.T) {
	srv := NewServer()
	srv.SetWorkers(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var executed atomic.Int64
	srv.RegisterCtx("slow", func(ctx context.Context, in []byte) ([]byte, error) {
		close(started)
		<-release
		return in, nil
	})
	srv.RegisterCtx("doomed", func(ctx context.Context, in []byte) ([]byte, error) {
		executed.Add(1)
		return in, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	cl := NewClient(cc, 4)
	defer cl.Close()
	defer srv.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), "slow", []byte("x"))
		slowDone <- err
	}()
	<-started // the single worker is now wedged
	// Queue the doomed request behind it with a deadline that expires
	// while it waits. The client's own timer fires at the same instant,
	// so the caller sees its local deadline; the server-side proof is
	// that the handler never ran and DroppedExpired counted the drop.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer dcancel()
	_, err := cl.Call(dctx, "doomed", []byte("x"))
	if err == nil {
		t.Fatal("expired queued call succeeded")
	}
	if !IsDeadlineExceeded(err) {
		t.Fatalf("expired queued call error = %v, want deadline exceeded", err)
	}

	close(release) // unwedge: the worker dequeues the expired task next
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.DroppedExpired() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.DroppedExpired(); n != 1 {
		t.Fatalf("server dropped-expired counter = %d, want 1", n)
	}
	if executed.Load() != 0 {
		t.Fatalf("expired request executed %d times, want 0", executed.Load())
	}
}

// --- failover client integration -------------------------------------

// TestFailoverClientShedIsSurfacedNotResent checks a server-side shed
// reaches the caller as a shed and is never re-sent inside the call:
// the server runs the handler exactly once per call.
func TestFailoverClientShedIsSurfacedNotResent(t *testing.T) {
	var invoked atomic.Int64
	srv := NewServer()
	srv.RegisterCtx("m", func(ctx context.Context, in []byte) ([]byte, error) {
		invoked.Add(1)
		return nil, ShedError(25 * time.Millisecond)
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	fc := NewFailoverClient([]func() (net.Conn, error){
		func() (net.Conn, error) { return cc, nil },
	}, FailoverOptions{Attempts: 4, RetryBackoff: time.Millisecond})
	defer fc.Close()

	_, err := fc.Call(context.Background(), "m", []byte("x"))
	if !IsShed(err) {
		t.Fatalf("err = %v, want shed", err)
	}
	if ra, ok := ShedRetryAfter(err); !ok || ra != 25*time.Millisecond {
		t.Fatalf("retry-after = %v, %v; want the server's 25ms hint", ra, ok)
	}
	if n := invoked.Load(); n != 1 {
		t.Fatalf("shed request ran %d times, want 1 (never re-sent)", n)
	}
}

// TestFailoverClientBudgetDeniedRetry checks an empty shared budget
// stops the sweep with ErrRetryBudgetExhausted after exactly one dial.
func TestFailoverClientBudgetDeniedRetry(t *testing.T) {
	budget := NewRetryBudget(DefaultRetryBudgetRatio, 1)
	if !budget.Withdraw() {
		t.Fatal("could not drain the budget")
	}
	var dials atomic.Int64
	fc := NewFailoverClient([]func() (net.Conn, error){
		func() (net.Conn, error) {
			dials.Add(1)
			return nil, errors.New("refused")
		},
	}, FailoverOptions{Attempts: 6, RetryBackoff: time.Millisecond, Budget: budget})
	defer fc.Close()

	_, err := fc.Call(context.Background(), "m", []byte("x"))
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want retry budget exhausted", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials = %d against an empty budget, want exactly 1", n)
	}
}
