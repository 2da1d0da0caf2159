package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNotLeaderErrorRoundTrip(t *testing.T) {
	for _, leader := range []int{-1, 0, 7} {
		err := NotLeaderError(leader)
		got, ok := RedirectTarget(err)
		if !ok || got != leader {
			t.Fatalf("RedirectTarget(%v) = %d,%v; want %d,true", err, got, ok, leader)
		}
	}
	if _, ok := RedirectTarget(ServerError("boom")); ok {
		t.Fatal("plain server error misread as redirect")
	}
	if _, ok := RedirectTarget(errors.New("transport")); ok {
		t.Fatal("transport error misread as redirect")
	}
}

// serveReplicaSet builds n servers where only the leader answers; the
// others redirect to it. Returns the listeners' dial functions and a
// setter to move leadership.
func serveReplicaSet(t *testing.T, n int) ([]func() (net.Conn, error), *atomic.Int64, *[]*Server) {
	t.Helper()
	var leader atomic.Int64
	dials := make([]func() (net.Conn, error), n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		i := i
		srv := NewServer()
		srv.Register("work", func(payload []byte) ([]byte, error) {
			if int(leader.Load()) != i {
				return nil, NotLeaderError(int(leader.Load()))
			}
			return append([]byte("done:"), payload...), nil
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addr := ln.Addr().String()
		dials[i] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		servers[i] = srv
	}
	return dials, &leader, &servers
}

func TestFailoverClientFollowsRedirect(t *testing.T) {
	dials, leader, _ := serveReplicaSet(t, 3)
	leader.Store(2)
	fc := NewFailoverClient(dials, FailoverOptions{RetryBackoff: time.Millisecond})
	defer fc.Close()

	out, err := fc.Call(context.Background(), "work", []byte("x"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(out) != "done:x" {
		t.Fatalf("out = %q", out)
	}
	if fc.Leader() != 2 {
		t.Fatalf("client routed to %d, want 2", fc.Leader())
	}
	// Subsequent calls go straight to the leader.
	if _, err := fc.Call(context.Background(), "work", []byte("y")); err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestFailoverClientSweepsPastDeadEndpoint(t *testing.T) {
	dials, leader, servers := serveReplicaSet(t, 3)
	leader.Store(0)
	fc := NewFailoverClient(dials, FailoverOptions{RetryBackoff: time.Millisecond})
	defer fc.Close()
	if _, err := fc.Call(context.Background(), "work", nil); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}

	// Kill the leader's server and move leadership: the client must
	// sweep to a live endpoint and follow its redirect.
	(*servers)[0].Close()
	leader.Store(1)
	out, err := fc.Call(context.Background(), "work", []byte("z"))
	if err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if string(out) != "done:z" {
		t.Fatalf("out = %q", out)
	}
	if fc.Leader() != 1 {
		t.Fatalf("client routed to %d, want 1", fc.Leader())
	}
}

func TestFailoverClientSurfacesServerErrors(t *testing.T) {
	srv := NewServer()
	srv.Register("work", func([]byte) ([]byte, error) {
		return nil, ServerError("application failure")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	addr := ln.Addr().String()
	fc := NewFailoverClient([]func() (net.Conn, error){
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}, FailoverOptions{RetryBackoff: time.Millisecond})
	defer fc.Close()

	_, err = fc.Call(context.Background(), "work", nil)
	var se ServerError
	if !errors.As(err, &se) || string(se) != "application failure" {
		t.Fatalf("err = %v, want the server error surfaced unretried", err)
	}
}

func TestFailoverClientGivesUpWhenAllDead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens
	fc := NewFailoverClient([]func() (net.Conn, error){
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}, FailoverOptions{Attempts: 2, RetryBackoff: time.Millisecond})
	defer fc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := fc.Call(ctx, "work", nil); err == nil {
		t.Fatal("call to dead replica set succeeded")
	}
}

// flakyDialer yields connections that die after serving `failFirst`
// dials, then healthy ones, all against the same server.
type flakyDialer struct {
	srv       *Server
	mu        sync.Mutex
	dials     int
	failFirst int // these many initial dials yield pre-closed conns
}

func (d *flakyDialer) dial() (net.Conn, error) {
	d.mu.Lock()
	n := d.dials
	d.dials++
	d.mu.Unlock()
	cc, sc := Pair()
	if n < d.failFirst {
		cc.Close()
		sc.Close()
		return cc, nil
	}
	d.srv.ServeConn(sc)
	return cc, nil
}

func (d *flakyDialer) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

// oneEndpoint builds the single-server client: one endpoint, a fast
// re-attempt cadence, and a generous per-attempt timeout.
func oneEndpoint(dial func() (net.Conn, error), opts FailoverOptions) *FailoverClient {
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = time.Millisecond
	}
	return NewFailoverClient([]func() (net.Conn, error){dial}, opts)
}

func TestFailoverClientCallRetriesDeadConnections(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	d := &flakyDialer{srv: srv, failFirst: 2}
	fc := oneEndpoint(d.dial, FailoverOptions{Attempts: 5, CallTimeout: 2 * time.Second})
	defer fc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := fc.Call(ctx, "echo", []byte("survives"))
	if err != nil {
		t.Fatalf("call over flaky dialer = %v", err)
	}
	if string(out) != "survives" {
		t.Fatalf("out = %q", out)
	}
	if n := d.count(); n < 3 {
		t.Fatalf("dials = %d, want >= 3 (two dead connections, then a live one)", n)
	}
}

func TestFailoverClientServerErrorNotRetried(t *testing.T) {
	var invoked atomic.Int64
	srv := NewServer()
	srv.Register("fail", func([]byte) ([]byte, error) {
		invoked.Add(1)
		return nil, errors.New("boom")
	})
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	fc := oneEndpoint(d.dial, FailoverOptions{Attempts: 5})
	defer fc.Close()

	_, err := fc.Call(context.Background(), "fail", nil)
	var se ServerError
	if !errors.As(err, &se) || err.Error() != "boom" {
		t.Fatalf("err = %v, want ServerError boom", err)
	}
	if n := invoked.Load(); n != 1 {
		t.Fatalf("application error ran the handler %d times, want 1", n)
	}
	if n := d.count(); n != 1 {
		t.Fatalf("dials = %d, want 1", n)
	}
}

// TestFailoverClientRedialsSeveredConnection cuts the live connection
// out from under the client: the next call sees it unhealthy (or fails
// on it) and the client redials.
func TestFailoverClientRedialsSeveredConnection(t *testing.T) {
	srv := echoServer()
	defer srv.Close()

	var conns []net.Conn
	var mu sync.Mutex
	dial := func() (net.Conn, error) {
		cc, sc := Pair()
		srv.ServeConn(sc)
		mu.Lock()
		conns = append(conns, cc)
		mu.Unlock()
		return cc, nil
	}
	fc := oneEndpoint(dial, FailoverOptions{Attempts: 1})
	defer fc.Close()

	if _, err := fc.Call(context.Background(), "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := fc.Call(context.Background(), "echo", []byte("b")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after severed connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	n := len(conns)
	mu.Unlock()
	if n < 2 {
		t.Fatalf("dials = %d, want a reconnect", n)
	}
}

func TestFailoverClientCallTimeoutRetriesWithinDeadline(t *testing.T) {
	// First invocation hangs; the per-attempt timeout cuts it and the
	// re-attempt succeeds.
	var calls atomic.Int32
	srv := NewServer()
	srv.RegisterCtx("sometimes", func(ctx context.Context, p []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte("ok"), nil
	})
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	fc := oneEndpoint(d.dial, FailoverOptions{Attempts: 5, CallTimeout: 30 * time.Millisecond})
	defer fc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := fc.Call(ctx, "sometimes", nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2 (timed-out attempt, then the re-attempt)", n)
	}
}

func TestFailoverClientRespectsCallerDeadline(t *testing.T) {
	srv := NewServer()
	srv.RegisterCtx("hang", func(ctx context.Context, p []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	fc := oneEndpoint(d.dial, FailoverOptions{Attempts: 5})
	defer fc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fc.Call(ctx, "hang", nil)
	if err == nil {
		t.Fatal("hung call returned")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("caller deadline not honoured promptly")
	}
}

// TestFailoverClientCallAfterCloseFailsFast pins Close as terminal: a
// call after Close fails with ErrClosed and never reaches the dialer,
// so no connection is opened that nothing would ever close.
func TestFailoverClientCallAfterCloseFailsFast(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	fc := oneEndpoint(d.dial, FailoverOptions{Attempts: 4})
	if _, err := fc.Call(context.Background(), "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	before := d.count()
	out, err := fc.Call(context.Background(), "echo", []byte("b"))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close = %q, %v; want ErrClosed", out, err)
	}
	if n := d.count(); n != before {
		t.Fatalf("call after Close dialled: dials %d -> %d", before, n)
	}
}

// TestFailoverClientCloseDuringConcurrentCalls closes the client while
// callers are mid-flight: every caller ends with a reply or ErrClosed,
// nothing dials once Close has returned, and every connection the
// client opened ends up closed.
func TestFailoverClientCloseDuringConcurrentCalls(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	var mu sync.Mutex
	var conns []net.Conn
	closed := false
	lateDials := 0
	dial := func() (net.Conn, error) {
		cc, sc := Pair()
		srv.ServeConn(sc)
		mu.Lock()
		conns = append(conns, cc)
		if closed {
			lateDials++
		}
		mu.Unlock()
		return cc, nil
	}
	fc := oneEndpoint(dial, FailoverOptions{Attempts: 4})

	var wg sync.WaitGroup
	var calls atomic.Int64
	var closeReturned atomic.Bool
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				late := closeReturned.Load()
				_, err := fc.Call(context.Background(), "echo", []byte("x"))
				calls.Add(1)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("call failed with %v, want a reply or ErrClosed", err)
					return
				}
				if late {
					t.Error("a call started after Close returned succeeded")
					return
				}
			}
		}()
	}
	for calls.Load() < 64 {
		time.Sleep(time.Millisecond)
	}
	fc.Close()
	mu.Lock()
	closed = true
	mu.Unlock()
	closeReturned.Store(true)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if lateDials != 0 {
		t.Fatalf("%d dials after Close returned", lateDials)
	}
	for i, c := range conns {
		if _, err := c.Write([]byte{0}); err == nil {
			t.Fatalf("connection %d of %d left open after Close", i, len(conns))
		}
	}
}
