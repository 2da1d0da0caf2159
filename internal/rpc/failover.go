package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// notLeaderPrefix marks the redirect error a replicated service's
// standby returns when asked to do primary-only work. The suffix is the
// replica id of the believed leader, or -1 when an election is still in
// progress.
const notLeaderPrefix = "rpc: not leader; leader="

// NotLeaderError builds the standard redirect a standby replica returns
// for primary-only methods. leader is the replica id the caller should
// re-route to (-1: unknown, mid-election).
func NotLeaderError(leader int) ServerError {
	return ServerError(notLeaderPrefix + strconv.Itoa(leader))
}

// RedirectTarget extracts the leader hint from a NotLeaderError. ok is
// false for every other error.
func RedirectTarget(err error) (leader int, ok bool) {
	var se ServerError
	if !errors.As(err, &se) {
		return 0, false
	}
	s := string(se)
	if !strings.HasPrefix(s, notLeaderPrefix) {
		return 0, false
	}
	n, convErr := strconv.Atoi(s[len(notLeaderPrefix):])
	if convErr != nil {
		return 0, false
	}
	return n, true
}

// FailoverOptions tunes the leader-following client.
type FailoverOptions struct {
	// Callers sizes each endpoint connection's caller pool.
	Callers int
	// Attempts bounds call attempts across endpoints and sweeps
	// (0: 4 × the endpoint count).
	Attempts int
	// RetryBackoff is the pause before re-attempting after a redirect or
	// a transport failure (an election may still be settling).
	RetryBackoff time.Duration
	// CallTimeout bounds each individual attempt (0: only the caller's
	// ctx bounds it).
	CallTimeout time.Duration
	// Observer, when non-nil, is installed on every endpoint connection
	// (initial and redials) to time each RPC hop.
	Observer CallObserver
	// Budget, when non-nil, bounds retry amplification across endpoint
	// sweeps: re-attempts after transport failures withdraw one token
	// each (leader redirects stay free — they are routing, not retry),
	// successes deposit the earn ratio. Share one budget with the other
	// retry layers of the process.
	Budget *RetryBudget
}

// FailoverClient routes calls to the current primary of a replicated
// service (e.g. the ReplicatedController's fronting gateways). Standbys
// answer primary-only methods with NotLeaderError; the client follows
// the redirect, and on transport failures it sweeps the remaining
// endpoints until one serves — the edge-side half of the §4.7
// hot-standby takeover. Calls may execute more than once across a
// failover, so routed methods must be idempotent (the checkpointed
// chain path deduplicates by task id).
type FailoverClient struct {
	factories []func() (Transport, error)
	opts      FailoverOptions

	mu     sync.Mutex
	cls    []Transport
	cur    int
	closed bool
}

// errReconnect marks a failed endpoint (re)build: the request was never
// sent, so sweeping on is always safe.
var errReconnect = errors.New("rpc: reconnect failed")

// NewFailoverClient builds a client over one dial function per replica;
// the slice index is the replica id redirects refer to. Each endpoint
// rides a fresh framed connection; NewFailoverTransports is the
// generalisation that lets endpoints ride any Transport (shm ring, mux
// stream) instead.
func NewFailoverClient(dials []func() (net.Conn, error), opts FailoverOptions) *FailoverClient {
	if opts.Callers <= 0 {
		opts.Callers = 8
	}
	factories := make([]func() (Transport, error), len(dials))
	for i, dial := range dials {
		dial := dial
		callers := opts.Callers
		obs := opts.Observer
		factories[i] = func() (Transport, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			cl := NewClient(conn, callers)
			if obs != nil {
				cl.SetObserver(obs)
			}
			return cl, nil
		}
	}
	return NewFailoverTransports(factories, opts)
}

// NewFailoverTransports builds a leader-following client over one
// transport factory per replica (the slice index is the replica id
// redirects refer to). A factory is invoked lazily on first use and
// again whenever its previous transport reports unhealthy — the
// redirect-following, endpoint-sweeping and retry-budget logic is
// identical regardless of what the calls ride, so the zero-copy fast
// paths (runtime.Linker's shm ring for co-located leaders, mux streams
// for remote ones) plug in without their own failover layer.
func NewFailoverTransports(factories []func() (Transport, error), opts FailoverOptions) *FailoverClient {
	if len(factories) == 0 {
		panic("rpc: failover client needs at least one endpoint")
	}
	if opts.Callers <= 0 {
		opts.Callers = 8
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 4 * len(factories)
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 25 * time.Millisecond
	}
	return &FailoverClient{factories: factories, opts: opts, cls: make([]Transport, len(factories))}
}

// DialFailover builds a leader-following client over TCP addresses.
func DialFailover(addrs []string, opts FailoverOptions) *FailoverClient {
	dials := make([]func() (net.Conn, error), len(addrs))
	for i, addr := range addrs {
		addr := addr
		dials[i] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return NewFailoverClient(dials, opts)
}

// Leader returns the endpoint index calls currently route to.
func (f *FailoverClient) Leader() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// clientFor returns a healthy transport to endpoint idx, rebuilding it
// through the endpoint's factory if needed.
func (f *FailoverClient) clientFor(idx int) (Transport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if cl := f.cls[idx]; cl != nil && cl.Healthy() {
		return cl, nil
	}
	tr, err := f.factories[idx]()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errReconnect, err)
	}
	if f.cls[idx] != nil {
		f.cls[idx].Close()
	}
	f.cls[idx] = tr
	return tr, nil
}

// route updates the believed leader: an explicit redirect target wins,
// otherwise advance past the failed endpoint round-robin.
func (f *FailoverClient) route(from, target int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if target >= 0 && target < len(f.factories) {
		f.cur = target
		return
	}
	if f.cur == from {
		f.cur = (from + 1) % len(f.factories)
	}
}

// Call routes one call to the current primary, following redirects and
// sweeping endpoints on transport failures. ctx bounds the whole call
// including backoffs.
func (f *FailoverClient) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < f.opts.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return nil, err
		}
		if attempt > 0 {
			t := time.NewTimer(f.opts.RetryBackoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
			}
		}
		idx := f.Leader()
		cl, err := f.clientFor(idx)
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
		if err != nil {
			lastErr = err
			f.route(idx, -1)
			if !f.opts.Budget.Withdraw() {
				return nil, budgetExhausted(lastErr)
			}
			continue
		}
		out, err := f.attempt(ctx, cl, method, payload)
		if err == nil {
			f.opts.Budget.Success()
			return out, nil
		}
		lastErr = err
		if target, ok := RedirectTarget(lastErr); ok {
			f.route(idx, target)
			continue
		}
		if IsFenced(lastErr) {
			// A deposed primary's store rejected the term-stamped write.
			// Like a redirect this is routing, not retry: the real primary
			// is elsewhere, so sweep on without spending budget.
			f.route(idx, -1)
			continue
		}
		var se ServerError
		if errors.As(lastErr, &se) {
			// A real application error from the serving primary: the
			// request executed, re-routing cannot help. Shed responses
			// (rpc.IsShed) and expired-deadline drops take this path too —
			// the primary is alive but refusing the work, so sweeping to a
			// standby would only re-offer load the fleet just shed.
			return nil, lastErr
		}
		if ctx.Err() != nil {
			continue // surfaces at the top of the loop
		}
		f.route(idx, -1) // transport failure: sweep on
		if !f.opts.Budget.Withdraw() {
			return nil, budgetExhausted(lastErr)
		}
	}
	return nil, fmt.Errorf("rpc: no endpoint served %s after %d attempts: %w", method, f.opts.Attempts, lastErr)
}

// attempt runs one call on cl, bounded by CallTimeout when set. A
// per-attempt timeout that fires while ctx still has time left is a
// transport failure, so the caller sweeps on.
func (f *FailoverClient) attempt(ctx context.Context, cl Transport, method string, payload []byte) ([]byte, error) {
	if f.opts.CallTimeout <= 0 {
		return cl.Call(ctx, method, payload)
	}
	actx, cancel := context.WithTimeout(ctx, f.opts.CallTimeout)
	defer cancel()
	return cl.Call(actx, method, payload)
}

// Close tears down every endpoint connection. It is terminal: later
// calls fail with ErrClosed without dialling.
func (f *FailoverClient) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for i, cl := range f.cls {
		if cl != nil {
			cl.Close()
			f.cls[i] = nil
		}
	}
}
