package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
)

// The wrappers below sit at the public boundaries of the live stack —
// the http.Handler around ingress.Server, the ingress.Dispatcher, the
// rpc.Server interceptor and the registered functions — and record one
// span per call. They are installed only in traced runs.

// traceHandler records an "ingress.serve" span around the entry
// member's handler and an "ingress.owner" span around a forwarded one.
// The forwarding hop drops the generator's header, so a forwarded
// request is identified from its payload.
func traceHandler(tr *tracer, h http.Handler, keyOf func([]byte) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		name, key := "ingress.serve", ""
		if id := r.Header.Get(opHeader); id != "" {
			key = "o" + id
		}
		if r.Header.Get(ingress.ForwardHeader) != "" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			name, key = "ingress.owner", keyOf(body)
		}
		h.ServeHTTP(w, r)
		tr.add(key, name, start)
	})
}

// tracedDispatcher records a "runtime.dispatch" span per job RPC.
type tracedDispatcher struct {
	d     ingress.Dispatcher
	tr    *tracer
	keyOf func([]byte) string
}

func (t tracedDispatcher) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	start := time.Now()
	out, err := t.d.Call(ctx, method, payload)
	t.tr.add(t.keyOf(payload), "runtime.dispatch", start)
	return out, err
}

// traceInterceptor records an "rpc.server" span per handled RPC and
// hands the request's key to the functions the handler runs.
func traceInterceptor(tr *tracer, keyOf func([]byte) string) rpc.ServerInterceptor {
	return func(ctx context.Context, method string, payload []byte, next rpc.HandlerCtx) ([]byte, error) {
		start := time.Now()
		key := keyOf(payload)
		out, err := next(withSpanKey(ctx, key), payload)
		tr.add(key, "rpc.server", start)
		return out, err
	}
}

// traceFn records an "fn" span per invocation of a registered function.
func traceFn(tr *tracer, f runtime.Function) runtime.Function {
	if tr == nil {
		return f
	}
	return func(ctx context.Context, in []byte) ([]byte, error) {
		start := time.Now()
		out, err := f(ctx, in)
		tr.add(spanKeyFrom(ctx), "fn", start)
		return out, err
	}
}

// timedMonitor is the gateway's metrics sink with each Observe call into
// the registry timed. It forwards gauges too, which the gateway reports
// only to sinks that accept them.
type timedMonitor struct {
	reg *metrics.Registry
	mu  sync.Mutex
	ns  []float64
}

func (m *timedMonitor) CountEvent(name string) { m.reg.CountEvent(name) }

func (m *timedMonitor) SetGauge(name string, v float64) { m.reg.SetGauge(name, v) }

func (m *timedMonitor) Observe(name string, v float64) {
	start := time.Now()
	m.reg.Observe(name, v)
	d := float64(time.Since(start))
	m.mu.Lock()
	m.ns = append(m.ns, d)
	m.mu.Unlock()
}

// gatewayMonitor returns the sink a gateway reports into: the registry
// itself, or a timing wrapper around it in traced runs.
func gatewayMonitor(reg *metrics.Registry, tr *tracer, timed *[]*timedMonitor) runtime.GatewayMonitor {
	if tr == nil {
		return reg
	}
	m := &timedMonitor{reg: reg}
	*timed = append(*timed, m)
	return m
}

// scraper calls Registry.WriteText once a second, the way a /metrics
// scrape does, and keeps the slowest call.
type scraper struct {
	stop  chan struct{}
	done  chan struct{}
	maxMs float64 // written by the scraper goroutine, read after it ends
}

func startScraper(regs []*metrics.Registry) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, r := range regs {
				start := time.Now()
				if err := r.WriteText(io.Discard); err != nil {
					logf("scrape: %v", err)
				}
				s.maxMs = max(s.maxMs, float64(time.Since(start))/1e6)
			}
		}
	}()
	return s
}

// close stops the scraper and returns the slowest scrape in ms.
func (s *scraper) close() float64 {
	close(s.stop)
	<-s.done
	return s.maxMs
}

// sampler polls a level every millisecond and keeps its maximum.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func startSampler(level func() int) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if v := level(); v > s.max {
					s.max = v
				}
			}
		}
	}()
	return s
}

func (s *sampler) close() int {
	close(s.stop)
	<-s.done
	return s.max
}

func collectObserveNs(ms []*timedMonitor) []float64 {
	var out []float64
	for _, m := range ms {
		m.mu.Lock()
		out = append(out, m.ns...)
		m.mu.Unlock()
	}
	return out
}
