package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request.
type outcome uint8

const (
	okOut      outcome = iota
	shedOut            // 503: refused by admission control
	timeoutOut         // 504, or the request's own deadline passed
	errOut             // any other failure
	wrongOut           // answered, but with the wrong output
	nOutcomes
)

// op is one request of the open loop.
type op struct {
	id      int // run-wide request index
	payload string
	at      time.Time // scheduled send time: latency is measured from here
}

// target is a live stack the generator drives.
type target interface {
	// event returns the payload and request count of arrival event j;
	// it must depend only on the run's seed and j.
	event(j int) (payload string, n int)
	// send performs one request end to end and checks its output.
	send(ctx context.Context, o *op) outcome
}

// phase is the outcome of one open-loop schedule at a fixed rate.
type phase struct {
	rate    float64 // offered requests per second
	sent    int
	lat     []float64   // ms from scheduled send to result collected, successes only
	latAt   []time.Time // when each of those was scheduled
	fails   [nOutcomes]int
	late    []float64 // ms the generator sent each arrival after its scheduled time
	lateMs  float64   // the worst of them
	backlog int       // requests still in flight when the schedule ended
}

func (p *phase) failed() int {
	n := 0
	for k := shedOut; k < nOutcomes; k++ {
		n += p.fails[k]
	}
	return n
}

// gen is the open-loop generator: arrivals follow a fixed schedule
// whatever the stack's latency, so a stall shows up as latency of the
// requests scheduled behind it rather than as fewer requests sent.
type gen struct {
	t         target
	meanBurst float64 // mean requests per arrival event
	tr        *tracer
	nextEvent int
	nextOp    int
}

// run drives the target at rate requests per second for dur and waits
// for every request it sent.
func (g *gen) run(rate float64, dur time.Duration) *phase {
	p := &phase{rate: rate}
	interval := time.Duration(float64(time.Second) * g.meanBurst / rate)
	n := int(dur / interval)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	record := func(o *op, out outcome, done time.Time) {
		mu.Lock()
		defer mu.Unlock()
		p.fails[out]++
		if out == okOut {
			p.lat = append(p.lat, float64(done.Sub(o.at))/1e6)
			p.latAt = append(p.latAt, o.at)
		}
	}
	start := time.Now()
	for j := 0; j < n; j++ {
		at := start.Add(time.Duration(j) * interval)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		late := float64(time.Since(at)) / 1e6
		p.late = append(p.late, late)
		p.lateMs = max(p.lateMs, late)
		payload, k := g.t.event(g.nextEvent)
		for i := 0; i < k; i++ {
			o := &op{id: g.nextOp, payload: payload, at: at}
			g.nextOp++
			p.sent++
			wg.Add(1)
			inflight.Add(1)
			go func() {
				defer wg.Done()
				defer inflight.Add(-1)
				key := opKey(o.id)
				g.tr.add(key, "loadgen.wait", o.at)
				ctx, cancel := context.WithDeadline(context.Background(), o.at.Add(requestDeadline))
				out := g.t.send(ctx, o)
				cancel()
				if out != okOut && ctx.Err() != nil {
					out = timeoutOut
				}
				done := time.Now()
				g.tr.addSpan(key, "request", o.at, done)
				record(o, out, done)
			}()
		}
		g.nextEvent++
	}
	p.backlog = int(inflight.Load())
	wg.Wait()
	return p
}

// clientPool multiplexes every request over at most one connection per
// CPU with unencrypted HTTP/2, so the generator's own socket count
// stays fixed whatever the offered rate.
type clientPool struct {
	cs   []*http.Client
	next atomic.Uint64
}

func newClientPool(n int) *clientPool {
	p := &clientPool{cs: make([]*http.Client, n)}
	for i := range p.cs {
		var protos http.Protocols
		protos.SetUnencryptedHTTP2(true)
		p.cs[i] = &http.Client{Transport: &http.Transport{
			Protocols:       &protos,
			MaxConnsPerHost: 1,
			HTTP2:           &http.HTTP2Config{MaxConcurrentStreams: maxStreams},
		}}
	}
	return p
}

func (p *clientPool) client() *http.Client {
	return p.cs[p.next.Add(1)%uint64(len(p.cs))]
}

func (p *clientPool) close() {
	for _, c := range p.cs {
		c.CloseIdleConnections()
	}
}

// maxStreams bounds concurrent streams on one connection; it is set
// well above any backlog a passing rung can hold so that the pool
// never opens a second connection per client.
const maxStreams = 8192

// do sends one request, records its client-side span, and returns the
// status, a header and the body.
func (p *clientPool) do(ctx context.Context, tr *tracer, o *op, method, url, body, header string) (int, string, string, error) {
	start := time.Now()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, "", "", err
	}
	req.Header.Set(opHeader, itoa(o.id))
	resp, err := p.client().Do(req)
	if err != nil {
		return 0, "", "", err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.add(opKey(o.id), "http.client", start)
	if err != nil {
		return 0, "", "", err
	}
	return resp.StatusCode, resp.Header.Get(header), string(b), nil
}

// classify maps an HTTP status to an outcome.
func classify(status int) outcome {
	switch status {
	case http.StatusOK:
		return okOut
	case http.StatusServiceUnavailable:
		return shedOut
	case http.StatusGatewayTimeout, http.StatusRequestTimeout:
		return timeoutOut
	default:
		return errOut
	}
}

// opHeader carries the request index so the ingress wrapper can file
// its span under the right request.
const opHeader = "X-Perfbench-Op"

// serveHTTP starts an HTTP server that accepts HTTP/1.1 (the ingress
// forwarding client) and unencrypted HTTP/2 (the generator).
func serveHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	srv := &http.Server{Handler: h, Protocols: &protos, HTTP2: &http.HTTP2Config{MaxConcurrentStreams: maxStreams}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("http server: %v", err)
		}
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// lateHandler lets a server start listening before its handler exists:
// queue-group members must know each other's addresses to be built.
type lateHandler struct{ h atomic.Value }

func (l *lateHandler) set(h http.Handler) { l.h.Store(h) }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, ok := l.h.Load().(http.Handler)
	if !ok {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}
