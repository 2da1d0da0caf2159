// Package ingress is the fleet's HTTP job API: the edge-facing front
// door that turns swarm requests into gateway RPCs. POST /do/:job
// submits a job and returns a result id immediately (?then=true blocks
// for the result inline); GET /then/:id polls or blocks for the
// outcome. Identical pending submissions coalesce into one dispatch,
// small tasks batch into a single RPC envelope to amortise per-call
// overhead on the fast path, and a queue group spreads jobs across
// gateway front-ends by consistent hash with power-of-two-choices
// spill under load. Result ids ride the durable task layer, so a
// collected id survives a gateway crash: an ingress that never saw the
// POST can still answer the GET from the checkpoint log.
package ingress

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
)

// Dispatcher issues one job RPC. runtime gateways, FailoverClients and
// Linker transports all satisfy it (rpc.Transport's Call is this
// signature).
type Dispatcher interface {
	Call(ctx context.Context, method string, payload []byte) ([]byte, error)
}

// DispatchFunc adapts a function to Dispatcher.
type DispatchFunc func(ctx context.Context, method string, payload []byte) ([]byte, error)

// Call implements Dispatcher.
func (f DispatchFunc) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return f(ctx, method, payload)
}

// ForwardHeader marks a request relayed from a sibling ingress so the
// receiver serves it locally instead of bouncing it back (routing
// loop guard).
const ForwardHeader = "X-Hivemind-Forward"

// ResultIDHeader carries the minted result id on every /do response,
// including ?then=true ones whose body is the job output.
const ResultIDHeader = "X-Hivemind-Result-Id"

// Options configures an ingress Server. Dispatcher is required;
// everything else has serviceable defaults.
type Options struct {
	// Dispatcher issues the job RPCs (required).
	Dispatcher Dispatcher
	// Encode wraps a payload with the minted result id before dispatch,
	// so the durable task layer records outputs under the id the client
	// holds (wire to runtime.EncodeTask). nil sends payloads bare —
	// ids then resolve only from this ingress's memory.
	Encode func(id string, payload []byte) []byte
	// Lookup resolves a result id this ingress has no memory of against
	// durable state (wire to Gateway.TaskResult). nil: unknown ids 404.
	Lookup func(id string) ([]byte, bool, error)
	// Monitor receives the ingress-* counters and the
	// ingress-batch-entries histogram (optional).
	Monitor metrics.Sink
	// Group balances jobs across a gateway queue group (optional; nil
	// serves everything locally).
	Group *QueueGroup
	// Batch enables small-task batching when Window > 0.
	Batch BatchOptions
	// Timeout bounds each dispatch (0: 30s).
	Timeout time.Duration
	// TTL retains completed results for duplicate collection (0: 2m).
	TTL time.Duration
	// MaxBody caps request bodies (0: 1 MiB).
	MaxBody int64
}

// Stats is a snapshot of the ingress counters.
type Stats struct {
	Posted     uint64 // POST /do requests accepted (incl. coalesced)
	Coalesced  uint64 // POSTs that joined an already-pending identical job
	Dispatched uint64 // RPCs actually issued (direct or via batch envelope)
	Forwarded  uint64 // requests relayed to the owning group member
	Spilled    uint64 // requests rerouted off an overloaded owner (p2c)
	Batched    uint64 // batch envelopes sent
	Shed       uint64 // jobs rejected by admission control
	Failed     uint64 // jobs failed for any other reason
	Done       uint64 // jobs completed successfully
	Pending    int    // jobs in flight right now
}

type job struct {
	id   string
	name string
	key  string // coalesce key ("" once completed / not coalescable)

	done    chan struct{}
	body    []byte
	err     error
	expires time.Time
}

// Server is the HTTP job API front-end. It implements http.Handler.
type Server struct {
	opts    Options
	batcher *batcher
	client  *http.Client // forwards to group peers

	idPrefix string
	idSeq    atomic.Uint64

	posted, coalesced, dispatched uint64
	forwarded, spilled            uint64
	shed, failed, done            uint64

	mu        sync.Mutex
	jobs      map[string]*job // result id → job (pending + TTL'd results)
	pending   map[string]*job // coalesce key → in-flight job
	nextSweep time.Time
	closed    bool
}

// NewServer builds an ingress front-end. Close releases its batcher.
func NewServer(opts Options) (*Server, error) {
	if opts.Dispatcher == nil {
		return nil, errors.New("ingress: Options.Dispatcher is required")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.TTL <= 0 {
		opts.TTL = 2 * time.Minute
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 1 << 20
	}
	var pfx [4]byte
	if _, err := rand.Read(pfx[:]); err != nil {
		return nil, fmt.Errorf("ingress: minting id prefix: %w", err)
	}
	// Forwarding reuses connections aggressively: under load every
	// non-owned job crosses to its owner, and the default 2-idle-conns
	// pool would churn a socket per request.
	fwd := &http.Client{
		Timeout: opts.Timeout + 5*time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 128,
			MaxConnsPerHost:     256,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	s := &Server{
		opts:     opts,
		client:   fwd,
		idPrefix: hex.EncodeToString(pfx[:]),
		jobs:     map[string]*job{},
		pending:  map[string]*job{},
	}
	if opts.Batch.Window > 0 {
		s.batcher = newBatcher(opts.Dispatcher, opts.Batch, opts.Monitor, &s.dispatched)
	}
	return s, nil
}

// Close flushes the batcher and rejects further submissions.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.batcher != nil {
		s.batcher.close()
	}
}

// Depth reports jobs currently in flight — the queue-group load signal
// and the live gauge on the debug mux.
func (s *Server) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Stats snapshots the ingress counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Posted:     atomic.LoadUint64(&s.posted),
		Coalesced:  atomic.LoadUint64(&s.coalesced),
		Dispatched: atomic.LoadUint64(&s.dispatched),
		Forwarded:  atomic.LoadUint64(&s.forwarded),
		Spilled:    atomic.LoadUint64(&s.spilled),
		Shed:       atomic.LoadUint64(&s.shed),
		Failed:     atomic.LoadUint64(&s.failed),
		Done:       atomic.LoadUint64(&s.done),
	}
	if s.batcher != nil {
		st.Batched = atomic.LoadUint64(&s.batcher.batches)
	}
	st.Pending = s.Depth()
	return st
}

func (s *Server) count(event string) {
	if s.opts.Monitor != nil {
		s.opts.Monitor.CountEvent(event)
	}
}

// ServeHTTP routes the two-verb job API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case len(r.URL.Path) > len("/do/") && r.URL.Path[:len("/do/")] == "/do/":
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.handleDo(w, r, r.URL.Path[len("/do/"):])
	case len(r.URL.Path) > len("/then/") && r.URL.Path[:len("/then/")] == "/then/":
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		s.handleThen(w, r, r.URL.Path[len("/then/"):])
	default:
		http.NotFound(w, r)
	}
}

// coalesceKey identifies a job submission by name and payload content.
func coalesceKey(name string, payload []byte) string {
	h := fnv.New64a()
	io.WriteString(h, name)
	h.Write([]byte{0})
	h.Write(payload)
	return name + "/" + strconv.FormatUint(h.Sum64(), 16)
}

func (s *Server) handleDo(w http.ResponseWriter, r *http.Request, name string) {
	payload, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBody+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(payload)) > s.opts.MaxBody {
		http.Error(w, "body exceeds limit", http.StatusRequestEntityTooLarge)
		return
	}
	key := coalesceKey(name, payload)

	// Queue-group balancing: relay to the owning member unless this
	// request was already forwarded once (loop guard) or we own it.
	if s.opts.Group != nil && r.Header.Get(ForwardHeader) == "" {
		if m, spilled := s.opts.Group.Route(key); m != nil && !m.Self {
			if spilled {
				atomic.AddUint64(&s.spilled, 1)
				s.count("ingress-spill")
			}
			if s.forward(w, r, m, payload) {
				return
			}
			// Peer unreachable: serve locally rather than failing the edge.
		}
	}

	atomic.AddUint64(&s.posted, 1)
	s.count("ingress-post")
	j, fresh, err := s.submit(name, key, payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if !fresh {
		atomic.AddUint64(&s.coalesced, 1)
		s.count("ingress-coalesced")
	}

	w.Header().Set(ResultIDHeader, j.id)
	if r.URL.Query().Get("then") != "true" {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"resultId\":%q}\n", j.id)
		return
	}
	s.count("ingress-then-wait")
	s.awaitAndWrite(w, r, j)
}

// submit registers (or coalesces into) a pending job and starts its
// dispatch. fresh is false when the submission joined an existing
// in-flight job.
func (s *Server) submit(name, key string, payload []byte) (*job, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, errors.New("ingress: server closed")
	}
	if j, ok := s.pending[key]; ok {
		s.mu.Unlock()
		return j, false, nil
	}
	s.sweepLocked(time.Now())
	j := &job{
		id:   fmt.Sprintf("%s-%d", s.idPrefix, s.idSeq.Add(1)),
		name: name,
		key:  key,
		done: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.pending[key] = j
	s.mu.Unlock()

	go s.dispatch(j, payload)
	return j, true, nil
}

func (s *Server) dispatch(j *job, payload []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.Timeout)
	defer cancel()
	if s.opts.Encode != nil {
		payload = s.opts.Encode(j.id, payload)
	}
	atomic.AddUint64(&s.dispatched, 1)
	s.count("ingress-dispatch")
	var out []byte
	var err error
	if s.batcher != nil && len(payload) <= s.batcher.opts.MaxEntryBytes {
		out, err = s.batcher.Call(ctx, j.name, payload)
	} else {
		out, err = s.opts.Dispatcher.Call(ctx, j.name, payload)
	}
	s.complete(j, out, err)
}

func (s *Server) complete(j *job, body []byte, err error) {
	s.mu.Lock()
	j.body, j.err = body, err
	j.expires = time.Now().Add(s.opts.TTL)
	if s.pending[j.key] == j {
		delete(s.pending, j.key)
	}
	s.mu.Unlock()
	close(j.done)
	switch {
	case err == nil:
		atomic.AddUint64(&s.done, 1)
		s.count("ingress-ok")
	case rpc.IsShed(err):
		atomic.AddUint64(&s.shed, 1)
		s.count("ingress-shed")
	default:
		atomic.AddUint64(&s.failed, 1)
		s.count("ingress-error")
	}
}

// sweepLocked drops expired results, at most once per TTL/4.
func (s *Server) sweepLocked(now time.Time) {
	if now.Before(s.nextSweep) {
		return
	}
	s.nextSweep = now.Add(s.opts.TTL / 4)
	for id, j := range s.jobs {
		if !j.expires.IsZero() && now.After(j.expires) {
			delete(s.jobs, id)
		}
	}
}

func (s *Server) handleThen(w http.ResponseWriter, r *http.Request, id string) {
	s.count("ingress-then")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		s.awaitAndWrite(w, r, j)
		return
	}
	// No memory of this id — the ingress that minted it may have died.
	// The durable task layer still knows completed jobs by result id.
	if s.opts.Lookup != nil {
		body, ok, err := s.opts.Lookup(id)
		if err != nil {
			http.Error(w, "result lookup: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if ok {
			w.Header().Set(ResultIDHeader, id)
			w.Write(body)
			return
		}
	}
	http.Error(w, "result not found: "+id, http.StatusNotFound)
}

// awaitAndWrite blocks for the job's outcome (bounded by the request
// context) and renders it: 200 with the raw output, or the mapped
// failure status.
func (s *Server) awaitAndWrite(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.done:
	case <-r.Context().Done():
		http.Error(w, "client gave up before the result arrived", http.StatusRequestTimeout)
		return
	}
	w.Header().Set(ResultIDHeader, j.id)
	if j.err != nil {
		writeErr(w, j.err)
		return
	}
	w.Write(j.body)
}

// writeErr maps dispatch failures onto HTTP statuses the edge
// understands: admission sheds become 503 with a Retry-After hint,
// deadline misses 504, everything else 500.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case rpc.IsShed(err):
		retry := time.Second
		if d, ok := rpc.ShedRetryAfter(err); ok && d > 0 {
			retry = d
		}
		secs := int(retry.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case rpc.IsDeadlineExceeded(err) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case rpc.IsFenced(err):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// forward relays a /do request to the owning group member, streaming
// its response back. Returns false when the peer is unreachable so the
// caller can fall back to local handling.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, m *Member, payload []byte) bool {
	url := m.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return false
	}
	req.Header.Set(ForwardHeader, "1")
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	atomic.AddUint64(&s.forwarded, 1)
	s.count("ingress-forward")
	for _, h := range []string{ResultIDHeader, "Retry-After", "Content-Type"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}
