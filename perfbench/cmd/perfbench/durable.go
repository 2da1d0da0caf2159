package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/controller"
	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// jobs-durable: the shape hivemind-live serves with -ingress and
// -wal-dir. Three controller replicas front gateways over one durable
// store (write-ahead log, batched fsync); each gateway runs the
// checkpointed sense→plan→act chain; one ingress dispatches through
// the leader-following FailoverClient over TCP with result ids as task
// ids, and clients submit with POST /do/pipeline and collect with
// GET /then/:id. Arrivals come in bursts of identical payloads, like
// one swarm event reported by several devices at once, so jobs
// coalesce; nothing crosses a queue group or a ring.
const (
	durableReplicas = 3
	durableTier     = time.Millisecond
	durableMaxBurst = 4 // burst sizes are uniform on 1..durableMaxBurst
	durableSuffix   = ".sense.plan.act"
	durableSample   = 64 // completed ids re-read from durable state
	// electionSeed fixes the replicas' election timeouts. It is not the
	// run's seed, so that every run's set-up waits out the same timeouts.
	electionSeed = 1
)

type durableNode struct {
	rep *controller.Replica
	rt  *runtime.Runtime
	gw  *runtime.Gateway
}

type durableStack struct {
	seed    int64
	dir     string
	db      *store.DB
	reg     *metrics.Registry
	mon     *controller.Monitor
	nodes   []*durableNode
	gwAddrs []string
	fc      *rpc.FailoverClient
	ing     *ingress.Server
	stop    func()
	base    string
	pool    *clientPool
	tr      *tracer
	timed   []*timedMonitor

	mu    sync.Mutex
	posts map[int]submission // request index → what its POST was given
}

type submission struct{ id, payload string }

// durableKey reads the result id the ingress wrapped around a payload.
func durableKey(payload []byte) string {
	if id, _, ok := runtime.DecodeTask(payload); ok {
		return resultKey(id)
	}
	return ""
}

var walDirs atomic.Int64

func bootDurable(seed int64, tr *tracer) (*durableStack, error) {
	s := &durableStack{seed: seed, tr: tr, reg: metrics.NewRegistry(), mon: controller.NewMonitor(), posts: map[int]submission{}}
	s.dir = fmt.Sprintf("%s/wal-%d-%d", buildDir, os.Getpid(), walDirs.Add(1))
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	opts := store.DefaultDurableOptions()
	opts.Fsync = store.FsyncBatch
	opts.Monitor = s.reg
	db, _, err := store.OpenDurable(s.dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open durable store: %w", err)
	}
	s.db = db
	if err := s.startFleet(); err != nil {
		s.close()
		return nil, err
	}
	if s.leader() == nil {
		s.close()
		return nil, fmt.Errorf("no controller leader elected")
	}
	s.fc = rpc.DialFailover(s.gwAddrs, rpc.FailoverOptions{
		Attempts:     20 * durableReplicas,
		RetryBackoff: 15 * time.Millisecond,
		CallTimeout:  5 * time.Second,
	})
	var d ingress.Dispatcher = s.fc
	if tr != nil {
		d = tracedDispatcher{d: s.fc, tr: tr, keyOf: durableKey}
	}
	s.ing, err = ingress.NewServer(ingress.Options{
		Dispatcher: d,
		Encode:     runtime.EncodeTask,
		Lookup:     s.nodes[0].gw.TaskResult,
		Monitor:    s.reg,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	var h http.Handler = s.ing
	if tr != nil {
		h = traceHandler(tr, s.ing, durableKey)
	}
	s.base, s.stop, err = serveHTTP(h)
	if err != nil {
		s.close()
		return nil, err
	}
	s.pool = newClientPool(nproc())
	return s, nil
}

func (s *durableStack) startFleet() error {
	n := durableReplicas
	ctrl := make([]net.Listener, n)
	for i := range ctrl {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		ctrl[i] = ln
	}
	tier := func(tag string) runtime.Function {
		return traceFn(s.tr, func(ctx context.Context, in []byte) ([]byte, error) {
			t := time.NewTimer(durableTier)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return append(append([]byte{}, in...), tag...), nil
		})
	}
	for i := 0; i < n; i++ {
		rcfg := runtime.DefaultConfig()
		rcfg.Retries = 0
		rt := runtime.New(rcfg, s.db)
		rt.Register("sense", tier(".sense"))
		rt.Register("plan", tier(".plan"))
		rt.Register("act", tier(".act"))

		ccfg := controller.DefaultReplicaConfig(i, n, electionSeed)
		ccfg.ElectionTimeoutMin = 150 * time.Millisecond
		ccfg.ElectionTimeoutMax = 300 * time.Millisecond
		ccfg.LeaseInterval = 50 * time.Millisecond
		ccfg.VoteTimeout = 100 * time.Millisecond
		ccfg.InitialTerm = s.db.Fence()
		db := s.db
		ccfg.OnPromote = func(term uint64) { db.RaiseFence(term) }
		var gwPtr atomic.Pointer[runtime.Gateway]
		ccfg.Recover = func(ctx context.Context) (int, error) {
			if g := gwPtr.Load(); g != nil {
				return g.Recover(ctx)
			}
			return 0, nil
		}
		peers := make(map[int]func() (net.Conn, error), n-1)
		for j := 0; j < n; j++ {
			if j != i {
				addr := ctrl[j].Addr().String()
				peers[j] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
			}
		}
		rep := controller.NewReplica(ccfg, peers, s.mon)

		gcfg := runtime.DefaultGatewayConfig()
		gcfg.Timeout = 10 * time.Second
		gcfg.RespawnDelay = 20 * time.Millisecond
		gcfg.Checkpoints = store.NewFencedCheckpointLog(s.db, rep.LeaderTerm)
		gcfg.OnFenced = rep.StepDown
		gcfg.Admission = rep.Admission()
		gcfg.Tracker = rep
		g := runtime.NewGatewayConfig(rt, gcfg)
		g.SetMonitor(gatewayMonitor(s.reg, s.tr, &s.timed))
		g.ExposeChain("pipeline", []string{"sense", "plan", "act"})
		if s.tr != nil {
			g.Server().SetInterceptor(traceInterceptor(s.tr, durableKey))
		}
		gwPtr.Store(g)
		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.gwAddrs = append(s.gwAddrs, gln.Addr().String())
		go g.Server().Serve(gln)
		go rep.Server().Serve(ctrl[i])
		s.nodes = append(s.nodes, &durableNode{rep: rep, rt: rt, gw: g})
	}
	for _, nd := range s.nodes {
		nd.rep.Start()
	}
	return nil
}

// leader waits for a replica to win the first election.
func (s *durableStack) leader() *durableNode {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, nd := range s.nodes {
			if nd.rep.State() == controller.Leader {
				return nd
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// event j is a burst of 1..durableMaxBurst requests with one payload.
func (s *durableStack) event(j int) (string, int) {
	h := mix(s.seed, uint64(j))
	return "b" + strconv.Itoa(j) + "." + strconv.FormatUint(h, 16), 1 + int(h%durableMaxBurst)
}

func (s *durableStack) meanBurst() float64 { return (1 + durableMaxBurst) / 2.0 }

func (s *durableStack) send(ctx context.Context, o *op) outcome {
	status, id, body, err := s.pool.do(ctx, s.tr, o, http.MethodPost, s.base+"/do/pipeline", o.payload, ingress.ResultIDHeader)
	if err != nil {
		return errOut
	}
	if out := classify(status); out != okOut {
		return out
	}
	var posted struct {
		ResultID string `json:"resultId"`
	}
	if json.Unmarshal([]byte(body), &posted) != nil || posted.ResultID != id || id == "" {
		return wrongOut
	}
	s.mu.Lock()
	s.posts[o.id] = submission{id, o.payload}
	s.mu.Unlock()
	status, _, body, err = s.pool.do(ctx, s.tr, o, http.MethodGet, s.base+"/then/"+id, "", "")
	if err != nil {
		return errOut
	}
	out := classify(status)
	if out == okOut && body != o.payload+durableSuffix {
		return wrongOut
	}
	return out
}

func (s *durableStack) registries() []*metrics.Registry { return []*metrics.Registry{s.reg} }

func (s *durableStack) snapshot() counters {
	st := s.ing.Stats()
	return counters{
		posted:     st.Posted,
		coalesced:  st.Coalesced,
		dispatched: st.Dispatched,
		forwarded:  st.Forwarded,
		spilled:    st.Spilled,
		walAppends: s.reg.Counter(store.MetricWALAppend),
		fsyncs:     s.reg.Counter(store.MetricWALFsync),
		elections:  s.mon.Count(controller.EventElection),
	}
}

func (s *durableStack) queued() int {
	n := 0
	for _, nd := range s.nodes {
		n += nd.gw.AdmissionStats().Queued
	}
	return n
}

func (s *durableStack) observeNs() []float64 { return collectObserveNs(s.timed) }

// creators maps each result id to the request whose submission created
// the job, so a coalesced job's dispatch is charged to one request.
func (s *durableStack) creators() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := make([]int, 0, len(s.posts))
	for op := range s.posts {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := map[string]string{}
	for _, op := range ops {
		k := resultKey(s.posts[op].id)
		if _, ok := out[k]; !ok {
			out[k] = opKey(op)
		}
	}
	return out
}

// verify checks what only the ingress and durable state can show:
// submissions that coalesced share one result id (so the ids handed
// out fall short of the submissions by exactly the ingress's coalesced
// count), no id answers two payloads, and a sample of completed ids
// resolves to the right output through Gateway.TaskResult, read back
// from the checkpoint log.
func (s *durableStack) verify(coalesced uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	payloadOf := map[string]string{}
	for _, p := range s.posts {
		if q, ok := payloadOf[p.id]; ok && q != p.payload {
			return fmt.Errorf("result id %s answered two payloads", p.id)
		}
		payloadOf[p.id] = p.payload
	}
	if shared := uint64(len(s.posts) - len(payloadOf)); shared != coalesced {
		return fmt.Errorf("%d submissions got %d result ids, but the ingress coalesced %d", len(s.posts), len(payloadOf), coalesced)
	}
	ids := make([]string, 0, len(payloadOf))
	for id := range payloadOf {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for i := 0; i < durableSample && len(ids) > 0; i++ {
		id := ids[mix(s.seed, uint64(i))%uint64(len(ids))]
		out, ok, err := s.nodes[i%len(s.nodes)].gw.TaskResult(id)
		if err != nil || !ok || string(out) != payloadOf[id]+durableSuffix {
			return fmt.Errorf("result %s from durable state: %q found=%v err=%v", id, out, ok, err)
		}
	}
	return nil
}

func (s *durableStack) close() error {
	if s.pool != nil {
		s.pool.close()
	}
	if s.stop != nil {
		s.stop()
	}
	if s.ing != nil {
		s.ing.Close()
	}
	if s.fc != nil {
		s.fc.Close()
	}
	for _, nd := range s.nodes {
		nd.rep.Kill()
		nd.gw.Close()
		nd.rt.Close()
	}
	var err error
	if s.db != nil {
		err = s.db.Close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
