// Command hivemind-live boots a real (non-simulated) replica fleet on
// loopback TCP — controller replicas fronting serverless gateways over
// a shared durable store — drives traced chain requests through it, and
// reports what the observability layer saw: a Chrome trace with spans
// from every layer (gateway, controller, RPC hop, runtime), the paper's
// four-stage latency decomposition, and the metrics registry.
//
// Usage:
//
//	hivemind-live -replicas 3 -requests 20 -trace live.json
//	hivemind-live -kill -trace live.json          # crash the primary midway
//	hivemind-live -http 127.0.0.1:8080            # keep serving /metrics /trace /debug/pprof
//	hivemind-live -ingress 127.0.0.1:8081         # keep serving the async HTTP job API
//
// With -ingress the fleet stays up serving the job API:
//
//	curl -d 'ping' 'http://127.0.0.1:8081/do/pipeline'            # → {"resultId":"..."}
//	curl 'http://127.0.0.1:8081/then/<resultId>'                  # → ping.sense.plan.act
//	curl -d 'ping' 'http://127.0.0.1:8081/do/pipeline?then=true'  # block for the result
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
	"hivemind/internal/store"
	"hivemind/internal/trace"
)

// liveNode is one controller+gateway "process" in the fleet.
type liveNode struct {
	id        int
	replica   *controller.Replica
	rt        *runtime.Runtime
	gw        *runtime.Gateway
	gwAddr    string
	breakdown *stats.Breakdown
}

func main() {
	var (
		replicas = flag.Int("replicas", 3, "controller replica count")
		requests = flag.Int("requests", 20, "traced chain requests to run")
		kill     = flag.Bool("kill", false, "crash the primary replica midway through the run")
		seed     = flag.Int64("seed", 1, "chaos/election seed")
		traceFn  = flag.String("trace", "", "write the fleet's Chrome trace to this file")
		walDir   = flag.String("wal-dir", "",
			"durable store directory: recover prior state from its snapshot+WAL and write-ahead log this run (empty: in-memory)")
		httpAddr = flag.String("http", "",
			"after the run, keep serving /metrics, /trace and /debug/pprof on this address")
		ingressAddr = flag.String("ingress", "",
			"after the run, keep serving the async HTTP job API (POST /do/:job, GET /then/:id) on this address")
	)
	flag.Parse()
	if err := run(*replicas, *requests, *kill, *seed, *traceFn, *walDir, *httpAddr, *ingressAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(replicas, requests int, kill bool, seed int64, traceFn, walDir, httpAddr, ingressAddr string) error {
	if replicas < 1 {
		return fmt.Errorf("need at least 1 replica, got %d", replicas)
	}
	rec := trace.NewRecorder(0)
	live := trace.NewLive(rec)
	reg := metrics.NewRegistry()
	inj := chaos.NewInjector(seed, chaos.Config{})

	var db *store.DB
	if walDir != "" {
		opts := store.DefaultDurableOptions()
		opts.Fsync = store.FsyncBatch
		opts.Monitor = reg
		ddb, st, err := store.OpenDurable(walDir, opts)
		if err != nil {
			return fmt.Errorf("open durable store %s: %w", walDir, err)
		}
		defer ddb.Close()
		db = ddb
		fmt.Printf("recovered %s in %v: %d snapshot docs + %d WAL records (torn tail: %v), fence at term %d\n",
			walDir, st.Elapsed.Round(time.Microsecond), st.SnapshotDocs, st.WALRecords, st.TruncatedTail, ddb.Fence())
	} else {
		db = store.NewDB()
		db.SetMonitor(reg)
	}

	nodes, err := startFleet(replicas, seed, live, reg, inj, db)
	if err != nil {
		return err
	}
	defer func() {
		for _, nd := range nodes {
			nd.replica.Kill()
			nd.gw.Close()
			nd.rt.Close()
		}
	}()
	for _, nd := range nodes {
		nd.replica.Start()
	}
	if waitPrimary(nodes, 5*time.Second) == nil {
		return fmt.Errorf("no primary elected")
	}

	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.gwAddr
	}
	fc := rpc.DialFailover(addrs, rpc.FailoverOptions{
		Attempts:     20 * len(nodes),
		RetryBackoff: 15 * time.Millisecond,
		CallTimeout:  5 * time.Second,
		Observer:     runtime.TraceCallObserver(live),
	})
	defer fc.Close()

	killed := false
	ok, failed := 0, 0
	for i := 0; i < requests; i++ {
		if kill && !killed && i == requests/2 {
			if p := waitPrimary(nodes, 5*time.Second); p != nil {
				fmt.Printf("killing primary replica %d at request %d\n", p.id, i)
				inj.At(controller.KillControllerOp(p.id), 0)
				killed = true
			}
		}
		id := fmt.Sprintf("task-%03d", i)
		payload := runtime.EncodeTaskTraced(id, trace.SpanContext{TraceID: id}, time.Now(), []byte("ping"))
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		_, cerr := fc.Call(ctx, "pipeline", payload)
		cancel()
		reg.Observe("request-latency-s", time.Since(start).Seconds())
		reg.MeterAdd("requests", 1)
		if cerr != nil {
			failed++
			reg.CountEvent("request-failed")
			fmt.Printf("request %s failed: %v\n", id, cerr)
			continue
		}
		ok++
		reg.CountEvent("request-ok")
	}
	fmt.Printf("ran %d requests: %d ok, %d failed across %d replicas\n", requests, ok, failed, replicas)

	// Per-gateway breakdowns fold into one fleet-wide decomposition.
	bd := stats.NewBreakdown()
	for _, nd := range nodes {
		bd.Merge(nd.breakdown)
	}
	fmt.Println(stageTable(bd))
	fmt.Printf("controller: %s\n", controller.FailoverOf(reg))

	fmt.Println("metrics:")
	if err := reg.WriteText(os.Stdout); err != nil {
		return err
	}

	if traceFn != "" {
		f, err := os.Create(traceFn)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s\n%s", rec.Len(), traceFn, rec.Summary())
	}
	if ingressAddr != "" {
		// The job API front door: async submissions with durable result
		// ids, dispatched through the leader-following client, resolved
		// from checkpoints when memory has no record of an id.
		ing, err := ingress.NewServer(ingress.Options{
			Dispatcher: fc,
			Encode:     runtime.EncodeTask,
			Lookup:     nodes[0].gw.TaskResult,
			Monitor:    reg,
		})
		if err != nil {
			return err
		}
		defer ing.Close()
		reg.GaugeFunc("ingress-pending", func() float64 { return float64(ing.Depth()) })
		if httpAddr != "" {
			go func() {
				fmt.Printf("serving /metrics /trace /debug/pprof on %s\n", httpAddr)
				http.ListenAndServe(httpAddr, metrics.DebugMux(reg, rec))
			}()
		}
		fmt.Printf("serving job API (POST /do/:job, GET /then/:id) on %s (Ctrl-C to stop)\n", ingressAddr)
		return http.ListenAndServe(ingressAddr, ing)
	}
	if httpAddr != "" {
		fmt.Printf("serving /metrics /trace /debug/pprof on %s (Ctrl-C to stop)\n", httpAddr)
		return http.ListenAndServe(httpAddr, metrics.DebugMux(reg, rec))
	}
	return nil
}

// startFleet boots n controller replicas, each fronting a gateway that
// serves the demo sense→plan→act chain over a shared durable store,
// with the full observability layer wired in: shared tracer, per-node
// breakdown, one metrics registry for the gateways and the controller
// replicas, and the RPC server interceptor timing every inbound hop.
func startFleet(n int, seed int64, live *trace.Live, reg *metrics.Registry,
	inj *chaos.Injector, db *store.DB) ([]*liveNode, error) {
	chain, fns := demoChain()

	ctrlLns := make([]net.Listener, n)
	ctrlAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ctrlLns[i] = ln
		ctrlAddrs[i] = ln.Addr().String()
	}

	nodes := make([]*liveNode, n)
	for i := 0; i < n; i++ {
		rcfg := runtime.DefaultConfig()
		rcfg.Retries = 0
		rt := runtime.New(rcfg, db)
		for name, fn := range fns {
			rt.Register(name, fn)
		}

		var gwPtr atomic.Pointer[runtime.Gateway]
		ccfg := controller.DefaultReplicaConfig(i, n, seed)
		ccfg.ElectionTimeoutMin = 150 * time.Millisecond
		ccfg.ElectionTimeoutMax = 300 * time.Millisecond
		ccfg.LeaseInterval = 50 * time.Millisecond
		ccfg.VoteTimeout = 100 * time.Millisecond
		ccfg.Fault = inj
		// A fleet restarted over recovered state must resume terms above
		// the persisted fence, and every promotion raises it.
		ccfg.InitialTerm = db.Fence()
		ccfg.OnPromote = func(term uint64) { db.RaiseFence(term) }
		ccfg.Recover = func(ctx context.Context) (int, error) {
			if g := gwPtr.Load(); g != nil {
				return g.Recover(ctx)
			}
			return 0, nil
		}
		peers := make(map[int]func() (net.Conn, error), n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			addr := ctrlAddrs[j]
			peers[j] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		rep := controller.NewReplica(ccfg, peers, reg)
		rep.SetTracer(live)

		bd := stats.NewBreakdown()
		gcfg := runtime.DefaultGatewayConfig()
		gcfg.Timeout = 10 * time.Second
		gcfg.RespawnDelay = 20 * time.Millisecond
		// Checkpoint commits carry this node's last-won term so a deposed
		// primary's in-flight chains bounce off the store fence; a fenced
		// write also tells the replica to step down immediately.
		gcfg.Checkpoints = store.NewFencedCheckpointLog(db, rep.LeaderTerm)
		gcfg.OnFenced = rep.StepDown
		gcfg.Admission = rep.Admission()
		gcfg.Tracker = rep
		gcfg.Tracer = live
		gcfg.Breakdown = bd
		g := runtime.NewGatewayConfig(rt, gcfg)
		g.SetMonitor(reg)
		g.ExposeChain("pipeline", chain)
		g.ExposeBatch()
		g.Server().SetInterceptor(runtime.TraceServerInterceptor(live, "rpc"))
		gwPtr.Store(g)

		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go g.Server().Serve(gln)
		go rep.Server().Serve(ctrlLns[i])

		// A dead replica takes its whole process down: gateway included.
		go func() {
			for rep.State() != controller.Dead {
				time.Sleep(5 * time.Millisecond)
			}
			g.Close()
		}()

		nodes[i] = &liveNode{id: i, replica: rep, rt: rt, gw: g, gwAddr: gln.Addr().String(), breakdown: bd}
	}
	return nodes, nil
}

// waitPrimary polls until one live replica leads (nil on timeout).
func waitPrimary(nodes []*liveNode, timeout time.Duration) *liveNode {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, nd := range nodes {
			if nd.replica.State() == controller.Leader {
				return nd
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// demoChain is the standard swarm pipeline: sense → plan → act, each
// tier doing a few milliseconds of "work" so the execution stage is
// visible in the breakdown.
func demoChain() (chain []string, fns map[string]runtime.Function) {
	tier := func(tag string, d time.Duration) runtime.Function {
		return func(ctx context.Context, in []byte) ([]byte, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return append(append([]byte{}, in...), tag...), nil
		}
	}
	fns = map[string]runtime.Function{
		"sense": tier(".sense", 4*time.Millisecond),
		"plan":  tier(".plan", 8*time.Millisecond),
		"act":   tier(".act", 4*time.Millisecond),
	}
	return []string{"sense", "plan", "act"}, fns
}

// stageTable renders the four-stage latency decomposition (the paper's
// Figs. 3a/6b/12 axes) as a per-stage latency table.
func stageTable(bd *stats.Breakdown) string {
	t := stats.NewTable(fmt.Sprintf("per-stage latency (%d tasks)", bd.N()),
		"stage", "mean_ms", "p50_ms", "p99_ms", "frac")
	for _, st := range stats.AllStages {
		s := bd.Stage(st)
		t.AddRow(string(st),
			fmt.Sprintf("%.3f", s.Mean()*1e3),
			fmt.Sprintf("%.3f", s.Percentile(50)*1e3),
			fmt.Sprintf("%.3f", s.Percentile(99)*1e3),
			fmt.Sprintf("%.3f", bd.MeanFraction(st)))
	}
	tot := bd.Total()
	t.AddRow("total",
		fmt.Sprintf("%.3f", tot.Mean()*1e3),
		fmt.Sprintf("%.3f", tot.Percentile(50)*1e3),
		fmt.Sprintf("%.3f", tot.Percentile(99)*1e3),
		"1.000")
	return t.String()
}
