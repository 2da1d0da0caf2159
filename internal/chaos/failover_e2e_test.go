package chaos_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// These tests are the live §4.7 acceptance suite: a replica set of
// controller+gateway "processes" over real TCP, a chaos-scheduled kill
// of the primary mid-chain, and proof that the chain completes with
// exactly-once step effects within the failover + respawn budget —
// whether recovery comes from the new primary's orphan re-dispatch or
// from a leader-following client retrying through redirects.

// failNode is one controller+gateway process in the replica set.
type failNode struct {
	id      int
	replica *controller.Replica
	rt      *runtime.Runtime
	gw      *runtime.Gateway
	gwAddr  string
}

// fastCtrlConfig shrinks election timescales for test speed.
func fastCtrlConfig(id, replicas int, seed int64) controller.ReplicaConfig {
	cfg := controller.DefaultReplicaConfig(id, replicas, seed)
	cfg.ElectionTimeoutMin = 40 * time.Millisecond
	cfg.ElectionTimeoutMax = 80 * time.Millisecond
	cfg.LeaseInterval = 15 * time.Millisecond
	cfg.VoteTimeout = 50 * time.Millisecond
	return cfg
}

// gwRespawnDelay is the chain respawn pause used by the suite's bound
// assertions.
const gwRespawnDelay = 20 * time.Millisecond

// startFailoverCluster boots n controller replicas, each fronting a
// gateway that serves `chain` over a shared durable store (the
// replicated CouchDB stand-in). The injector is wired as each replica's
// kill switch and every replica reports into mon. denyRecover, when
// non-nil, suppresses orphan re-dispatch on one node (-1: on all): the
// initial primary's promotion-time recovery scan may otherwise race the
// client's brand-new task and complete the chain before the crash the
// test is choreographing (safe thanks to create-only commits, but it
// bypasses the failover under test). Tests store the doomed primary's
// id once known; a node is denied whether its recovery goroutine reads
// the gate before or after that store, so the race is closed.
func startFailoverCluster(t *testing.T, n int, seed int64, mon *controller.Monitor,
	inj *chaos.Injector, db *store.DB, chain []string, fns map[string]runtime.Function,
	denyRecover *atomic.Int64) []*failNode {
	t.Helper()
	log := store.NewCheckpointLog(db)

	ctrlLns := make([]net.Listener, n)
	ctrlAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctrlLns[i] = ln
		ctrlAddrs[i] = ln.Addr().String()
	}

	nodes := make([]*failNode, n)
	for i := 0; i < n; i++ {
		rcfg := runtime.DefaultConfig()
		rcfg.Retries = 0
		rt := runtime.New(rcfg, db)
		for name, fn := range fns {
			rt.Register(name, fn)
		}

		// Recover resolves through an atomic pointer because the gateway
		// needs the replica (admission, task tracking) and the replica
		// needs the gateway (orphan re-dispatch).
		var gwPtr atomic.Pointer[runtime.Gateway]
		ccfg := fastCtrlConfig(i, n, seed)
		ccfg.Fault = inj
		ccfg.Recover = func(ctx context.Context) (int, error) {
			if denyRecover != nil {
				if d := denyRecover.Load(); d == -1 || int(d) == i {
					return 0, nil
				}
			}
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
		rep := controller.NewReplica(ccfg, peers, mon)

		gcfg := runtime.DefaultGatewayConfig()
		gcfg.Timeout = 10 * time.Second
		gcfg.RespawnDelay = gwRespawnDelay
		gcfg.Checkpoints = log
		gcfg.Admission = rep.Admission()
		gcfg.Tracker = rep
		g := runtime.NewGatewayConfig(rt, gcfg)
		g.ExposeChain("pipeline", chain)
		gwPtr.Store(g)

		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go g.Server().Serve(gln)
		go rep.Server().Serve(ctrlLns[i])

		// A dead replica takes its whole process down: gateway included.
		go func() {
			for rep.State() != controller.Dead {
				time.Sleep(2 * time.Millisecond)
			}
			g.Close()
		}()

		nodes[i] = &failNode{id: i, replica: rep, rt: rt, gw: g, gwAddr: gln.Addr().String()}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.replica.Kill()
			nd.gw.Close()
			nd.rt.Close()
		}
	})
	for _, nd := range nodes {
		nd.replica.Start()
	}
	return nodes
}

// waitPrimary polls until one live replica leads.
func waitPrimary(t *testing.T, nodes []*failNode, timeout time.Duration) *failNode {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, nd := range nodes {
			if nd.replica.State() == controller.Leader {
				return nd
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no primary elected")
	return nil
}

// blockingMid builds the standard 3-tier chain whose middle tier blocks
// on its very first execution (the one the primary crash interrupts)
// and runs normally afterwards.
func blockingMid(midEntered chan<- struct{}) (chain []string, fns map[string]runtime.Function) {
	var first atomic.Bool
	first.Store(true)
	fns = map[string]runtime.Function{
		"head": func(ctx context.Context, in []byte) ([]byte, error) {
			return append(append([]byte{}, in...), ".h"...), nil
		},
		"mid": func(ctx context.Context, in []byte) ([]byte, error) {
			if first.CompareAndSwap(true, false) {
				select {
				case midEntered <- struct{}{}:
				default:
				}
				<-ctx.Done() // held hostage until the primary dies
				return nil, ctx.Err()
			}
			return append(append([]byte{}, in...), ".m"...), nil
		},
		"tail": func(ctx context.Context, in []byte) ([]byte, error) {
			return append(append([]byte{}, in...), ".t"...), nil
		},
	}
	return []string{"head", "mid", "tail"}, fns
}

// Acceptance: a chaos-scheduled controller kill mid-chain, 2 hot
// standbys. The new primary's orphan re-dispatch completes the chain
// with exactly-once step effects, and the measured failover latency is
// exposed via the Monitor and bounded by election timeout + respawn
// delay.
func TestFailoverE2EOrphanRedispatchAfterPrimaryKill(t *testing.T) {
	mon := controller.NewMonitor()
	inj := chaos.NewInjector(42, chaos.Config{})
	db := store.NewDB()
	midEntered := make(chan struct{}, 1)
	chain, fns := blockingMid(midEntered)
	var denyRecover atomic.Int64
	denyRecover.Store(-1) // deny everywhere until the doomed primary is known
	nodes := startFailoverCluster(t, 3, 42, mon, inj, db, chain, fns, &denyRecover)
	primary := waitPrimary(t, nodes, 3*time.Second)

	// Fire the chain at the primary's gateway with an explicit task id.
	// The call itself will die with the primary; recovery must come from
	// the standby takeover.
	conn, err := net.Dial("tcp", primary.gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(conn, 4)
	defer cl.Close()
	callDone := make(chan error, 1)
	go func() {
		_, cerr := cl.Call(context.Background(), "pipeline", runtime.EncodeTask("task-e2e", []byte("x")))
		callDone <- cerr
	}()

	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}

	// Kill the primary mid-"mid" via the scheduled chaos fault — the
	// next lease round crosses the deadline and crashes the process.
	// Recovery stays denied on the doomed node only, so even a late
	// promotion-time scan there cannot complete the chain; the standby
	// that takes over recovers freely.
	killAt := time.Now()
	denyRecover.Store(int64(primary.id))
	inj.At(controller.KillControllerOp(primary.id), 0)

	select {
	case cerr := <-callDone:
		if cerr == nil {
			t.Fatal("call to the killed primary reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client call never failed after the primary died")
	}

	// The chain completes through the new primary's Recover.
	log := store.NewCheckpointLog(db)
	deadline := time.Now().Add(5 * time.Second)
	for {
		orphans, oerr := log.Orphans()
		if oerr == nil && len(orphans) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphan task never completed; remaining: %v", orphans)
		}
		time.Sleep(10 * time.Millisecond)
	}
	completedIn := time.Since(killAt)

	// Exactly-once step effects: every output committed at generation 1
	// with the expected lineage.
	want := []string{"x.h", "x.h.m", "x.h.m.t"}
	for step := 0; step < 3; step++ {
		doc, gerr := db.Get(store.StepOutputKey("task-e2e", step))
		if gerr != nil {
			t.Fatalf("step %d output missing: %v", step, gerr)
		}
		if g := store.RevGen(doc.Rev); g != 1 {
			t.Fatalf("step %d committed %d times, want exactly once", step, g)
		}
		if string(doc.Body) != want[step] {
			t.Fatalf("step %d output = %q, want %q", step, doc.Body, want[step])
		}
	}

	// The shared monitor saw the whole story.
	waitCount(t, mon, controller.EventOrphanRedispatch, 1, 5*time.Second)
	fo := controller.FailoverOf(mon)
	if fo.Failovers < 1 {
		for _, nd := range nodes {
			lid, term := nd.replica.Leader()
			t.Logf("node %d: state=%v leader=%d term=%d", nd.id, nd.replica.State(), lid, term)
		}
		t.Fatalf("failovers = %d (elections %d), want >= 1", fo.Failovers, fo.Elections)
	}
	if fo.FailoverLatency.N() < 1 {
		t.Fatal("no failover latency observation")
	}
	cfg := fastCtrlConfig(0, 3, 0)
	bound := (2*cfg.ElectionTimeoutMax + 4*cfg.VoteTimeout + gwRespawnDelay).Seconds()
	if fo.FailoverLatency.Max() > bound {
		t.Fatalf("failover latency %.3fs exceeds election+respawn bound %.3fs",
			fo.FailoverLatency.Max(), bound)
	}
	// End-to-end wall clock: failover + recover + remaining two tiers,
	// with generous CI slack on top of the modelled budget.
	if wall := bound + 2.0; completedIn.Seconds() > wall {
		t.Fatalf("orphan completed in %v, want under %.1fs", completedIn, wall)
	}
	if inj.FaultCount(controller.KillControllerOp(primary.id)) != 1 {
		t.Fatalf("kill fault fired %d times, want 1", inj.FaultCount(controller.KillControllerOp(primary.id)))
	}
}

// A leader-following client retrying the same task id across the
// failover joins the checkpointed chain instead of forking it: the
// retry and the new primary's orphan re-dispatch race, yet every step
// commits exactly once and the client gets the chain's real output.
func TestFailoverE2EClientRetryDeduplicatesAgainstRecovery(t *testing.T) {
	mon := controller.NewMonitor()
	inj := chaos.NewInjector(7, chaos.Config{})
	db := store.NewDB()
	midEntered := make(chan struct{}, 1)
	chain, fns := blockingMid(midEntered)
	nodes := startFailoverCluster(t, 3, 7, mon, inj, db, chain, fns, nil)
	primary := waitPrimary(t, nodes, 3*time.Second)

	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.gwAddr
	}
	fc := rpc.DialFailover(addrs, rpc.FailoverOptions{
		Attempts:     60,
		RetryBackoff: 15 * time.Millisecond,
		CallTimeout:  3 * time.Second,
	})
	defer fc.Close()

	callDone := make(chan struct{})
	var out []byte
	var callErr error
	go func() {
		defer close(callDone)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		out, callErr = fc.Call(ctx, "pipeline", runtime.EncodeTask("task-retry", []byte("x")))
	}()

	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}
	inj.At(controller.KillControllerOp(primary.id), 0)

	select {
	case <-callDone:
	case <-time.After(15 * time.Second):
		t.Fatal("client call never finished across the failover")
	}
	if callErr != nil {
		t.Fatalf("client call failed across failover: %v", callErr)
	}
	if string(out) != "x.h.m.t" {
		t.Fatalf("client output = %q, want x.h.m.t", out)
	}
	for step := 0; step < 3; step++ {
		doc, err := db.Get(store.StepOutputKey("task-retry", step))
		if err != nil {
			t.Fatalf("step %d output missing: %v", step, err)
		}
		if g := store.RevGen(doc.Rev); g != 1 {
			t.Fatalf("step %d committed %d times, want exactly once", step, g)
		}
	}
	if mon.Count(controller.EventFailover) < 1 {
		t.Fatal("monitor recorded no failover")
	}
}
