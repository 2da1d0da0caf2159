package chaos_test

import (
	"context"
	"fmt"
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

// These suites are the durability half of the §4.7 acceptance story:
// the control-plane state (checkpoints, step outputs, fence) lives in
// a WAL-backed store, the whole replica set crashes, and a fresh
// cluster recovered from the WAL directory finishes the interrupted
// work with exactly-once effects. Every store mutation is term-fenced
// through the fronting replica's LeaderTerm, so the suites double as
// the fencing integration tests.

// ctrlName labels a replica for pair-wise partitions.
func ctrlName(id int) string { return fmt.Sprintf("ctrl-%d", id) }

// startDurableCluster boots n controller replicas fronting gateways
// over a SHARED store db (the replicated CouchDB stand-in), with the
// full fencing loop wired: checkpoint writes carry the replica's
// LeaderTerm, promotion raises the store fence, and a fenced write
// steps the deposed replica down. pairNet additionally tags every
// controller peer connection with WrapConnPair so tests can cut
// individual replica links.
func startDurableCluster(t *testing.T, n int, seed int64, mon *controller.Monitor,
	inj *chaos.Injector, db *store.DB, chain []string, fns map[string]runtime.Function,
	pairNet bool) []*failNode {
	t.Helper()

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

		var gwPtr atomic.Pointer[runtime.Gateway]
		ccfg := fastCtrlConfig(i, n, seed)
		ccfg.Fault = inj
		// Resume terms from the store's fence: a cluster restarted over
		// recovered state must out-term the fence to write at all.
		ccfg.InitialTerm = db.Fence()
		ccfg.Recover = func(ctx context.Context) (int, error) {
			if g := gwPtr.Load(); g != nil {
				return g.Recover(ctx)
			}
			return 0, nil
		}
		// Promotion raises the shared store's fence to the won term
		// before the first recovered write, closing the window where a
		// deposed primary's in-flight mutations could still land.
		ccfg.OnPromote = func(term uint64) { db.RaiseFence(term) }
		peers := make(map[int]func() (net.Conn, error), n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			addr := ctrlAddrs[j]
			me, them := ctrlName(i), ctrlName(j)
			peers[j] = func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				if pairNet {
					return inj.WrapConnPair(c, me, them), nil
				}
				return c, nil
			}
		}
		rep := controller.NewReplica(ccfg, peers, mon)

		gcfg := runtime.DefaultGatewayConfig()
		gcfg.Timeout = 10 * time.Second
		gcfg.RespawnDelay = gwRespawnDelay
		gcfg.Checkpoints = store.NewFencedCheckpointLog(db, rep.LeaderTerm)
		gcfg.Admission = rep.Admission()
		gcfg.Tracker = rep
		gcfg.OnFenced = rep.StepDown
		g := runtime.NewGatewayConfig(rt, gcfg)
		g.SetMonitor(mon)
		g.ExposeChain("pipeline", chain)
		gwPtr.Store(g)

		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go g.Server().Serve(gln)
		go rep.Server().Serve(ctrlLns[i])

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

// crashCluster kills every node abruptly — the store object is
// abandoned WITHOUT Close, exactly as a process crash would leave it:
// only what the WAL already wrote survives. Every runtime stops before
// any replica dies, so no node outlives the crash instant: otherwise a
// standby still running while its peers are torn down could win an
// election and finish the interrupted work before it is killed too.
func crashCluster(nodes []*failNode) {
	for _, nd := range nodes {
		nd.rt.Close()
	}
	for _, nd := range nodes {
		nd.replica.Kill()
		nd.gw.Close()
	}
}

// plainChain is the 3-tier pipeline with no blocking — the function
// set a restarted cluster registers so recovered orphans run through.
func plainChain() (chain []string, fns map[string]runtime.Function) {
	mk := func(suffix string) runtime.Function {
		return func(ctx context.Context, in []byte) ([]byte, error) {
			return append(append([]byte{}, in...), suffix...), nil
		}
	}
	fns = map[string]runtime.Function{"head": mk(".h"), "mid": mk(".m"), "tail": mk(".t")}
	return []string{"head", "mid", "tail"}, fns
}

// waitNoOrphans polls until the checkpoint log drains.
func waitNoOrphans(t *testing.T, log *store.CheckpointLog, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		orphans, err := log.Orphans()
		if err == nil && len(orphans) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphans never drained; remaining: %v (err %v)", orphans, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertExactlyOnce checks every step output of a task committed at
// generation 1 with the expected lineage.
func assertExactlyOnce(t *testing.T, db *store.DB, taskID string) {
	t.Helper()
	want := []string{"x.h", "x.h.m", "x.h.m.t"}
	for step := 0; step < 3; step++ {
		doc, err := db.Get(store.StepOutputKey(taskID, step))
		if err != nil {
			t.Fatalf("task %s step %d output missing: %v", taskID, step, err)
		}
		if g := store.RevGen(doc.Rev); g != 1 {
			t.Fatalf("task %s step %d committed %d times, want exactly once", taskID, step, g)
		}
		if string(doc.Body) != want[step] {
			t.Fatalf("task %s step %d output = %q, want %q", taskID, step, doc.Body, want[step])
		}
	}
}

// Acceptance: the WHOLE cluster crashes mid-chain (not just the
// primary — process state is gone), a fresh cluster recovers the store
// from the WAL directory, and the interrupted task completes with
// exactly-once step effects.
func TestCrashRestartE2ERecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, _, err := store.OpenDurable(dir, store.DurableOptions{
		Fsync: store.FsyncNever, CompactEvery: store.NoAutoCompact,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := controller.NewMonitor()
	inj := chaos.NewInjector(11, chaos.Config{})
	midEntered := make(chan struct{}, 1)
	chain, fns := blockingMid(midEntered)
	nodes := startDurableCluster(t, 3, 11, mon, inj, db, chain, fns, false)
	primary := waitPrimary(t, nodes, 3*time.Second)

	conn, err := net.Dial("tcp", primary.gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(conn, 4)
	defer cl.Close()
	callDone := make(chan error, 1)
	go func() {
		_, cerr := cl.Call(context.Background(), "pipeline", runtime.EncodeTask("task-crash", []byte("x")))
		callDone <- cerr
	}()
	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}

	// Crash everything. The head output and the write-ahead checkpoint
	// (NextStep=1) are on disk; the mid tier's work is lost with the
	// processes.
	crashCluster(nodes)
	select {
	case cerr := <-callDone:
		if cerr == nil {
			t.Fatal("call through the crashed cluster reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client call never failed after the crash")
	}

	// Recover the store from the WAL directory and prove the crash left
	// an enumerable orphan.
	db2, st, err := store.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	orphans, err := store.NewCheckpointLog(db2).Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0].TaskID != "task-crash" || orphans[0].NextStep != 1 {
		t.Fatalf("orphans after recovery = %+v, want task-crash at step 1", orphans)
	}

	// A fresh cluster over the recovered store finishes the task via the
	// new primary's orphan re-dispatch.
	chain2, fns2 := plainChain()
	startDurableCluster(t, 3, 12, mon, inj, db2, chain2, fns2, false)
	waitNoOrphans(t, store.NewCheckpointLog(db2), 10*time.Second)
	assertExactlyOnce(t, db2, "task-crash")

	if db2.Fence() == 0 {
		t.Fatal("recovered cluster's promotion never raised the store fence")
	}
	if mon.Count(controller.EventOrphanRedispatch) < 1 {
		t.Fatal("no orphan re-dispatch recorded")
	}
}

// Acceptance: snapshot+compaction runs underneath live traffic, and a
// crash afterwards recovers from the compacted snapshot plus a short
// WAL tail — recovery work is bounded by live state, not by the full
// mutation history the traffic generated.
func TestSnapshotMidTrafficE2EBoundedRecovery(t *testing.T) {
	const tasks = 25
	const compactEvery = 32
	dir := t.TempDir()
	mon := controller.NewMonitor()
	db, _, err := store.OpenDurable(dir, store.DurableOptions{
		Fsync: store.FsyncNever, CompactEvery: compactEvery, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(13, chaos.Config{})
	chain, fns := plainChain()
	nodes := startDurableCluster(t, 3, 13, mon, inj, db, chain, fns, false)
	waitPrimary(t, nodes, 3*time.Second)

	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.gwAddr
	}
	fc := rpc.DialFailover(addrs, rpc.FailoverOptions{CallTimeout: 5 * time.Second})
	defer fc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < tasks; i++ {
		out, cerr := fc.Call(ctx, "pipeline", runtime.EncodeTask(fmt.Sprintf("bulk-%d", i), []byte("x")))
		if cerr != nil {
			t.Fatalf("task %d failed: %v", i, cerr)
		}
		if string(out) != "x.h.m.t" {
			t.Fatalf("task %d output = %q", i, out)
		}
	}
	if mon.Count(store.MetricSnapshot) == 0 {
		t.Fatalf("no compaction fired under %d tasks with CompactEvery=%d", tasks, compactEvery)
	}

	crashCluster(nodes)
	db2, st, err := store.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each durable chain is ~9 store mutations; without compaction the
	// WAL would hold ~9×tasks records. Recovery must replay at most one
	// compaction window's worth.
	if st.WALRecords >= 2*compactEvery {
		t.Fatalf("recovery replayed %d WAL records — compaction did not bound it (CompactEvery=%d)",
			st.WALRecords, compactEvery)
	}
	if st.SnapshotDocs == 0 {
		t.Fatal("recovery loaded no snapshot")
	}
	for i := 0; i < tasks; i++ {
		assertExactlyOnce(t, db2, fmt.Sprintf("bulk-%d", i))
	}
	orphans, err := store.NewCheckpointLog(db2).Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("completed traffic left orphans: %+v", orphans)
	}
	db2.Close()
}
