package ingress

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
)

// envelopeDispatcher serves batch envelopes and singletons the way a
// gateway with ExposeBatch does, counting wire-level calls.
type envelopeDispatcher struct {
	calls   atomic.Uint64
	batches atomic.Uint64
	fail    func(method string) error // per-entry failure injection
}

func (d *envelopeDispatcher) Call(_ context.Context, method string, payload []byte) ([]byte, error) {
	d.calls.Add(1)
	serve := func(m string, p []byte) ([]byte, error) {
		if d.fail != nil {
			if err := d.fail(m); err != nil {
				return nil, err
			}
		}
		return append([]byte(m+"="), p...), nil
	}
	if method != rpc.BatchMethod {
		return serve(method, payload)
	}
	d.batches.Add(1)
	entries, err := rpc.DecodeBatch(payload)
	if err != nil {
		return nil, err
	}
	replies := make([]rpc.BatchReply, len(entries))
	for i, e := range entries {
		body, err := serve(e.Method, e.Payload)
		if err != nil {
			replies[i] = rpc.BatchReply{Err: err.Error()}
		} else {
			replies[i] = rpc.BatchReply{Body: body}
		}
	}
	return rpc.EncodeBatchReplies(replies), nil
}

func TestBatcherCoalescesCallsIntoOneEnvelope(t *testing.T) {
	d := &envelopeDispatcher{}
	var sent uint64
	b := newBatcher(d, BatchOptions{Window: 20 * time.Millisecond, MaxEntries: 8}, nil, &sent)
	defer b.close()

	const n = 8 // == MaxEntries: size-triggered flush, no window wait
	out := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := b.Call(context.Background(), "work", []byte{byte('a' + i)})
			out[i], errs[i] = string(body), err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("entry %d: %v", i, errs[i])
		}
		want := "work=" + string([]byte{byte('a' + i)})
		if out[i] != want {
			t.Fatalf("entry %d: %q, want %q", i, out[i], want)
		}
	}
	if got := d.calls.Load(); got != 1 {
		t.Fatalf("wire calls = %d, want 1 envelope", got)
	}
	if d.batches.Load() != 1 || atomic.LoadUint64(&b.batches) != 1 {
		t.Fatalf("envelopes: wire %d, batcher %d, want 1/1", d.batches.Load(), b.batches)
	}
}

func TestBatcherWindowFlushesPartialBatch(t *testing.T) {
	d := &envelopeDispatcher{}
	var sent uint64
	b := newBatcher(d, BatchOptions{Window: 10 * time.Millisecond, MaxEntries: 100}, nil, &sent)
	defer b.close()

	// A lone call under the entry threshold flushes on the window and
	// skips the envelope entirely.
	body, err := b.Call(context.Background(), "solo", []byte("x"))
	if err != nil || string(body) != "solo=x" {
		t.Fatalf("solo call: %q, %v", body, err)
	}
	if d.batches.Load() != 0 {
		t.Fatal("single entry should bypass the batch envelope")
	}
	if d.calls.Load() != 1 {
		t.Fatalf("wire calls = %d, want 1", d.calls.Load())
	}
}

func TestBatcherPreservesTypedErrorsPerEntry(t *testing.T) {
	d := &envelopeDispatcher{fail: func(m string) error {
		if m == "busy" {
			return rpc.ShedError(100 * time.Millisecond)
		}
		return nil
	}}
	var sent uint64
	b := newBatcher(d, BatchOptions{Window: 10 * time.Millisecond, MaxEntries: 2}, nil, &sent)
	defer b.close()

	var okBody []byte
	var okErr, shedErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); okBody, okErr = b.Call(context.Background(), "fine", []byte("p")) }()
	go func() { defer wg.Done(); _, shedErr = b.Call(context.Background(), "busy", []byte("q")) }()
	wg.Wait()

	if okErr != nil || string(okBody) != "fine=p" {
		t.Fatalf("healthy entry: %q, %v", okBody, okErr)
	}
	if shedErr == nil || !rpc.IsShed(shedErr) {
		t.Fatalf("shed entry error %v does not parse as shed", shedErr)
	}
	if _, ok := rpc.ShedRetryAfter(shedErr); !ok {
		t.Fatalf("shed entry lost its retry-after hint: %v", shedErr)
	}
}

func TestBatcherBigPayloadsBypassViaServer(t *testing.T) {
	// Through the Server: payloads over MaxEntryBytes skip the batcher.
	d := &envelopeDispatcher{}
	s, err := NewServer(Options{
		Dispatcher: d,
		Batch:      BatchOptions{Window: 5 * time.Millisecond, MaxEntryBytes: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	big := make([]byte, 64)
	j, _, err := s.submit("huge", coalesceKey("huge", big), big)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if j.err != nil {
		t.Fatal(j.err)
	}
	if d.batches.Load() != 0 {
		t.Fatal("oversized payload went through the batch envelope")
	}
}

// TestIngressBatchEntriesHistogram reads the batcher's one metric back
// through a real registry: a burst of distinct jobs through a batching
// Server leaves ingress-batch-entries with one observation per envelope
// (N = batches dispatched) summing to the entries those envelopes
// carried. Lone-entry flushes skip the envelope and are not observed.
func TestIngressBatchEntriesHistogram(t *testing.T) {
	d := &envelopeDispatcher{}
	reg := metrics.NewRegistry()
	s, err := NewServer(Options{
		Dispatcher: d,
		Monitor:    reg,
		Batch:      BatchOptions{Window: 50 * time.Millisecond, MaxEntries: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// POST /do answers before dispatch, so back-to-back posts land in
	// the same batch windows.
	const n = 16
	ids := make([]string, n)
	for i := range ids {
		ids[i] = postDo(t, ts, "job", fmt.Sprintf("p%02d", i), "")
	}
	for i, id := range ids {
		code, body, _ := getThen(t, ts, id)
		if want := fmt.Sprintf("job=p%02d", i); code != http.StatusOK || body != want {
			t.Fatalf("job %d: %d %q, want 200 %q", i, code, body, want)
		}
	}

	batches := d.batches.Load()
	if batches == 0 {
		t.Fatal("burst produced no batch envelope")
	}
	if st := s.Stats(); st.Coalesced != 0 || st.Batched != batches {
		t.Fatalf("stats coalesced=%d batched=%d, want 0 and %d", st.Coalesced, st.Batched, batches)
	}
	h := reg.Histogram("ingress-batch-entries")
	if uint64(h.N()) != batches {
		t.Fatalf("histogram N = %d, want %d batches", h.N(), batches)
	}
	singles := d.calls.Load() - batches
	if want := float64(n - singles); h.Sum() != want {
		t.Fatalf("histogram sum = %g, want %g entries in envelopes", h.Sum(), want)
	}
}
