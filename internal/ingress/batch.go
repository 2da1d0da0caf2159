package ingress

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
)

// BatchOptions tunes small-task batching. Batching is enabled when
// Window > 0: dispatches arriving within the window (or until a size
// threshold trips) ride one rpc batch envelope, amortising per-call
// framing and queueing on the shm-ring/mux fast path.
type BatchOptions struct {
	// Window is the max linger before a partial batch flushes.
	Window time.Duration
	// MaxEntries flushes a batch at this many entries (0: 16).
	MaxEntries int
	// MaxBytes flushes a batch at this many payload bytes (0: 64 KiB).
	MaxBytes int
	// MaxEntryBytes bypasses batching for payloads larger than this —
	// big bodies don't benefit and would delay their batch (0: 4 KiB).
	MaxEntryBytes int
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 16
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 10
	}
	if o.MaxEntryBytes <= 0 {
		o.MaxEntryBytes = 4 << 10
	}
	return o
}

type batchResult struct {
	body []byte
	err  error
}

// pendingBatch accumulates entries until a threshold or the window
// timer flushes it.
type pendingBatch struct {
	entries  []rpc.BatchEntry
	waiters  []chan batchResult
	bytes    int
	deadline time.Time // min caller deadline (zero: none)
	timer    *time.Timer
}

// batcher coalesces many small dispatches into single batch-envelope
// RPCs. Callers block in Call; replies are fanned back out per entry
// with full typed-error fidelity (a shed entry still answers
// rpc.IsShed).
type batcher struct {
	d       Dispatcher
	opts    BatchOptions
	monitor metrics.Sink
	sent    *uint64 // server's dispatched counter: +1 per envelope

	batches uint64 // envelopes flushed with >1 entry

	mu     sync.Mutex
	cur    *pendingBatch
	closed bool
}

func newBatcher(d Dispatcher, opts BatchOptions, m metrics.Sink, sent *uint64) *batcher {
	return &batcher{d: d, opts: opts.withDefaults(), monitor: m, sent: sent}
}

func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	pb := b.cur
	b.cur = nil
	b.mu.Unlock()
	if pb != nil {
		pb.timer.Stop()
		go b.flush(pb)
	}
}

// Call enqueues one dispatch into the current batch and blocks for its
// reply. The caller's context cancels its wait, not the batch.
func (b *batcher) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	ch := make(chan batchResult, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.d.Call(ctx, method, payload)
	}
	if b.cur == nil {
		pb := &pendingBatch{}
		pb.timer = time.AfterFunc(b.opts.Window, func() { b.flushIfCurrent(pb) })
		b.cur = pb
	}
	pb := b.cur
	pb.entries = append(pb.entries, rpc.BatchEntry{Method: method, Payload: payload})
	pb.waiters = append(pb.waiters, ch)
	pb.bytes += len(payload)
	if d, ok := ctx.Deadline(); ok && (pb.deadline.IsZero() || d.Before(pb.deadline)) {
		pb.deadline = d
	}
	full := len(pb.entries) >= b.opts.MaxEntries || pb.bytes >= b.opts.MaxBytes
	if full {
		b.cur = nil
	}
	b.mu.Unlock()

	if full {
		pb.timer.Stop()
		go b.flush(pb)
	}
	select {
	case res := <-ch:
		return res.body, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flushIfCurrent is the window-timer path: flush pb only if it is
// still accumulating (a size-trigger may have flushed it already).
func (b *batcher) flushIfCurrent(pb *pendingBatch) {
	b.mu.Lock()
	if b.cur != pb {
		b.mu.Unlock()
		return
	}
	b.cur = nil
	b.mu.Unlock()
	b.flush(pb)
}

func (b *batcher) flush(pb *pendingBatch) {
	if len(pb.entries) == 0 {
		return
	}
	ctx := context.Background()
	if !pb.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, pb.deadline)
		defer cancel()
	}
	atomic.AddUint64(b.sent, 1)
	if len(pb.entries) == 1 {
		// A lone entry skips the envelope: same wire cost, less framing.
		body, err := b.d.Call(ctx, pb.entries[0].Method, pb.entries[0].Payload)
		pb.waiters[0] <- batchResult{body: body, err: err}
		return
	}
	atomic.AddUint64(&b.batches, 1)
	if b.monitor != nil {
		// One observation per envelope: the histogram's count is the
		// number of batches, its mean the entries per batch.
		b.monitor.Observe("ingress-batch-entries", float64(len(pb.entries)))
	}
	raw, err := b.d.Call(ctx, rpc.BatchMethod, rpc.EncodeBatch(pb.entries))
	if err != nil {
		// Envelope-level failure (shed, deadline, transport): every entry
		// inherits it.
		for _, ch := range pb.waiters {
			ch <- batchResult{err: err}
		}
		return
	}
	replies, err := rpc.DecodeBatchReplies(raw)
	if err == nil && len(replies) != len(pb.entries) {
		err = rpc.ServerError("rpc: batch reply count mismatch")
	}
	if err != nil {
		for _, ch := range pb.waiters {
			ch <- batchResult{err: err}
		}
		return
	}
	for i, ch := range pb.waiters {
		ch <- batchResult{body: replies[i].Body, err: replies[i].ReplyError()}
	}
}
