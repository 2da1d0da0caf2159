package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hivemind/internal/metrics"
)

// replayAll opens the WAL collecting every replayed record.
func replayAll(t *testing.T, path string, opts WALOptions) (*WAL, [][]byte, bool) {
	t.Helper()
	var recs [][]byte
	w, truncated, err := OpenWAL(path, opts, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w, recs, truncated
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	if len(recs) != 0 || truncated {
		t.Fatalf("fresh wal: %d records truncated=%v", len(recs), truncated)
	}
	want := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 3 {
		t.Fatalf("records = %d, want 3", w.Records())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if truncated {
		t.Fatal("clean log reported a truncated tail")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// A torn tail — a partial frame from a crash mid-write — is cut back
// to the longest valid prefix, and appending afterwards works.
func TestWALTornTailRecoversValidPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a frame's worth of garbage.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x09, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	if !truncated {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want the 5 valid ones", len(recs))
	}
	if err := w2.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	w3, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w3.Close()
	if truncated {
		t.Fatal("re-opened log reported truncation again")
	}
	if len(recs) != 6 || string(recs[5]) != "after-tear" {
		t.Fatalf("post-tear append lost: %d records, last %q", len(recs), recs[len(recs)-1])
	}
}

// A corrupted byte inside the tail record fails its CRC and the record
// is dropped; earlier records survive.
func TestWALCorruptTailChecksumTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	w.Append([]byte("keep-me"))
	w.Append([]byte("corrupt-me"))
	w.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a payload byte in the last record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if !truncated {
		t.Fatal("checksum-corrupt tail not reported")
	}
	if len(recs) != 1 || string(recs[0]) != "keep-me" {
		t.Fatalf("valid prefix = %q, want [keep-me]", recs)
	}
	if w2.Records() != 1 {
		t.Fatalf("records after truncation = %d, want 1", w2.Records())
	}
}

// An absurd length prefix (corrupt header) is treated as a torn tail,
// not an allocation request.
func TestWALAbsurdLengthTreatedAsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	w.Append([]byte("ok"))
	w.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}) // 4 GiB "record"
	f.Close()

	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if !truncated || len(recs) != 1 {
		t.Fatalf("truncated=%v records=%d, want true/1", truncated, len(recs))
	}
}

func TestWALResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	w.Append([]byte("a"))
	w.Append([]byte("b"))
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 || w.Size() != 0 {
		t.Fatalf("after reset: records=%d size=%d", w.Records(), w.Size())
	}
	w.Append([]byte("c"))
	w.Close()
	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if truncated || len(recs) != 1 || string(recs[0]) != "c" {
		t.Fatalf("post-reset log = %q (truncated=%v), want [c]", recs, truncated)
	}
}

// FsyncBatch syncs every SyncEvery appends; the fsync counter proves
// the policy held.
func TestWALFsyncBatchPolicy(t *testing.T) {
	mon := metrics.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, WALOptions{Fsync: FsyncBatch, SyncEvery: 4, Monitor: mon}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := mon.Count(MetricWALFsync); got != 2 {
		t.Fatalf("fsyncs after 10 appends at batch 4 = %d, want 2", got)
	}
	w.Close() // flushes the remaining 2
	if got := mon.Count(MetricWALFsync); got != 3 {
		t.Fatalf("fsyncs after close = %d, want 3", got)
	}
	if got := mon.Count(MetricWALAppend); got != 10 {
		t.Fatalf("appends = %d, want 10", got)
	}
}
