package wal

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
)

// TestGroupCommitRoundTrip: appends on two logs sharing one committer
// are acknowledged by Commit, durable across reopen, and replay in
// order — the commit-on-append contract, group-committed.
func TestGroupCommitRoundTrip(t *testing.T) {
	gc := NewGroupCommitter(500 * time.Microsecond)
	defer gc.Stop()
	dirs := []string{t.TempDir(), t.TempDir()}
	logs := make([]*Log, 2)
	for i, dir := range dirs {
		l, err := Open(dir, Options{GroupCommit: gc})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	var wg sync.WaitGroup
	for i, l := range logs {
		wg.Add(1)
		go func(i int, l *Log) {
			defer wg.Done()
			for n := 1; n <= 20; n++ {
				seq, err := l.Append(batch(100*i+n, 2))
				if err != nil {
					t.Errorf("log %d append %d: %v", i, n, err)
					return
				}
				if err := l.Commit(seq); err != nil {
					t.Errorf("log %d commit %d: %v", i, seq, err)
					return
				}
			}
		}(i, l)
	}
	wg.Wait()
	for i, l := range logs {
		if l.LastSeq() != 20 {
			t.Fatalf("log %d LastSeq = %d, want 20", i, l.LastSeq())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen without the committer: every committed record is there.
		l2, err := Open(dirs[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, l2, 0)
		if len(got) != 20 {
			t.Fatalf("log %d replayed %d records, want 20", i, len(got))
		}
		if !reflect.DeepEqual(got[3], batch(100*i+3, 2)) {
			t.Fatalf("log %d record 3 mismatch", i)
		}
		l2.Close()
	}
}

// TestGroupCommitFlushRecord: flush markers ride group commit too and
// keep their position relative to batches.
func TestGroupCommitFlushRecord(t *testing.T) {
	gc := NewGroupCommitter(500 * time.Microsecond)
	defer gc.Stop()
	dir := t.TempDir()
	l, err := Open(dir, Options{GroupCommit: gc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(1, 2)); err != nil {
		t.Fatal(err)
	}
	seq, err := l.AppendFlush()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(3); err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("flush seq = %d, want 2", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var kinds []string
	if err := l2.Replay(0, func(seq uint64, msgs []stream.Message, flush bool) error {
		if flush {
			kinds = append(kinds, "flush")
		} else {
			kinds = append(kinds, fmt.Sprintf("batch%d", len(msgs)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kinds, []string{"batch2", "flush", "batch2"}) {
		t.Fatalf("replay order = %v", kinds)
	}
}

// TestGroupCommitSnapshotFlushes: taking a snapshot at a seq that is
// still sitting in the pending buffer must flush it first — a snapshot
// must never outlive the records it claims to cover.
func TestGroupCommitSnapshotFlushes(t *testing.T) {
	gc := NewGroupCommitter(time.Hour) // never fires on its own
	defer gc.Stop()
	dir := t.TempDir()
	l, err := Open(dir, Options{GroupCommit: gc})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(batch(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Commit(seq) }()
	if err := l.Snapshot(seq, func(w io.Writer) error {
		_, err := w.Write([]byte("state"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit did not observe the snapshot-forced flush")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 1 || l2.SnapshotSeq() != 1 {
		t.Fatalf("after reopen: last %d snap %d, want 1/1", l2.LastSeq(), l2.SnapshotSeq())
	}
}

// TestGroupCommitAfterStopDegradesToSync: once the committer stops,
// appends commit on append instead of stranding records.
func TestGroupCommitAfterStopDegradesToSync(t *testing.T) {
	gc := NewGroupCommitter(500 * time.Microsecond)
	dir := t.TempDir()
	l, err := Open(dir, Options{GroupCommit: gc})
	if err != nil {
		t.Fatal(err)
	}
	gc.Stop()
	seq, err := l.Append(batch(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

// TestAppendSteadyStateAllocs pins the pooled-buffer claim on the whole
// commit-on-append path (encode + frame + write + fsync): steady state
// must not allocate.
func TestAppendSteadyStateAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 40}) // never rotate
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	msgs := batch(1, 64)
	if _, err := l.Append(msgs); err != nil { // warm the encode buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := l.Append(msgs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f times per batch, want 0", allocs)
	}
}

// TestGroupCommitFailStop injects a flush failure (the segment file
// closed under the log) and requires fail-stop semantics: the batch
// whose flush failed is never acknowledged — a parked Commit waiter is
// woken with the error, not left hanging and not lied to — the log
// refuses every further append, and a reopen sees exactly the
// acknowledged prefix.
func TestGroupCommitFailStop(t *testing.T) {
	gc := NewGroupCommitter(time.Hour) // flushes only when the test says so
	defer gc.Stop()
	dir := t.TempDir()
	l, err := Open(dir, Options{GroupCommit: gc})
	if err != nil {
		t.Fatal(err)
	}

	// First batch: flushed cleanly (creating the segment), acknowledged.
	seq1, err := l.Append(batch(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	l.flushCommit()
	if err := l.Commit(seq1); err != nil {
		t.Fatalf("healthy commit failed: %v", err)
	}

	// Second batch: buffered, with a waiter parked on its durability.
	seq2, err := l.Append(batch(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error, 1)
	go func() { waiter <- l.Commit(seq2) }()
	for i := 0; ; i++ {
		l.mu.Lock()
		parked := l.commitCh != nil
		l.mu.Unlock()
		if parked {
			break
		}
		if i > 5000 {
			t.Fatal("Commit waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// Fault injection: the active segment vanishes under the log, so
	// the next group flush's write must fail.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	l.flushCommit()

	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("Commit acknowledged a batch whose flush failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit waiter never woken by the failure")
	}
	if err := l.Commit(seq2); err == nil {
		t.Fatal("a failed log must keep refusing the lost batch's commit")
	}
	if _, err := l.Append(batch(3, 2)); err == nil {
		t.Fatal("a failed log accepted a further append")
	}

	// Recovery sees exactly what was acknowledged: batch 1, nothing else.
	l.Close() //nolint:errcheck // the log is already fail-stopped
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []uint64
	err = l2.Replay(0, func(seq uint64, msgs []stream.Message, flush bool) error {
		got = append(got, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{seq1}) {
		t.Fatalf("replay after fail-stop = %v, want [%d]", got, seq1)
	}
}
