package diskstore

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// ackLog collects what a committer's BatchFunc delivers.
type ackLog struct {
	mu      sync.Mutex
	acked   []Waiter
	failed  int
	arrived chan struct{} // one token per waiter delivered with a nil error
}

func newAckLog(capacity int) *ackLog {
	return &ackLog{arrived: make(chan struct{}, capacity)}
}

func (a *ackLog) notify(batch []Waiter, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.failed += len(batch)
		return
	}
	a.acked = append(a.acked, batch...)
	for range batch {
		select {
		case a.arrived <- struct{}{}:
		default: // nobody counts tokens past the channel's capacity
		}
	}
}

func (a *ackLog) snapshot() []Waiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Waiter(nil), a.acked...)
}

// TestCommitterStagesBehindHeldFsync is the pipeline's defining property:
// with the fsync held, K publishes of one connection are all staged —
// nobody parked, nothing acknowledged — and releasing it delivers exactly
// K completions, each once, per topic in sequence order.
func TestCommitterStagesBehindHeldFsync(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeg(t, dir, SegmentOptions{RetainBytes: -1})
	hold := make(chan struct{})
	l.beforeSync = func() { <-hold }
	const k = 48
	acks := newAckLog(k)
	c := NewCommitterNotify(l, time.Millisecond, acks.notify)

	conn := new(int) // the one connection every waiter belongs to
	next := map[spec.TopicID]uint64{}
	for i := 0; i < k; i++ {
		topic := spec.TopicID(1 + i%3)
		next[topic]++
		m := wire.Message{Topic: topic, Seq: next[topic], Payload: []byte("held")}
		w := Waiter{Owner: conn, Topic: topic, Seq: m.Seq, Arrived: time.Duration(i)}
		if err := c.Stage(m, w); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	if got := c.Stats().Pending; got != k {
		t.Fatalf("Pending = %d with the fsync held, want all %d staged", got, k)
	}
	if got := len(acks.snapshot()); got != 0 {
		t.Fatalf("%d completions delivered before any fsync returned", got)
	}

	close(hold)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := acks.snapshot()
	if len(got) != k || acks.failed != 0 {
		t.Fatalf("delivered %d completions (%d failed), want exactly %d", len(got), acks.failed, k)
	}
	last := map[spec.TopicID]uint64{}
	for i, w := range got {
		if w.Owner != any(conn) {
			t.Fatalf("completion %d lost its owner", i)
		}
		if w.Seq != last[w.Topic]+1 {
			t.Fatalf("topic %d: completion for seq %d after seq %d", w.Topic, w.Seq, last[w.Topic])
		}
		last[w.Topic] = w.Seq
	}
	if st := c.Stats(); st.Pending != 0 || st.Records != k {
		t.Errorf("after release: Pending = %d Records = %d", st.Pending, st.Records)
	}
	_, rep := openSeg(t, dir, SegmentOptions{RetainBytes: -1})
	if len(rep.Messages) != k {
		t.Fatalf("replayed %d, want %d", len(rep.Messages), k)
	}
}

// TestCommitterAlwaysModeSyncsEachRecordBeforeItsAck: under SyncAlways a
// record's completion may only follow that record's own fsync, however the
// records were batched on the way in.
func TestCommitterAlwaysModeSyncsEachRecordBeforeItsAck(t *testing.T) {
	l, _ := openSeg(t, t.TempDir(), SegmentOptions{RetainBytes: -1})
	var syncs atomic.Int64
	l.beforeSync = func() { syncs.Add(1) }
	const k = 40
	var delivered int64
	done := make(chan struct{})
	c := NewCommitterNotify(l, -1, func(batch []Waiter, err error) {
		if err != nil {
			t.Errorf("batch failed: %v", err)
		}
		for range batch {
			delivered++
			if s := syncs.Load(); s < delivered {
				t.Errorf("completion %d delivered after only %d fsyncs", delivered, s)
			}
		}
		if delivered == k {
			close(done)
		}
	})
	for i := uint64(1); i <= k; i++ {
		if err := c.Stage(wire.Message{Topic: 1, Seq: i, Payload: []byte("x")}, Waiter{Owner: c, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if st := c.Stats(); st.Fsyncs != k || st.Records != k {
		t.Errorf("always mode: Fsyncs = %d Records = %d, want %d each", st.Fsyncs, st.Records, k)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitterCrashAckedSubsetOfReplayed crashes the committer with many
// records in flight per producer and tiny segments, so batches straddle
// rolls: every completion delivered with a nil error must be in the
// replayed log, whatever was staged, mid-write or dropped at the crash.
func TestCommitterCrashAckedSubsetOfReplayed(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{SegmentBytes: 2 << 10, RetainBytes: -1}
	l, _ := openSeg(t, dir, opts)
	const producers, enough = 4, 400
	acks := newAckLog(1 << 16)
	c := NewCommitterNotify(l, 200*time.Microsecond, acks.notify)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		topic := spec.TopicID(p + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No waiting between publishes: as many in flight as the
			// staging bound admits.
			for seq := uint64(1); ; seq++ {
				m := wire.Message{Topic: topic, Seq: seq, Payload: []byte("in flight at the crash")}
				if c.Stage(m, Waiter{Owner: c, Topic: topic, Seq: seq}) != nil {
					return // crashed
				}
				c.EnqueuePrune(topic, seq)
			}
		}()
	}
	for i := 0; i < enough; i++ {
		<-acks.arrived
	}
	c.Crash()
	wg.Wait()
	if st := c.Stats(); st.Segments < 3 {
		t.Fatalf("only %d segments: the batches never straddled a roll", st.Segments)
	}

	_, rep := openSeg(t, dir, opts)
	logged := map[[2]uint64]bool{}
	for _, m := range rep.Messages {
		logged[[2]uint64{uint64(m.Topic), m.Seq}] = true
	}
	got := acks.snapshot()
	if len(got) < enough {
		t.Fatalf("%d completions, want at least %d", len(got), enough)
	}
	for _, w := range got {
		if !logged[[2]uint64{uint64(w.Topic), w.Seq}] {
			t.Fatalf("topic %d seq %d was acknowledged but is not in the replayed log", w.Topic, w.Seq)
		}
	}
	if err := c.Stage(wire.Message{Topic: 1, Seq: 1}, Waiter{}); err == nil {
		t.Error("Stage after Crash was accepted")
	}
}

// TestCrashReleasesParkedCommits: Enqueue(m).Wait() callers whose records
// a crash drops are released with ErrClosed, not left parked.
func TestCrashReleasesParkedCommits(t *testing.T) {
	l, _ := openSeg(t, t.TempDir(), SegmentOptions{RetainBytes: -1})
	hold, entered := make(chan struct{}), make(chan struct{})
	l.beforeSync = func() {
		close(entered)
		<-hold
	}
	c := NewCommitter(l, time.Millisecond)
	first := c.Enqueue(wire.Message{Topic: 1, Seq: 1})
	<-entered
	// The committer is parked in the held fsync with seq 1; seq 2 is staged
	// behind it (or refused, if the crash wins the race) and must come
	// back with an error while the disk is still held.
	crashed := make(chan struct{})
	go func() {
		c.Crash()
		close(crashed)
	}()
	if err := c.Enqueue(wire.Message{Topic: 1, Seq: 2}).Wait(); err == nil {
		t.Fatal("a record staged behind a held fsync was acknowledged")
	}
	close(hold)
	<-crashed
	if err := first.Wait(); err != nil {
		t.Errorf("the batch in flight at the crash did not complete: %v", err)
	}
	if got := c.Stats().Pending; got != 0 {
		t.Errorf("Pending = %d after crash", got)
	}
}

// TestCommitterFailedLogTakesNoFurtherAppends: once a batch fails, what was
// staged behind it completes with the same error and nothing is appended
// after the possibly torn tail.
func TestCommitterFailedLogTakesNoFurtherAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeg(t, dir, SegmentOptions{RetainBytes: -1})
	acks := newAckLog(16)
	c := NewCommitterNotify(l, time.Millisecond, acks.notify)
	if err := c.Enqueue(wire.Message{Topic: 1, Seq: 1}).Wait(); err != nil {
		t.Fatal(err)
	}
	// Pull the file out from under the committer: the next write fails.
	l.active.Close()
	if err := c.Enqueue(wire.Message{Topic: 1, Seq: 2}).Wait(); err == nil {
		t.Fatal("write to a closed segment was acknowledged")
	}
	if err := c.Stage(wire.Message{Topic: 1, Seq: 3}, Waiter{Owner: c}); err == nil {
		t.Fatal("Stage on a failed log was accepted")
	}
	c.EnqueuePrune(1, 1) // must not panic, must not append
	c.Crash()
	_, rep := openSeg(t, dir, SegmentOptions{RetainBytes: -1})
	if len(rep.Messages) != 1 || len(rep.Prunes) != 0 {
		t.Fatalf("replayed %d messages %d prunes, want the 1 record written before the failure",
			len(rep.Messages), len(rep.Prunes))
	}
}

// TestAppendEncodedRollsLikeSingleAppends: a batch splits at exactly the
// record boundaries where one-at-a-time appends roll, so the segment files
// are byte-identical and existing logs replay unchanged.
func TestAppendEncodedRollsLikeSingleAppends(t *testing.T) {
	single, batched := t.TempDir(), t.TempDir()
	opts := SegmentOptions{SegmentBytes: 256, RetainBytes: -1}
	ls, _ := openSeg(t, single, opts)
	lb, _ := openSeg(t, batched, opts)
	appendRange(t, ls, 1, 60, false)
	for from := uint64(1); from <= 60; from += 15 { // four batches, each across several rolls
		appendRange(t, lb, from, from+14, true)
	}
	if ls.Count() != lb.Count() || ls.Size() != lb.Size() {
		t.Fatalf("count/size differ: %d/%d vs %d/%d", ls.Count(), ls.Size(), lb.Count(), lb.Size())
	}
	ls.Close()
	lb.Close()
	names, err := listSegments(single)
	if err != nil {
		t.Fatal(err)
	}
	namesB, _ := listSegments(batched)
	if len(names) != len(namesB) || len(names) < 5 {
		t.Fatalf("%d segments single, %d batched", len(names), len(namesB))
	}
	for _, name := range names {
		a, err := os.ReadFile(filepath.Join(single, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(batched, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("segment %s differs between single and batched appends", name)
		}
	}
}

// TestStageBlocksOnlyAtTheBound: the staging bound is the only thing a
// stager ever waits for, and a commit makes room again.
func TestStageBlocksOnlyAtTheBound(t *testing.T) {
	l, _ := openSeg(t, t.TempDir(), SegmentOptions{RetainBytes: -1})
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	l.beforeSync = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	}
	acks := newAckLog(4 * MaxBatchWaiters)
	c := NewCommitterNotify(l, time.Millisecond, acks.notify)
	stage := func(seq uint64) {
		if err := c.Stage(wire.Message{Topic: 1, Seq: seq}, Waiter{Owner: c, Seq: seq}); err != nil {
			t.Error(err)
		}
	}
	stage(1)
	<-entered // the committer holds batch one in the fsync
	for seq := uint64(2); seq <= MaxBatchWaiters+1; seq++ {
		stage(seq) // fills the other buffer to its bound without blocking
	}
	blocked := make(chan struct{})
	go func() {
		stage(MaxBatchWaiters + 2)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("Stage past the bound returned while the disk was held")
	case <-time.After(20 * time.Millisecond):
	}
	close(hold)
	<-blocked
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(acks.snapshot()); got != MaxBatchWaiters+2 {
		t.Fatalf("%d completions, want %d", got, MaxBatchWaiters+2)
	}
}

// TestStageToCompletionDoesNotAllocate guards the committer's share of the
// durable publish path: staging a record and delivering its completion
// allocate nothing once the buffers have grown.
func TestStageToCompletionDoesNotAllocate(t *testing.T) {
	l, _ := openSeg(t, t.TempDir(), SegmentOptions{RetainBytes: -1})
	acks := make(chan struct{}, 64)
	c := NewCommitterNotify(l, 50*time.Microsecond, func(batch []Waiter, err error) {
		for range batch {
			acks <- struct{}{}
		}
	})
	defer c.Close()
	payload := make([]byte, 256)
	seq := uint64(0)
	publish := func() {
		for i := 0; i < 16; i++ {
			seq++
			if err := c.Stage(wire.Message{Topic: 1, Seq: seq, Payload: payload}, Waiter{Owner: c, Topic: 1, Seq: seq}); err != nil {
				t.Fatal(err)
			}
			c.EnqueuePrune(1, seq)
		}
		for i := 0; i < 16; i++ {
			<-acks
		}
	}
	for i := 0; i < 8; i++ {
		publish() // grow both staging buffers
	}
	if avg := testing.AllocsPerRun(50, publish); avg != 0 {
		t.Errorf("%.1f allocations per 16 staged records and their completions, want 0", avg)
	}
}
