// Group commit: a single committer goroutine owns the segmented log and
// batches writes and fsyncs off the broker's hot path. Callers stage a
// record — it is encoded into the committer's staging buffer under its
// mutex, so the caller's payload is free again when Stage returns — and
// never wait for the disk: the committer swaps a double buffer, appends
// the whole batch with one write, issues ONE fsync, and hands the batch's
// waiters to a completion callback. This resolves the package's
// concurrency contract ("not safe for concurrent use; callers serialize")
// structurally: any number of goroutines may call Stage/Enqueue/
// EnqueuePrune, and exactly one goroutine ever touches the SegLog.
package diskstore

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// Staging bounds. A staging buffer that has reached either admits no
// further message until the committer swaps it out: the disk, not the
// protocol, is then what publishers wait for. A message is admitted while
// the buffer is under the byte bound, so one buffer holds at most
// maxStagedBytes plus one record, and staged-but-unsynced data at most
// twice that (the buffer being filled and the one being committed).
const (
	maxStagedBytes = 1 << 20
	// MaxBatchWaiters bounds the waiters one committed batch carries, and
	// so the completions a single BatchFunc call can deliver for one owner.
	MaxBatchWaiters = 512
)

// Waiter rides next to one staged message and comes back through the
// BatchFunc once the record's batch is durable.
type Waiter struct {
	// Owner identifies who waits (the broker passes the publisher's
	// session); it is opaque to the committer.
	Owner any
	Topic spec.TopicID
	Seq   uint64
	// Arrived is the caller's arrival stamp for the message.
	Arrived time.Duration
}

// BatchFunc receives the waiters of one committed batch, in staging order,
// on the committer goroutine. err is nil once the fsync covering every
// record of the batch has returned nil; otherwise none of them may be
// treated as durable. The slice is reused after the call returns.
type BatchFunc func(batch []Waiter, err error)

// Commit is a handle to one enqueued record's durability. Wait blocks
// until the fsync covering the record completes and reports its error.
type Commit struct {
	done chan struct{}
	err  error
}

// Wait blocks until the record is on stable storage (or the commit
// failed) and returns the outcome.
func (c *Commit) Wait() error {
	<-c.done
	return c.err
}

func (c *Commit) release(err error) {
	c.err = err
	close(c.done)
}

// stage is one half of the committer's double buffer: encoded records,
// the waiters of the message records among them, and the record count.
type stage struct {
	buf     []byte
	waiters []Waiter
	records int
}

func (s *stage) full() bool {
	return len(s.buf) >= maxStagedBytes || len(s.waiters) >= MaxBatchWaiters
}

func (s *stage) reset() {
	if cap(s.buf) > 2*maxStagedBytes {
		s.buf = nil // a jumbo record grew it; do not pin that
	}
	s.buf = s.buf[:0]
	clear(s.waiters) // drop the owners
	s.waiters = s.waiters[:0]
	s.records = 0
}

// CommitterStats is a point-in-time snapshot for /metrics gauges.
type CommitterStats struct {
	Records  uint64 // records appended (messages + prunes)
	Batches  uint64 // committer rounds completed
	Fsyncs   uint64 // fsync syscalls issued
	Pending  int64  // records staged but not yet committed
	Segments int64  // live segment files
	Bytes    int64  // bytes across live segments
}

// Committer serializes all writes to a SegLog behind a group-commit
// protocol. interval <= 0 degenerates to SyncAlways: every record is
// written and fsynced individually before its batch completes (the slow
// bound the paper's Table 1 argument rests on); interval > 0 spaces fsyncs
// at least that far apart so concurrent publishers share one.
type Committer struct {
	log      *SegLog
	interval time.Duration
	notify   BatchFunc

	mu      sync.Mutex
	work    *sync.Cond // the committer waits here for a first record
	room    *sync.Cond // stagers wait here for the filling buffer to swap
	filling *stage
	closing bool
	failed  error

	done     chan struct{}
	lastSync time.Time

	records  atomic.Uint64
	batches  atomic.Uint64
	fsyncs   atomic.Uint64
	pending  atomic.Int64
	segments atomic.Int64
	bytes    atomic.Int64
}

// NewCommitter takes ownership of log (including Close) and starts the
// committer goroutine. Records are awaited one by one through
// Enqueue(m).Wait().
func NewCommitter(log *SegLog, interval time.Duration) *Committer {
	return NewCommitterNotify(log, interval, nil)
}

// NewCommitterNotify is NewCommitter for callers that must not wait:
// records go in through Stage and every committed batch comes back through
// notify.
func NewCommitterNotify(log *SegLog, interval time.Duration, notify BatchFunc) *Committer {
	c := &Committer{
		log: log, interval: interval, notify: notify,
		filling: new(stage), done: make(chan struct{}),
	}
	c.work = sync.NewCond(&c.mu)
	c.room = sync.NewCond(&c.mu)
	c.segments.Store(int64(log.Segments()))
	c.bytes.Store(log.Size())
	go c.run()
	return c
}

// Stage encodes m into the staging buffer — m.Payload belongs to the
// caller again when Stage returns — and registers w to come back through
// the BatchFunc with the outcome of the batch that carries the record.
// It blocks only while the staging buffer is at its bound. An error means
// the committer is closed or its log has failed: the record was not
// staged and no callback follows.
func (c *Committer) Stage(m wire.Message, w Waiter) error {
	c.mu.Lock()
	for !c.closing && c.failed == nil && c.filling.full() {
		c.room.Wait()
	}
	if err := c.refusal(); err != nil {
		c.mu.Unlock()
		return err
	}
	st := c.filling
	st.buf = appendMessageRecord(st.buf, &m)
	st.waiters = append(st.waiters, w)
	c.stagedLocked(st)
	c.mu.Unlock()
	return nil
}

// Enqueue stages one message and returns the Commit to park on: the
// synchronous convenience over Stage.
func (c *Committer) Enqueue(m wire.Message) *Commit {
	cm := &Commit{done: make(chan struct{})}
	if err := c.Stage(m, Waiter{Owner: cm, Topic: m.Topic, Seq: m.Seq}); err != nil {
		cm.release(err)
	}
	return cm
}

// EnqueuePrune stages a prune marker for (topic, seq) without a waiter:
// prune records ride whichever batch commits next. It never blocks on the
// staging bound — a dispatch lane must not wait for the disk, and there is
// at most one 21-byte marker per message the bound already admitted.
// Losing the very last prunes in a crash is safe — replay then
// re-dispatches a message that was already dispatched-but-not-yet-marked,
// which the subscriber-side dedup absorbs; the Table 3 invariant (no
// *marked* prune re-dispatched) still holds.
func (c *Committer) EnqueuePrune(topic spec.TopicID, seq uint64) {
	c.mu.Lock()
	if c.refusal() == nil {
		st := c.filling
		st.buf = appendPruneRecord(st.buf, topic, seq)
		c.stagedLocked(st)
	}
	c.mu.Unlock()
}

// refusal reports why nothing can be staged any more. Caller holds c.mu.
func (c *Committer) refusal() error {
	switch {
	case c.failed != nil:
		return c.failed
	case c.closing:
		return ErrClosed
	}
	return nil
}

// stagedLocked accounts one record just encoded into st and wakes the
// committer if it is the batch's first. Caller holds c.mu.
func (c *Committer) stagedLocked(st *stage) {
	st.records++
	c.pending.Add(1)
	if st.records == 1 {
		c.work.Signal()
	}
}

// Stats returns a snapshot of the committer's counters and log shape.
func (c *Committer) Stats() CommitterStats {
	return CommitterStats{
		Records:  c.records.Load(),
		Batches:  c.batches.Load(),
		Fsyncs:   c.fsyncs.Load(),
		Pending:  c.pending.Load(),
		Segments: c.segments.Load(),
		Bytes:    c.bytes.Load(),
	}
}

// Close commits what is staged, stops the committer, and closes the log.
func (c *Committer) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closing = true
	c.work.Broadcast()
	c.room.Broadcast()
	c.mu.Unlock()
	<-c.done
	return c.log.Close()
}

// Crash fail-stops the committer for fault injection: staged records are
// dropped and no final drain or sync happens. On-disk state is whatever
// earlier batches already wrote, which is exactly what a process kill
// leaves behind — and, as after a kill, nobody is told: the BatchFunc is
// not called for the dropped records; only parked Commit waiters release,
// with ErrClosed. A batch the committer goroutine is mid-way through still
// completes (a kill can land just after a write as easily as just before).
func (c *Committer) Crash() {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closing = true
	dropped := c.filling
	c.filling = new(stage)
	if c.failed == nil {
		c.failed = ErrClosed
	}
	c.work.Broadcast()
	c.room.Broadcast()
	c.mu.Unlock()
	releaseCommits(dropped.waiters, ErrClosed)
	c.pending.Add(-int64(dropped.records))
	<-c.done
	c.log.Close()
}

func (c *Committer) run() {
	defer close(c.done)
	spare := new(stage)
	for {
		c.mu.Lock()
		for c.filling.records == 0 && !c.closing {
			c.work.Wait()
		}
		if c.interval > 0 && !c.closing {
			// Hold the batch open for the rest of the fsync window so
			// publishers arriving now share this sync instead of paying
			// for their own.
			if d := c.interval - time.Since(c.lastSync); d > 0 {
				c.mu.Unlock()
				time.Sleep(d)
				c.mu.Lock()
			}
		}
		st := c.filling
		if st.records == 0 {
			c.mu.Unlock()
			return // closing, and everything staged is committed
		}
		c.filling, spare = spare, nil
		err := c.failed
		c.room.Broadcast()
		c.mu.Unlock()

		if err == nil {
			// A failed log takes no further appends: a torn batch may sit
			// at its tail, and a record written behind it could be acked
			// yet unreachable on replay.
			if err = c.commit(st); err != nil {
				c.mu.Lock()
				c.failed = err
				c.room.Broadcast()
				c.mu.Unlock()
			}
		}
		c.segments.Store(int64(c.log.Segments()))
		c.bytes.Store(c.log.Size())
		c.batches.Add(1)
		c.pending.Add(-int64(st.records))
		releaseCommits(st.waiters, err)
		if c.notify != nil && len(st.waiters) > 0 {
			c.notify(st.waiters, err)
		}
		st.reset()
		spare = st
	}
}

// commit appends the batch with one write per segment it touches and makes
// it durable: one fsync for the batch, or one per record under SyncAlways.
func (c *Committer) commit(st *stage) error {
	always := c.interval <= 0
	n, err := c.log.appendEncoded(st.buf, always)
	c.records.Add(uint64(n))
	if always {
		c.fsyncs.Add(uint64(n))
		return err
	}
	if err == nil {
		err = c.log.Sync()
		c.fsyncs.Add(1)
	}
	c.lastSync = time.Now()
	return err
}

// releaseCommits wakes the Enqueue(m).Wait() callers among a batch's
// waiters.
func releaseCommits(waiters []Waiter, err error) {
	for i := range waiters {
		if cm, ok := waiters[i].Owner.(*Commit); ok {
			cm.release(err)
		}
	}
}
