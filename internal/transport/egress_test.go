package transport

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// pruneBuf builds a pooled FrameBuf holding one encoded Prune frame — small,
// valid on the wire, and carrying a (topic, seq) pair the receive side can
// check ordering with.
func pruneBuf(topic spec.TopicID, seq uint64) *FrameBuf {
	fb := GetFrameBuf()
	fb.B = wire.AppendPruneBody(fb.B[:0], topic, seq)
	return fb
}

func TestFrameBufRefcountLifecycle(t *testing.T) {
	base := FrameBufRefs()
	fb := GetFrameBuf()
	if got := FrameBufRefs(); got != base+1 {
		t.Fatalf("outstanding bufs after Get = %d, want %d", got, base+1)
	}
	// The counter tracks buffers, not references: Retains and the non-final
	// Releases must leave it alone.
	fb.Retain()
	fb.Retain()
	if got := FrameBufRefs(); got != base+1 {
		t.Fatalf("outstanding bufs after two Retains = %d, want %d", got, base+1)
	}
	fb.Release()
	fb.Release()
	if got := FrameBufRefs(); got != base+1 {
		t.Fatalf("outstanding bufs after non-final Releases = %d, want %d", got, base+1)
	}
	fb.Release()
	if got := FrameBufRefs(); got != base {
		t.Fatalf("outstanding bufs after final Release = %d, want %d", got, base)
	}
}

func TestFrameBufReleasePanicsWithoutReference(t *testing.T) {
	fb := GetFrameBuf()
	fb.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Release on a released buffer did not panic")
		}
	}()
	fb.Release()
}

// TestFrameBufDropsOversizedStorage: storage a jumbo frame grew is never
// handed out for a small one (the pool's one capacity rule, see package wire).
func TestFrameBufDropsOversizedStorage(t *testing.T) {
	fb := GetFrameBuf()
	fb.B = make([]byte, 1<<20)
	fb.Release()
	for i := 0; i < 64; i++ {
		small := GetFrameBuf()
		defer small.Release()
		if cap(small.B) > 4<<10 {
			t.Fatalf("a small frame was handed %d bytes of storage", cap(small.B))
		}
	}
}

// TestEgressDeliversInOrder pushes a burst through an egress and checks the
// receive side sees every frame, in order, regardless of how the writer
// sliced the burst into vectored writes.
func TestEgressDeliversInOrder(t *testing.T) {
	base := FrameBufRefs()
	sender, receiver := pipePair(t)
	var meter EgressMeter
	// Ring deeper than the burst: nothing sheds, so arrival order is the
	// full enqueue order.
	eg := NewEgress(sender, EgressConfig{Depth: 256, Shed: true, Meter: &meter})

	const n = 100
	got := make(chan uint64, n)
	go func() {
		f := GetFrame()
		defer PutFrame(f)
		for {
			if err := receiver.RecvInto(f); err != nil {
				close(got)
				return
			}
			got <- f.Seq
		}
	}()
	for seq := uint64(1); seq <= n; seq++ {
		if r := eg.Enqueue(pruneBuf(7, seq), 7, 0); r != EnqueueOK {
			t.Fatalf("Enqueue(%d) = %v, want EnqueueOK", seq, r)
		}
	}
	for want := uint64(1); want <= n; want++ {
		select {
		case seq := <-got:
			if seq != want {
				t.Fatalf("frame %d arrived out of order (seq %d)", want, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d", want)
		}
	}
	eg.Close()
	sender.Close()
	eg.Wait()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
	if f := meter.Flushed.Load(); f != n {
		t.Fatalf("Flushed = %d, want %d", f, n)
	}
	if b := meter.Batches.Load(); b == 0 || b > n {
		t.Fatalf("Batches = %d, want within [1, %d]", b, n)
	}
}

// TestEgressShedsWithinLiThenEvicts wedges the writer and overfills the
// ring: the shed policy must drop exactly Li oldest frames for the topic,
// then evict the subscriber on the next overflow, releasing every buffer.
func TestEgressShedsWithinLiThenEvicts(t *testing.T) {
	base := FrameBufRefs()
	a, b := net.Pipe()
	defer b.Close()
	gate := make(chan struct{})
	sender := NewConn(&blockableConn{Conn: a, gate: gate})
	var meter EgressMeter
	const li = 3
	eg := NewEgress(sender, EgressConfig{Depth: 4, Shed: true, Meter: &meter})

	var sheds, oks int
	evicted := false
	for seq := uint64(1); seq <= 64; seq++ {
		switch r := eg.Enqueue(pruneBuf(9, seq), 9, li); r {
		case EnqueueOK:
			oks++
		case EnqueueShed:
			sheds++
		case EnqueueEvicted:
			evicted = true
		default:
			t.Fatalf("Enqueue(%d) = %v", seq, r)
		}
		if evicted {
			break
		}
	}
	if !evicted {
		t.Fatalf("never evicted: %d ok, %d shed", oks, sheds)
	}
	if sheds != li {
		t.Fatalf("shed %d frames before eviction, want exactly Li = %d", sheds, li)
	}
	if !eg.Evicted() {
		t.Fatal("Evicted() = false after EnqueueEvicted")
	}
	if r := eg.Enqueue(pruneBuf(9, 999), 9, li); r != EnqueueClosed {
		t.Fatalf("Enqueue after eviction = %v, want EnqueueClosed", r)
	}
	if got := meter.Shed.Load(); got != uint64(li) {
		t.Fatalf("meter.Shed = %d, want %d", got, li)
	}
	if got := meter.Evictions.Load(); got != 1 {
		t.Fatalf("meter.Evictions = %d, want 1", got)
	}
	close(gate) // release the wedged writer; its write fails on the closed pipe
	eg.Wait()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references after eviction", refs-base)
	}
}

// TestEgressBestEffortTopicNeverEvicts: a topic with unbounded loss
// tolerance sheds forever and never costs the subscriber its connection.
func TestEgressBestEffortTopicNeverEvicts(t *testing.T) {
	base := FrameBufRefs()
	a, b := net.Pipe()
	defer b.Close()
	gate := make(chan struct{})
	sender := NewConn(&blockableConn{Conn: a, gate: gate})
	var meter EgressMeter
	eg := NewEgress(sender, EgressConfig{Depth: 2, Shed: true, Meter: &meter})

	for seq := uint64(1); seq <= 256; seq++ {
		switch r := eg.Enqueue(pruneBuf(3, seq), 3, spec.LossUnbounded); r {
		case EnqueueOK, EnqueueShed:
		default:
			t.Fatalf("Enqueue(%d) = %v on a best-effort topic", seq, r)
		}
	}
	if meter.Evictions.Load() != 0 {
		t.Fatalf("best-effort topic evicted the subscriber")
	}
	eg.Close()
	close(gate)
	sender.Close()
	eg.Wait()
	// Shed counts batch under the ring mutex and publish on the next
	// collect or terminal drain, so assert after the egress settles.
	if meter.Shed.Load() == 0 {
		t.Fatal("expected sheds on an overfilled best-effort ring")
	}
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// TestEgressBlockingModeBackpressures: with Shed off a full ring blocks the
// enqueuer until the writer drains, and nothing is ever dropped.
func TestEgressBlockingModeBackpressures(t *testing.T) {
	base := FrameBufRefs()
	sender, receiver := pipePair(t)
	var meter EgressMeter
	eg := NewEgress(sender, EgressConfig{Depth: 2, Shed: false, Meter: &meter})

	const n = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(1); seq <= n; seq++ {
			if r := eg.Enqueue(pruneBuf(1, seq), 1, 0); r != EnqueueOK {
				t.Errorf("Enqueue(%d) = %v", seq, r)
				return
			}
		}
	}()
	f := GetFrame()
	defer PutFrame(f)
	for want := uint64(1); want <= n; want++ {
		if err := receiver.RecvInto(f); err != nil {
			t.Fatalf("RecvInto: %v", err)
		}
		if f.Seq != want {
			t.Fatalf("seq %d, want %d (blocking mode must not drop or reorder)", f.Seq, want)
		}
	}
	<-done
	eg.Close()
	sender.Close()
	eg.Wait()
	if meter.Shed.Load() != 0 || meter.Evictions.Load() != 0 {
		t.Fatal("blocking mode shed or evicted")
	}
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// TestEgressWriteStallDropsSubscriber: a subscriber socket that stops making
// progress for longer than the configured stall bound fails the flush and
// the egress shuts down instead of wedging its writer forever.
func TestEgressWriteStallDropsSubscriber(t *testing.T) {
	base := FrameBufRefs()
	a, b := net.Pipe() // nobody reads b: writes block until the deadline
	defer b.Close()
	sender := NewConn(a)
	var meter EgressMeter
	eg := NewEgress(sender, EgressConfig{Depth: 8, Shed: true, Stall: 20 * time.Millisecond, Meter: &meter})

	eg.Enqueue(pruneBuf(2, 1), 2, 0)
	waitDone := make(chan struct{})
	go func() { eg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("egress writer did not exit after a stalled write")
	}
	if meter.Stalls.Load() != 1 {
		t.Fatalf("meter.Stalls = %d, want 1", meter.Stalls.Load())
	}
	if meter.WriteErrs.Load() != 1 {
		t.Fatalf("meter.WriteErrs = %d, want 1", meter.WriteErrs.Load())
	}
	if r := eg.Enqueue(pruneBuf(2, 2), 2, 0); r != EnqueueClosed {
		t.Fatalf("Enqueue after stall = %v, want EnqueueClosed", r)
	}
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// TestEgressCloseReleasesQueuedFrames: frames still queued at Close are
// released, the writer exits, and the ring reports its high-water mark.
func TestEgressCloseReleasesQueuedFrames(t *testing.T) {
	base := FrameBufRefs()
	a, b := net.Pipe()
	defer b.Close()
	gate := make(chan struct{})
	sender := NewConn(&blockableConn{Conn: a, gate: gate})
	eg := NewEgress(sender, EgressConfig{Depth: 8, Shed: true})

	for seq := uint64(1); seq <= 6; seq++ {
		eg.Enqueue(pruneBuf(4, seq), 4, 0)
	}
	if hw := eg.HighWater(); hw == 0 {
		t.Fatal("HighWater = 0 after enqueues")
	}
	eg.Close()
	eg.Close() // idempotent
	if d := eg.Depth(); d != 0 {
		t.Fatalf("Depth after Close = %d, want 0", d)
	}
	sender.Close()
	// The flusher may have collected a frame before Close and be waiting on
	// the gate, which closing the conn does not open: open it before Wait.
	close(gate)
	eg.Wait()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// TestEgressDrainFlushesQueuedFrames: Drain is the stop that drops nothing.
// With the writer held inside a Write and frames queued behind it, Drain
// refuses new frames at once, returns only after the writer has written the
// rest, and leaves the ring stopped — on a ring's private pool and on a
// shared one.
func TestEgressDrainFlushesQueuedFrames(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		base := FrameBufRefs()
		var pool *FlusherPool
		if pooled {
			pool = NewFlusherPool(FlusherPoolConfig{Flushers: 1})
		}
		a, b := net.Pipe()
		gate := make(chan struct{})
		sender, receiver := NewConn(&blockableConn{Conn: a, gate: gate}), NewConn(b)
		eg := NewEgress(sender, EgressConfig{Depth: 8, Pool: pool})
		const n = 6
		for seq := uint64(1); seq <= n; seq++ {
			eg.Enqueue(pruneBuf(4, seq), 4, 0)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			eg.Drain(5 * time.Second)
		}()
		// Drain has begun once the ring is marked closed; the queued frames
		// are still behind the gate.
		for begun := false; !begun; runtime.Gosched() {
			eg.mu.Lock()
			begun = eg.closed
			eg.mu.Unlock()
		}
		if r := eg.Enqueue(pruneBuf(4, 99), 4, 0); r != EnqueueClosed {
			t.Fatalf("pooled=%v: Enqueue during Drain = %v, want EnqueueClosed", pooled, r)
		}
		select {
		case <-drained:
			t.Fatalf("pooled=%v: Drain returned with frames still queued", pooled)
		default:
		}
		close(gate)
		f := GetFrame()
		for want := uint64(1); want <= n; want++ {
			if err := receiver.RecvInto(f); err != nil {
				t.Fatalf("pooled=%v: RecvInto: %v", pooled, err)
			}
			if f.Seq != want {
				t.Fatalf("pooled=%v: seq %d, want %d: Drain must not drop or reorder", pooled, f.Seq, want)
			}
		}
		PutFrame(f)
		<-drained
		eg.Wait() // already stopped: nothing is left to close the conn for
		sender.Close()
		receiver.Close()
		if pool != nil {
			pool.Close()
		}
		if refs := FrameBufRefs(); refs != base {
			t.Fatalf("pooled=%v: leaked %d FrameBuf references", pooled, refs-base)
		}
	}
}

// TestEgressDrainGivesUpOnWedgedPeer: against a peer that never reads, Drain
// returns when its wait has passed; closing the connection then fails the
// write in flight, which releases everything still queued.
func TestEgressDrainGivesUpOnWedgedPeer(t *testing.T) {
	base := FrameBufRefs()
	a, b := net.Pipe() // nobody reads b
	defer b.Close()
	sender := NewConn(a)
	eg := NewEgress(sender, EgressConfig{Depth: 8})
	for seq := uint64(1); seq <= 6; seq++ {
		eg.Enqueue(pruneBuf(4, seq), 4, 0)
	}
	eg.Drain(10 * time.Millisecond)
	sender.Close()
	eg.Wait()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
	eg.Drain(time.Hour) // stopped: returns at once
}

// TestRetireReleasesEveryRing: Retire stops rings on a shared pool and on a
// private one in one call and skips nil ones. A shared-pool ring's write is
// stuck to a peer that never reads (and soon handed off), a second one
// shares its flusher, and a private-pool ring has frames queued: Retire
// must close the rings before their connections (the close is what fails
// the stuck write), wait for every ring, and leave no frame reference
// behind.
func TestRetireReleasesEveryRing(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	t.Cleanup(pool.Close) // runs after the pipes close, so it cannot hang on a wedged write
	ring := func(pooled bool) *Egress {
		a, b := net.Pipe() // nobody reads b
		t.Cleanup(func() { b.Close() })
		cfg := EgressConfig{Depth: 8}
		if pooled {
			cfg.Pool = pool
		}
		return NewEgress(NewConn(a), cfg)
	}
	wedged, behind, private := ring(true), ring(true), ring(false)
	wedged.Enqueue(pruneBuf(4, 1), 4, 0)
	// The flusher has taken the frame and is stuck writing it.
	watchdog := time.NewTimer(5 * time.Second)
	defer watchdog.Stop()
	for wedged.Depth() > 0 {
		select {
		case <-watchdog.C:
			t.Fatal("the flusher never took the batch")
		default:
			runtime.Gosched()
		}
	}
	for seq := uint64(2); seq <= 4; seq++ {
		wedged.Enqueue(pruneBuf(4, seq), 4, 0)
		behind.Enqueue(pruneBuf(5, seq), 5, 0)
		private.Enqueue(pruneBuf(6, seq), 6, 0)
	}
	Retire(wedged, nil, behind, private, nil)
	for _, eg := range []*Egress{wedged, behind, private} {
		if r := eg.Enqueue(pruneBuf(7, 1), 7, 0); r != EnqueueClosed {
			t.Fatalf("Enqueue after Retire = %v, want EnqueueClosed", r)
		}
	}
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

func TestDefaultEgressBatchFitsOneWritev(t *testing.T) {
	// Two iovecs per frame: any batch must fit in one writev, whose vector
	// count Linux bounds at IOV_MAX = 1024.
	const iovMax = 1024
	if 2*DefaultEgressBatch > iovMax {
		t.Fatalf("DefaultEgressBatch = %d needs %d iovecs, over IOV_MAX = %d", DefaultEgressBatch, 2*DefaultEgressBatch, iovMax)
	}
	sender, _ := pipePair(t)
	e := NewEgress(sender, EgressConfig{Depth: 4 * DefaultEgressBatch, Shed: true})
	defer func() { e.Close(); sender.Close(); e.Wait() }()
	if got := cap(e.batch); got != DefaultEgressBatch {
		t.Fatalf("batch scratch capacity = %d, want DefaultEgressBatch = %d", got, DefaultEgressBatch)
	}
	if got := cap(e.vecs); got != 2*DefaultEgressBatch {
		t.Fatalf("vecs scratch capacity = %d, want %d", got, 2*DefaultEgressBatch)
	}
}
