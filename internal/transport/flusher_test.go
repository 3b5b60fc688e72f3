package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// TestFlusherPoolDeliversManyConnsInOrder runs more egresses than flushers
// through one pool, over in-process pipes and over loopback TCP: every
// connection must receive its full burst in order (the sticky assignment +
// single-processor handoff guarantee), with the refcount balanced after
// shutdown.
func TestFlusherPoolDeliversManyConnsInOrder(t *testing.T) {
	t.Run("pipe", func(t *testing.T) { testFlusherPoolOrder(t, pipePair) })
	t.Run("tcp", func(t *testing.T) {
		testFlusherPoolOrder(t, func(t *testing.T) (*Conn, *Conn) { return pair(t, &TCP{}) })
	})
}

func testFlusherPoolOrder(t *testing.T, connPair func(*testing.T) (*Conn, *Conn)) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 2})
	var meter EgressMeter

	const conns = 8
	const n = 200
	egs := make([]*Egress, conns)
	recvErr := make(chan error, conns)
	for i := range egs {
		sender, receiver := connPair(t)
		egs[i] = NewEgress(sender, EgressConfig{Depth: 256, Shed: true, Meter: &meter, Pool: pool})
		go func() {
			f := GetFrame()
			defer PutFrame(f)
			for want := uint64(1); want <= n; want++ {
				if err := receiver.RecvInto(f); err != nil {
					recvErr <- fmt.Errorf("recv %d: %w", want, err)
					return
				}
				if f.Seq != want {
					recvErr <- fmt.Errorf("seq %d, want %d (reordered across shared flushers)", f.Seq, want)
					return
				}
			}
			recvErr <- nil
		}()
	}
	var wg sync.WaitGroup
	for _, eg := range egs {
		wg.Add(1)
		go func(eg *Egress) {
			defer wg.Done()
			for seq := uint64(1); seq <= n; seq++ {
				if r := eg.Enqueue(pruneBuf(7, seq), 7, 0); r != EnqueueOK {
					t.Errorf("Enqueue(%d) = %v", seq, r)
					return
				}
			}
		}(eg)
	}
	wg.Wait()
	for range egs {
		if err := <-recvErr; err != nil {
			t.Fatal(err)
		}
	}
	Retire(egs...)
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
	if f := meter.Flushed.Load(); f != conns*n {
		t.Fatalf("Flushed = %d, want %d", f, conns*n)
	}
}

// TestFlusherPoolShedsThenEvicts reruns the Li shed/evict contract through
// the pooled path: a wedged connection sheds exactly Li frames for its
// topic, then the next overflow evicts — and the pool finalizes the egress
// so Wait returns.
func TestFlusherPoolShedsThenEvicts(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	a, b := net.Pipe()
	defer b.Close()
	gate := make(chan struct{})
	sender := NewConn(&blockableConn{Conn: a, gate: gate})
	var meter EgressMeter
	const li = 3
	eg := NewEgress(sender, EgressConfig{Depth: 4, Shed: true, Meter: &meter, Pool: pool})

	sheds, evicted := 0, false
	for seq := uint64(1); seq <= 64 && !evicted; seq++ {
		switch r := eg.Enqueue(pruneBuf(9, seq), 9, li); r {
		case EnqueueOK:
		case EnqueueShed:
			sheds++
		case EnqueueEvicted:
			evicted = true
		default:
			t.Fatalf("Enqueue(%d) = %v", seq, r)
		}
	}
	if !evicted {
		t.Fatalf("never evicted (%d sheds)", sheds)
	}
	if sheds != li {
		t.Fatalf("shed %d frames before eviction, want exactly Li = %d", sheds, li)
	}
	close(gate) // release the wedged flusher; its write fails on the closed pipe
	eg.Wait()
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references after eviction", refs-base)
	}
	if meter.Evictions.Load() != 1 {
		t.Fatalf("Evictions = %d, want 1", meter.Evictions.Load())
	}
}

// TestFlusherPoolBlockingModeBackpressures: pooled blocking mode must keep
// the lossless contract — a full ring parks the enqueuer until the shared
// flusher drains, and nothing is dropped or reordered.
func TestFlusherPoolBlockingModeBackpressures(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	sender, receiver := pipePair(t)
	var meter EgressMeter
	eg := NewEgress(sender, EgressConfig{Depth: 2, Shed: false, Meter: &meter, Pool: pool})

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
			t.Fatalf("seq %d, want %d", f.Seq, want)
		}
	}
	<-done
	eg.Close()
	sender.Close()
	eg.Wait()
	pool.Close()
	if meter.Shed.Load() != 0 || meter.Evictions.Load() != 0 {
		t.Fatal("blocking mode shed or evicted")
	}
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// TestFlusherEscalationIsolatesWedgedConn is the pool's head-of-line
// contract: with a single flusher wedged in a write on one dead
// connection, a healthy sibling's full ring must escalate — spawning a
// replacement flusher — and keep delivering, instead of stalling behind
// the wedge the way a shared writer naively would.
func TestFlusherEscalationIsolatesWedgedConn(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1, EscalateAfter: time.Millisecond})
	var meter EgressMeter

	a, b := net.Pipe()
	defer b.Close()
	gate := make(chan struct{})
	wedged := NewEgress(NewConn(&blockableConn{Conn: a, gate: gate}),
		EgressConfig{Depth: 4, Shed: true, Meter: &meter, Pool: pool})

	healthySender, healthyReceiver := pipePair(t)
	healthy := NewEgress(healthySender, EgressConfig{Depth: 4, Shed: true, Meter: &meter, Pool: pool})

	// Wedge the only flusher: the first frame reaches its write and blocks.
	wedged.Enqueue(pruneBuf(1, 1), 1, spec.LossUnbounded)
	deadline := time.Now().Add(5 * time.Second)
	for pool.flushers[0].inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never entered the wedged write")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Escalation is only ever triggered by an Enqueue that finds its ring
	// full (ROADMAP item 4), and the 500 below take well under a
	// millisecond: let the wedged write age past EscalateAfter first, or
	// every one of them can come too early and nothing comes after.
	time.Sleep(5 * time.Millisecond)

	// Drive the healthy sibling until its ring overflows: the full-ring
	// path finds the wedged write older than EscalateAfter and escalates.
	const n = 500
	got := make(chan error, 1)
	go func() {
		f := GetFrame()
		defer PutFrame(f)
		last := uint64(0)
		for {
			if err := healthyReceiver.RecvInto(f); err != nil {
				got <- fmt.Errorf("after seq %d: %w", last, err)
				return
			}
			if f.Seq <= last {
				got <- fmt.Errorf("reordered: %d after %d", f.Seq, last)
				return
			}
			last = f.Seq
			if last == n {
				got <- nil
				return
			}
		}
	}()
	for seq := uint64(1); seq <= n; seq++ {
		switch r := healthy.Enqueue(pruneBuf(2, seq), 2, spec.LossUnbounded); r {
		case EnqueueOK, EnqueueShed:
		default:
			t.Fatalf("healthy Enqueue(%d) = %v", seq, r)
		}
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy subscriber starved behind the wedged connection")
	}
	if pool.Escalations() == 0 {
		t.Fatal("no escalation recorded despite delivery past a wedged flusher")
	}

	healthy.Close()
	healthySender.Close()
	healthy.Wait()
	close(gate) // the deposed flusher's write fails once the pipe closes
	Retire(wedged)
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// dispatchBuf builds a pooled FrameBuf holding one encoded Dispatch frame
// carrying payload — the knob for making flush batches wide enough to
// overflow a small socket buffer.
func dispatchBuf(topic spec.TopicID, seq uint64, payload []byte) *FrameBuf {
	fb := GetFrameBuf()
	fb.B = wire.AppendDispatchBody(fb.B[:0], &wire.Message{
		Topic: topic, Seq: seq, Payload: payload,
	}, 0)
	return fb
}

// TestFlusherPoolShortWritesKeepFramesIntact drives wide batches of jumbo
// frames into a deliberately tiny socket buffer over loopback TCP, so every
// pooled writev completes in many partial writes. The receive side proves
// the byte stream stayed intact: every frame decodes, in order, with its
// full payload.
func TestFlusherPoolShortWritesKeepFramesIntact(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	var meter EgressMeter

	sender, receiver := pair(t, &TCP{})
	// Shrink the send buffer before traffic so a single 8KiB-payload batch
	// overwhelms it (Linux doubles the value; still far below one batch).
	// The receive buffer stays at its default: the reader drains eagerly,
	// so short writes resume quickly instead of stalling on zero-window.
	if tc, ok := sender.nc.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4096)
	}
	e := NewEgress(sender, EgressConfig{Depth: 64, Shed: false, Meter: &meter, Pool: pool})

	const frames = 64
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	done := make(chan error, 1)
	go func() {
		f := GetFrame()
		defer PutFrame(f)
		for seq := uint64(1); seq <= frames; seq++ {
			if err := receiver.RecvInto(f); err != nil {
				done <- fmt.Errorf("seq %d: %w", seq, err)
				return
			}
			if f.Msg.Seq != seq {
				done <- fmt.Errorf("seq %d arrived, want %d", f.Msg.Seq, seq)
				return
			}
			if len(f.Msg.Payload) != len(payload) {
				done <- fmt.Errorf("seq %d: payload %d bytes, want %d", seq, len(f.Msg.Payload), len(payload))
				return
			}
			for i, b := range f.Msg.Payload {
				if b != payload[i] {
					done <- fmt.Errorf("seq %d: payload corrupt at byte %d", seq, i)
					return
				}
			}
		}
		done <- nil
	}()
	for seq := uint64(1); seq <= frames; seq++ {
		if r := e.Enqueue(dispatchBuf(7, seq, payload), 7, spec.LossUnbounded); r != EnqueueOK {
			t.Fatalf("Enqueue(seq %d) = %v", seq, r)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver starved behind short writes")
	}
	e.Close()
	sender.Close()
	e.Wait()
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
	if errs := meter.WriteErrs.Load(); errs != 0 {
		t.Fatalf("WriteErrs = %d on a healthy connection", errs)
	}
}

// TestFlusherEscalationIsolatesWedgedTCPConn is the escalation contract on
// real sockets: one connection's peer stops reading, both socket buffers
// fill, and the only flusher parks in that connection's writev while a
// ring-mate keeps producing. The mate's full-ring enqueues must depose the
// stuck flusher and keep flowing through the replacement.
func TestFlusherEscalationIsolatesWedgedTCPConn(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1, EscalateAfter: time.Millisecond})
	var meter EgressMeter

	wedgedSender, wedgedReceiver := pair(t, &TCP{})
	if tc, ok := wedgedSender.nc.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4096)
	}
	if tc, ok := wedgedReceiver.nc.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	// The wedged receiver never reads: once both socket buffers fill, the
	// flusher's writev on this connection can make no progress.
	wedged := NewEgress(wedgedSender, EgressConfig{Depth: 64, Shed: true, Meter: &meter, Pool: pool})

	healthySender, healthyReceiver := pair(t, &TCP{})
	healthy := NewEgress(healthySender, EgressConfig{Depth: 4, Shed: true, Meter: &meter, Pool: pool})

	payload := make([]byte, 8192)
	for seq := uint64(1); seq <= 64; seq++ {
		wedged.Enqueue(dispatchBuf(1, seq, payload), 1, spec.LossUnbounded)
	}
	// Wait for the flusher to park in the wedged write.
	deadline := time.Now().Add(5 * time.Second)
	for pool.flushers[0].inFlight.Load() == 0 || pool.flushers[0].writing.Load() != wedged {
		if time.Now().After(deadline) {
			t.Fatal("flusher never parked in the wedged write")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The healthy subscriber: frames may be shed (Depth 4, a wedged
	// flusher), but whatever arrives must arrive in order, and the sentinel
	// enqueued after escalation must make it through the replacement.
	var lastSeen atomic.Uint64
	recvErr := make(chan error, 1)
	go func() {
		f := GetFrame()
		defer PutFrame(f)
		last := uint64(0)
		for {
			if err := healthyReceiver.RecvInto(f); err != nil {
				recvErr <- fmt.Errorf("after seq %d: %w", last, err)
				return
			}
			if f.Seq <= last {
				recvErr <- fmt.Errorf("reordered: %d after %d", f.Seq, last)
				return
			}
			last = f.Seq
			lastSeen.Store(last)
		}
	}()
	// Drive full-ring enqueues until one of them ages the wedged write past
	// EscalateAfter and deposes the flusher.
	seq := uint64(0)
	deadline = time.Now().Add(5 * time.Second)
	for pool.Escalations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no escalation despite sustained full-ring enqueues behind a wedged write")
		}
		seq++
		switch r := healthy.Enqueue(pruneBuf(2, seq), 2, spec.LossUnbounded); r {
		case EnqueueOK, EnqueueShed:
		default:
			t.Fatalf("healthy Enqueue(%d) = %v", seq, r)
		}
	}
	seq++
	final := seq
	if r := healthy.Enqueue(pruneBuf(2, final), 2, spec.LossUnbounded); r != EnqueueOK && r != EnqueueShed {
		t.Fatalf("sentinel Enqueue(%d) = %v", final, r)
	}
	deadline = time.Now().Add(10 * time.Second)
	for lastSeen.Load() < final {
		select {
		case err := <-recvErr:
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("sentinel seq %d starved behind the wedged batch-mate (got up to %d)",
				final, lastSeen.Load())
		}
		time.Sleep(time.Millisecond)
	}

	healthy.Close()
	healthySender.Close()
	healthy.Wait()
	// Unstick the deposed flusher: closing the peer fails the blocked write.
	wedgedReceiver.Close()
	wedged.Close()
	wedgedSender.Close()
	wedged.Wait()
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}
