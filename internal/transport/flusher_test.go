package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
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

// recvSeqs reads frames off receiver and sends each one's Seq, until the
// connection fails.
func recvSeqs(receiver *Conn) <-chan uint64 {
	seqs := make(chan uint64, 64)
	go func() {
		defer close(seqs)
		f := GetFrame()
		defer PutFrame(f)
		for receiver.RecvInto(f) == nil {
			seqs <- f.Seq
		}
	}()
	return seqs
}

// awaitSeq waits up to within for the frame with sequence want.
func awaitSeq(t *testing.T, seqs <-chan uint64, want uint64, within time.Duration) {
	t.Helper()
	timeout := time.After(within)
	for {
		select {
		case seq, ok := <-seqs:
			if !ok {
				t.Fatalf("connection failed before seq %d arrived", want)
			}
			if seq == want {
				return
			}
		case <-timeout:
			t.Fatalf("seq %d not delivered within %v: starved behind a stalled ring-mate", want, within)
		}
	}
}

// TestFlusherHandsOffStalledWriteToIdleSibling is the pool's head-of-line
// contract with no traffic to lean on: the only flusher is in a write to a
// peer that never reads, and a ring-mate gets exactly one frame. That frame
// must arrive within a second — the stalled write is handed to a goroutine
// of its own after HandoffAfter — with no later enqueue to rescue it and
// no sleep to age anything.
func TestFlusherHandsOffStalledWriteToIdleSibling(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	a, b := net.Pipe() // nobody reads b
	defer b.Close()
	stalled := NewEgress(NewConn(a), EgressConfig{Depth: 4, Pool: pool})
	sender, receiver := pipePair(t)
	sibling := NewEgress(sender, EgressConfig{Depth: 4, Pool: pool})
	seqs := recvSeqs(receiver)

	stalled.Enqueue(pruneBuf(1, 1), 1, spec.LossUnbounded)
	// The flusher holds the write lock from its first attempt on.
	waitWriteLocked(t, stalled.conn)
	sibling.Enqueue(pruneBuf(2, 1), 2, spec.LossUnbounded)
	awaitSeq(t, seqs, 1, time.Second)
	// At least the stalled write; the sibling's own can outlast 2 ms too
	// when a loaded box deschedules the flusher mid-write.
	if h := pool.Handoffs(); h < 1 {
		t.Fatalf("Handoffs = %d, want the stalled write handed off", h)
	}

	Retire(stalled, sibling)
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// waitWriteLocked waits until a writer holds c's write lock.
func waitWriteLocked(t *testing.T, c *Conn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.writeMu.TryLock() {
		c.writeMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the flusher never started the write")
		}
		runtime.Gosched()
	}
}

// TestFlusherHandoffObeysStallBound: a handed-off write is still bounded by
// its ring's stall bound. On a peer that never reads, a Stall: 20ms ring's
// write is handed off after HandoffAfter, fails when the bound passes
// (counted once as a stall) and closes the ring. A second ring without a
// bound stays in its hand-off until Retire frees it. Nothing is leaked:
// no goroutine, no FrameBuf reference.
func TestFlusherHandoffObeysStallBound(t *testing.T) {
	base, goroutines := FrameBufRefs(), runtime.NumGoroutine()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	var meter EgressMeter
	ring := func(stall time.Duration) *Egress {
		a, b := net.Pipe() // nobody reads b
		t.Cleanup(func() { b.Close() })
		return NewEgress(NewConn(a), EgressConfig{Depth: 8, Stall: stall, Meter: &meter, Pool: pool})
	}
	bounded, unbounded := ring(20*time.Millisecond), ring(0)
	bounded.Enqueue(pruneBuf(1, 1), 1, 0)
	unbounded.Enqueue(pruneBuf(2, 1), 2, 0)

	waitDone := make(chan struct{})
	go func() { bounded.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the handed-off write outlived its stall bound")
	}
	if s := meter.Stalls.Load(); s != 1 {
		t.Fatalf("Stalls = %d, want 1", s)
	}
	if r := bounded.Enqueue(pruneBuf(1, 2), 1, 0); r != EnqueueClosed {
		t.Fatalf("Enqueue after the stall = %v, want EnqueueClosed", r)
	}
	// The unbounded ring's write is handed off, and stays so.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Handoffs() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Handoffs = %d, want both writes handed off", pool.Handoffs())
		}
		time.Sleep(time.Millisecond)
	}
	if d := unbounded.Depth(); d != 0 {
		t.Fatalf("Depth = %d with the write handed off, want 0", d)
	}
	Retire(unbounded)
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
	for deadline = time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Retire and Close, want the %d before the test", runtime.NumGoroutine(), goroutines)
		}
		runtime.Gosched()
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

// TestFlusherHandsOffStalledTCPWrite is the hand-off on real sockets: one
// connection's peer stops reading, both 4 KiB socket buffers fill, and the
// only flusher's writev makes no progress. A sentinel frame on a ring-mate
// must still arrive within a second.
func TestFlusherHandsOffStalledTCPWrite(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})

	stalledSender, stalledReceiver := pair(t, &TCP{})
	if tc, ok := stalledSender.nc.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4096)
	}
	if tc, ok := stalledReceiver.nc.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	// The stalled receiver never reads: once both socket buffers fill, the
	// flusher's writev on this connection can make no progress.
	stalled := NewEgress(stalledSender, EgressConfig{Depth: 64, Pool: pool})
	sender, receiver := pair(t, &TCP{})
	sibling := NewEgress(sender, EgressConfig{Depth: 4, Pool: pool})
	seqs := recvSeqs(receiver)

	payload := make([]byte, 8192)
	for seq := uint64(1); seq <= 64; seq++ {
		stalled.Enqueue(dispatchBuf(1, seq, payload), 1, spec.LossUnbounded)
	}
	waitWriteLocked(t, stalledSender)
	sibling.Enqueue(pruneBuf(2, 1), 2, spec.LossUnbounded)
	awaitSeq(t, seqs, 1, time.Second)
	if pool.Handoffs() == 0 {
		t.Fatal("no write was handed off, yet the sentinel passed a stalled batch")
	}

	Retire(stalled, sibling)
	pool.Close()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// TestFlusherPoolCloseRetiresItsRings: the pool owns the rings it drains.
// A ring with frames queued behind a peer that never reads — its write
// handed off, with no stall bound to end it — is not retired by anyone
// before the pool closes. Close must retire it itself and return, with
// every frame reference released and the ring's Wait returning; a ring
// made on the closed pool starts closed.
func TestFlusherPoolCloseRetiresItsRings(t *testing.T) {
	base := FrameBufRefs()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	a, b := net.Pipe() // nobody reads b
	defer b.Close()
	stalled := NewEgress(NewConn(a), EgressConfig{Depth: 4, Pool: pool})
	for seq := uint64(1); seq <= 3; seq++ {
		stalled.Enqueue(pruneBuf(1, seq), 1, spec.LossUnbounded)
	}
	waitWriteLocked(t, stalled.conn)
	for deadline := time.Now().Add(5 * time.Second); pool.Handoffs() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the stalled write was never handed off")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waits on a handed-off write to a ring it never retired")
	}
	waited := make(chan struct{})
	go func() {
		stalled.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(time.Second):
		t.Fatal("the ring's Wait did not return after its pool closed")
	}
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}

	c, d := net.Pipe()
	defer d.Close()
	late := NewEgress(NewConn(c), EgressConfig{Depth: 4, Pool: pool})
	if r := late.Enqueue(pruneBuf(2, 1), 2, spec.LossUnbounded); r != EnqueueClosed {
		t.Fatalf("Enqueue on a ring made on a closed pool = %v, want EnqueueClosed", r)
	}
	late.Wait()
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references after the late ring's refusal", refs-base)
	}
}
