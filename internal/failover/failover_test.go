package failover

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

func testConfig() Config {
	return Config{Period: 2 * time.Millisecond, Timeout: 5 * time.Millisecond, Misses: 3}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	for _, bad := range []Config{
		{Period: 0, Timeout: time.Millisecond, Misses: 1},
		{Period: time.Millisecond, Timeout: 0, Misses: 1},
		{Period: time.Millisecond, Timeout: time.Millisecond, Misses: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestWorstCaseDetectionWithinPaperFailoverBudget(t *testing.T) {
	// The paper's worked example uses x = 50 ms; the default detector must
	// detect well inside that so redirect+resend fits too.
	if got := DefaultConfig().WorstCaseDetection(); got > 35*time.Millisecond {
		t.Errorf("WorstCaseDetection = %v, want ≤ 35ms", got)
	}
}

func TestNewValidation(t *testing.T) {
	probe := func(context.Context) error { return nil }
	if _, err := New(testConfig(), nil, func() {}); err == nil {
		t.Error("nil probe accepted")
	}
	if _, err := New(testConfig(), probe, nil); err == nil {
		t.Error("nil onCrash accepted")
	}
	if _, err := New(Config{}, probe, func() {}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDetectorFiresAfterConsecutiveMisses(t *testing.T) {
	var alive atomic.Bool
	alive.Store(true)
	var fired atomic.Bool
	probe := func(context.Context) error {
		if alive.Load() {
			return nil
		}
		return errors.New("down")
	}
	d, err := New(testConfig(), probe, func() { fired.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()

	time.Sleep(10 * time.Millisecond) // several healthy probes
	if fired.Load() {
		t.Fatal("fired while healthy")
	}
	alive.Store(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("detector did not fire")
	}
	if !fired.Load() || !d.Fired() {
		t.Error("onCrash not invoked")
	}
	if d.Probes() < 3 {
		t.Errorf("Probes = %d, want ≥ 3", d.Probes())
	}
}

func TestDetectorResetsMissCounterOnSuccess(t *testing.T) {
	// Pattern: fail, fail, ok, fail, fail, ok, ... never reaches 3 misses.
	var n atomic.Int64
	probe := func(context.Context) error {
		if n.Add(1)%3 == 0 {
			return nil
		}
		return errors.New("flaky")
	}
	d, err := New(testConfig(), probe, func() { t.Error("fired on flaky link") })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v, want deadline exceeded", err)
	}
}

func TestDetectorCancel(t *testing.T) {
	probe := func(context.Context) error { return nil }
	d, err := New(testConfig(), probe, func() {})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return on cancel")
	}
}

func TestDetectorHonorsProbeTimeout(t *testing.T) {
	// A probe that hangs must be cut off by Timeout, not stall the loop.
	probe := func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	fired := make(chan struct{})
	d, err := New(testConfig(), probe, func() { close(fired) })
	if err != nil {
		t.Fatal(err)
	}
	go d.Run(context.Background()) //nolint:errcheck // detector exits after firing
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("hanging probes never declared crash")
	}
}

// TestConnProbeAgainstResponder runs the detector over a real pipe: a
// responder loop answers polls until "crashed", then the detector fires.
func TestConnProbeAgainstResponder(t *testing.T) {
	backupNC, primaryNC := net.Pipe()
	backup, primary := transport.NewConn(backupNC), transport.NewConn(primaryNC)
	defer backup.Close()

	// Primary responder until killed.
	primaryDone := make(chan struct{})
	go func() {
		defer close(primaryDone)
		for {
			f, err := primary.Recv()
			if err != nil {
				return
			}
			if f.Type == wire.TypePoll {
				if err := primary.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: f.Nonce}); err != nil {
					return
				}
			}
		}
	}()

	fired := make(chan struct{})
	d, err := New(testConfig(), ConnProbe(backup), func() { close(fired) })
	if err != nil {
		t.Fatal(err)
	}
	go d.Run(context.Background()) //nolint:errcheck // exits after firing

	time.Sleep(15 * time.Millisecond)
	select {
	case <-fired:
		t.Fatal("fired while primary alive")
	default:
	}
	primary.Close() // crash (fail-stop)
	<-primaryDone
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("crash not detected")
	}
}

// TestSetOnProbe checks the observability hook sees every probe result in
// order: successes while the peer answers, then the misses that declare the
// crash.
func TestSetOnProbe(t *testing.T) {
	alive := atomic.Bool{}
	alive.Store(true)
	probe := func(ctx context.Context) error {
		if alive.Load() {
			return nil
		}
		return errors.New("down")
	}
	var oks, misses atomic.Uint64
	fired := make(chan struct{})
	det, err := New(testConfig(), probe, func() { close(fired) })
	if err != nil {
		t.Fatal(err)
	}
	det.SetOnProbe(func(err error) {
		if err == nil {
			oks.Add(1)
		} else {
			misses.Add(1)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- det.Run(ctx) }()

	deadline := time.Now().Add(time.Second)
	for oks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if oks.Load() < 3 {
		t.Fatal("no successful probes observed")
	}
	alive.Store(false)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("crash not detected")
	}
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	if got := misses.Load(); got != uint64(testConfig().Misses) {
		t.Errorf("observed misses = %d, want %d", got, testConfig().Misses)
	}
}

// TestConnProbeDoesNotAllocate: a detector probes hundreds of times a second
// for the life of the process, so a round trip must reuse its frames. Over
// transport.Mem the fixed cost of a probe is the context the detector makes
// for it and the pipe's own deadline timer; the probe may add nothing to
// that. (AllocsPerRun counts every goroutine, so the responder reuses its
// frames too.)
func TestConnProbeDoesNotAllocate(t *testing.T) {
	mem := transport.NewMem()
	ln, err := mem.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		primary := transport.NewConn(nc)
		defer primary.Close()
		var f wire.Frame
		reply := wire.Frame{Type: wire.TypePollReply}
		for primary.RecvInto(&f) == nil {
			reply.Nonce = f.Nonce
			if primary.Send(&reply) != nil {
				return
			}
		}
	}()
	nc, err := mem.Dial("primary")
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	probe := ConnProbe(conn)

	floor := testing.AllocsPerRun(200, func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		deadline, _ := ctx.Deadline()
		conn.SetReadDeadline(deadline)
		cancel()
	})
	var probeErr error
	got := testing.AllocsPerRun(200, func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := probe(ctx); err != nil {
			probeErr = err
		}
		cancel()
	})
	if probeErr != nil {
		t.Fatalf("probe: %v", probeErr)
	}
	if got > floor {
		t.Errorf("probe round trip costs %.0f allocs, the context and deadline alone %.0f", got, floor)
	}
	conn.Close()
	<-served
}
