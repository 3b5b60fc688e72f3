package failover

import (
	"context"
	"errors"
	"net"
	"sync"
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
// transport.Mem the floor is the context the detector makes for a probe and
// a pipe deadline timer; the probe, which waits on the context rather than
// a read deadline, may add nothing to that. (AllocsPerRun counts every
// goroutine, so the responder and the probe's reader reuse their frames
// too.)
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

// scriptedPeer plays the watched broker over transport.Mem. On the link
// that says Hello as "stream" it sends a Prune frame every tick while
// streaming, as a Primary's replication link does under load; on the
// "poll" link it counts Polls and, while answering, answers each delay
// after it came in. It never closes a link: going quiet is the only fault
// it scripts.
type scriptedPeer struct {
	polls     atomic.Int64
	answering atomic.Bool
	streaming atomic.Bool
	delay     time.Duration
	tick      time.Duration
}

// frameStamps records when the watching reader received each stream frame.
type frameStamps struct {
	mu sync.Mutex
	at []time.Time
}

func (s *frameStamps) add(t time.Time) {
	s.mu.Lock()
	s.at = append(s.at, t)
	s.mu.Unlock()
}

// before returns the newest stamp at or before t, zero if there is none.
func (s *frameStamps) before(t time.Time) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.at) - 1; i >= 0; i-- {
		if !s.at[i].After(t) {
			return s.at[i]
		}
	}
	return time.Time{}
}

// last returns the newest stamp.
func (s *frameStamps) last() time.Time { return s.before(time.Now()) }

// watchScripted dials the peer's two links and starts a reader that
// reports every stream frame to the detector d returns, stamping it in
// frames first. Close the returned links to stop everything.
func watchScripted(t *testing.T, cfg Config, peer *scriptedPeer, onCrash func()) (d *Detector, frames *frameStamps, links []*transport.Conn) {
	t.Helper()
	mem := transport.NewMem()
	ln, err := mem.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go peer.serve(transport.NewConn(nc))
		}
	}()
	dial := func(name string) *transport.Conn {
		nc, err := mem.Dial("primary")
		if err != nil {
			t.Fatal(err)
		}
		conn := transport.NewConn(nc)
		if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleBrokerPeer, Name: name}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	poll, stream := dial("poll"), dial("stream")
	d, err = New(cfg, ConnProbe(poll), onCrash)
	if err != nil {
		t.Fatal(err)
	}
	frames = new(frameStamps)
	go func() {
		var f wire.Frame
		for stream.RecvInto(&f) == nil {
			frames.add(time.Now())
			d.Heard()
		}
	}()
	return d, frames, []*transport.Conn{poll, stream}
}

func (p *scriptedPeer) serve(conn *transport.Conn) {
	defer conn.Close()
	hello, err := conn.Recv()
	if err != nil {
		return
	}
	if hello.Name == "stream" {
		ticker := time.NewTicker(p.tick)
		defer ticker.Stop()
		prune := wire.Frame{Type: wire.TypePrune, Topic: 1}
		for range ticker.C {
			if !p.streaming.Load() {
				continue
			}
			prune.Seq++
			if conn.Send(&prune) != nil {
				return
			}
		}
	}
	// Replies leave from their own goroutine, delay after their poll came
	// in, so a slow answer never stops the peer reading the next poll.
	type pending struct {
		nonce uint64
		at    time.Time
	}
	replies := make(chan pending, 64)
	defer close(replies)
	go func() {
		for r := range replies {
			time.Sleep(time.Until(r.at.Add(p.delay)))
			if conn.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: r.nonce}) != nil {
				return
			}
		}
	}()
	var f wire.Frame
	for conn.RecvInto(&f) == nil {
		if f.Type != wire.TypePoll {
			continue
		}
		p.polls.Add(1)
		if p.answering.Load() {
			replies <- pending{f.Nonce, time.Now()}
		}
	}
}

// TestDetectorFiresWithinWorstCaseOfLastFrame: the Primary streams frames,
// then falls silent without closing anything. The detector must fire no
// sooner than WorstCaseDetection after the last frame it heard (the
// declaring probe goes out Misses·Period after it and is given Timeout)
// and not much later either.
func TestDetectorFiresWithinWorstCaseOfLastFrame(t *testing.T) {
	cfg := Config{Period: 10 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3}
	peer := &scriptedPeer{tick: time.Millisecond}
	peer.streaming.Store(true)
	fired := make(chan time.Time, 1)
	d, frames, _ := watchScripted(t, cfg, peer, func() { fired <- time.Now() })
	go d.Run(context.Background()) //nolint:errcheck // exits after firing

	time.Sleep(20 * cfg.Period)
	peer.streaming.Store(false) // silent, every link still open
	var at time.Time
	select {
	case at = <-fired:
	case <-time.After(time.Second):
		t.Fatal("silent peer never declared dead")
	}
	elapsed := at.Sub(frames.last())
	bound := cfg.WorstCaseDetection()
	if elapsed < bound || elapsed > bound+bound/2 {
		t.Errorf("fired %v after the last frame heard, want within [%v, %v]", elapsed, bound, bound+bound/2)
	}
	if got := peer.polls.Load(); got != int64(cfg.Misses) {
		t.Errorf("peer received %d polls, want exactly the %d that went unanswered", got, cfg.Misses)
	}
}

// TestDetectorQuietLivePeerNeedsMissesUnansweredProbes: a Primary whose
// replication stops but which answers every poll — slower than a Period,
// within Timeout — is probed again and never suspected; once it stops
// answering, exactly Misses unanswered probes in a row declare it dead.
func TestDetectorQuietLivePeerNeedsMissesUnansweredProbes(t *testing.T) {
	cfg := Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3}
	peer := &scriptedPeer{tick: time.Millisecond, delay: 8 * time.Millisecond}
	peer.answering.Store(true)
	fired := make(chan struct{})
	d, _, _ := watchScripted(t, cfg, peer, func() { close(fired) })
	var streak, longest atomic.Int64
	d.SetOnProbe(func(err error) {
		if err == nil {
			streak.Store(0)
			return
		}
		longest.Store(max(longest.Load(), streak.Add(1)))
	})
	go d.Run(context.Background()) //nolint:errcheck // exits after firing

	time.Sleep(40 * cfg.Period)
	select {
	case <-fired:
		t.Fatal("a quiet peer that answers every probe within Timeout was declared dead")
	default:
	}
	if d.Probes() == 0 || peer.polls.Load() == 0 {
		t.Fatal("no probes while the peer was quiet")
	}
	if !d.Alive() {
		t.Error("Alive() = false for a peer answering its probes")
	}
	if n := longest.Load(); n >= int64(cfg.Misses) {
		t.Errorf("%d unanswered probes in a row from a live peer", n)
	}
	peer.answering.Store(false)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("peer that stopped answering never declared dead")
	}
	if got := streak.Load(); got != int64(cfg.Misses) {
		t.Errorf("declared dead after %d unanswered probes in a row, want %d", got, cfg.Misses)
	}
}

// TestDetectorSendsNoProbesToAPeerHeardEveryPeriod: while the Primary's
// frames stream in every millisecond, the detector probes only a peer
// that has gone silent for a Period — whenever a probe goes out, at least
// a Period has passed since the last frame the reader stamped — and it
// still reports the peer alive. A loaded box that stalls the stream for a
// Period may draw a probe; a detector that probes a peer it heard a
// millisecond ago may not.
func TestDetectorSendsNoProbesToAPeerHeardEveryPeriod(t *testing.T) {
	cfg := Config{Period: 10 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3}
	peer := &scriptedPeer{tick: time.Millisecond}
	peer.streaming.Store(true)
	peer.answering.Store(true)
	d, frames, _ := watchScripted(t, cfg, peer, func() { t.Error("fired on a streaming peer") })
	// Each probe is checked as it goes out. A frame stamped in the last
	// half Period may have reached the reader after the detector decided
	// to probe, so the silence is measured from the newest frame older
	// than that, which the detector had heard.
	var mu sync.Mutex
	var silences []time.Duration
	probe := d.probe
	d.probe = func(ctx context.Context) error {
		now := time.Now()
		silence := now.Sub(frames.before(now.Add(-cfg.Period / 2)))
		mu.Lock()
		silences = append(silences, silence)
		mu.Unlock()
		return probe(ctx)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	time.Sleep(200 * cfg.Period)
	if !d.Alive() {
		t.Error("Alive() = false while frames stream in")
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	early := 0
	for _, silence := range silences {
		if silence < cfg.Period {
			if early == 0 {
				t.Errorf("a probe went out %v after the last frame heard, want at least the %v Period", silence, cfg.Period)
			}
			early++
		}
	}
	if early > 1 {
		t.Errorf("%d of %d probes went out less than a Period after the last frame heard", early, len(silences))
	}
}
