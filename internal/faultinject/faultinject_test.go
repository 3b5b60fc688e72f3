package faultinject

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/transport"
)

// frame builds one length-prefixed wire frame around payload.
func frame(payload []byte) []byte {
	b := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	copy(b[4:], payload)
	return b
}

// readFrame reads one length-prefixed frame's payload from r.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// pair wires a cli→srv connection through a fresh fault network over Mem and
// returns both ends plus the network.
func pair(t *testing.T, seed int64) (*Network, net.Conn, net.Conn) {
	t.Helper()
	n := New(transport.NewMem(), seed)
	ln, err := n.Node("srv").Listen("srv")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	cli, err := n.Node("cli").Dial("srv")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	srv := <-accepted
	t.Cleanup(func() { srv.Close() })
	return n, cli, srv
}

func TestPassthroughBothDirections(t *testing.T) {
	n, cli, srv := pair(t, 1)
	// Egress: cli → srv.
	if _, err := cli.Write(frame([]byte("ping"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readFrame(srv)
	if err != nil || string(got) != "ping" {
		t.Fatalf("srv read = %q, %v", got, err)
	}
	// Ingress: srv → cli flows through the injector's read path.
	if _, err := srv.Write(frame([]byte("pong"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err = readFrame(cli)
	if err != nil || string(got) != "pong" {
		t.Fatalf("cli read = %q, %v", got, err)
	}
	// The forwarded counter ticks just after the peer's read completes;
	// give the pump a moment.
	for deadline := time.Now().Add(2 * time.Second); n.Stats().FramesForwarded.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := n.Stats().FramesForwarded.Load(); got < 2 {
		t.Fatalf("FramesForwarded = %d after a frame each way, want >= 2", got)
	}
	if got := n.ActiveConns(); got != 1 {
		t.Fatalf("ActiveConns = %d, want 1", got)
	}
}

func TestLatencyIsPipelined(t *testing.T) {
	const lat = 60 * time.Millisecond
	n, cli, srv := pair(t, 2)
	n.SetLink("cli", "srv", Faults{Latency: lat})

	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := cli.Write(frame([]byte{byte(i)})); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	var first, last time.Time
	for i := 0; i < 3; i++ {
		if _, err := readFrame(srv); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if i == 0 {
			first = time.Now()
		}
		last = time.Now()
	}
	if d := first.Sub(start); d < lat {
		t.Fatalf("first frame arrived after %v, want >= %v", d, lat)
	}
	// Frames pipeline: back-to-back sends share the delay instead of
	// serializing behind it (serialized would be >= 2*lat apart).
	if gap := last.Sub(first); gap > lat/2 {
		t.Fatalf("frames serialized behind latency: first-to-last gap %v", gap)
	}
}

func TestIngressLatency(t *testing.T) {
	const lat = 50 * time.Millisecond
	n, cli, srv := pair(t, 3)
	n.SetLink("srv", "cli", Faults{Latency: lat})

	start := time.Now()
	if _, err := srv.Write(frame([]byte("x"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := readFrame(cli); err != nil {
		t.Fatalf("read: %v", err)
	}
	if d := time.Since(start); d < lat {
		t.Fatalf("ingress frame arrived after %v, want >= %v", d, lat)
	}
}

// dropRun sends count frames through a cli→srv link with the given drop rate
// and returns which frame indices survived.
func dropRun(t *testing.T, seed int64, count int, rate float64) map[int]bool {
	t.Helper()
	n, cli, srv := pair(t, seed)
	n.SetLink("cli", "srv", Faults{Drop: rate})
	done := make(chan map[int]bool, 1)
	go func() {
		got := make(map[int]bool)
		for {
			p, err := readFrame(srv)
			if err != nil {
				done <- got
				return
			}
			got[int(binary.LittleEndian.Uint16(p))] = true
		}
	}()
	for i := 0; i < count; i++ {
		p := make([]byte, 2)
		binary.LittleEndian.PutUint16(p, uint16(i))
		if _, err := cli.Write(frame(p)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	cli.Close() // drains, then EOFs the server reader
	select {
	case got := <-done:
		return got
	case <-time.After(5 * time.Second):
		t.Fatal("server reader did not finish")
		return nil
	}
}

func TestDropsAreDeterministicPerSeed(t *testing.T) {
	const count = 200
	a := dropRun(t, 42, count, 0.3)
	b := dropRun(t, 42, count, 0.3)
	if len(a) == 0 || len(a) == count {
		t.Fatalf("drop rate 0.3 delivered %d/%d frames — lottery not working", len(a), count)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered different frame counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !b[i] {
			t.Fatalf("same seed diverged: frame %d delivered in run A only", i)
		}
	}
	c := dropRun(t, 43, count, 0.3)
	same := true
	if len(c) != len(a) {
		same = false
	} else {
		for i := range a {
			if !c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop pattern (200 frames)")
	}
}

func TestPartitionHoldsThenHeals(t *testing.T) {
	n, cli, srv := pair(t, 4)
	n.Partition("cut", []string{"cli"}, []string{"srv"})

	if _, err := cli.Write(frame([]byte("held"))); err != nil {
		t.Fatalf("write during partition should buffer, got %v", err)
	}
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := readFrame(srv); err == nil {
		t.Fatal("frame crossed a raised partition")
	}
	srv.SetReadDeadline(time.Time{})

	if got := n.Stats().FramesHeld.Load(); got == 0 {
		t.Fatal("expected FramesHeld > 0 while partitioned")
	}
	n.Heal("cut")
	got, err := readFrame(srv)
	if err != nil || string(got) != "held" {
		t.Fatalf("post-heal read = %q, %v", got, err)
	}
}

func TestPartitionRefusesNewDials(t *testing.T) {
	n, _, _ := pair(t, 5)
	n.Partition("cut", []string{"cli"}, []string{"srv"})
	if _, err := n.Node("cli").Dial("srv"); !errors.Is(err, transport.ErrConnRefused) {
		t.Fatalf("dial across partition = %v, want ErrConnRefused", err)
	}
	if n.Stats().DialsRefused.Load() == 0 {
		t.Fatal("expected DialsRefused > 0")
	}
}

func TestStallHalfOpens(t *testing.T) {
	n, cli, srv := pair(t, 6)
	n.SetLink("cli", "srv", Faults{Stall: true})

	if _, err := cli.Write(frame([]byte("stalled"))); err != nil {
		t.Fatalf("write during stall should succeed, got %v", err)
	}
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := readFrame(srv); err == nil {
		t.Fatal("frame delivered through a stalled link")
	}
	srv.SetReadDeadline(time.Time{})

	n.ClearLink("cli", "srv")
	got, err := readFrame(srv)
	if err != nil || string(got) != "stalled" {
		t.Fatalf("post-stall read = %q, %v", got, err)
	}
}

func TestBandwidthCapPacesDelivery(t *testing.T) {
	const (
		bps       = 512 << 10
		frameBody = 16 << 10
		frames    = 8
	)
	n, cli, srv := pair(t, 7)
	n.SetLink("cli", "srv", Faults{BandwidthBps: bps})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			if _, err := readFrame(srv); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
	}()
	start := time.Now()
	body := make([]byte, frameBody)
	for i := 0; i < frames; i++ {
		if _, err := cli.Write(frame(body)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	<-done
	// 7 paced gaps of (16KiB+4)/512KiB/s ≈ 31ms each; require well over half.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("8 × 16KiB crossed a 512KiB/s link in %v — pacing not applied", elapsed)
	}
}

func TestResetLinkKillsConn(t *testing.T) {
	n, cli, srv := pair(t, 8)
	if got := n.ResetLink("cli", "srv"); got != 1 {
		t.Fatalf("ResetLink reset %d conns, want 1", got)
	}
	if _, err := cli.Write(frame([]byte("x"))); err == nil {
		t.Fatal("write on reset conn succeeded")
	}
	srv.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := readFrame(srv); err == nil {
		t.Fatal("read on peer of reset conn succeeded")
	}
	if n.ActiveConns() != 0 {
		t.Fatalf("ActiveConns = %d after reset, want 0", n.ActiveConns())
	}
	if n.Stats().Resets.Load() != 1 {
		t.Fatalf("Resets = %d, want 1", n.Stats().Resets.Load())
	}
}

func TestResetNodeMatchesEitherRole(t *testing.T) {
	n, _, _ := pair(t, 9)
	if got := n.ResetNode("srv"); got != 1 {
		t.Fatalf("ResetNode(srv) reset %d conns, want 1 (listener role)", got)
	}
}

func TestReadDeadline(t *testing.T) {
	_, cli, _ := pair(t, 10)
	cli.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := readFrame(cli)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline = %v, want ErrDeadlineExceeded", err)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("deadline error %v is not a net.Error timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline wait far exceeded the deadline")
	}
	// A cleared deadline makes the conn usable again.
	cli.SetReadDeadline(time.Time{})
}

func TestCloseDrainsInFlight(t *testing.T) {
	n, cli, srv := pair(t, 11)
	n.SetLink("cli", "srv", Faults{Latency: 30 * time.Millisecond})
	if _, err := cli.Write(frame([]byte("last words"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Read concurrently: Mem conns are synchronous pipes, so the drain in
	// Close can only complete while the peer is consuming.
	type result struct {
		got []byte
		err error
	}
	read := make(chan result, 1)
	go func() {
		got, err := readFrame(srv)
		read <- result{got, err}
	}()
	cli.Close()
	r := <-read
	if r.err != nil || string(r.got) != "last words" {
		t.Fatalf("read after close = %q, %v — in-flight frame lost", r.got, r.err)
	}
	if _, err := readFrame(srv); err == nil {
		t.Fatal("expected EOF after drain")
	}
}

func TestWildcardPrecedence(t *testing.T) {
	n := New(transport.NewMem(), 12)
	n.SetLink(Wildcard, Wildcard, Faults{Latency: 1 * time.Millisecond})
	n.SetLink("cli", Wildcard, Faults{Latency: 2 * time.Millisecond})
	n.SetLink("cli", "srv", Faults{Latency: 3 * time.Millisecond})
	if got := n.faultsFor("cli", "srv").Latency; got != 3*time.Millisecond {
		t.Fatalf("exact rule lost to wildcard: %v", got)
	}
	if got := n.faultsFor("cli", "other").Latency; got != 2*time.Millisecond {
		t.Fatalf("from→* rule lost: %v", got)
	}
	if got := n.faultsFor("other", "srv").Latency; got != 1*time.Millisecond {
		t.Fatalf("*→* fallback lost: %v", got)
	}
	n.ClearAllFaults()
	if !n.faultsFor("cli", "srv").IsZero() {
		t.Fatal("ClearAllFaults left rules behind")
	}
}

func TestSeedFromEnv(t *testing.T) {
	t.Setenv("FRAME_CHAOS_SEED", "")
	if got := SeedFromEnv(99); got != 99 {
		t.Fatalf("unset env: got %d, want fallback 99", got)
	}
	t.Setenv("FRAME_CHAOS_SEED", "12345")
	if got := SeedFromEnv(99); got != 12345 {
		t.Fatalf("decimal env: got %d", got)
	}
	t.Setenv("FRAME_CHAOS_SEED", "0xbeef")
	if got := SeedFromEnv(99); got != 0xbeef {
		t.Fatalf("hex env: got %d", got)
	}
	t.Setenv("FRAME_CHAOS_SEED", "not-a-number")
	if got := SeedFromEnv(99); got != 99 {
		t.Fatalf("garbage env: got %d, want fallback", got)
	}
}

func TestWriteBufferBytesBackpressures(t *testing.T) {
	n, cli, srv := pair(t, 11)
	n.SetLink("cli", "srv", Faults{Stall: true, WriteBufferBytes: 256})

	// Each frame is 104 bytes on the wire; the pump holds the first one
	// mid-delivery (stalled link), so the shrunken 256-byte queue admits a
	// few more and then blocks the writer. The write deadline turns the
	// block into the same error a full kernel socket buffer would produce.
	payload := make([]byte, 100)
	cli.SetWriteDeadline(time.Now().Add(80 * time.Millisecond))
	writes := 0
	var werr error
	for i := 0; i < 32; i++ {
		if _, werr = cli.Write(frame(payload)); werr != nil {
			break
		}
		writes++
	}
	if !errors.Is(werr, os.ErrDeadlineExceeded) {
		t.Fatalf("write past the shrunken buffer = %v, want os.ErrDeadlineExceeded", werr)
	}
	if writes == 0 || writes > 8 {
		t.Fatalf("%d writes fit a 256-byte buffer, want a small handful", writes)
	}
	cli.SetWriteDeadline(time.Time{})

	// Clearing the program restores the stall and the default bound; every
	// frame admitted before the backpressure kicked in arrives intact.
	n.ClearLink("cli", "srv")
	for i := 0; i < writes; i++ {
		if _, err := readFrame(srv); err != nil {
			t.Fatalf("post-heal read %d: %v", i, err)
		}
	}
}

// TestWriteResumesAfterDeadline: a write whose deadline passes part way
// through p reports the bytes it took, and a writer that resumes from there
// gets every frame delivered exactly once — with a frame split across the
// earlier write and this one, and frames left on both sides of the cut.
func TestWriteResumesAfterDeadline(t *testing.T) {
	n, cli, srv := pair(t, 12)
	n.SetLink("cli", "srv", Faults{Stall: true, WriteBufferBytes: 256})

	const frames = 8
	var stream []byte
	for i := 0; i < frames; i++ {
		payload := make([]byte, 100)
		payload[0] = byte(i)
		stream = append(stream, frame(payload)...)
	}
	// Half a frame first: it waits in the parse buffer.
	if w, err := cli.Write(stream[:50]); err != nil || w != 50 {
		t.Fatalf("partial write = %d, %v", w, err)
	}
	rest := stream[50:]
	cli.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	w, err := cli.Write(rest)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write into a full stalled link = %d, %v; want os.ErrDeadlineExceeded", w, err)
	}
	if w <= 0 || w >= len(rest) {
		t.Fatalf("write took %d of %d bytes, want the deadline to cut p part way", w, len(rest))
	}
	cli.SetWriteDeadline(time.Time{})
	n.ClearLink("cli", "srv")
	if w2, err := cli.Write(rest[w:]); err != nil || w2 != len(rest)-w {
		t.Fatalf("resumed write = %d, %v; want %d bytes and no error", w2, err, len(rest)-w)
	}
	for i := 0; i < frames; i++ {
		got, err := readFrame(srv)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != 100 || got[0] != byte(i) {
			t.Fatalf("frame %d arrived as %d bytes tagged %d: lost or duplicated", i, len(got), got[0])
		}
	}
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if got, err := readFrame(srv); err == nil {
		t.Fatalf("an extra frame tagged %d arrived: delivered twice", got[0])
	}
}
