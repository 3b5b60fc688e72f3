package broker

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// notices counts the Promoted frames conn receives: it waits up to first
// for a frame to arrive, then keeps reading until the link has been quiet
// for quiet. Every other frame fails the test.
func notices(t *testing.T, conn *transport.Conn, first, quiet time.Duration) int {
	t.Helper()
	n, wait := 0, first
	for {
		if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			t.Fatal(err)
		}
		f, err := conn.Recv()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return n
		}
		if err != nil {
			t.Fatalf("publisher link: %v", err)
		}
		if f.Type != wire.TypePromoted {
			t.Fatalf("publisher link carried a %v frame", f.Type)
		}
		n++
		wait = quiet
	}
}

// TestPromotionNoticeReachesEveryPublisherOnce: a publisher session opened
// before the promotion is told exactly once, and so is one that says Hello
// after it; the replication peer's session is not a publisher's and hears
// nothing.
func TestPromotionNoticeReachesEveryPublisherOnce(t *testing.T) {
	n := transport.NewMem()
	b, peer, _ := standaloneBackup(t, n, 32, nil, lanTopic(1, 3))
	before := rawPublisher(t, n, "backup")
	defer before.Close()
	pollRoundTrip(t, before, 1) // the Hello is handled: the session is registered
	pollRoundTrip(t, peer, 2)

	b.promote()
	if got := notices(t, before, 2*time.Second, 100*time.Millisecond); got != 1 {
		t.Errorf("publisher opened before the promotion got %d notices, want 1", got)
	}
	after := rawPublisher(t, n, "backup")
	defer after.Close()
	if got := notices(t, after, 2*time.Second, 100*time.Millisecond); got != 1 {
		t.Errorf("publisher that said Hello after the promotion got %d notices, want 1", got)
	}
	if got := notices(t, peer, 50*time.Millisecond, 0); got != 0 {
		t.Errorf("the replication peer got %d promotion notices, want 0", got)
	}
}

// TestNoPromotionNoticeWithoutPromotion: neither a Primary nor a Backup
// that never promoted tells its publishers anything.
func TestNoPromotionNoticeWithoutPromotion(t *testing.T) {
	n := transport.NewMem()
	c := startCluster(t, n, "primary", "backup", []spec.Topic{lanTopic(1, 3)})
	for _, addr := range []string{"primary", "backup"} {
		conn := rawPublisher(t, n, addr)
		defer conn.Close()
		publishPolled(t, conn, 1, 1)
		if got := notices(t, conn, 100*time.Millisecond, 0); got != 0 {
			t.Errorf("%s: a publisher got %d promotion notices from a broker that never promoted", addr, got)
		}
	}
	if c.backup.Role() != RoleBackup {
		t.Fatal("the Backup promoted during the test")
	}
}

// TestPromotionNeverWaitsOnAPublisher: one publisher session never reads.
// The notice is queued on each session's reply ring, not written on the
// promote path, so promote() returns at once and the publisher that does
// read is told regardless of the one that does not.
func TestPromotionNeverWaitsOnAPublisher(t *testing.T) {
	n := transport.NewMem()
	b, _, _ := standaloneBackup(t, n, 32, nil, lanTopic(1, 3))
	stuck := rawPublisher(t, n, "backup")
	defer stuck.Close()
	pollRoundTrip(t, stuck, 1) // registered; from here on it never reads
	live := rawPublisher(t, n, "backup")
	defer live.Close()
	pollRoundTrip(t, live, 2)

	promoted := make(chan struct{})
	go func() {
		b.promote()
		close(promoted)
	}()
	select {
	case <-promoted:
	case <-time.After(2 * time.Second):
		t.Fatal("promote() blocked on a publisher that does not read")
	}
	if got := notices(t, live, 2*time.Second, 100*time.Millisecond); got != 1 {
		t.Errorf("the reading publisher got %d notices, want 1", got)
	}
}
