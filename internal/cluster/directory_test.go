package cluster

import (
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func threePairs() []wire.ShardEntry {
	return []wire.ShardEntry{
		{Primary: "p0", Backup: "b0"},
		{Primary: "p1", Backup: "b1"},
		{Primary: "p2", Backup: "b2"},
	}
}

func startDirectory(t *testing.T, n transport.Network, entries []wire.ShardEntry) *Directory {
	t.Helper()
	dir, err := NewDirectory(DirectoryOptions{
		ListenAddr: NodeRouting, Network: n, Shards: entries, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dir.Close)
	return dir
}

func newTestRouter(t *testing.T, n transport.Network, addr string) *Router {
	t.Helper()
	r, err := NewRouter(RouterOptions{
		DirectoryAddr: addr, Network: n, Timeout: 2 * time.Second, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDirectoryServesTable(t *testing.T) {
	n := transport.NewMem()
	dir := startDirectory(t, n, threePairs())
	r := newTestRouter(t, n, dir.Addr())
	tab := r.Table()
	if tab.Epoch != 1 || len(tab.Shards) != 3 {
		t.Fatalf("initial table: epoch %d, %d shards; want 1, 3", tab.Epoch, len(tab.Shards))
	}
	if tab.Shards[1].Primary != "p1" || tab.Shards[1].Backup != "b1" {
		t.Errorf("shard 1 = %+v", tab.Shards[1])
	}
}

func TestDirectoryPromoteSwapsPairAndBumpsEpoch(t *testing.T) {
	n := transport.NewMem()
	dir := startDirectory(t, n, threePairs())
	if err := dir.Promote(1); err != nil {
		t.Fatal(err)
	}
	tab := dir.Table()
	if tab.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", tab.Epoch)
	}
	if e := tab.Shards[1]; e.Primary != "b1" || e.Backup != "" {
		t.Errorf("promoted entry = %+v, want {b1 \"\"}", e)
	}
	// The shard's ownership is unchanged: same index, same topic partition.
	if tab.Shards[0].Primary != "p0" || tab.Shards[2].Primary != "p2" {
		t.Error("promotion leaked into other shards")
	}
	// A subscriber's link set skips the Backup the promotion emptied.
	if got, want := strings.Join(tab.Addrs(), ","), "p0,b0,b1,p2,b2"; got != want {
		t.Errorf("Addrs = %s, want %s", got, want)
	}
	// A pair without a backup cannot promote again.
	if err := dir.Promote(1); err == nil {
		t.Error("double promotion accepted")
	}
	if err := dir.Promote(7); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// TestRouterConvergenceProperty: from any reachable epoch N, the Refresh a
// redirect triggers converges the cache to the directory's table — across
// random sequences of promotions and resizes.
func TestRouterConvergenceProperty(t *testing.T) {
	n := transport.NewMem()
	dir := startDirectory(t, n, threePairs())
	r := newTestRouter(t, n, dir.Addr())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := rng.Intn(4) + 1
		for i := 0; i < steps; i++ {
			if rng.Intn(2) == 0 {
				// Resize/repair: replace the table (restores backups too).
				size := rng.Intn(4) + 1
				entries := make([]wire.ShardEntry, size)
				for s := range entries {
					entries[s] = wire.ShardEntry{Primary: "p", Backup: "b"}
				}
				if err := dir.SetShards(entries); err != nil {
					return false
				}
			} else {
				_ = dir.Promote(rng.Intn(len(dir.Table().Shards))) // may fail on empty backup; epoch then unchanged
			}
		}
		want := dir.Table()
		// The cache may be arbitrarily stale (epoch N ≤ want.Epoch); the one
		// Refresh an in-band redirect triggers must converge it.
		if _, err := r.Refresh(); err != nil {
			return false
		}
		got := r.Table()
		if got.Epoch != want.Epoch || len(got.Shards) != len(want.Shards) {
			return false
		}
		for i := range got.Shards {
			if got.Shards[i] != want.Shards[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRouterSurvivesDirectoryOutage(t *testing.T) {
	n := transport.NewMem()
	dir, err := NewDirectory(DirectoryOptions{
		ListenAddr: NodeRouting, Network: n, Shards: threePairs(), Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRouter(t, n, dir.Addr())
	dir.Close()
	// Refresh fails but the cache — and with it the data plane — survives.
	if _, err := r.Refresh(); err == nil {
		t.Error("refresh against a dead directory succeeded")
	}
	tab := r.Table()
	if tab.Epoch != 1 || len(tab.Shards) != 3 {
		t.Errorf("cached table lost during outage: %+v", tab)
	}
}
