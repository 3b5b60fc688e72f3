package diskstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func msg(seq uint64, payload string) wire.Message {
	return wire.Message{Topic: 3, Seq: seq, Created: time.Duration(seq) * time.Millisecond, Payload: []byte(payload)}
}

// TestSyncAlwaysDurable: under SyncAlways every Append and AppendPrune has
// its own fsync behind it before it returns; under SyncNever the log never
// syncs on its own (the group-commit writer calls Sync).
func TestSyncAlwaysDurable(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		l, _ := openSeg(t, t.TempDir(), SegmentOptions{Policy: policy, RetainBytes: -1})
		syncs := 0
		l.beforeSync = func() { syncs++ }
		for i := uint64(1); i <= 5; i++ {
			if err := l.Append(msg(i, "durable")); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendPrune(3, i); err != nil {
				t.Fatal(err)
			}
			if want := int(2 * i); policy == SyncAlways && syncs != want {
				t.Fatalf("SyncAlways: %d fsyncs after %d records, want one each", syncs, want)
			}
		}
		if policy == SyncNever && syncs != 0 {
			t.Errorf("SyncNever: %d fsyncs issued by appends, want none", syncs)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncAndSize: Size counts exactly the bytes written — one record's
// header and frame after one append, and the sum of the segment files after
// many rolls.
func TestSyncAndSize(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeg(t, dir, SegmentOptions{SegmentBytes: 256, RetainBytes: -1})
	if l.Size() != 0 {
		t.Errorf("fresh Size = %d", l.Size())
	}
	if err := l.Append(msg(1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// record hdr(8) + type(1) + topic(4) + seq(8) + created(8) +
	// payload len(4) + payload(1) + arrivedPrimary(8 — TypeReplicate).
	if want := int64(8 + 1 + 4 + 8 + 8 + 4 + 1 + 8); l.Size() != want {
		t.Errorf("Size = %d, want %d", l.Size(), want)
	}
	appendRange(t, l, 2, 40, false)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if len(names) < 2 || l.Size() != onDisk {
		t.Errorf("Size = %d across %d segments, want the %d bytes on disk across several", l.Size(), len(names), onDisk)
	}
}

// TestRecoveryPrefixProperty: for any append sequence and any truncation of
// the active segment, replay yields a prefix of the appended messages.
func TestRecoveryPrefixProperty(t *testing.T) {
	f := func(seed int64, cut uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		l, _, err := OpenSegmented(dir, SegmentOptions{RetainBytes: -1})
		if err != nil {
			return false
		}
		n := rng.Intn(20) + 1
		for i := 1; i <= n; i++ {
			payload := make([]byte, rng.Intn(32))
			rng.Read(payload)
			if err := l.Append(wire.Message{Topic: 1, Seq: uint64(i), Payload: payload}); err != nil {
				return false
			}
		}
		if err := l.Close(); err != nil {
			return false
		}
		path := filepath.Join(dir, segName(0))
		full, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		if err := os.WriteFile(path, full[:int(cut)%(len(full)+1)], 0o644); err != nil {
			return false
		}
		l2, rep, err := OpenSegmented(dir, SegmentOptions{RetainBytes: -1})
		if err != nil {
			return false
		}
		defer l2.Close()
		// Prefix property: replayed = messages 1..k for some k.
		for i, m := range rep.Messages {
			if m.Seq != uint64(i+1) {
				return false
			}
		}
		return len(rep.Messages) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOpenFailsOnUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores permissions")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSegmented(filepath.Join(dir, "sub"), SegmentOptions{}); err == nil {
		t.Error("unwritable dir accepted")
	}
}

// benchmarkAppend measures one SegLog.Append of a 16-byte message under the
// policy: the local-disk row of the paper's Table 1 comparison.
func benchmarkAppend(b *testing.B, policy SyncPolicy) {
	l, _, err := OpenSegmented(b.TempDir(), SegmentOptions{Policy: policy, RetainBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	m := wire.Message{Topic: 1, Payload: make([]byte, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i + 1)
		if err := l.Append(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSyncNever(b *testing.B)  { benchmarkAppend(b, SyncNever) }
func BenchmarkAppendSyncAlways(b *testing.B) { benchmarkAppend(b, SyncAlways) }
