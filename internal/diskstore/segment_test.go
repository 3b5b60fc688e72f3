package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func openSeg(t *testing.T, dir string, opts SegmentOptions) (*SegLog, Replay) {
	t.Helper()
	l, rep, err := OpenSegmented(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, rep
}

func TestSegmentedRoundTripAcrossRolls(t *testing.T) {
	dir := t.TempDir()
	// ~45-byte records against a 256-byte segment cap: 100 appends roll
	// many times.
	l, rep := openSeg(t, dir, SegmentOptions{SegmentBytes: 256, RetainBytes: -1})
	if len(rep.Messages) != 0 || len(rep.Prunes) != 0 {
		t.Fatalf("fresh log replayed %d msgs %d prunes", len(rep.Messages), len(rep.Prunes))
	}
	for i := uint64(1); i <= 100; i++ {
		if err := l.Append(msg(i, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := l.AppendPrune(3, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("Segments = %d, want rolls", l.Segments())
	}
	if l.Count() != 110 {
		t.Errorf("Count = %d, want 110", l.Count())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep2 := openSeg(t, dir, SegmentOptions{SegmentBytes: 256, RetainBytes: -1})
	defer l2.Close()
	if len(rep2.Messages) != 100 {
		t.Fatalf("replayed %d messages, want 100", len(rep2.Messages))
	}
	for i, m := range rep2.Messages {
		if m.Seq != uint64(i+1) || string(m.Payload) != "0123456789abcdef" {
			t.Fatalf("replay[%d] = %+v", i, m)
		}
	}
	if len(rep2.Prunes) != 10 {
		t.Fatalf("replayed %d prunes, want 10", len(rep2.Prunes))
	}
	for i, p := range rep2.Prunes {
		if p.Topic != 3 || p.Seq != uint64((i+1)*10) {
			t.Fatalf("prune[%d] = %+v", i, p)
		}
	}
	// Appending after replay continues the log.
	if err := l2.Append(msg(101, "tail")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep3 := openSeg(t, dir, SegmentOptions{RetainBytes: -1})
	if len(rep3.Messages) != 101 || rep3.Messages[100].Seq != 101 {
		t.Fatalf("after reopen-append: %d messages", len(rep3.Messages))
	}
}

func TestSegmentedRetentionByBytes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeg(t, dir, SegmentOptions{SegmentBytes: 256, RetainBytes: 1024})
	defer l.Close()
	for i := uint64(1); i <= 500; i++ {
		if err := l.Append(msg(i, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	// Retention runs on roll: total stays near the budget, never grows
	// with the append count.
	if l.Size() > 1024+512 {
		t.Errorf("Size = %d after retention, budget 1024", l.Size())
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != l.Segments() {
		t.Errorf("on-disk segments %d != tracked %d", len(names), l.Segments())
	}
	if len(names) > 8 {
		t.Errorf("%d segments survived a 1 KiB budget", len(names))
	}
}

func TestSegmentedRetentionByAge(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	l, _ := openSeg(t, dir, SegmentOptions{
		SegmentBytes: 128, RetainBytes: -1, RetainAge: time.Minute, Clock: clock,
	})
	defer l.Close()
	for i := uint64(1); i <= 20; i++ {
		if err := l.Append(msg(i, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	if before < 3 {
		t.Fatalf("want several segments, got %d", before)
	}
	// Advance past the age limit; the next roll retires everything sealed.
	now = now.Add(2 * time.Minute)
	for i := uint64(21); i <= 30; i++ {
		if err := l.Append(msg(i, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() >= before+3 {
		t.Errorf("age retention kept %d segments (was %d)", l.Segments(), before)
	}
}

// lastSegmentPath returns the newest segment file in dir.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, names[len(names)-1])
}

// TestSegmentedCrashMidAppend is the crash-mid-fsync recovery table: a
// power cut can leave the active segment with a torn header, a torn
// body, a flipped bit, or pure garbage. Each case must reopen cleanly
// with exactly the records written before the torn one.
func TestSegmentedCrashMidAppend(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string, lastRecordStart int64)
	}{
		{"torn-header", func(t *testing.T, path string, start int64) {
			truncateTo(t, path, start+4)
		}},
		{"torn-body", func(t *testing.T, path string, start int64) {
			truncateTo(t, path, start+8+3)
		}},
		{"bit-flip", func(t *testing.T, path string, start int64) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-2] ^= 0x10
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage-tail", func(t *testing.T, path string, start int64) {
			truncateTo(t, path, start)
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			junk := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD, 0xBE, 0xEF, 0x00}
			if _, err := f.Write(junk); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		for _, batched := range []bool{false, true} {
			name := tc.name
			if batched {
				// The group-commit shape: the doomed record is the tail of
				// a multi-record batch written with one write, so the tear
				// lands inside a batch and its earlier records must survive.
				name += "-in-batch"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				l, _ := openSeg(t, dir, SegmentOptions{SegmentBytes: 1 << 20, RetainBytes: -1})
				doomed := msg(31, "doomed")
				var lastStart int64 // offset of record 31 in the active segment
				if batched {
					appendRange(t, l, 1, 20, true)
					batch := encodeRange(21, 30)
					lastStart = l.size + int64(len(batch))
					if _, err := l.appendEncoded(appendMessageRecord(batch, &doomed), false); err != nil {
						t.Fatal(err)
					}
				} else {
					appendRange(t, l, 1, 30, false)
					lastStart = l.size
					if err := l.Append(doomed); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}

				tc.corrupt(t, lastSegmentPath(t, dir), lastStart)

				l2, rep := openSeg(t, dir, SegmentOptions{SegmentBytes: 1 << 20, RetainBytes: -1})
				defer l2.Close()
				if len(rep.Messages) != 30 {
					t.Fatalf("recovered %d messages, want 30 (record 31 torn)", len(rep.Messages))
				}
				for i, m := range rep.Messages {
					if m.Seq != uint64(i+1) {
						t.Fatalf("recovered[%d].Seq = %d", i, m.Seq)
					}
				}
				// The log stays writable on the recovered boundary.
				if err := l2.Append(msg(31, "retry")); err != nil {
					t.Fatal(err)
				}
				if err := l2.Close(); err != nil {
					t.Fatal(err)
				}
				_, rep2 := openSeg(t, dir, SegmentOptions{SegmentBytes: 1 << 20, RetainBytes: -1})
				if n := len(rep2.Messages); n != 31 || rep2.Messages[30].Seq != 31 {
					t.Fatalf("after recovery append: %d messages", n)
				}
			})
		}
	}
}

// encodeRange returns the framed records of messages from..to, as the
// committer's staging buffer would hold them.
func encodeRange(from, to uint64) []byte {
	var buf []byte
	for i := from; i <= to; i++ {
		m := msg(i, "0123456789abcdef")
		buf = appendMessageRecord(buf, &m)
	}
	return buf
}

// appendRange appends messages from..to, one Append each or — batched — as
// a single encoded run.
func appendRange(t *testing.T, l *SegLog, from, to uint64, batched bool) {
	t.Helper()
	if batched {
		if n, err := l.appendEncoded(encodeRange(from, to), false); err != nil || n != int(to-from+1) {
			t.Fatalf("appendEncoded = %d, %v", n, err)
		}
		return
	}
	for i := from; i <= to; i++ {
		if err := l.Append(msg(i, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
}

func truncateTo(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedCrashMidRoll is the crash-mid-segment-roll table: a crash
// can land after the old segment sealed but before the new one has any
// record (empty active file), or with the new segment's first record
// torn. Sealed segments must replay in full either way.
func TestSegmentedCrashMidRoll(t *testing.T) {
	build := func(t *testing.T, batched bool) (string, int) {
		dir := t.TempDir()
		l, _ := openSeg(t, dir, SegmentOptions{SegmentBytes: 256, RetainBytes: -1})
		n := 0
		// Fill until we are exactly on a fresh active segment (size 0 ⇒
		// the previous append triggered a roll... SegLog rolls lazily on
		// the next append, so force it: append until Segments() grows,
		// then note the count). Batched, every run of seven ~45-byte
		// records is longer than a segment, so each one straddles a roll.
		for l.Segments() < 3 {
			step := 1
			if batched {
				step = 7
			}
			appendRange(t, l, uint64(n+1), uint64(n+step), batched)
			n += step
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, n
	}
	for _, batched := range []bool{false, true} {
		suffix := ""
		if batched {
			suffix = "-batches-straddle-rolls"
		}
		crashMidRollCases(t, suffix, func(t *testing.T) (string, int) { return build(t, batched) })
	}
}

func crashMidRollCases(t *testing.T, suffix string, build func(*testing.T) (string, int)) {
	t.Run("empty-new-segment"+suffix, func(t *testing.T) {
		dir, n := build(t)
		// Crash right after roll: the new active segment exists but holds
		// nothing. (The roll creates it empty; kill before first append.)
		empty := filepath.Join(dir, segName(99))
		if err := os.WriteFile(empty, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep := openSeg(t, dir, SegmentOptions{SegmentBytes: 256, RetainBytes: -1})
		defer l.Close()
		if len(rep.Messages) != n {
			t.Fatalf("recovered %d, want %d", len(rep.Messages), n)
		}
		if err := l.Append(msg(uint64(n+1), "after")); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("torn-first-record-after-roll"+suffix, func(t *testing.T) {
		dir, n := build(t)
		// The newest segment's first record is torn mid-write: chop it to
		// 5 bytes. Older (sealed) segments must still replay completely.
		last := lastSegmentPath(t, dir)
		raw, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		recsInLast := countRecords(t, raw)
		truncateTo(t, last, 5)
		l, rep := openSeg(t, dir, SegmentOptions{SegmentBytes: 256, RetainBytes: -1})
		defer l.Close()
		want := n - recsInLast
		if len(rep.Messages) != want {
			t.Fatalf("recovered %d, want %d (last segment torn at byte 5)", len(rep.Messages), want)
		}
		for i, m := range rep.Messages {
			if m.Seq != uint64(i+1) {
				t.Fatalf("recovered[%d].Seq = %d", i, m.Seq)
			}
		}
	})
}

// countRecords walks framed records in raw, counting valid ones.
func countRecords(t *testing.T, raw []byte) int {
	t.Helper()
	n := 0
	for len(raw) >= 8 {
		length := int(uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24)
		if len(raw) < 8+length {
			break
		}
		raw = raw[8+length:]
		n++
	}
	return n
}

// TestCommitterGroupCommit: concurrent publishers all get durably acked,
// and the fsync count stays far below the record count — the whole point
// of group commit.
func TestCommitterGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeg(t, dir, SegmentOptions{RetainBytes: -1})
	c := NewCommitter(l, 2*time.Millisecond)
	const gs, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, gs*per)
	for g := 0; g < gs; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := wire.Message{Topic: 1, Seq: uint64(g*per + i + 1), Payload: []byte("gc")}
				if err := c.Enqueue(m).Wait(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Records != gs*per {
		t.Errorf("Records = %d, want %d", st.Records, gs*per)
	}
	if st.Fsyncs == 0 || st.Fsyncs >= st.Records {
		t.Errorf("Fsyncs = %d for %d records — group commit not grouping", st.Fsyncs, st.Records)
	}
	if st.Pending != 0 {
		t.Errorf("Pending = %d after quiesce", st.Pending)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openSeg(t, dir, SegmentOptions{RetainBytes: -1})
	if len(rep.Messages) != gs*per {
		t.Fatalf("replayed %d, want %d", len(rep.Messages), gs*per)
	}
}

// TestCommitterAlwaysMode: interval <= 0 degenerates to one fsync per
// record — the SyncAlways bound the bench compares against.
func TestCommitterAlwaysMode(t *testing.T) {
	l, _ := openSeg(t, t.TempDir(), SegmentOptions{RetainBytes: -1})
	c := NewCommitter(l, 0)
	for i := uint64(1); i <= 10; i++ {
		if err := c.Enqueue(wire.Message{Topic: 1, Seq: i, Payload: []byte("x")}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Fsyncs != st.Records || st.Records != 10 {
		t.Errorf("always mode: Fsyncs = %d Records = %d, want 10/10", st.Fsyncs, st.Records)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitterConcurrentHammer is the -race proof for the concurrency
// fix: dozens of goroutines hammer Enqueue and EnqueuePrune against one
// committer while Stats is scraped, and every committed record survives
// a reopen. SegLog itself is single-owner; the committer is what makes
// concurrent producers safe.
func TestCommitterConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeg(t, dir, SegmentOptions{SegmentBytes: 4 << 10, RetainBytes: -1})
	c := NewCommitter(l, time.Millisecond)
	const gs, per = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := uint64(g*per + i + 1)
				if err := c.Enqueue(wire.Message{Topic: 2, Seq: seq, Payload: []byte("hammer")}).Wait(); err != nil {
					t.Error(err)
					return
				}
				c.EnqueuePrune(2, seq)
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent scrape, as /metrics does
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Stats()
			}
		}
	}()
	wg.Wait()
	close(done)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openSeg(t, dir, SegmentOptions{SegmentBytes: 4 << 10, RetainBytes: -1})
	if len(rep.Messages) != gs*per {
		t.Fatalf("replayed %d messages, want %d", len(rep.Messages), gs*per)
	}
	// Acked prunes may trail by one batch on Close, but everything the
	// committer drained is on disk; the hammer acks every Enqueue, so all
	// messages and all but possibly the final batch of prunes persist.
	if len(rep.Prunes) == 0 {
		t.Error("no prune records survived")
	}
}

func TestCommitterEnqueueAfterClose(t *testing.T) {
	l, _ := openSeg(t, t.TempDir(), SegmentOptions{RetainBytes: -1})
	c := NewCommitter(l, time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue(wire.Message{Topic: 1, Seq: 1}).Wait(); err == nil {
		t.Error("Enqueue after Close acked")
	}
	c.EnqueuePrune(1, 1) // must not panic
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

func TestOpenSegmentedRejectsBadPolicy(t *testing.T) {
	if _, _, err := OpenSegmented(t.TempDir(), SegmentOptions{Policy: SyncPolicy(9)}); err == nil {
		t.Error("bad policy accepted")
	}
}

// FuzzSegmentReplay: arbitrary bytes dropped into a segment file must
// never panic the replay, must always yield a decodable prefix, and the
// log must stay appendable — a fresh record lands after whatever prefix
// survived and replays on the next open.
func FuzzSegmentReplay(f *testing.F) {
	// Seeds: empty, truncated header, a valid single-record segment, and
	// a valid record followed by garbage.
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00, 0x00})
	{
		dir := f.TempDir()
		l, _, err := OpenSegmented(dir, SegmentOptions{RetainBytes: -1})
		if err != nil {
			f.Fatal(err)
		}
		l.Append(wire.Message{Topic: 1, Seq: 1, Payload: []byte("seed")})
		l.Close()
		raw, err := os.ReadFile(filepath.Join(dir, segName(0)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(append(append([]byte{}, raw...), 0xFF, 0xFF, 0xFF, 0xFF))
	}
	var n int
	f.Fuzz(func(t *testing.T, data []byte) {
		n++
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("f%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := OpenSegmented(dir, SegmentOptions{RetainBytes: -1})
		if err != nil {
			t.Fatalf("OpenSegmented on fuzzed bytes: %v", err)
		}
		prefix := len(rep.Messages) + len(rep.Prunes)
		if err := l.Append(wire.Message{Topic: 7, Seq: 777, Payload: []byte("fuzz")}); err != nil {
			t.Fatalf("append after fuzzed replay: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, rep2, err := OpenSegmented(dir, SegmentOptions{RetainBytes: -1})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := len(rep2.Messages) + len(rep2.Prunes); got != prefix+1 {
			t.Fatalf("replay after append: %d records, want %d", got, prefix+1)
		}
		last := rep2.Messages[len(rep2.Messages)-1]
		if last.Seq != 777 || string(last.Payload) != "fuzz" {
			t.Fatalf("appended record corrupted on replay: %+v", last)
		}
	})
}
