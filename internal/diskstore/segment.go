// Segmented append log: the durability plane under the broker's opt-in
// "ACK = durable" publish mode. Where Log is one append file, SegLog is a
// directory of CRC-framed segment files that roll at a byte threshold and
// are retired by byte/age retention, so a long-lived broker neither grows
// one unbounded file nor loses crash recovery.
//
// Two record kinds share the Log record framing (uint32 length |
// uint32 crc32c | wire frame):
//
//   - TypeReplicate frames carry published messages;
//   - TypePrune frames mark a (topic, seq) as dispatched-and-pruned, the
//     Table 3 discipline: replay must not re-dispatch a pruned message.
//
// Replay scans segments in name order and stops at the first corrupt or
// truncated record of the *last* segment only (a crash can only tear the
// active tail); garbage in an older segment ends that segment's replay
// but later segments still load, matching what fsync ordering guarantees.
package diskstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// SegmentOptions shape a segmented log. Zero values pick the defaults;
// negative RetainBytes/RetainAge disable that retention axis.
type SegmentOptions struct {
	// SegmentBytes rolls the active segment once it exceeds this many
	// bytes (default 8 MiB).
	SegmentBytes int64
	// RetainBytes caps the total bytes across sealed segments; oldest
	// sealed segments are deleted first (default 256 MiB, negative =
	// unlimited). The active segment is never retired.
	RetainBytes int64
	// RetainAge retires sealed segments whose newest record is older than
	// this (default: disabled).
	RetainAge time.Duration
	// Policy controls fsync behavior of raw appends. The group-commit
	// writer uses SyncNever here and issues its own batched Sync calls.
	Policy SyncPolicy
	// Clock supplies wall time for RetainAge decisions (default time.Now).
	Clock func() time.Time
}

func (o SegmentOptions) withDefaults() SegmentOptions {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.RetainBytes == 0 {
		o.RetainBytes = 256 << 20
	}
	if o.Policy == 0 {
		o.Policy = SyncNever
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Pruned identifies one pruned (dispatched) message recorded in the log.
type Pruned struct {
	Topic spec.TopicID
	Seq   uint64
}

// Replay is everything a broker needs to rebuild engine state from disk:
// the surviving messages in append order and the set of pruned entries
// that must not be re-dispatched.
type Replay struct {
	Messages []wire.Message
	Prunes   []Pruned
}

// SegLog is a segmented append log. Like Log it is not safe for
// concurrent use — the group-commit Committer is its single owner in the
// broker; tests and replay-only callers may use it directly from one
// goroutine.
type SegLog struct {
	dir    string
	opts   SegmentOptions
	active *os.File
	seq    uint64 // index of the active segment
	size   int64  // bytes in the active segment
	total  int64  // bytes across all live segments
	count  int    // records appended since open (not incl. replayed)
	buf    []byte
	sealed []sealedSegment
	// beforeSync, when set by a test, runs ahead of every fsync Sync
	// issues — the seam that holds a group commit open.
	beforeSync func()
}

type sealedSegment struct {
	path  string
	size  int64
	mtime time.Time
}

const segPrefix = "seg-"

func segName(seq uint64) string { return fmt.Sprintf("%s%016d.log", segPrefix, seq) }

// OpenSegmented opens (or creates) the segmented log in dir, replays every
// valid record, and arms the segment after the last one for new appends.
func OpenSegmented(dir string, opts SegmentOptions) (*SegLog, Replay, error) {
	opts = opts.withDefaults()
	if opts.Policy != SyncAlways && opts.Policy != SyncNever {
		return nil, Replay{}, fmt.Errorf("diskstore: unknown sync policy %d", int(opts.Policy))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Replay{}, fmt.Errorf("diskstore: mkdir: %w", err)
	}
	names, err := listSegments(dir)
	if err != nil {
		return nil, Replay{}, err
	}
	l := &SegLog{dir: dir, opts: opts}
	var rep Replay
	for i, name := range names {
		path := filepath.Join(dir, name)
		validLen, err := replaySegment(path, &rep)
		if err != nil {
			return nil, Replay{}, err
		}
		fi, statErr := os.Stat(path)
		if statErr != nil {
			return nil, Replay{}, fmt.Errorf("diskstore: stat segment: %w", statErr)
		}
		if i == len(names)-1 {
			// Reopen the last segment as the active one, truncating any
			// torn tail so new appends start on a valid boundary.
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, Replay{}, fmt.Errorf("diskstore: open segment: %w", err)
			}
			if err := f.Truncate(validLen); err != nil {
				f.Close()
				return nil, Replay{}, fmt.Errorf("diskstore: truncate torn tail: %w", err)
			}
			if _, err := f.Seek(validLen, io.SeekStart); err != nil {
				f.Close()
				return nil, Replay{}, fmt.Errorf("diskstore: seek: %w", err)
			}
			l.active = f
			l.size = validLen
			l.total += validLen
			fmt.Sscanf(name, segPrefix+"%d.log", &l.seq)
		} else {
			l.sealed = append(l.sealed, sealedSegment{path: path, size: fi.Size(), mtime: fi.ModTime()})
			l.total += fi.Size()
		}
	}
	if l.active == nil {
		if err := l.roll(); err != nil {
			return nil, Replay{}, err
		}
	}
	return l, rep, nil
}

// listSegments returns the segment file names in dir sorted by name
// (which is creation order — names embed a zero-padded sequence).
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: read dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && len(e.Name()) > len(segPrefix) && e.Name()[:len(segPrefix)] == segPrefix {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// replaySegment appends the segment's valid records to rep and returns
// the byte length of the valid prefix.
func replaySegment(path string, rep *Replay) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("diskstore: open segment: %w", err)
	}
	defer f.Close()
	var valid int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return valid, nil // clean EOF or truncated header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > wire.MaxPayload+64 {
			return valid, nil
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(f, body); err != nil {
			return valid, nil
		}
		if crc32.Checksum(body, castagnoli) != sum {
			return valid, nil
		}
		frame, err := wire.Decode(body)
		if err != nil {
			return valid, nil
		}
		switch frame.Type {
		case wire.TypePublish, wire.TypeReplicate:
			rep.Messages = append(rep.Messages, frame.Msg)
		case wire.TypePrune:
			rep.Prunes = append(rep.Prunes, Pruned{Topic: frame.Topic, Seq: frame.Seq})
		default:
			return valid, nil
		}
		valid += int64(8 + len(body))
	}
}

// roll seals the active segment (if any) and opens the next one,
// then applies retention to the sealed set.
func (l *SegLog) roll() error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("diskstore: fsync on roll: %w", err)
		}
		path := filepath.Join(l.dir, segName(l.seq))
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("diskstore: close on roll: %w", err)
		}
		l.sealed = append(l.sealed, sealedSegment{path: path, size: l.size, mtime: l.opts.Clock()})
		l.seq++
	}
	path := filepath.Join(l.dir, segName(l.seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: create segment: %w", err)
	}
	l.active = f
	l.size = 0
	return l.retain()
}

// retain deletes the oldest sealed segments that exceed the byte budget
// or the age limit. The active segment always survives.
func (l *SegLog) retain() error {
	for len(l.sealed) > 0 {
		oldest := l.sealed[0]
		overBytes := l.opts.RetainBytes > 0 && l.total > l.opts.RetainBytes
		overAge := l.opts.RetainAge > 0 && l.opts.Clock().Sub(oldest.mtime) > l.opts.RetainAge
		if !overBytes && !overAge {
			return nil
		}
		if err := os.Remove(oldest.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("diskstore: retire segment: %w", err)
		}
		l.total -= oldest.size
		l.sealed = l.sealed[1:]
	}
	return nil
}

// Append writes one message record, rolling the segment first if the
// active one is full. Under SyncAlways the record is fsynced before
// returning; otherwise call Sync (the group-commit writer batches this).
func (l *SegLog) Append(m wire.Message) error {
	l.buf = appendMessageRecord(l.buf[:0], &m)
	_, err := l.appendEncoded(l.buf, l.opts.Policy == SyncAlways)
	return err
}

// AppendPrune records that (topic, seq) was dispatched and pruned, so
// replay will not re-dispatch it.
func (l *SegLog) AppendPrune(topic spec.TopicID, seq uint64) error {
	l.buf = appendPruneRecord(l.buf[:0], topic, seq)
	_, err := l.appendEncoded(l.buf, l.opts.Policy == SyncAlways)
	return err
}

// recordHeader is the framing in front of every record: uint32 length and
// uint32 CRC-32C of the wire frame that follows.
const recordHeader = 8

// appendMessageRecord appends the framed record of one published message
// to dst — the bytes a TypeReplicate frame with no Primary arrival stamp
// encodes to, behind the record header.
func appendMessageRecord(dst []byte, m *wire.Message) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recordHeader)...)
	return sealRecord(wire.AppendReplicateBody(dst, m, 0), start)
}

// appendPruneRecord appends the framed prune marker for (topic, seq).
func appendPruneRecord(dst []byte, topic spec.TopicID, seq uint64) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recordHeader)...)
	return sealRecord(wire.AppendPruneBody(dst, topic, seq), start)
}

// sealRecord fills in the header of the record that starts at dst[start]
// and runs to the end of dst.
func sealRecord(dst []byte, start int) []byte {
	body := dst[start+recordHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// appendEncoded writes a run of framed records with one write per segment
// the run touches, and returns how many records it appended. A record is
// admitted while the active segment is under SegmentBytes, so a run rolls
// at exactly the record boundaries one-at-a-time appends would roll at.
// With syncEach every record is written and fsynced on its own (SyncAlways).
func (l *SegLog) appendEncoded(recs []byte, syncEach bool) (int, error) {
	if l.active == nil {
		return 0, ErrClosed
	}
	appended := 0
	for len(recs) > 0 {
		if l.size >= l.opts.SegmentBytes {
			if err := l.roll(); err != nil {
				return appended, err
			}
		}
		end, n := 0, 0
		for end < len(recs) && (n == 0 || (!syncEach && l.size+int64(end) < l.opts.SegmentBytes)) {
			end += recordHeader + int(binary.LittleEndian.Uint32(recs[end:]))
			n++
		}
		if _, err := l.active.Write(recs[:end]); err != nil {
			return appended, fmt.Errorf("diskstore: write: %w", err)
		}
		l.size += int64(end)
		l.total += int64(end)
		l.count += n
		appended += n
		if syncEach {
			if err := l.Sync(); err != nil {
				return appended, err
			}
		}
		recs = recs[end:]
	}
	return appended, nil
}

// Sync forces buffered appends of the active segment to stable storage.
func (l *SegLog) Sync() error {
	if l.active == nil {
		return ErrClosed
	}
	if l.beforeSync != nil {
		l.beforeSync()
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("diskstore: fsync: %w", err)
	}
	return nil
}

// Count returns records appended since open (replayed records excluded).
func (l *SegLog) Count() int { return l.count }

// Size returns the byte length across all live segments.
func (l *SegLog) Size() int64 { return l.total }

// Segments returns how many segment files are live (sealed + active).
func (l *SegLog) Segments() int {
	if l.active == nil {
		return len(l.sealed)
	}
	return len(l.sealed) + 1
}

// Close syncs and closes the active segment. Further appends fail with
// ErrClosed.
func (l *SegLog) Close() error {
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	if err != nil {
		return fmt.Errorf("diskstore: close: %w", err)
	}
	return nil
}
