// Package diskstore implements the third message-loss-tolerance strategy
// of the paper's Table 1: local-disk backup. Kafka and Spark Streaming
// persist message copies to disk; FRAME chose publisher retention and
// backup brokers instead because "the local disk strategy ... performs
// relatively slowly" (§II). This package exists to make that comparison
// concrete: it is a correct, crash-safe append-only log for message
// copies, and the benchmarks in this package measure what the paper only
// asserts — a durable append costs orders of magnitude more latency than
// an in-memory replication hop.
//
// Format: each record is CRC32C-framed —
//
//	uint32 length | uint32 crc32c(payload) | payload (wire-encoded frame)
//
// Recovery scans until EOF or the first corrupt/truncated record and
// truncates the tail, which makes a crash mid-append safe.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/wire"
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

// Sync policies.
const (
	// SyncAlways fsyncs after every append (durable, slow — the number the
	// paper's argument rests on).
	SyncAlways SyncPolicy = iota + 1
	// SyncNever leaves flushing to the OS (fast, loses recent appends on
	// power failure; still safe against process crashes).
	SyncNever
)

// Log is an append-only store of message copies for one broker.
// It is not safe for concurrent use; callers serialize.
type Log struct {
	f      *os.File
	path   string
	policy SyncPolicy
	buf    []byte
	size   int64
	count  int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Open creates or opens the log at dir/name and recovers its contents:
// it returns the valid records already present, truncating any corrupt
// tail left by a crash mid-append.
func Open(dir, name string, policy SyncPolicy) (*Log, []wire.Message, error) {
	if policy != SyncAlways && policy != SyncNever {
		return nil, nil, fmt.Errorf("diskstore: unknown sync policy %d", int(policy))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("diskstore: mkdir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("diskstore: open: %w", err)
	}
	l := &Log{f: f, path: path, policy: policy}
	msgs, validLen, err := l.scan()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("diskstore: truncate corrupt tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("diskstore: seek: %w", err)
	}
	l.size = validLen
	l.count = len(msgs)
	return l, msgs, nil
}

// scan reads the log from the start, returning all valid messages and the
// byte length of the valid prefix.
func (l *Log) scan() ([]wire.Message, int64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("diskstore: seek: %w", err)
	}
	var msgs []wire.Message
	var valid int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(l.f, hdr[:]); err != nil {
			return msgs, valid, nil // clean EOF or truncated header: stop
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > wire.MaxPayload+64 {
			return msgs, valid, nil // corrupt length: treat as tail garbage
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(l.f, body); err != nil {
			return msgs, valid, nil
		}
		if crc32.Checksum(body, castagnoli) != sum {
			return msgs, valid, nil
		}
		frame, err := wire.Decode(body)
		if err != nil || (frame.Type != wire.TypePublish && frame.Type != wire.TypeReplicate) {
			return msgs, valid, nil
		}
		msgs = append(msgs, frame.Msg)
		valid += int64(8 + len(body))
	}
}

// Append writes one message copy and, under SyncAlways, forces it to
// stable storage before returning.
func (l *Log) Append(m wire.Message) error {
	l.buf = appendMessageRecord(l.buf[:0], &m)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("diskstore: write: %w", err)
	}
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("diskstore: fsync: %w", err)
		}
	}
	l.size += int64(len(l.buf))
	l.count++
	return nil
}

// Count returns the number of records in the log.
func (l *Log) Count() int { return l.count }

// Size returns the log's byte length.
func (l *Log) Size() int64 { return l.size }

// Sync forces buffered appends to stable storage (useful with SyncNever).
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: fsync: %w", err)
	}
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("diskstore: close: %w", err)
	}
	return nil
}

// ErrClosed reports use after Close.
var ErrClosed = errors.New("diskstore: closed")

// AppendLatency measures the mean latency of n appends under the policy,
// for the Table 1 strategy comparison. The log is written to dir and
// removed afterwards.
func AppendLatency(dir string, policy SyncPolicy, n int, payload int) (time.Duration, error) {
	l, _, err := Open(dir, "bench.log", policy)
	if err != nil {
		return 0, err
	}
	defer os.Remove(filepath.Join(dir, "bench.log"))
	defer l.Close()
	m := wire.Message{Topic: 1, Payload: make([]byte, payload)}
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Seq = uint64(i + 1)
		if err := l.Append(m); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}
