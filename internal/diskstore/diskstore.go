// Package diskstore implements the third message-loss-tolerance strategy
// of the paper's Table 1: local-disk backup. Kafka and Spark Streaming
// persist message copies to disk; FRAME chose publisher retention and
// backup brokers instead because "the local disk strategy ... performs
// relatively slowly" (§II). This package is that strategy made concrete as
// the broker's opt-in "ACK = durable" mode: a crash-safe segmented append
// log (SegLog) behind a group-commit writer (Committer), and the benchmarks
// in this package measure what the paper only asserts — a durable append
// costs orders of magnitude more latency than an in-memory replication hop.
//
// Format: each record is CRC32C-framed —
//
//	uint32 length | uint32 crc32c(payload) | payload (wire-encoded frame)
//
// Replay scans until EOF or the first corrupt/truncated record and
// truncates the tail, which makes a crash mid-append safe.
package diskstore

import (
	"errors"
	"hash/crc32"
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use after Close.
var ErrClosed = errors.New("diskstore: closed")
