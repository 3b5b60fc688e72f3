package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/spec"
)

// Payload layout, at the topic's real PayloadSize:
//
//	[0:8]    stamp: the time the latency is measured from (due time in an
//	         open loop, Publish entry in a closed loop), ns on the shared clock
//	[8:16]   tag: topic (uint32) and sequence number (uint32)
//	[16:n-4] seeded filler
//	[n-4:n]  CRC-32C of everything before it
//
// A 16-byte payload has room for stamp and tag only. Its integrity is
// checked against values the receiver knows: the tag must equal the frame's
// (topic, seq) and, in an open loop, the stamp must equal the schedule's due
// time for that sequence number.
const (
	headerLen   = 16
	checksumLen = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errShort    = errors.New("payload shorter than its header")
	errTag      = errors.New("payload tag does not match the frame's topic and sequence number")
	errChecksum = errors.New("payload checksum mismatch")
)

// newPayload returns a payload of the given size with seeded filler. The
// header and checksum are written by stamp before each publish.
func newPayload(rng *rand.Rand, size int) []byte {
	if size < headerLen {
		size = headerLen
	}
	p := make([]byte, size)
	rng.Read(p[headerLen:]) // never fails
	return p
}

func checksummed(p []byte) bool { return len(p) >= headerLen+checksumLen }

// stamp writes the header for one message and, when the payload has room,
// the trailing checksum.
func stamp(p []byte, at time.Duration, topic spec.TopicID, seq uint64) {
	binary.LittleEndian.PutUint64(p[0:8], uint64(at))
	binary.LittleEndian.PutUint32(p[8:12], uint32(topic))
	binary.LittleEndian.PutUint32(p[12:16], uint32(seq))
	if checksummed(p) {
		n := len(p) - checksumLen
		binary.LittleEndian.PutUint32(p[n:], crc32.Checksum(p[:n], castagnoli))
	}
}

// verify checks a received payload against the frame it arrived in and
// returns its stamp.
func verify(p []byte, topic spec.TopicID, seq uint64) (time.Duration, error) {
	if len(p) < headerLen {
		return 0, fmt.Errorf("topic %d seq %d: %w (%d bytes)", topic, seq, errShort, len(p))
	}
	if binary.LittleEndian.Uint32(p[8:12]) != uint32(topic) ||
		binary.LittleEndian.Uint32(p[12:16]) != uint32(seq) {
		return 0, fmt.Errorf("topic %d seq %d: %w", topic, seq, errTag)
	}
	if checksummed(p) {
		n := len(p) - checksumLen
		if binary.LittleEndian.Uint32(p[n:]) != crc32.Checksum(p[:n], castagnoli) {
			return 0, fmt.Errorf("topic %d seq %d: %w", topic, seq, errChecksum)
		}
	}
	return time.Duration(binary.LittleEndian.Uint64(p[0:8])), nil
}
