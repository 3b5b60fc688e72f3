//go:build !race

// Package racedetect tells tests whether the binary was built with -race.
// Allocation guards need to know: under the race detector sync.Pool drops
// a share of what is put into it on purpose, so pooled paths allocate.
package racedetect

// Enabled reports whether the race detector is compiled in.
const Enabled = false
