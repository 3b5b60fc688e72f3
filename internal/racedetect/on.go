//go:build race

package racedetect

// Enabled reports whether the race detector is compiled in.
const Enabled = true
