package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestRunDurableSmallWorkload runs a CI-sized three-mode sweep. The p99
// ordering gate is off: a loaded runner can compress the mem/group gap,
// and the full gate runs in frame-bench (and the durable-smoke CI job)
// at real concurrency.
func TestRunDurableSmallWorkload(t *testing.T) {
	res, err := RunDurable(Config{}, DurableOptions{
		Publishers: 4,
		Messages:   8,
		Reps:       1,
		Gate:       false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d, want mem + group + always", len(res.Cells))
	}
	wantModes := []string{"mem", "group", "always"}
	for i, c := range res.Cells {
		if c.Mode != wantModes[i] {
			t.Errorf("cell %d mode = %q, want %q", i, c.Mode, wantModes[i])
		}
		if c.Published != 4*8 {
			t.Errorf("mode %s published %d of %d", c.Mode, c.Published, 4*8)
		}
		if c.P99 == 0 && c.Mode != "mem" {
			t.Errorf("mode %s collected no latency tail", c.Mode)
		}
		if c.P99 > c.Max {
			t.Errorf("mode %s p99 %v above max %v", c.Mode, c.P99, c.Max)
		}
	}

	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != 4 {
		t.Errorf("CSV has %d lines, want header + 3 modes", got)
	}
}

// TestDurableGateOrdering exercises both failure directions of the p99
// gate on synthetic cells.
func TestDurableGateOrdering(t *testing.T) {
	mk := func(mem, group, always time.Duration) *DurableResult {
		return &DurableResult{Publishers: 8, Cells: []DurableCell{
			{Mode: "mem", P99: mem},
			{Mode: "group", P99: group},
			{Mode: "always", P99: always},
		}}
	}
	if err := mk(time.Microsecond, time.Millisecond, 10*time.Millisecond).checkOrdering(); err != nil {
		t.Errorf("healthy ordering rejected: %v", err)
	}
	if err := mk(2*time.Millisecond, time.Millisecond, 10*time.Millisecond).checkOrdering(); err == nil {
		t.Error("free durability (mem >= group) passed the gate")
	}
	if err := mk(time.Microsecond, 10*time.Millisecond, time.Millisecond).checkOrdering(); err == nil {
		t.Error("unamortized fsync (group >= always) passed the gate")
	}
}
