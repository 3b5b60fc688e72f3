package core

import (
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/timing"
)

// TestBuffersAllocatedOnlyWhereUsed pins what per-topic state costs by
// role: a Primary holds Message Buffers for the topics it was published to
// and no Backup Buffer at all; its Backup holds Backup Buffers only for the
// topics Proposition 1 replicates, and Message Buffers only once it takes
// publishes after promotion.
func TestBuffersAllocatedOnlyWhereUsed(t *testing.T) {
	w, err := spec.NewWorkload(1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FRAMEConfig(timing.PaperParams())
	primary := newEngine(t, cfg, w.Topics...)
	backupCfg := cfg
	backupCfg.HasBackup = false // a Backup never replicates onward
	backup := newEngine(t, backupCfg, w.Topics...)

	now := time.Second
	for _, top := range w.Topics {
		if err := primary.OnPublish(msg(top.ID, 1, now-time.Millisecond), now); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the Primary without reporting dispatches, so no replica is
	// aborted: the Backup receives one copy of every replicated topic.
	replicated := 0
	for {
		wk, ok := primary.NextWork()
		if !ok {
			break
		}
		if wk.Kind == WorkReplicate {
			replicated++
			if err := backup.OnReplica(wk.Msg, wk.ArrivedPrimary); err != nil {
				t.Fatal(err)
			}
		}
	}
	if replicated == 0 || replicated == len(w.Topics) {
		t.Fatalf("%d of %d topics replicated; the pin needs Proposition 1 to split them", replicated, len(w.Topics))
	}

	for _, top := range w.Topics {
		p, b := primary.topics[top.ID], backup.topics[top.ID]
		if !p.buffer.Allocated() {
			t.Fatalf("topic %d: the Primary's Message Buffer was not allocated by a publish", top.ID)
		}
		if p.backup.Allocated() {
			t.Fatalf("topic %d: the Primary holds a Backup Buffer array", top.ID)
		}
		if got, want := b.backup.Allocated(), primary.WillReplicate(top.ID); got != want {
			t.Fatalf("topic %d: Backup Buffer allocated = %v on the Backup, want %v (replicates)", top.ID, got, want)
		}
		if b.buffer.Allocated() {
			t.Fatalf("topic %d: the Backup holds a Message Buffer array before promotion", top.ID)
		}
	}

	backup.Promote()
	for backupHasWork := true; backupHasWork; {
		_, backupHasWork = backup.NextWork()
	}
	first := w.Topics[0].ID
	if err := backup.OnPublish(msg(first, 2, now), now); err != nil {
		t.Fatal(err)
	}
	for _, top := range w.Topics {
		if got, want := backup.topics[top.ID].buffer.Allocated(), top.ID == first; got != want {
			t.Fatalf("topic %d: Message Buffer allocated = %v after promotion and one publish to topic %d, want %v",
				top.ID, got, first, want)
		}
	}
}
