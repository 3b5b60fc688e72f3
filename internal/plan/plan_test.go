package plan

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simcluster"
	"repro/internal/spec"
	"repro/internal/timing"
)

func paperTopics(t *testing.T) []spec.Topic {
	t.Helper()
	var out []spec.Topic
	for i, c := range spec.Table2() {
		out = append(out, c.Stamp(spec.TopicID(i), spec.PayloadSize))
	}
	return out
}

func TestBuildPaperTable2(t *testing.T) {
	pl, err := Build(paperTopics(t), timing.PaperParams(), simcluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Inadmissible != 0 {
		t.Errorf("Inadmissible = %d", pl.Inadmissible)
	}
	if pl.Replicating != 2 { // categories 2 and 5
		t.Errorf("Replicating = %d, want 2", pl.Replicating)
	}
	// §III-D-3: raising Ni by one suppresses replication for both.
	for _, tp := range pl.Topics {
		switch tp.Topic.Category {
		case 2, 5:
			if tp.ExtraRetention != 1 {
				t.Errorf("category %d: ExtraRetention = %d, want 1",
					tp.Topic.Category, tp.ExtraRetention)
			}
			if tp.RetentionToSuppress != tp.Topic.Retention+1 {
				t.Errorf("category %d: RetentionToSuppress = %d",
					tp.Topic.Category, tp.RetentionToSuppress)
			}
		default:
			if tp.ExtraRetention != 0 {
				t.Errorf("category %d: ExtraRetention = %d, want 0",
					tp.Topic.Category, tp.ExtraRetention)
			}
		}
	}
	// Boosting removes all replication, so the post-boost demand equals
	// FRAME+'s dispatch-only demand and is strictly lower.
	if pl.DemandAfter >= pl.DemandBefore {
		t.Errorf("demand did not drop: %.4f → %.4f", pl.DemandBefore, pl.DemandAfter)
	}
}

func TestBuildFlagsInadmissible(t *testing.T) {
	topic := spec.Table2()[0].Stamp(0, 16)
	topic.Retention = 0 // Li=0 with no retention: rejected
	pl, err := Build([]spec.Topic{topic}, timing.PaperParams(), simcluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Inadmissible != 1 {
		t.Fatalf("Inadmissible = %d", pl.Inadmissible)
	}
	tp := pl.Topics[0]
	if tp.Admissible == nil {
		t.Fatal("admission error missing")
	}
	if tp.MinRetention != 2 {
		t.Errorf("MinRetention = %d, want 2 (Table 2 value)", tp.MinRetention)
	}
	text := pl.Format()
	if !strings.Contains(text, "REJECTED") || !strings.Contains(text, "raise Ni to 2") {
		t.Errorf("format missing admission suggestion:\n%s", text)
	}
}

func TestBuildValidation(t *testing.T) {
	topics := paperTopics(t)
	if _, err := Build(topics, timing.Params{Failover: -1}, simcluster.DefaultCostModel()); err == nil {
		t.Error("bad params accepted")
	}
	bad := simcluster.DefaultCostModel()
	bad.Dispatch = 0
	if _, err := Build(topics, timing.PaperParams(), bad); err == nil {
		t.Error("bad cost model accepted")
	}
	if _, err := Build([]spec.Topic{{}}, timing.PaperParams(), simcluster.DefaultCostModel()); err == nil {
		t.Error("invalid topic accepted")
	}
}

// TestRetentionToSuppressProperty: the suggested retention is (a) correct
// — at that Ni the topic no longer needs replication — and (b) minimal —
// one less still needs it.
func TestRetentionToSuppressProperty(t *testing.T) {
	p := timing.PaperParams()
	f := func(tiMs, diMs uint16, li uint8, dest bool) bool {
		ti := time.Duration(tiMs%500+10) * time.Millisecond
		di := time.Duration(diMs%1000+10) * time.Millisecond
		topic := spec.Topic{
			ID: 1, Period: ti, Deadline: di, LossTolerance: int(li % 5),
			Retention: 0, Destination: spec.DestEdge, PayloadSize: 16,
		}
		if dest {
			topic.Destination = spec.DestCloud
		}
		ni := retentionToSuppress(topic, p)
		at := topic
		at.Retention = ni
		if timing.NeedsReplication(at, p) {
			return false // not sufficient
		}
		if ni == 0 {
			return true
		}
		below := topic
		below.Retention = ni - 1
		return timing.NeedsReplication(below, p) // minimal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFormatGroupsLargeWorkloads(t *testing.T) {
	w, err := spec.NewWorkload(1525)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(w.Topics, timing.PaperParams(), simcluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	text := pl.Format()
	// 1525 topics collapse into the six Table 2 signatures.
	if lines := strings.Count(text, "\n"); lines > 15 {
		t.Errorf("report too long (%d lines):\n%s", lines, text)
	}
	if !strings.Contains(text, "1525 topics") {
		t.Errorf("missing header:\n%s", text)
	}
	if !strings.Contains(text, "raise Ni by 1 to stop replicating") {
		t.Errorf("missing §III-D-3 suggestion:\n%s", text)
	}
}

// TestFormatShowsDeadlinesAndMinRetention pins the admission columns of the
// class table on the §III-D-2 worked example: per Table 2 category, the
// dispatch deadline Dd, the replication deadline Dr and the minimum
// admissible Ni under the paper's parameters.
func TestFormatShowsDeadlinesAndMinRetention(t *testing.T) {
	pl, err := Build(paperTopics(t), timing.PaperParams(), simcluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{ // Dd, Dr, minNi, in the table's (Ti, Li, Ni) order
		{"49ms", "49.95ms", "2"},
		{"49ms", "99.95ms", "0"},
		{"99ms", "49.95ms", "1"},
		{"99ms", "249.95ms", "0"},
		{"99ms", "inf", "0"},
		{"480ms", "449.95ms", "1"},
	}
	lines := strings.Split(strings.TrimSpace(pl.Format()), "\n")
	header := strings.Fields(lines[4])
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %s missing from header %q", name, lines[4])
		return -1
	}
	dd, dr, minNi := col("Dd"), col("Dr"), col("minNi")
	rows := lines[5:]
	if len(rows) != len(want) {
		t.Fatalf("%d class rows, want %d:\n%s", len(rows), len(want), pl.Format())
	}
	for i, row := range rows {
		f := strings.Fields(row)
		if got := [3]string{f[dd], f[dr], f[minNi]}; got != want[i] {
			t.Errorf("row %d: Dd, Dr, minNi = %v, want %v", i, got, want[i])
		}
	}
}
