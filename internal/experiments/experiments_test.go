package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simcluster"
	"repro/internal/spec"
)

// quickConfig keeps experiment tests fast: one run, small workload, short
// windows. The paper-scale defaults are exercised by the bench harness.
func quickConfig() Config {
	return Config{
		Runs:         1,
		Measure:      1200 * time.Millisecond,
		CrashMeasure: 1500 * time.Millisecond,
		Warmup:       300 * time.Millisecond,
		Drain:        time.Second,
		SpeedNoise:   0.01,
		Seed:         7,
		Workloads:    []int{1525},
	}
}

func TestGroupsMatchTable2Rows(t *testing.T) {
	gs := groups()
	if len(gs) != 6 {
		t.Fatalf("groups = %d, want 6", len(gs))
	}
	di, li := gs[4].Label()
	if di != "100" || li != "inf" {
		t.Errorf("category 4 label = %s/%s, want 100/inf", di, li)
	}
	di, li = gs[0].Label()
	if di != "50" || li != "0" {
		t.Errorf("category 0 label = %s/%s", di, li)
	}
}

func TestRunTable4SmallWorkload(t *testing.T) {
	res, err := RunTable4(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "Table 4" || len(res.Workloads) != 1 {
		t.Fatalf("result header: %+v", res)
	}
	rows := res.Rows[1525]
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 groups", len(rows))
	}
	// At 1525 topics every configuration meets every loss-tolerance
	// requirement (§VI: "All four configurations had 100% success rate for
	// 1525 and 4525 topics").
	for g, cells := range rows {
		for v, cell := range cells {
			if m := cell.Runs.Mean(); m != 100 {
				t.Errorf("group %+v variant %v: success %.1f, want 100", g, v, m)
			}
		}
	}
	text := res.Format()
	for _, want := range []string{"Table 4", "Workload = 1525 Topics", "FRAME+", "FCFS-", "inf"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted table missing %q:\n%s", want, text)
		}
	}
}

func TestRunTable5SmallWorkload(t *testing.T) {
	res, err := RunTable5(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows[1525]
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for g, cells := range rows {
		for v, cell := range cells {
			if m := cell.Runs.Mean(); m < 99.5 {
				t.Errorf("group %+v variant %v: latency success %.2f, want ≈100 at light load", g, v, m)
			}
		}
	}
}

func TestRunFig7SmallWorkload(t *testing.T) {
	res, err := RunFig7(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4 (one per variant)", len(res.Points))
	}
	util := make(map[simcluster.Variant]float64, 4)
	for _, p := range res.Points {
		util[p.Variant] = p.PrimaryDelivery.Mean()
		if p.PrimaryProxy.Mean() <= 0 {
			t.Errorf("%v: zero proxy utilization", p.Variant)
		}
	}
	// Fig 7(a) ordering: FRAME+ < FRAME < FCFS, and FCFS > FCFS−.
	if !(util[simcluster.VariantFRAMEPlus] < util[simcluster.VariantFRAME]) {
		t.Errorf("FRAME+ %.1f not below FRAME %.1f", util[simcluster.VariantFRAMEPlus], util[simcluster.VariantFRAME])
	}
	if !(util[simcluster.VariantFRAME] < util[simcluster.VariantFCFS]) {
		t.Errorf("FRAME %.1f not below FCFS %.1f", util[simcluster.VariantFRAME], util[simcluster.VariantFCFS])
	}
	if !(util[simcluster.VariantFCFSMinus] < util[simcluster.VariantFCFS]) {
		t.Errorf("FCFS− %.1f not below FCFS %.1f", util[simcluster.VariantFCFSMinus], util[simcluster.VariantFCFS])
	}
	text := res.Format()
	for _, want := range []string{"Fig 7(a)", "Fig 7(b)", "Fig 7(c)", "1525"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted figure missing %q", want)
		}
	}
}

func TestRunFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("fig 8 validation run is slow")
	}
	cfg := quickConfig()
	cfg.CrashMeasure = 2 * time.Second
	res, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != int(24*time.Hour/res.SampleEvery) {
		t.Fatalf("series has %d samples", len(res.Series))
	}
	for i, s := range res.Series {
		if s < res.SetupDeltaBS {
			t.Fatalf("sample %d (%v) below setup lower bound %v — Prop. 1 safety violated", i, s, res.SetupDeltaBS)
		}
	}
	if res.PeakDeltaBS < res.SetupDeltaBS+100*time.Millisecond {
		t.Errorf("peak %v misses the +104ms spike", res.PeakDeltaBS)
	}
	// The paper's claim: no loss-tolerance violation despite ΔBS variation,
	// because the configuration used a measured lower bound.
	if res.CrashLossSuccess != 100 {
		t.Errorf("crash-at-spike loss success = %.1f%%, want 100", res.CrashLossSuccess)
	}
	text := res.Format()
	if !strings.Contains(text, "Fig 8") || !strings.Contains(text, "hourly mean") {
		t.Errorf("format output incomplete:\n%s", text)
	}
}

func TestRunFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("fig 9 runs the 7525-topic workload")
	}
	cfg := quickConfig()
	cfg.CrashMeasure = 2 * time.Second
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != 7525 {
		t.Fatalf("workload = %d", res.Workload)
	}
	if len(res.Series) != 12 {
		t.Fatalf("series = %d, want 12 (3 categories × 4 variants)", len(res.Series))
	}
	peaks := make(map[simcluster.Variant]time.Duration)
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Errorf("%v cat %d: empty series", s.Variant, s.Category)
		}
		if s.Category == 2 && s.PeakRecoveryLatency > peaks[s.Variant] {
			peaks[s.Variant] = s.PeakRecoveryLatency
		}
	}
	// The Fig. 9(b) headline: FCFS− pays a large recovery latency penalty
	// (full Backup Buffer drain), FRAME does not.
	if peaks[simcluster.VariantFCFSMinus] <= peaks[simcluster.VariantFRAME] {
		t.Errorf("FCFS− recovery peak %v not above FRAME %v",
			peaks[simcluster.VariantFCFSMinus], peaks[simcluster.VariantFRAME])
	}
	text := res.Format()
	for _, want := range []string{"Category 0", "Category 2", "Category 5", "recovery peak"} {
		if !strings.Contains(text, want) {
			t.Errorf("format output missing %q", want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Runs != 5 || cfg.Measure != 4*time.Second || cfg.CrashMeasure != 8*time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
	if got := cfg.sizesOr([]int{5}); len(got) != 1 || got[0] != 5 {
		t.Errorf("sizesOr default = %v", got)
	}
	cfg.Workloads = []int{1525}
	if got := cfg.sizesOr([]int{5}); got[0] != 1525 {
		t.Errorf("sizesOr override = %v", got)
	}
}

func TestWorkloadListsMatchPaper(t *testing.T) {
	if len(Table4Workloads) != 3 || Table4Workloads[0] != 7525 {
		t.Errorf("Table4Workloads = %v", Table4Workloads)
	}
	if len(Table5Workloads) != 4 || Table5Workloads[0] != 4525 {
		t.Errorf("Table5Workloads = %v", Table5Workloads)
	}
	if len(Fig7Workloads) != 5 {
		t.Errorf("Fig7Workloads = %v", Fig7Workloads)
	}
	for _, size := range append(append([]int(nil), Table4Workloads...), Table5Workloads...) {
		if _, err := spec.NewWorkload(size); err != nil {
			t.Errorf("workload %d unconstructible: %v", size, err)
		}
	}
}

func TestRunMultiEdgeSweep(t *testing.T) {
	cfg := quickConfig()
	cfg.Workloads = []int{1, 2} // override: edge counts for this experiment
	res, err := RunMultiEdge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[1].CloudUtilization <= res.Rows[0].CloudUtilization {
		t.Errorf("cloud utilization did not grow with edges: %.2f then %.2f",
			res.Rows[0].CloudUtilization, res.Rows[1].CloudUtilization)
	}
	for _, r := range res.Rows {
		if r.EdgeLatencySuccess < 99.5 {
			t.Errorf("edges=%d: edge-bound latency success %.2f, want ≈100", r.Edges, r.EdgeLatencySuccess)
		}
		if r.LossSuccess != 100 {
			t.Errorf("edges=%d: loss success %.1f, want 100 (fault-free)", r.Edges, r.LossSuccess)
		}
	}
	text := res.Format()
	if !strings.Contains(text, "Extension") || !strings.Contains(text, "cloud P99") {
		t.Errorf("format output incomplete:\n%s", text)
	}
}

func TestExperimentsPropagateWorkloadErrors(t *testing.T) {
	cfg := quickConfig()
	cfg.Workloads = []int{10} // below the fixed 25-topic minimum
	if _, err := RunTable4(cfg); err == nil {
		t.Error("Table 4 accepted unconstructible workload")
	}
	if _, err := RunTable5(cfg); err == nil {
		t.Error("Table 5 accepted unconstructible workload")
	}
	if _, err := RunFig7(cfg); err == nil {
		t.Error("Fig 7 accepted unconstructible workload")
	}
	if _, err := RunMultiEdge(Config{Workloads: []int{0}}); err == nil {
		t.Error("multi-edge accepted zero edges")
	}
}

func TestProgressCallbackInvoked(t *testing.T) {
	cfg := quickConfig()
	var lines int
	cfg.Progress = func(string, ...any) { lines++ }
	if _, err := RunFig7(cfg); err != nil {
		t.Fatal(err)
	}
	if lines != 4 { // 1 workload × 4 variants × 1 run
		t.Errorf("progress lines = %d, want 4", lines)
	}
}

func TestRunGatewayChurnSmallWorkload(t *testing.T) {
	res, err := RunGatewayChurn(Config{}, GatewayChurnOptions{
		Clients:   200,
		ChurnRate: 200,
		Topics:    8,
		Window:    500 * time.Millisecond,
		Probes:    2,
		MinChurn:  -1, // a loaded CI runner may under-churn; the full gate runs in frame-bench
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sustained < 200 {
		t.Errorf("sustained %d clients, want the full population of 200", res.Sustained)
	}
	if res.Connects == 0 {
		t.Error("churn loop never replaced a client")
	}
	if res.Delivered != res.Published {
		t.Errorf("probes saw %d of %d messages under churn", res.Delivered, res.Published)
	}
	if res.Evictions != 0 {
		t.Errorf("%d draining clients were evicted", res.Evictions)
	}
	if res.P99 == 0 {
		t.Error("no latency samples collected")
	}
}
