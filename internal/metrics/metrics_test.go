package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyRecorderBasics(t *testing.T) {
	var r LatencyRecorder
	if r.Mean() != 0 || r.Max() != 0 || r.Percentile(0.5) != 0 {
		t.Error("empty recorder not zero-valued")
	}
	for _, ms := range []int{10, 20, 30, 40} {
		r.Record(time.Duration(ms) * time.Millisecond)
	}
	if r.Count() != 4 {
		t.Errorf("Count = %d", r.Count())
	}
	if r.Mean() != 25*time.Millisecond {
		t.Errorf("Mean = %v", r.Mean())
	}
	if r.Max() != 40*time.Millisecond {
		t.Errorf("Max = %v", r.Max())
	}
}

func TestLatencyRecorderPercentiles(t *testing.T) {
	var r LatencyRecorder
	for i := 100; i >= 1; i-- { // reversed insertion
		r.Record(time.Duration(i) * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.01, 1 * time.Millisecond},
		{0.5, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1, 100 * time.Millisecond},
	}
	for _, tc := range tests {
		if got := r.Percentile(tc.p); got != tc.want {
			t.Errorf("P%.0f = %v, want %v", tc.p*100, got, tc.want)
		}
	}
}

func TestUtilization(t *testing.T) {
	u := NewUtilization(2)
	u.AddBusy(500 * time.Millisecond)
	u.AddBusy(500 * time.Millisecond)
	if got := u.Percent(time.Second); math.Abs(got-50) > 1e-9 {
		t.Errorf("Percent = %v, want 50", got)
	}
	if u.Busy() != time.Second {
		t.Errorf("Busy = %v", u.Busy())
	}
	if u.Percent(0) != 0 {
		t.Error("zero window should give 0")
	}
}

func TestUtilizationPanics(t *testing.T) {
	t.Run("zero cores", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		NewUtilization(0)
	})
	t.Run("negative busy", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		NewUtilization(1).AddBusy(-time.Second)
	})
}

func TestSeriesStats(t *testing.T) {
	s := Series{2, 4, 4, 4, 5, 5, 7, 9}
	if m := s.Mean(); math.Abs(m-5) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
	if sd := s.StdDev(); math.Abs(sd-2.138089935) > 1e-6 {
		t.Errorf("StdDev = %v", sd)
	}
	ci := s.CI95()
	want := 1.96 * 2.138089935 / math.Sqrt(8)
	if math.Abs(ci-want) > 1e-6 {
		t.Errorf("CI95 = %v, want %v", ci, want)
	}
	if (Series{}).Mean() != 0 || (Series{1}).StdDev() != 0 || (Series{1}).CI95() != 0 {
		t.Error("degenerate series not zero")
	}
}

func TestFormatMeanCI(t *testing.T) {
	if got := (Series{100, 100, 100}).FormatMeanCI(); got != "100.0" {
		t.Errorf("constant series = %q", got)
	}
	got := (Series{99.9, 99.92, 99.88}).FormatMeanCI()
	if !strings.Contains(got, "±") || !strings.Contains(got, "E") {
		t.Errorf("tiny CI should use scientific notation: %q", got)
	}
	got = (Series{80, 100, 60}).FormatMeanCI()
	if !strings.Contains(got, "80.0 ±") {
		t.Errorf("wide CI format: %q", got)
	}
}

// TestLatencyRecorderConcurrent exercises the Record/Percentile race under
// the race detector: Percentile sorts the backing slice in place, so it and
// Record must serialize on the recorder's lock.
func TestLatencyRecorderConcurrent(t *testing.T) {
	var r LatencyRecorder
	const writers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(time.Duration(w*each+i) * time.Microsecond)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Percentile(0.99)
				r.Mean()
				r.Max()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Count(); got != writers*each {
		t.Errorf("Count = %d, want %d", got, writers*each)
	}
	// All samples intact and sorted order consistent after racing reads.
	if p100 := r.Percentile(1); p100 != time.Duration(writers*each-1)*time.Microsecond {
		t.Errorf("max percentile = %v", p100)
	}
}

// TestRecentLatenciesKeepsNewest pins the caller-side latency record: an
// unknown topic has none, and past RecentKeep samples the newest are kept,
// oldest first.
func TestRecentLatenciesKeepsNewest(t *testing.T) {
	var r RecentLatencies
	if r.Latencies(1) != nil {
		t.Error("unknown topic has samples")
	}
	const total = RecentKeep + 1034
	for i := 1; i <= total; i++ {
		r.Record(1, time.Duration(i))
	}
	r.Record(2, time.Second)
	lats := r.Latencies(1)
	if len(lats) != RecentKeep {
		t.Fatalf("%d latency samples kept, want the %d most recent", len(lats), RecentKeep)
	}
	for i, l := range lats {
		if want := time.Duration(total - RecentKeep + 1 + i); l != want {
			t.Fatalf("sample %d = %v, want %v (oldest first)", i, l, want)
		}
	}
	if got := r.Latencies(2); len(got) != 1 || got[0] != time.Second {
		t.Errorf("topic 2 samples = %v, want its one", got)
	}
}
