package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/spec"
)

// inputs expands a seed into everything a paced run derives from it: the
// (due, topic) arrival list and every topic's payload bytes.
func inputs(t *testing.T, seed int64) ([][2]int64, [][]byte) {
	t.Helper()
	w, err := paperMix(325)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	proxies := buildProxies(w.topics, rng)
	var arrivals [][2]int64
	for _, b := range buildSchedule(proxies, time.Second) {
		for _, topic := range proxies[b.proxy].topics {
			arrivals = append(arrivals, [2]int64{int64(b.due), int64(topic)})
		}
	}
	payloads := make([][]byte, len(w.topics))
	for i := range payloads {
		payloads[i] = newPayload(rng, 64)
	}
	return arrivals, payloads
}

func TestSameSeedSameInputs(t *testing.T) {
	a1, p1 := inputs(t, 7)
	a2, p2 := inputs(t, 7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed gave different schedules or payloads")
	}
	a3, p3 := inputs(t, 8)
	if reflect.DeepEqual(a1, a3) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	if reflect.DeepEqual(p1, p3) {
		t.Error("seeds 7 and 8 gave the same payload filler")
	}
	for i := 1; i < len(a1); i++ {
		if a1[i][0] < a1[i-1][0] {
			t.Fatalf("schedule not in due order at %d", i)
		}
	}
	// 325 topics: 20 at 20 msg/s, 300 at 10 msg/s, 5 at 2 msg/s, periods
	// stretched by at most 1 %.
	if want := 20*20 + 300*10 + 5*2; len(a1) < want*98/100 || len(a1) > want {
		t.Errorf("%d arrivals in one second, want about %d", len(a1), want)
	}
}

func TestProxiesFollowThePaper(t *testing.T) {
	w, err := paperMix(paperTopics)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[time.Duration]int{}
	for _, p := range buildProxies(w.topics, rand.New(rand.NewSource(1))) {
		if want := topicsPerProxy(p.nominal); len(p.topics) != want {
			t.Fatalf("proxy at Ti = %v owns %d topics, want %d", p.nominal, len(p.topics), want)
		}
		if p.period < p.nominal || p.period > p.nominal+p.nominal/periodStretch {
			t.Fatalf("period %v outside [Ti, Ti + 1 %%] of %v", p.period, p.nominal)
		}
		sizes[p.nominal]++
	}
	want := map[time.Duration]int{50 * time.Millisecond: 2, 100 * time.Millisecond: (paperTopics - 25) / 50, 500 * time.Millisecond: 1}
	if !reflect.DeepEqual(sizes, want) {
		t.Errorf("proxies per period %v, want %v", sizes, want)
	}
}

func TestPayloadRoundTripAndFlippedByte(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{16, 64, 16 << 10} {
		p := newPayload(rng, size)
		if len(p) != size {
			t.Fatalf("payload of %d bytes for size %d", len(p), size)
		}
		stamp(p, 123456789, 42, 7)
		at, err := verify(p, 42, 7)
		if err != nil || at != 123456789 {
			t.Fatalf("size %d: round trip gave %v, %v", size, at, err)
		}
		if _, err := verify(p, 42, 8); !errors.Is(err, errTag) {
			t.Errorf("size %d: wrong sequence number accepted: %v", size, err)
		}
		// Every byte outside the stamp is covered by the tag or the
		// checksum; the stamp of a 16-byte payload is checked against the
		// schedule by the receiver (see onDeliver).
		from := 0
		if !checksummed(p) {
			from = 8
		}
		for i := from; i < size; i += 1 + size/97 {
			q := append([]byte(nil), p...)
			q[i] ^= 0x01
			if _, err := verify(q, 42, 7); err == nil {
				t.Fatalf("size %d: flipped byte %d accepted", size, i)
			}
		}
	}
	if _, err := verify(make([]byte, 8), 1, 1); !errors.Is(err, errShort) {
		t.Errorf("short payload: %v", err)
	}
}

func TestWindowPercentiles(t *testing.T) {
	// Five windows of 1..100 scaled by 1, 2, 3, 4 and 50: the last is a
	// stalled window. Whole-run p99 would be near 4950; the window median
	// reports the middle window.
	var windows [][]sample
	for _, scale := range []sample{1, 2, 3, 4, 50} {
		w := make([]sample, 100)
		for i := range w {
			w[99-i] = sample(i+1) * scale // unsorted on purpose
		}
		windows = append(windows, w)
	}
	windows = append(windows, nil) // an empty window is skipped
	got, n := windowPercentiles(windows, 0.50, 0.99)
	if n != 500 {
		t.Errorf("%d samples, want 500", n)
	}
	if got[0] != 150 || got[1] != 297 {
		t.Errorf("p50, p99 = %v, want 150 and 297", got)
	}
	if p := percentile([]sample{1, 2, 3, 4}, 0.5); p != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
	merged := mergeWindows([][]sample{{1}, {2}}, [][]sample{{3}, {4}, {5}})
	if !reflect.DeepEqual(merged, [][]sample{{1, 3}, {2, 4}, {5}}) {
		t.Errorf("mergeWindows = %v", merged)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestChildrenTileTheRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		var b [6]int64
		b[0] = rng.Int63n(1e9)
		for j := 1; j < 6; j++ {
			b[j] = b[j-1] + rng.Int63n(1e6)
		}
		ordered := b
		if i%3 == 0 {
			// A boundary stamped on another goroutine lands outside its
			// neighbours: StageAck after OnDeliver, say.
			b[4] = b[5] + rng.Int63n(1e5)
		}
		children, moved := tile(b)
		var sum int64
		for _, c := range children {
			if c < 0 {
				t.Fatalf("negative child in %v from %v", children, b)
			}
			sum += c
		}
		if sum != b[5]-b[0] {
			t.Fatalf("children sum to %d, root is %d", sum, b[5]-b[0])
		}
		if b == ordered && moved != 0 {
			t.Fatalf("ordered boundaries moved by %d", moved)
		}
		if b != ordered && moved != b[4]-b[5] {
			t.Fatalf("moved %d, want %d", moved, b[4]-b[5])
		}
	}
}

// TestLedgerSeparatesDispatchFromReplication feeds the ledger the lifecycle
// events of a message that has both a replication and a dispatch job.
func TestLedgerSeparatesDispatchFromReplication(t *testing.T) {
	const topic = 5
	l := newLedger(8, 4)
	l.start(func(spec.TopicID) uint64 { return 0 })
	var seq uint64 = 1
	for l.rec(topic, seq) == nil {
		seq++ // first sampled sequence number of the topic
	}
	if seq > sampleEvery {
		t.Fatalf("no sequence number of topic %d sampled in the first %d", topic, sampleEvery)
	}
	ev := func(stage obsv.Stage, at int64) {
		l.trace(obsv.TraceEvent{Stage: stage, Topic: topic, Seq: seq, At: time.Duration(at)})
	}
	l.published(topic, seq, 100, 110, 130)
	ev(obsv.StagePublish, 200)
	ev(obsv.StagePop, 300) // replication job, earlier deadline
	ev(obsv.StageReplicate, 310)
	ev(obsv.StagePop, 320) // dispatch job on another worker, before the replica send returned
	ev(obsv.StageDispatch, 330)
	ev(obsv.StageAck, 340) // two jobs open: cannot tell whose
	r := l.rec(topic, seq)
	if !r.ambiguous {
		t.Fatal("an ack with two jobs open was attributed")
	}

	seq += sampleEvery
	l.published(topic, seq, 100, 110, 130)
	ev(obsv.StagePublish, 200)
	ev(obsv.StagePop, 300)
	ev(obsv.StageReplicate, 310)
	ev(obsv.StageAck, 350)
	ev(obsv.StagePop, 400)
	ev(obsv.StageDispatch, 410)
	ev(obsv.StageAck, 450)
	l.delivered(0, topic, seq, 500)
	l.delivered(1, topic, seq, 440) // before StageAck: boundary moves by 10 of 340
	r = l.rec(topic, seq)
	if r.ambiguous || r.popR != 300 || r.ackR != 350 || r.popD != 400 || r.ackD != 450 {
		t.Fatalf("record %+v", r)
	}
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	st := l.collect(2, bw)
	bw.Flush()
	if st.roots != 4 || st.complete != 1 {
		t.Errorf("roots %d complete %d, want 4 and 1 (one ambiguous message, one root moved by more than 2 %%)", st.roots, st.complete)
	}
	if len(st.replicate) != 1 || st.replicate[0] != 50 {
		t.Errorf("replicate spans %v, want [50]", st.replicate)
	}
	want := [5]sample{10, 90, 200, 50, 50}
	for i, c := range st.child {
		if len(c) != 1 || c[0] != want[i] {
			t.Errorf("child %s = %v, want %d", childNames[i], c, want[i])
		}
	}
	if !bytes.Contains(out.Bytes(), []byte(",queue_wait,deliver,200,400\n")) {
		t.Errorf("span file:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the tables in
// metrics.go and workload.go equal.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the bench directory:", err)
	}
	var decl struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d in code", len(decl.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if decl.Workloads[i].Name != name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q: %q", i, decl.Workloads[i], name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", name, len(w.why))
		}
		if w.subs > maxSubs {
			t.Errorf("%s: %d subscribers, span records hold %d", name, w.subs, maxSubs)
		}
	}
	if decl.RunSeconds%int(subWindow/time.Second) != 0 {
		t.Errorf("run_seconds %d is not a whole number of %v sub-windows", decl.RunSeconds, subWindow)
	}
}

// TestSmokePaperMix runs the paper's mix at its smallest size for two
// seconds over loopback TCP and checks only what must hold on any machine:
// every message published was delivered, verified, in order.
func TestSmokePaperMix(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback sockets and runs for three seconds")
	}
	w, err := paperMix(325)
	if err != nil {
		t.Fatal(err)
	}
	w.warmup = 500 * time.Millisecond
	w.drain = 30 * time.Second
	res, err := execute(runConfig{w: w, seed: 1, seconds: 2, trace: true, outDir: t.TempDir(), since: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if res.checkErr != nil {
		t.Fatal(res.checkErr)
	}
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d; notes %v", res.attempted, res.failed, res.notes)
	}
	if got := res.counts["lat_p50_us"]; int64(got) != res.attempted {
		t.Errorf("%d latency samples for %d deliveries", got, res.attempted)
	}
	if res.counts["span.complete_ratio"] == 0 {
		t.Error("traced run recorded no spans")
	}
	for _, d := range endToEnd {
		if _, ok := res.values[d.Name]; !ok {
			t.Errorf("end-to-end metric %s not reported", d.Name)
		}
	}
}
