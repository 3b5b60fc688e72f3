package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/spec"
	"repro/internal/transport"
)

const (
	// subWindow is the length of the sub-windows a run is measured in. Every
	// end-to-end metric is the median over sub-windows of the value inside
	// one, so a stalled vCPU or a collection in one window moves the result
	// less than it moves a whole-run value.
	subWindow = 2 * time.Second
	// spinMargin is how long before a due time the generator stops sleeping
	// and yields in a loop instead: nanosleep overshoots by 60-90 us on the
	// reference box (timer slack plus wake-up), time.Sleep by 1.1 ms.
	spinMargin = 100 * time.Microsecond
	// lateLimit invalidates a paced run whose generator ran this late at p99.
	lateLimit = 5 * time.Millisecond
	// floodWindow is how many messages the flood loop keeps in flight: it
	// publishes while fewer than floodWindow are undelivered, then blocks
	// until half of them have arrived at every subscriber. That makes the
	// workload a closed loop with a stated number of outstanding requests,
	// whose latency is about 3/4 x floodWindow / throughput. Without a window
	// the broker buffers whatever the publisher's share of the two cores lets
	// it send (2 000 to 7 000 messages, 50 to 290 ms, from run to run) and
	// the latency can carry no bound. 256 messages are 4 MiB, dozens of times
	// what the path holds when it is busy.
	floodWindow = 256
)

// runConfig is one benchmark run.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	outDir  string
	// since is when this run's set-up began to count: process start for the
	// first run of a process.
	since time.Time
	// flipAt corrupts one byte of the n-th measured message after it was
	// stamped, to prove the checks catch it. Zero never does.
	flipAt int64
	// wrapNet, when set, wraps the network subscribers dial through and
	// brokers listen on (the self-test's fault injector).
	wrapNet func(inner transport.Network) (brokerNet, subNet transport.Network)
}

// result is what one run reports.
type result struct {
	workload  string
	attempted int64 // deliveries the measured window should produce
	failed    int64
	checkErr  error              // first payload, FIFO, duplicate or Li violation
	values    map[string]float64 // metric name -> value, in the metric's unit
	counts    map[string]int     // metric name -> samples behind it
	notes     []string
	genLate   bool // generator lateness above lateLimit
	// Whole-window totals, for the self-test's bytes check.
	published, delivered int64
	loBytes              uint64
}

func (r *result) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio with nothing under it
	}
	r.values[name] = v
	r.counts[name] = n
}

// subState is one subscriber's receive-side ledger. Deliveries of one
// subscriber arrive on one goroutine per broker link, hence the lock.
type subState struct {
	mu         sync.Mutex
	lastSeq    []uint64   // per topic, highest sequence number delivered
	lat        [][]sample // per sub-window of the stamp: stamp -> OnDeliver
	recv       [][]sample // same windows: Created -> receive, the client's own Latency
	arrived    []int64    // per sub-window of the arrival: deliveries
	lost       int64      // sequence numbers skipped
	deadlineOK int64      // measured deliveries within the topic's Di
	received   atomic.Int64
}

// run holds the state shared by generator, subscribers and coordinator.
type run struct {
	cfg     runConfig
	w       *workload
	clock   func() time.Duration
	log     *warnLog
	ledger  *ledger
	subs    []*subState
	proxies []proxy
	proxyOf []int32 // topic -> proxy, open loop only
	start   time.Duration
	t0, t1  time.Duration // measured window, on the shared clock
	windows int
	// current is the sub-window in progress as the coordinator stamped it:
	// -1 during warm-up, windows once the measured window has ended.
	current atomic.Int32
	// Flood window: the publisher waits on credit with parked set until a
	// delivery brings the undelivered count down to half the window.
	parked   atomic.Bool
	creditMu sync.Mutex
	credit   *sync.Cond

	stop     atomic.Bool
	failOnce sync.Once
	checkErr error
	abortMsg atomic.Value // string: why the run ended early

	published     atomic.Int64 // all messages handed to Publish
	pubErrs       atomic.Int64
	measuredCount atomic.Int64 // messages stamped inside [t0, t1)
}

func (r *run) fail(err error) {
	r.failOnce.Do(func() {
		r.checkErr = err
		r.halt()
	})
}

func (r *run) abort(why string) {
	r.abortMsg.CompareAndSwap(nil, why)
	r.halt()
}

// halt stops every publisher, the one waiting for credit included.
func (r *run) halt() {
	r.stop.Store(true)
	r.creditMu.Lock()
	r.credit.Broadcast()
	r.creditMu.Unlock()
}

func (r *run) undelivered() int64 { return r.published.Load() - r.minReceived() }

// window returns the sub-window a stamp falls in, or -1 outside [t0, t1).
func (r *run) window(at time.Duration) int {
	if at < r.t0 || at >= r.t1 {
		return -1
	}
	return int((at - r.t0) / subWindow)
}

// onDeliver verifies one delivery and records its latency. It runs on the
// client's receive goroutine, so it takes no time it does not need.
func (r *run) onDeliver(sub int, d client.Delivery) {
	topic, seq := d.Msg.Topic, d.Msg.Seq
	stampAt, err := verify(d.Msg.Payload, topic, seq)
	if err != nil {
		r.fail(err)
		return
	}
	if int(topic) >= len(r.w.topics) {
		r.fail(fmt.Errorf("delivery for unknown topic %d", topic))
		return
	}
	if r.w.loop == openLoop {
		p := &r.proxies[r.proxyOf[topic]]
		if want := r.start + p.phase + time.Duration(seq-1)*p.period; stampAt != want {
			r.fail(fmt.Errorf("topic %d seq %d: stamp %v is not the scheduled due time %v", topic, seq, stampAt, want))
			return
		}
	}
	now := d.Msg.Created + d.Latency // the client's own receive stamp
	spec := &r.w.topics[topic]
	s := r.subs[sub]
	s.mu.Lock()
	last := s.lastSeq[topic]
	if seq <= last {
		s.mu.Unlock()
		r.fail(fmt.Errorf("subscriber %d topic %d: seq %d delivered after %d (FIFO or duplicate)", sub, topic, seq, last))
		return
	}
	if gap := int64(seq - last - 1); gap > 0 {
		s.lost += gap
		if gap > int64(spec.LossTolerance) {
			s.mu.Unlock()
			r.fail(fmt.Errorf("subscriber %d topic %d: %d consecutive losses exceed Li = %d", sub, topic, gap, spec.LossTolerance))
			return
		}
	}
	s.lastSeq[topic] = seq
	if w := r.window(stampAt); w >= 0 {
		lat := now - stampAt
		s.lat[w] = append(s.lat[w], toSample(lat))
		s.recv[w] = append(s.recv[w], toSample(d.Latency))
		if lat <= spec.Deadline {
			s.deadlineOK++
		}
	}
	if w := int(r.current.Load()); w >= 0 && w < r.windows {
		s.arrived[w]++
	}
	s.mu.Unlock()
	s.received.Add(1)
	if r.parked.Load() && r.undelivered() <= floodWindow/2 {
		r.creditMu.Lock()
		r.credit.Signal()
		r.creditMu.Unlock()
	}
	r.ledger.delivered(sub, topic, seq, int64(now))
}

func (r *run) minReceived() int64 {
	min := r.subs[0].received.Load()
	for _, s := range r.subs[1:] {
		if v := s.received.Load(); v < min {
			min = v
		}
	}
	return min
}

// waitUntil returns at due on the shared clock, or earlier when the run
// stops. It sleeps in the kernel and yields the last spinMargin, so the
// generator adds almost no CPU time to cpu_us_per_msg.
func (r *run) waitUntil(due time.Duration) {
	for !r.stop.Load() {
		d := due - r.clock()
		switch {
		case d <= 0:
			return
		case d > 50*time.Millisecond:
			d = 50 * time.Millisecond // stay responsive to stop
			fallthrough
		case d > spinMargin:
			ts := syscall.NsecToTimespec(int64(d - spinMargin))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep is re-armed by the loop
		default:
			runtime.Gosched()
		}
	}
}

// pubSide is what one publishing goroutine records; it is private to that
// goroutine until the run ends.
type pubSide struct {
	call    [][]sample // per sub-window of the stamp: duration of the Publish call
	sent    []int64    // per sub-window in progress: messages published
	late    []sample   // open loop: burst due -> first Publish entered
	lastSeq map[spec.TopicID]uint64
}

func newPubSide(windows, perWindow int) *pubSide {
	p := &pubSide{call: make([][]sample, windows), sent: make([]int64, windows), lastSeq: make(map[spec.TopicID]uint64)}
	for i := range p.call {
		p.call[i] = make([]sample, 0, perWindow)
	}
	return p
}

// publishOne stamps and publishes one message and records the call. The
// stamp is the message's due time, or Publish entry when due is zero.
func (r *run) publishOne(pub *client.Publisher, ps *pubSide, buf []byte, topic spec.TopicID, seq uint64, due time.Duration) bool {
	enter := r.clock()
	at := due
	if at == 0 {
		at = enter
	}
	stamp(buf, at, topic, seq)
	w := r.window(at)
	if w >= 0 && r.measuredCount.Add(1) == r.cfg.flipAt {
		buf[len(buf)-1] ^= 0x20
	}
	got, err := pub.Publish(topic, buf)
	ret := r.clock()
	r.published.Add(1)
	if err != nil || got != seq {
		r.pubErrs.Add(1)
		if err == nil {
			err = fmt.Errorf("publisher assigned seq %d, benchmark expected %d", got, seq)
		}
		r.abort("publish failed: " + err.Error())
		return false
	}
	ps.lastSeq[topic] = seq
	if w >= 0 {
		ps.call[w] = append(ps.call[w], toSample(ret-enter))
	}
	if cur := int(r.current.Load()); cur >= 0 && cur < r.windows {
		ps.sent[cur]++
	}
	r.ledger.published(topic, seq, int64(at), int64(enter), int64(ret))
	return true
}

// paced is the open-loop generator: one goroutine, one connection, the whole
// schedule. A burst that is late is sent at once; the schedule never shifts.
func (r *run) paced(pub *client.Publisher, sched []burst, bufs [][]byte, ps *pubSide) {
	next := make([]uint64, len(r.proxies)) // bursts sent per proxy = seq of its topics
	for _, b := range sched {
		due := r.start + b.due
		r.waitUntil(due)
		if r.stop.Load() {
			return
		}
		p := &r.proxies[b.proxy]
		next[b.proxy]++
		for k, topic := range p.topics {
			if k == 0 && r.window(due) >= 0 {
				ps.late = append(ps.late, toSample(r.clock()-due))
			}
			if !r.publishOne(pub, ps, bufs[topic], topic, next[b.proxy], due) {
				return
			}
		}
	}
}

// flood publishes round-robin over its topics as fast as Publish returns,
// until the measured window ends. With window set it keeps at most that many
// messages undelivered; the ack loop needs none, each of its goroutines
// waits for its PubAck.
func (r *run) flood(pub *client.Publisher, topics []spec.TopicID, bufs [][]byte, ps *pubSide, window int64) {
	r.waitUntil(r.start)
	seq := make([]uint64, len(topics))
	for i := 0; !r.stop.Load() && r.clock() < r.t1; i++ {
		if window > 0 && r.undelivered() >= window {
			// parked is set before the count is read again under the lock, so
			// a delivery either sees parked and signals, or was counted.
			r.creditMu.Lock()
			r.parked.Store(true)
			for r.undelivered() > window/2 && !r.stop.Load() {
				r.credit.Wait()
			}
			r.parked.Store(false)
			r.creditMu.Unlock()
			continue
		}
		k := i % len(topics)
		seq[k]++
		if !r.publishOne(pub, ps, bufs[topics[k]], topics[k], seq[k], 0) {
			return
		}
	}
}

// edge is the coordinator's reading at one sub-window boundary.
type edge struct {
	at  time.Duration
	cpu cpuTimes
}

// execute runs one workload once: set-up, warm-up, measured window, drain,
// checks. The caller prints the result.
func execute(cfg runConfig) (*result, error) {
	w := cfg.w
	rng := rand.New(rand.NewSource(cfg.seed))
	epoch := time.Now()
	r := &run{
		cfg:     cfg,
		w:       w,
		clock:   func() time.Duration { return time.Since(epoch) },
		log:     &warnLog{},
		windows: int((time.Duration(cfg.seconds)*time.Second + subWindow - 1) / subWindow),
	}
	r.current.Store(-1)
	r.credit = sync.NewCond(&r.creditMu)
	measured := time.Duration(cfg.seconds) * time.Second
	horizon := w.warmup + measured

	// Inputs, all from the seed: proxy periods and phases, then payload filler.
	var sched []burst
	perSubWindow := 1 << 16 // deliveries per subscriber and sub-window, to size the sample arrays
	spanRecs := w.spanRecs
	if w.loop == openLoop {
		r.proxies = buildProxies(w.topics, rng)
		r.proxyOf = make([]int32, len(w.topics))
		for i, p := range r.proxies {
			for _, t := range p.topics {
				r.proxyOf[t] = int32(i)
			}
		}
		sched = buildSchedule(r.proxies, horizon)
		perSubWindow = scheduledMessages(r.proxies, sched, w.warmup, horizon)/r.windows + 1
		minPeriod := w.topics[0].Period
		for _, t := range w.topics {
			minPeriod = min(minPeriod, t.Period)
		}
		spanRecs = int(horizon/minPeriod)/sampleEvery + 2
	}
	bufs := make([][]byte, len(w.topics))
	for i, t := range w.topics {
		bufs[i] = newPayload(rng, t.PayloadSize)
	}
	if !cfg.trace {
		spanRecs = 0
	}
	r.ledger = newLedger(len(w.topics), spanRecs)
	r.subs = make([]*subState, w.subs)
	for i := range r.subs {
		s := &subState{
			lastSeq: make([]uint64, len(w.topics)),
			lat:     make([][]sample, r.windows),
			recv:    make([][]sample, r.windows),
			arrived: make([]int64, r.windows),
		}
		for j := range s.lat {
			s.lat[j] = make([]sample, 0, perSubWindow)
			s.recv[j] = make([]sample, 0, perSubWindow)
		}
		r.subs[i] = s
	}

	// Set-up.
	e := env{clock: r.clock, log: r.log, outDir: cfg.outDir, onDeliver: r.onDeliver}
	if cfg.wrapNet != nil {
		e.brokerNet, e.subNet = cfg.wrapNet(&transport.TCP{DialTimeout: 5 * time.Second})
	}
	e.log.armed.Store(true)
	c, err := bringUp(w, e)
	if err != nil {
		return nil, err
	}
	defer func() {
		e.log.armed.Store(false)
		c.close()
	}()

	r.start = r.clock() + 10*time.Millisecond
	r.t0 = r.start + w.warmup
	r.t1 = r.t0 + measured
	// setup_s: from cfg.since to the first instant a measured message can be
	// stamped, warm-up included.
	setup := epoch.Sub(cfg.since) + r.t0

	// Publishers.
	var sides []*pubSide
	var pubWG sync.WaitGroup
	goPublish := func(f func(ps *pubSide), perWindow int) {
		ps := newPubSide(r.windows, perWindow)
		sides = append(sides, ps)
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			f(ps)
		}()
	}
	ids := make([]spec.TopicID, len(w.topics))
	for i := range ids {
		ids[i] = spec.TopicID(i)
	}
	switch w.loop {
	case openLoop:
		goPublish(func(ps *pubSide) { r.paced(c.pubs[0], sched, bufs, ps) }, perSubWindow)
	case floodLoop:
		goPublish(func(ps *pubSide) { r.flood(c.pubs[0], ids, bufs, ps, floodWindow) }, 1<<17)
	case ackLoop:
		perConn := len(ids) / w.conns
		perWorker := perConn / w.perConn
		for ci := 0; ci < w.conns; ci++ {
			for wi := 0; wi < w.perConn; wi++ {
				pub := c.pubs[ci]
				own := ids[ci*perConn+wi*perWorker:][:perWorker]
				goPublish(func(ps *pubSide) { r.flood(pub, own, bufs, ps, 0) }, 1<<10)
			}
		}
	}

	// Coordinator: stamps the sub-window edges, samples gauges at 10 Hz, and
	// ends the run early if a subscriber is evicted.
	obs := newObserver(c, cfg.trace)
	sleepTo := func(at time.Duration) {
		for r.clock() < at && !r.stop.Load() {
			time.Sleep(min(at-r.clock(), 100*time.Millisecond))
			obs.sample()
			if h := c.primary.Health(); h.EgressEvictions > 0 || h.EgressSubs < w.subs {
				r.abort(fmt.Sprintf("subscriber lost: %d of %d attached, %d evictions", h.EgressSubs, w.subs, h.EgressEvictions))
			}
		}
	}
	tracedFrom := r.windows // first traced sub-window
	if cfg.trace {
		tracedFrom = r.windows / 2
	}
	edges := make([]edge, 0, r.windows+1)
	var lo0, lo1 uint64
	for k := 0; k <= r.windows; k++ {
		sleepTo(min(r.t0+time.Duration(k)*subWindow, r.t1))
		if cfg.trace && k == tracedFrom {
			r.ledger.start(func(t spec.TopicID) uint64 {
				if w.loop == openLoop {
					return 0
				}
				// Closed-loop publishers are running: any sequence number
				// from the last one already published on may still come.
				return c.pubs[int(t)*len(c.pubs)/len(w.topics)].LastSeq(t)
			})
			c.primary.Obs().SetTracer(r.ledger.trace)
		}
		switch k {
		case 0:
			lo0, _ = loopbackBytes()
			obs.begin()
		case r.windows:
			lo1, _ = loopbackBytes()
			obs.end()
		}
		edges = append(edges, edge{at: r.clock(), cpu: processCPU()})
		r.current.Store(int32(k))
	}
	pubWG.Wait() // a closed loop's last publishes

	// Drain: everything published must arrive.
	total := r.published.Load() - r.pubErrs.Load()
	drainBy := time.Now().Add(w.drain)
	for r.minReceived() < total && time.Now().Before(drainBy) && !r.stop.Load() {
		time.Sleep(time.Millisecond)
	}
	c.primary.Obs().SetTracer(nil)
	e.log.armed.Store(false)

	return r.report(obs, sides, sched, edges, tracedFrom, setup.Seconds(), lo1-lo0)
}

// perWindow returns f(k) for every sub-window k in [from, to).
func perWindow(from, to int, f func(k int) float64) []float64 {
	var out []float64
	for k := from; k < to; k++ {
		out = append(out, f(k))
	}
	return out
}

// report turns the run's records into metrics and applies the end-of-run
// checks.
func (r *run) report(obs *observer, sides []*pubSide, sched []burst, edges []edge, tracedFrom int,
	setup float64, loBytes uint64) (*result, error) {
	w := r.w
	res := &result{workload: w.name, values: map[string]float64{}, counts: map[string]int{}, loBytes: loBytes}
	res.checkErr = r.checkErr
	if why, _ := r.abortMsg.Load().(string); why != "" {
		res.notes = append(res.notes, "ended early: "+why)
	}
	if n := r.log.count.Load(); n > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d broker/client warnings, first: %q", n, r.log.first))
	}
	measuredMsgs := r.measuredCount.Load()

	// What should have been delivered. In the open loop that is the whole
	// schedule, sent or not.
	lastSeq := make([]uint64, len(w.topics))
	sent := make([]int64, r.windows)
	var callSrc [][][]sample
	var late []sample
	for _, ps := range sides {
		for t, s := range ps.lastSeq {
			lastSeq[t] = s
		}
		for k, n := range ps.sent {
			sent[k] += n
		}
		callSrc = append(callSrc, ps.call)
		late = append(late, ps.late...)
	}
	expectMsgs := measuredMsgs
	if w.loop == openLoop {
		expectMsgs = int64(scheduledMessages(r.proxies, sched, w.warmup, w.warmup+r.t1-r.t0))
	}
	res.attempted = expectMsgs * int64(w.subs)
	var lost, deadlineOK int64
	arrived := make([]int64, r.windows)
	var latSrc, recvSrc [][][]sample
	for _, s := range r.subs {
		s.mu.Lock()
		lost += s.lost
		for t, last := range lastSeq {
			if s.lastSeq[t] < last {
				lost += int64(last - s.lastSeq[t])
			}
		}
		deadlineOK += s.deadlineOK
		for k, n := range s.arrived {
			arrived[k] += n
			res.delivered += n
		}
		latSrc, recvSrc = append(latSrc, s.lat), append(recvSrc, s.recv)
		s.mu.Unlock()
	}
	unsent := expectMsgs - measuredMsgs // open loop ended early
	res.failed = lost + (unsent+r.pubErrs.Load())*int64(w.subs)
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	for _, n := range sent {
		res.published += n
	}

	lat, n := windowPercentiles(mergeWindows(latSrc...), 0.50, 0.90, 0.99)
	res.set("lat_p50_us", us(lat[0]), n)
	res.set("lat_p90_us", us(lat[1]), n)
	res.set("lat_p99_us", us(lat[2]), n)
	res.set("setup_s", setup, 1)
	if res.attempted > 0 {
		res.set("deadline_ok_ratio", float64(deadlineOK)/float64(res.attempted), int(res.attempted))
	}
	res.set("rss_peak_mb", rssPeakMB(), 1)

	// Rates and CPU per message, one value per sub-window between the
	// coordinator's own stamps.
	full := len(edges) - 1
	seconds := func(k int) float64 { return (edges[k+1].at - edges[k].at).Seconds() }
	cpuPerMsg := func(k int) float64 {
		return float64(edges[k+1].cpu.sub(edges[k].cpu).total().Microseconds()) / float64(sent[k])
	}
	res.set("cpu_us_per_msg", median(perWindow(0, full, cpuPerMsg)), int(res.published))
	res.set("delivered_msgs_per_s", median(perWindow(0, full, func(k int) float64 { return float64(arrived[k]) / seconds(k) })), int(res.delivered))
	res.set("acked_per_s", median(perWindow(0, full, func(k int) float64 { return float64(sent[k]) / seconds(k) })), int(res.published))
	call, n := windowPercentiles(mergeWindows(callSrc...), 0.50, 0.99)
	res.set("ack_p50_us", us(call[0]), n)
	res.set("ack_p99_us", us(call[1]), n)

	if w.loop == openLoop && len(late) > 0 {
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		res.set("gen.late_p50_us", us(percentile(late, 0.50)), len(late))
		res.set("gen.late_p99_us", us(percentile(late, 0.99)), len(late))
		res.set("gen.late_max_us", us(float64(late[len(late)-1])), len(late))
		res.genLate = time.Duration(percentile(late, 0.99)) > lateLimit
	}
	if r.cfg.trace {
		res.set("client.publish_call_p50_us", us(call[0]), n)
		res.set("client.publish_call_p99_us", us(call[1]), n)
		recv, n := windowPercentiles(mergeWindows(recvSrc...), 0.50, 0.99)
		res.set("client.created_to_recv_p50_us", us(recv[0]), n)
		res.set("client.created_to_recv_p99_us", us(recv[1]), n)
		cpu := edges[full].cpu.sub(edges[0].cpu)
		res.set("proc.cpu_user_s", cpu.user.Seconds(), 1)
		res.set("proc.cpu_sys_s", cpu.sys.Seconds(), 1)
		obs.report(res, (edges[full].at - edges[0].at).Seconds())
		plain, traced := median(perWindow(0, tracedFrom, cpuPerMsg)), median(perWindow(tracedFrom, full, cpuPerMsg))
		res.set("trace.overhead_ratio", traced/plain, full-tracedFrom)
		if err := r.reportSpans(res); err != nil {
			return res, err
		}
	}
	if res.checkErr == nil && res.failed > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d deliveries missing after a %v drain", res.failed, w.drain))
	}
	return res, nil
}

func (r *run) reportSpans(res *result) error {
	name := fmt.Sprintf("spans-%s-seed%d.csv", r.w.name, r.cfg.seed)
	st, path, err := r.ledger.writeSpans(r.cfg.outDir, name, r.w.subs)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	for i, c := range st.child {
		p50, p99 := p50p99(c)
		res.set("span."+childNames[i]+"_p50_us", us(p50), len(c))
		res.set("span."+childNames[i]+"_p99_us", us(p99), len(c))
	}
	for name, s := range map[string][]sample{"replicate": st.replicate, "durable": st.durable, "ack_return": st.ackReturn} {
		p50, p99 := p50p99(s)
		res.set("span."+name+"_p50_us", us(p50), len(s))
		res.set("span."+name+"_p99_us", us(p99), len(s))
	}
	res.set("span.complete_ratio", st.completeRatio, st.roots)
	if d := r.ledger.dropped.Load(); d > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d sampled messages fell outside the pre-allocated span table", d))
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d roots, %d complete, written to %s", st.roots, st.complete, path))
	return nil
}
