package main

import (
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/obsv"
	"repro/internal/queue"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// counters is one reading of everything the broker exposes publicly that the
// per-layer metrics are differences of.
type counters struct {
	proxy, queueWait, dispatch, replicate, arrival, durable histSum
	late, sendErrs, replErrs, peerStalls                    uint64
	stats                                                   core.Stats
	egress                                                  transport.EgressStats
	admin                                                   map[string]float64
}

type histSum struct {
	sum   time.Duration
	count uint64
}

func readHist(h *obsv.Histogram) histSum { return histSum{h.Sum(), h.Count()} }

// meanUs is the exact mean of the observations between two readings.
func (a histSum) meanUs(b histSum) float64 {
	if b.count == a.count {
		return 0
	}
	return float64((b.sum - a.sum).Microseconds()) / float64(b.count-a.count)
}

// observer reads the Primary's counters at the window edges and samples its
// gauges in between. In an end-to-end run it does nothing: reading memory
// statistics stops the world.
type observer struct {
	c          *cluster
	on         bool
	from, to   counters
	ticks      int
	queueMax   int64
	ringMax    int
	goroutines int
	gc0, gc1   gcSnapshot
	heapPeakMB float64
}

func newObserver(c *cluster, on bool) *observer { return &observer{c: c, on: on} }

func (o *observer) read() counters {
	b, m := o.c.primary, o.c.primary.Obs()
	admin, _ := scrape(b.AdminAddr()) // a failed scrape reads as zeros
	return counters{
		proxy:      readHist(m.StageProxy),
		queueWait:  readHist(m.StageQueueWait),
		dispatch:   readHist(m.StageDispatch),
		replicate:  readHist(m.StageReplicate),
		arrival:    readHist(m.EndToEnd),
		durable:    readHist(m.StageDurable),
		late:       b.LateDispatches(),
		sendErrs:   m.DispatchSendErrors.Load(),
		replErrs:   m.ReplicateErrors.Load(),
		peerStalls: b.PeerStalls(),
		stats:      b.Stats(),
		egress:     b.EgressStats(),
		admin:      admin,
	}
}

func (o *observer) begin() {
	if o.on {
		o.from, o.gc0 = o.read(), readGC()
	}
}

func (o *observer) end() {
	if o.on {
		o.to, o.gc1 = o.read(), readGC()
	}
}

// sample runs at about 10 Hz.
func (o *observer) sample() {
	if !o.on {
		return
	}
	h := o.c.primary.Health()
	if h.QueueDepth > o.queueMax {
		o.queueMax = h.QueueDepth
	}
	if h.EgressQueued > o.ringMax {
		o.ringMax = h.EgressQueued
	}
	if n := runtime.NumGoroutine(); n > o.goroutines {
		o.goroutines = n
	}
	if o.ticks++; o.ticks%5 == 0 {
		if mb := readGC().heapMB; mb > o.heapPeakMB {
			o.heapPeakMB = mb
		}
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (o *observer) report(res *result, window float64) {
	a, b := o.from, o.to
	one := func(name string, v float64) { res.set(name, v, 1) }
	one("broker.proxy_mean_us", a.proxy.meanUs(b.proxy))
	one("broker.queue_wait_mean_us", a.queueWait.meanUs(b.queueWait))
	one("broker.dispatch_mean_us", a.dispatch.meanUs(b.dispatch))
	one("broker.replicate_mean_us", a.replicate.meanUs(b.replicate))
	one("broker.arrival_to_enqueue_mean_us", a.arrival.meanUs(b.arrival))
	one("broker.durable_mean_us", a.durable.meanUs(b.durable))
	one("broker.late_dispatches", float64(b.late-a.late))
	one("broker.intake_stalls", b.admin["frame_lane_intake_stalls_total"]-a.admin["frame_lane_intake_stalls_total"])
	one("broker.peer_stalls", float64(b.peerStalls-a.peerStalls))
	one("broker.dispatch_send_errors", float64(b.sendErrs-a.sendErrs))
	one("broker.replicate_errors", float64(b.replErrs-a.replErrs))

	one("core.dispatch_jobs", float64(b.stats.DispatchJobs-a.stats.DispatchJobs))
	one("core.replication_jobs", float64(b.stats.ReplicationJobs-a.stats.ReplicationJobs))
	one("core.suppressed_topics", float64(b.stats.SuppressedTopics))
	one("core.aborted_replicas", float64(b.stats.AbortedReplicas-a.stats.AbortedReplicas))
	one("core.prunes_sent", float64(b.stats.PrunesSent-a.stats.PrunesSent))
	one("core.evicted_messages", float64(b.stats.EvictedMessages-a.stats.EvictedMessages))

	one("queue.depth_max_sampled", float64(o.queueMax))

	flushed := b.egress.Flushed - a.egress.Flushed
	one("transport.frames_per_batch", ratio(flushed, b.egress.Batches-a.egress.Batches))
	one("transport.write_syscalls_per_msg", ratio(b.egress.WriteSyscalls-a.egress.WriteSyscalls, flushed))
	one("transport.conns_per_sweep", ratio(b.egress.SweepConns-a.egress.SweepConns, b.egress.SubmittedBatches-a.egress.SubmittedBatches))
	uring := 0.0
	if b.egress.KernelSubmit {
		uring = 1
	}
	one("transport.uring_active", uring)
	one("transport.shed", float64(b.egress.Shed-a.egress.Shed))
	one("transport.evictions", float64(b.egress.Evictions-a.egress.Evictions))
	one("transport.stalls", float64(b.egress.Stalls-a.egress.Stalls))
	one("transport.write_errs", float64(b.egress.WriteErrs-a.egress.WriteErrs))
	one("transport.ring_queued_max_sampled", float64(o.ringMax))

	records := b.admin["frame_durable_records_total"] - a.admin["frame_durable_records_total"]
	fsyncs := b.admin["frame_durable_fsyncs_total"] - a.admin["frame_durable_fsyncs_total"]
	if fsyncs > 0 {
		one("diskstore.records_per_fsync", records/fsyncs)
		one("diskstore.bytes_per_record", (b.admin["frame_durable_log_bytes"]-a.admin["frame_durable_log_bytes"])/records)
	}
	one("diskstore.fsyncs_per_s", fsyncs/window)

	one("proc.gc_count", float64(o.gc1.numGC-o.gc0.numGC))
	one("proc.gc_pause_total_ms", float64((o.gc1.pauseTotal-o.gc0.pauseTotal).Microseconds())/1e3)
	one("proc.heap_peak_mb", o.heapPeakMB)
	one("proc.goroutines_peak", float64(o.goroutines))
}

// The isolated timings below run one layer alone on one goroutine, after the
// traced window, on the workload's own topic set and payload size. They say
// what a layer costs when nothing contends for it; the gap to the span of the
// same layer in the live run is waiting.

// timeLoop runs f, which does ops operations per call, for about d and
// returns nanoseconds per operation.
func timeLoop(d time.Duration, ops int, f func()) float64 {
	f() // fill caches and grow buffers
	var n int
	start := time.Now()
	for time.Since(start) < d {
		f()
		n += ops
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

const isolatedFor = 100 * time.Millisecond

// isolated measures the core, queue, wire and transport layers alone.
func isolated(w *workload, res *result) error {
	one := func(name string, v float64) { res.set(name, v, 1) }
	payload := make([]byte, w.topics[0].PayloadSize)

	// core: one arrival of every topic of a burst, then all its jobs.
	burst := len(w.topics)
	if w.loop == openLoop {
		burst = topicsPerProxy(w.topics[len(w.topics)/2].Period)
	}
	cfg := core.FRAMEConfig(timing.PaperParams())
	cfg.HasBackup = w.backup
	eng, err := core.New(cfg)
	if err != nil {
		return err
	}
	for _, t := range w.topics {
		if err := eng.AddTopic(t); err != nil {
			return err
		}
	}
	seq := make([]uint64, len(w.topics))
	works := make([]core.Work, 0, 2*burst)
	var now, tPub, tNext, tDone time.Duration
	var nPub, nJobs int
	at := 0
	deadline := time.Now().Add(isolatedFor)
	for time.Now().Before(deadline) {
		now += time.Millisecond
		s := time.Now()
		for i := 0; i < burst; i++ {
			t := (at + i) % len(w.topics)
			seq[t]++
			m := wire.Message{Topic: spec.TopicID(t), Seq: seq[t], Created: now, Payload: payload}
			if err := eng.OnPublish(m, now); err != nil {
				return err
			}
		}
		tPub += time.Since(s)
		nPub += burst
		at = (at + burst) % len(w.topics)

		works = works[:0]
		s = time.Now()
		for {
			wk, ok := eng.NextWork()
			if !ok {
				break
			}
			works = append(works, wk)
		}
		tNext += time.Since(s)
		nJobs += len(works)

		s = time.Now()
		for i := range works {
			switch works[i].Kind {
			case core.WorkDispatch:
				eng.OnDispatched(works[i].Job)
			case core.WorkReplicate:
				eng.OnReplicated(works[i].Job)
			}
		}
		tDone += time.Since(s)
	}
	one("core.onpublish_ns", float64(tPub.Nanoseconds())/float64(nPub))
	one("core.nextwork_ns", float64(tNext.Nanoseconds())/float64(nJobs))
	one("core.ondispatched_ns", float64(tDone.Nanoseconds())/float64(nJobs))

	// queue: push then pop a burst through the EDF heap and the MPSC ring.
	edf := queue.NewEDF()
	one("queue.edf_push_pop_ns", timeLoop(isolatedFor, burst, func() {
		for i := 0; i < burst; i++ {
			edf.Push(queue.Job{Topic: spec.TopicID(i), Seq: 1, Deadline: time.Duration((i * 7919) % 1000)})
		}
		for i := 0; i < burst; i++ {
			edf.Pop()
		}
	}))
	ring := queue.NewMPSC[wire.Message](1024)
	msg := wire.Message{Topic: 1, Seq: 1, Payload: payload}
	one("queue.mpsc_push_pop_ns", timeLoop(isolatedFor, burst, func() {
		for i := 0; i < burst; i++ {
			ring.PushInPlace(func(m *wire.Message) { *m = msg })
		}
		for i := 0; i < burst; i++ {
			ring.PopInto(func(*wire.Message) {})
		}
	}))

	// wire: one Dispatch frame at the workload's payload size.
	frame := wire.Frame{Type: wire.TypeDispatch, Msg: msg, Dispatched: 1}
	var enc []byte
	one("wire.encode_ns", timeLoop(isolatedFor, 1, func() { enc, _ = wire.Encode(enc[:0], &frame) }))
	one("wire.bytes_per_frame", float64(len(enc)+4)) // plus the transport's length prefix
	var dec wire.Frame
	var decErr error
	one("wire.decode_ns", timeLoop(isolatedFor, 1, func() {
		if err := wire.DecodeInto(enc, &dec, wire.ModeCopy); err != nil {
			decErr = err
		}
	}))
	if decErr != nil {
		return decErr
	}
	return isolatedTransport(&frame, res)
}

// isolatedTransport measures a Send -> RecvInto echo over one loopback TCP
// connection (the wire floor under every latency in this benchmark) and the
// cost of one egress-ring enqueue while a reader drains the socket.
func isolatedTransport(frame *wire.Frame, res *result) error {
	ln, err := net.Listen("tcp", loopbackAny)
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1) // one dial, one accept
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	near := transport.NewConn(nc)
	defer near.Close()
	snc, ok := <-accepted
	if !ok {
		return os.ErrClosed
	}
	far := transport.NewConn(snc)
	defer far.Close()

	// Echo server: until the near side sends a Poll, every frame goes back;
	// after it, frames are only drained.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var f wire.Frame
		echo := true
		for far.RecvInto(&f) == nil {
			if f.Type == wire.TypePoll {
				echo = false
				continue
			}
			if echo && far.Send(&f) != nil {
				return
			}
		}
	}()
	var back wire.Frame
	rtts := make([]sample, 0, 4096)
	deadline := time.Now().Add(2 * isolatedFor)
	for time.Now().Before(deadline) {
		s := time.Now()
		if err := near.Send(frame); err != nil {
			return err
		}
		if err := near.RecvInto(&back); err != nil {
			return err
		}
		rtts = append(rtts, toSample(time.Since(s)))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	res.set("transport.loopback_rtt_us", us(percentile(rtts, 0.5)), len(rtts))

	// Now the far side only drains, and the near side writes through an
	// egress ring.
	if err := near.Send(&wire.Frame{Type: wire.TypePoll}); err != nil {
		return err
	}
	body, err := wire.Encode(nil, frame)
	if err != nil {
		return err
	}
	// Rounds of half a ring, each started on an empty ring, so no enqueue
	// ever waits for space.
	const depth, rounds = 8192, 4
	eg := transport.NewEgress(near, transport.EgressConfig{Depth: depth})
	var spent time.Duration
	for r := 0; r < rounds; r++ {
		for eg.Depth() > 0 {
			runtime.Gosched()
		}
		s := time.Now()
		for i := 0; i < depth/2; i++ {
			fb := transport.GetFrameBuf()
			fb.B = append(fb.B[:0], body...)
			eg.Enqueue(fb, frame.Msg.Topic, spec.LossUnbounded)
		}
		spent += time.Since(s)
	}
	res.set("transport.egress_enqueue_ns", float64(spent.Nanoseconds())/float64(rounds*depth/2), rounds*depth/2)
	eg.Close()
	near.Close()
	eg.Wait()
	wg.Wait()
	return nil
}

// isolatedDisk measures the device floor under durable_ack in dir: one
// small write plus fsync, and the group-commit wait seen by 32 concurrent
// Enqueue -> Wait callers.
func isolatedDisk(dir string, payload int, res *result) error {
	tmp, err := os.MkdirTemp(dir, "disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	f, err := os.Create(tmp + "/fsync.probe")
	if err != nil {
		return err
	}
	block := make([]byte, payload+64)
	syncs := make([]sample, 0, 64)
	for i := 0; i < 40; i++ {
		s := time.Now()
		if _, err := f.Write(block); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		syncs = append(syncs, toSample(time.Since(s)))
	}
	if err := f.Close(); err != nil {
		return err
	}
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	res.set("diskstore.fsync_us", us(percentile(syncs, 0.5)), len(syncs))

	seg, _, err := diskstore.OpenSegmented(tmp+"/log", diskstore.SegmentOptions{})
	if err != nil {
		return err
	}
	com := diskstore.NewCommitter(seg, broker.DefaultFsyncInterval)
	const callers = 32
	waits := make([][]sample, callers)
	var wg sync.WaitGroup
	deadline := time.Now().Add(5 * isolatedFor)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m := wire.Message{Topic: spec.TopicID(c), Payload: make([]byte, payload)}
			for time.Now().Before(deadline) {
				m.Seq++
				s := time.Now()
				if com.Enqueue(m).Wait() != nil {
					return
				}
				waits[c] = append(waits[c], toSample(time.Since(s)))
			}
		}(c)
	}
	wg.Wait()
	if err := com.Close(); err != nil {
		return err
	}
	var all []sample
	for _, w := range waits {
		all = append(all, w...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.set("diskstore.commit_wait_p50_us", us(percentile(all, 0.5)), len(all))
	return nil
}
