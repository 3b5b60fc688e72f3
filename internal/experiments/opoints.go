// Operating-point bench rig: FRAME's delivery throughput at the fixed
// payload-size × fan-out grid the broker-benchmarking literature compares
// systems on (the Zenoh/MQTT/Kafka/DDS study and the IoT-edge broker
// benchmarks in PAPERS.md measure 64B/1KB/64KB payloads at small and large
// subscriber counts). Tracking "faster than yesterday" via BENCH_EGRESS.json
// catches regressions but says nothing about where FRAME sits on those
// published axes; this sweep produces the comparable numbers.
//
// Each cell runs a live broker over the in-process network in lossless
// blocking-egress mode — a full ring backpressures dispatch instead of
// shedding — so a flat-out publisher measures sustainable capacity rather
// than the shed policy. The cell's unit result is nanoseconds per delivered
// message (payload×fanout held fixed), which serializes into the same
// BenchRow shape as the Go benchmarks so frame-benchdiff gates both files
// with one comparison.

package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// OpointsOptions parameterizes the operating-point sweep.
type OpointsOptions struct {
	// Payloads are the payload sizes in bytes; nil means {64, 1024, 65536}.
	Payloads []int
	// Fanouts are the subscribers-per-message counts; nil means {1, 8, 64}.
	Fanouts []int
	// Messages is the published-message count per cell before the byte
	// budget clamps it; 0 means 256.
	Messages int
	// ByteBudget caps payload×fanout×messages per cell so the 64KB×64 cell
	// cannot blow up CI; 0 means 64MB. Clamping never goes below 24
	// messages.
	ByteBudget int64
	// Topics spreads each cell's traffic over this many topics (and thus
	// dispatch lanes); 0 means 2.
	Topics int
	// Depth is the per-subscriber egress ring depth; 0 means 1024.
	Depth int
	// Reps runs each cell this many times and keeps the fastest; 0 means 3.
	// Capacity is the best sustained rate, so min-of-N is the measurement,
	// not a noise dodge — a descheduled flusher can double a short cell's
	// elapsed time on a loaded box.
	Reps int
	// Net selects the transport: "mem" (default) runs over the in-process
	// network, "tcp" over real loopback sockets — the only way the kernel
	// submission backend can engage, since Mem conns expose no fd.
	Net string
	// NoUring forces the sequential write path even over TCP, mirroring
	// broker.Options.NoUring; the submit-compare mode uses it to measure
	// both backends on identical traffic.
	NoUring bool
}

func (o OpointsOptions) withDefaults() OpointsOptions {
	if len(o.Payloads) == 0 {
		o.Payloads = []int{64, 1024, 65536}
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{1, 8, 64}
	}
	if o.Messages == 0 {
		o.Messages = 256
	}
	if o.ByteBudget == 0 {
		o.ByteBudget = 64 << 20
	}
	if o.Topics == 0 {
		o.Topics = 2
	}
	if o.Depth == 0 {
		o.Depth = 1024
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.Net == "" {
		o.Net = "mem"
	}
	return o
}

// OpointCell is one measured operating point.
type OpointCell struct {
	Payload   int // bytes per message
	Fanout    int // subscribers receiving every message
	Published int // messages published across all topics
	Delivered int // messages received across all subscribers
	Elapsed   time.Duration
	MsgsPer   float64 // delivered messages per second
	MBPer     float64 // delivered payload megabytes per second
	NsPerMsg  float64 // nanoseconds per delivered message
	// SyscallsPer is egress write-syscalls per delivered message: the
	// broker's sequential writev/resume calls plus (kernel backend) its
	// io_uring_enter sweeps, over the cell's measurement window. The best
	// (lowest) rep is kept, like NsPerMsg — both measure the operating
	// point's floor, not a noisy average.
	SyscallsPer float64
	// Kernel reports whether the kernel submission backend carried sweeps
	// during the cell (always false on the mem network).
	Kernel bool
}

// OpointsResult is the grid outcome.
type OpointsResult struct {
	Cells []OpointCell
}

// RunOpoints sweeps the payload × fan-out grid against a live broker.
func RunOpoints(cfg Config, opts OpointsOptions) (*OpointsResult, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	res := &OpointsResult{}
	for _, payload := range opts.Payloads {
		for _, fanout := range opts.Fanouts {
			msgs := opts.Messages
			if budget := int(opts.ByteBudget / int64(payload) / int64(fanout)); msgs > budget {
				msgs = budget
			}
			if msgs < 24 {
				msgs = 24
			}
			cfg.progress("opoints: payload=%dB fanout=%d msgs=%d reps=%d net=%s", payload, fanout, msgs, opts.Reps, opts.Net)
			var best OpointCell
			for rep := 0; rep < opts.Reps; rep++ {
				cell, err := runOpointCell(payload, fanout, msgs, opts)
				if err != nil {
					return nil, fmt.Errorf("experiments: opoints payload=%d fanout=%d: %w", payload, fanout, err)
				}
				if rep == 0 {
					best = cell
					continue
				}
				if cell.NsPerMsg < best.NsPerMsg {
					syscalls, kernel := best.SyscallsPer, best.Kernel
					best = cell
					best.SyscallsPer, best.Kernel = syscalls, kernel
				}
				// Floors are tracked per axis: the rep with the best batching
				// (fewest syscalls per message) is not always the fastest one.
				if cell.SyscallsPer < best.SyscallsPer {
					best.SyscallsPer = cell.SyscallsPer
				}
				best.Kernel = best.Kernel || cell.Kernel
			}
			res.Cells = append(res.Cells, best)
		}
	}
	return res, nil
}

func runOpointCell(payload, fanout, msgs int, opts OpointsOptions) (OpointCell, error) {
	params := timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
	perTopic := msgs / opts.Topics
	if perTopic == 0 {
		perTopic = 1
	}
	topics := make([]spec.Topic, opts.Topics)
	ids := make([]spec.TopicID, opts.Topics)
	for i := range topics {
		topics[i] = spec.Topic{
			ID:            spec.TopicID(i + 1),
			Category:      -1,
			Period:        20 * time.Millisecond,
			Deadline:      time.Second,
			LossTolerance: spec.LossUnbounded,
			Retention:     8,
			Destination:   spec.DestEdge,
			PayloadSize:   payload,
		}
		ids[i] = topics[i].ID
	}
	engineCfg := core.FRAMEConfig(params)
	engineCfg.MessageBufferCap = perTopic

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	var net transport.Network
	listen := "primary"
	switch opts.Net {
	case "mem":
		net = transport.NewMem()
	case "tcp":
		// Real loopback sockets: egress conns expose fds, so the flusher
		// pool's kernel submission backend engages where the kernel allows.
		net = &transport.TCP{DialTimeout: 2 * time.Second}
		listen = "127.0.0.1:0"
	default:
		return OpointCell{}, fmt.Errorf("unknown net %q (want mem or tcp)", opts.Net)
	}
	b, err := broker.New(broker.Options{
		Engine:     engineCfg,
		Role:       broker.RolePrimary,
		ListenAddr: listen,
		Network:    net,
		Clock:      clock,
		Topics:     topics,
		NoUring:    opts.NoUring,
		// Lossless operating point: a full ring blocks dispatch instead of
		// shedding, so every published message is eventually delivered and
		// elapsed time measures capacity, not the loss policy.
		EgressDepth:  opts.Depth,
		EgressNoShed: true,
		Logger:       quietLogger(),
	})
	if err != nil {
		return OpointCell{}, err
	}
	b.Start()
	defer b.Stop()

	subs := make([]*client.Subscriber, fanout)
	for i := range subs {
		subs[i], err = client.NewSubscriber(client.SubscriberOptions{
			Name:        fmt.Sprintf("opoint-sub-%d", i),
			Topics:      ids,
			BrokerAddrs: []string{b.Addr()},
			Network:     net,
			Clock:       clock,
			Logger:      quietLogger(),
		})
		if err != nil {
			return OpointCell{}, err
		}
		defer subs[i].Close()
	}
	if err := awaitSubscriptions(b, fanout); err != nil {
		return OpointCell{}, err
	}

	total := opts.Topics * perTopic
	es0 := b.EgressStats()
	begin := time.Now()
	// One flat-out publisher: interval 0 means the only pacing is the
	// backpressure the lossless pipeline itself applies.
	if err := publishPaced(net, b.Addr(), clock, ids, perTopic, 0); err != nil {
		return OpointCell{}, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		n := uint64(0)
		for _, sub := range subs {
			n += received(sub, ids)
		}
		if n >= uint64(total*fanout) {
			break
		}
		if time.Now().After(deadline) {
			return OpointCell{}, fmt.Errorf("subscribers got %d of %d before timeout", n, total*fanout)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(begin)
	es1 := b.EgressStats()
	delivered := total * fanout
	perSec := float64(delivered) / elapsed.Seconds()
	return OpointCell{
		Payload:     payload,
		Fanout:      fanout,
		Published:   total,
		Delivered:   delivered,
		Elapsed:     elapsed,
		MsgsPer:     perSec,
		MBPer:       perSec * float64(payload) / (1 << 20),
		NsPerMsg:    float64(elapsed.Nanoseconds()) / float64(delivered),
		SyscallsPer: float64(es1.WriteSyscalls-es0.WriteSyscalls) / float64(delivered),
		Kernel:      es1.KernelSubmit && es1.SubmittedBatches > es0.SubmittedBatches,
	}, nil
}

// Format renders the grid as a table.
func (r *OpointsResult) Format() string {
	var sb strings.Builder
	fmt.Fprintln(&sb, "Operating points: lossless delivery capacity, payload × fan-out")
	fmt.Fprintf(&sb, "%8s  %7s  %10s  %10s  %12s  %10s  %10s  %13s  %6s\n",
		"payload", "fanout", "delivered", "elapsed", "msgs/sec", "MB/sec", "ns/msg", "syscalls/msg", "uring")
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%8d  %7d  %10d  %10v  %12.0f  %10.2f  %10.0f  %13.4f  %6v\n",
			c.Payload, c.Fanout, c.Delivered, c.Elapsed.Round(time.Millisecond),
			c.MsgsPer, c.MBPer, c.NsPerMsg, c.SyscallsPer, c.Kernel)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// WriteCSV stores one row per cell.
func (r *OpointsResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "payload_bytes,fanout,published,delivered,elapsed_seconds,msgs_per_sec,mb_per_sec,ns_per_msg,syscalls_per_msg,kernel_submit"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.6f,%.1f,%.3f,%.1f,%.4f,%v\n",
			c.Payload, c.Fanout, c.Published, c.Delivered, c.Elapsed.Seconds(), c.MsgsPer, c.MBPer, c.NsPerMsg, c.SyscallsPer, c.Kernel); err != nil {
			return err
		}
	}
	return nil
}

// WriteBenchJSON serializes the grid in the BenchRow shape BENCH_EGRESS.json
// uses, so frame-benchdiff gates BENCH_OPOINTS.json exactly like the Go
// benchmark baseline. Each cell contributes two rows: Opoint/payload=N/
// fanout=M with ns_per_op = nanoseconds per delivered message, and
// OpointSyscalls/payload=N/fanout=M with ns_per_op = egress write syscalls
// per delivered message — so syscall-batching regressions trip the same
// gate that catches throughput regressions. bytes_per_op records the
// payload so the baseline is self-describing (constant per cell, never a
// regression axis).
func (r *OpointsResult) WriteBenchJSON(w io.Writer) error {
	rows := make([]BenchRow, 0, 2*len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, BenchRow{
			Name:       fmt.Sprintf("Opoint/payload=%d/fanout=%d", c.Payload, c.Fanout),
			Iterations: int64(c.Delivered),
			NsPerOp:    c.NsPerMsg,
			BytesPerOp: float64(c.Payload),
		})
	}
	for _, c := range r.Cells {
		rows = append(rows, BenchRow{
			Name:       fmt.Sprintf("OpointSyscalls/payload=%d/fanout=%d", c.Payload, c.Fanout),
			Iterations: int64(c.Delivered),
			NsPerOp:    c.SyscallsPer,
			BytesPerOp: float64(c.Payload),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
