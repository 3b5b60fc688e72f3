// Durable-publish bench: the price of "ACK = durable" at the three sync
// disciplines the durability plane offers. N concurrent publishers each
// drive their own topic flat-out and time every Publish call:
//
//   - mem:    the baseline broker — Publish returns once the frame is on
//     the wire, nothing touches disk;
//   - group:  the group-commit log — publishers park until the shared
//     fsync covering their record lands, so the cost is roughly the
//     fsync window plus one amortized fsync;
//   - always: per-record fsync (the SyncAlways discipline) — every
//     publish pays its own fsync AND queues behind every other
//     publisher's, the serialization group commit exists to remove.
//
// The headline number is publish p99 per mode, and the orderings the
// plane sells are enforced as a gate: mem < group (durability is not
// free) and group < always (group commit beats per-record fsync under
// concurrency). The second inequality is the one that needs real
// publishers: a single publisher pays the full window under group commit
// and only its own fsync under SyncAlways, so group commit only wins
// once concurrent publishers share the window — which is exactly how the
// broker runs.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// DurableOptions parameterizes the durable-publish sweep.
type DurableOptions struct {
	// Publishers is the concurrent publisher count (one connection and one
	// topic each); 0 means 32. The SyncAlways queueing penalty scales with
	// this, so very small values can legitimately flip the group<always
	// ordering on a fast disk.
	Publishers int
	// Messages is the publish count per publisher; 0 means 100.
	Messages int
	// PayloadSize is the published payload in bytes; 0 means 64.
	PayloadSize int
	// FsyncInterval is the group-commit window; 0 means the broker default.
	FsyncInterval time.Duration
	// Reps runs each mode this many times and keeps the lowest p99; 0
	// means 3. Latency tails on a loaded box are noise-dominated, so
	// min-of-N is the measurement.
	Reps int
	// LogDirRoot hosts the per-run log directories; "" means os.TempDir().
	// Point it at a real filesystem — on tmpfs fsync is free and every
	// mode collapses into the baseline.
	LogDirRoot string
	// Gate enforces the p99 ordering mem < group < always when true.
	Gate bool
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.Publishers == 0 {
		o.Publishers = 32
	}
	if o.Messages == 0 {
		o.Messages = 100
	}
	if o.PayloadSize == 0 {
		o.PayloadSize = 64
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.LogDirRoot == "" {
		o.LogDirRoot = os.TempDir()
	}
	return o
}

// DurableCell is one mode's measured publish-latency distribution.
type DurableCell struct {
	Mode      string // "mem", "group", or "always"
	Published int
	Elapsed   time.Duration
	P50       time.Duration
	P99       time.Duration
	Max       time.Duration
	MsgsPer   float64 // acked publishes per second
}

// DurableResult is the three-mode outcome.
type DurableResult struct {
	Publishers int
	Cells      []DurableCell
}

// durableMode describes one sync discipline as broker/publisher knobs.
type durableMode struct {
	name     string
	durable  bool
	interval time.Duration // committer window; negative = per-record fsync
}

// RunDurable measures publish p99 under the three sync disciplines and,
// when opts.Gate is set, fails unless mem < group < always holds.
func RunDurable(cfg Config, opts DurableOptions) (*DurableResult, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	groupWindow := opts.FsyncInterval
	if groupWindow == 0 {
		groupWindow = broker.DefaultFsyncInterval
	}
	modes := []durableMode{
		{name: "mem"},
		{name: "group", durable: true, interval: groupWindow},
		{name: "always", durable: true, interval: -1},
	}
	res := &DurableResult{Publishers: opts.Publishers}
	for _, mode := range modes {
		cfg.progress("durable: mode=%s publishers=%d msgs=%d reps=%d",
			mode.name, opts.Publishers, opts.Messages, opts.Reps)
		var best DurableCell
		for rep := 0; rep < opts.Reps; rep++ {
			cell, err := runDurableCell(mode, opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: durable mode=%s: %w", mode.name, err)
			}
			if rep == 0 || cell.P99 < best.P99 {
				best = cell
			}
		}
		res.Cells = append(res.Cells, best)
	}
	if opts.Gate {
		if err := res.checkOrdering(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkOrdering enforces the plane's two claims on the measured p99s.
func (r *DurableResult) checkOrdering() error {
	byMode := map[string]DurableCell{}
	for _, c := range r.Cells {
		byMode[c.Mode] = c
	}
	mem, group, always := byMode["mem"], byMode["group"], byMode["always"]
	if !(mem.P99 < group.P99) {
		return fmt.Errorf("experiments: durable gate: mem p99 %v >= group p99 %v — durability came out free, which means it is not happening",
			mem.P99, group.P99)
	}
	if !(group.P99 < always.P99) {
		return fmt.Errorf("experiments: durable gate: group p99 %v >= always p99 %v at %d publishers — group commit is not amortizing the fsync",
			group.P99, always.P99, r.Publishers)
	}
	return nil
}

func runDurableCell(mode durableMode, opts DurableOptions) (DurableCell, error) {
	params := timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
	topics := make([]spec.Topic, opts.Publishers)
	for i := range topics {
		topics[i] = spec.Topic{
			ID:            spec.TopicID(i + 1),
			Category:      -1,
			Period:        20 * time.Millisecond,
			Deadline:      time.Second,
			LossTolerance: spec.LossUnbounded,
			Retention:     8,
			Destination:   spec.DestEdge,
			PayloadSize:   opts.PayloadSize,
		}
	}
	engineCfg := core.FRAMEConfig(params)

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	bopts := broker.Options{
		Engine:     engineCfg,
		Role:       broker.RolePrimary,
		ListenAddr: "primary",
		Network:    net,
		Clock:      clock,
		Topics:     topics,
		Logger:     quietLogger(),
	}
	var logDir string
	if mode.durable {
		dir, err := os.MkdirTemp(opts.LogDirRoot, "frame-bench-durable-*")
		if err != nil {
			return DurableCell{}, err
		}
		logDir = dir
		bopts.Durable = true
		bopts.LogDir = dir
		bopts.FsyncInterval = mode.interval
	}
	b, err := broker.New(bopts)
	if err != nil {
		if logDir != "" {
			os.RemoveAll(logDir)
		}
		return DurableCell{}, err
	}
	b.Start()
	defer func() {
		b.Stop()
		if logDir != "" {
			os.RemoveAll(logDir)
		}
	}()

	// One publisher per topic: sequence numbers are publisher-assigned, so
	// concurrency comes from connections, not goroutines sharing one.
	pubs := make([]*client.Publisher, opts.Publishers)
	for i := range pubs {
		pubs[i], err = client.NewPublisher(client.PublisherOptions{
			Name:        fmt.Sprintf("durable-pub-%d", i),
			Topics:      topics[i : i+1],
			PrimaryAddr: b.Addr(),
			Network:     net,
			Clock:       clock,
			Logger:      quietLogger(),
			DurableAcks: mode.durable,
			AckTimeout:  10 * time.Second,
		})
		if err != nil {
			return DurableCell{}, err
		}
		defer pubs[i].Close()
	}

	payload := make([]byte, opts.PayloadSize)
	lats := make([][]time.Duration, opts.Publishers)
	errs := make([]error, opts.Publishers)
	begin := time.Now()
	var wg sync.WaitGroup
	for i := range pubs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := make([]time.Duration, 0, opts.Messages)
			for n := 0; n < opts.Messages; n++ {
				t0 := time.Now()
				if _, err := pubs[i].Publish(topics[i].ID, payload); err != nil {
					errs[i] = err
					return
				}
				own = append(own, time.Since(t0))
			}
			lats[i] = own
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	for _, err := range errs {
		if err != nil {
			return DurableCell{}, err
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return DurableCell{
		Mode:      mode.name,
		Published: len(all),
		Elapsed:   elapsed,
		P50:       percentileDur(all, 50),
		P99:       percentileDur(all, 99),
		Max:       all[len(all)-1],
		MsgsPer:   float64(len(all)) / elapsed.Seconds(),
	}, nil
}

// Format renders the three modes as a table.
func (r *DurableResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Durable publish: p99 by sync discipline, %d concurrent publishers\n", r.Publishers)
	fmt.Fprintf(&sb, "%8s  %9s  %10s  %10s  %10s  %10s  %12s\n",
		"mode", "published", "elapsed", "p50", "p99", "max", "acks/sec")
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%8s  %9d  %10v  %10v  %10v  %10v  %12.0f\n",
			c.Mode, c.Published, c.Elapsed.Round(time.Millisecond),
			c.P50.Round(10*time.Microsecond), c.P99.Round(10*time.Microsecond),
			c.Max.Round(10*time.Microsecond), c.MsgsPer)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// WriteCSV stores one row per mode.
func (r *DurableResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "mode,publishers,published,elapsed_seconds,p50_us,p99_us,max_us,acks_per_sec"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.6f,%.1f,%.1f,%.1f,%.1f\n",
			c.Mode, r.Publishers, c.Published, c.Elapsed.Seconds(),
			float64(c.P50.Nanoseconds())/1e3, float64(c.P99.Nanoseconds())/1e3,
			float64(c.Max.Nanoseconds())/1e3, c.MsgsPer); err != nil {
			return err
		}
	}
	return nil
}
