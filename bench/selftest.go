package main

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/transport"
)

// selfTest checks the rig, not the system: that the bytes it claims to move
// cross the loopback interface, and that a delay injected into one layer
// shows up in the end-to-end latency and is named by that layer's span.
func selfTest(seed int64, outDir string) error {
	if err := bytesCheck(seed, outDir); err != nil {
		return err
	}
	return sensitivityCheck(seed, outDir)
}

// bytesCheck compares the loopback interface's byte counter over a
// flood_large window with payload x (published + delivered): every message
// crosses lo once on its way in and once per subscriber on its way out. The
// excess over 1.0 is frame, TCP and IP headers and acknowledgements.
func bytesCheck(seed int64, outDir string) error {
	w, err := newWorkload("flood_large")
	if err != nil {
		return err
	}
	res, err := execute(runConfig{w: w, seed: seed, seconds: 6, outDir: outDir, since: time.Now()})
	if err != nil {
		return err
	}
	if res.checkErr != nil || res.failed > 0 {
		return fmt.Errorf("bytes check: flood_large failed its own checks: %v, %d failed", res.checkErr, res.failed)
	}
	payload := int64(w.topics[0].PayloadSize)
	claimed := payload * (res.published + res.delivered)
	ratio := float64(res.loBytes) / float64(claimed)
	fmt.Printf("selftest bytes: lo carried %d bytes for %d published + %d delivered messages of %d B: ratio %.4f (want 1.0 to 1.3)\n",
		res.loBytes, res.published, res.delivered, payload, ratio)
	if ratio < 1.0 || ratio > 1.3 {
		return fmt.Errorf("bytes check: ratio %.4f outside [1.0, 1.3]: the rig does not move the payload it reports", ratio)
	}
	return nil
}

const injectedDelay = 2 * time.Millisecond

// sensitivityCheck runs fanout_small traced, then again with every
// broker->subscriber frame delayed by injectedDelay, and requires the delay
// to appear in lat_p50_us and at least four fifths of it in
// span.egress_to_client. It runs half of the workload's topics, 40k frames a
// second: the injector parses, queues and times every frame in user space,
// and at 160k frames a second that work alone overloaded a 2-core box and
// stretched every span.
func sensitivityCheck(seed int64, outDir string) error {
	w := fanoutSmall(fanoutTopics / 2)
	cfg := runConfig{w: w, seed: seed, seconds: 10, trace: true, outDir: outDir, since: time.Now()}
	base, err := execute(cfg)
	if err != nil {
		return err
	}
	cfg.since = time.Now()
	cfg.wrapNet = func(inner transport.Network) (brokerNet, subNet transport.Network) {
		fi := faultinject.New(inner, seed)
		// Frames pipeline: each arrives injectedDelay late, still in order.
		fi.SetLink("broker", "sub", faultinject.Faults{Latency: injectedDelay})
		return fi.Node("broker"), fi.Node("sub")
	}
	slow, err := execute(cfg)
	if err != nil {
		return err
	}
	for _, r := range []*result{base, slow} {
		if r.checkErr != nil || r.failed > 0 {
			return fmt.Errorf("sensitivity check: fanout_small failed its own checks: %v, %d failed", r.checkErr, r.failed)
		}
	}
	// The injector wraps the connection on the subscriber's side, where it
	// delays what the subscriber reads. The broker's accepted sockets stay
	// plain TCP with a file descriptor, so its kernel-batched write path is
	// the one that carried these frames.
	fmt.Printf("selftest sensitivity: delay injected on the subscribers' read side; broker egress uring_active=%.0f\n",
		slow.values["transport.uring_active"])
	rise := slow.values["lat_p50_us"] - base.values["lat_p50_us"]
	inSpan := slow.values["span.egress_to_client_p50_us"] - base.values["span.egress_to_client_p50_us"]
	fmt.Printf("selftest sensitivity: lat_p50_us %.0f -> %.0f (+%.0f us for %v injected), span.egress_to_client_p50_us %.0f -> %.0f (+%.0f us, %.0f%% of the rise)\n",
		base.values["lat_p50_us"], slow.values["lat_p50_us"], rise, injectedDelay,
		base.values["span.egress_to_client_p50_us"], slow.values["span.egress_to_client_p50_us"], inSpan, 100*inSpan/rise)
	for _, c := range childNames {
		fmt.Printf("  span.%-18s p50 %9.1f -> %9.1f us\n", c, base.values["span."+c+"_p50_us"], slow.values["span."+c+"_p50_us"])
	}
	if rise < 1500 || rise > 3500 {
		return fmt.Errorf("sensitivity check: lat_p50_us rose by %.0f us, want 1500 to 3500", rise)
	}
	if inSpan < 0.8*rise {
		return fmt.Errorf("sensitivity check: only %.0f%% of the rise landed in span.egress_to_client", 100*inSpan/rise)
	}
	return nil
}
