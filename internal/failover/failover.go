// Package failover implements FRAME's crash-failure detection and
// promotion triggering (§IV-A: "The Backup tracks the status of its Primary
// via periodic polling, and would become a new Primary once it detected
// that its Primary had crashed").
//
// The detector is deliberately simple — fail-stop crashes, bounded-latency
// interconnect between brokers (§III-B assumptions) — so a fixed polling
// period with a consecutive-miss threshold is sound. Publishers run the
// same detector against the Primary to decide when to redirect traffic and
// re-send their retained messages; the publisher fail-over time x is then
// bounded by Period·Misses + Timeout + redirect cost, which is how
// deployments derive the x they feed into Lemma 1.
package failover

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes the detector.
type Config struct {
	// Period is the polling interval.
	Period time.Duration
	// Timeout bounds one probe round trip.
	Timeout time.Duration
	// Misses is how many consecutive probe failures declare a crash.
	Misses int
}

// DefaultConfig returns a detector tuning whose worst-case detection time
// (Period·Misses + Timeout ≈ 25 ms) sits well inside the paper's 50 ms
// fail-over budget.
func DefaultConfig() Config {
	return Config{Period: 5 * time.Millisecond, Timeout: 10 * time.Millisecond, Misses: 3}
}

// Validate checks the tuning.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("failover: period %v must be positive", c.Period)
	}
	if c.Timeout <= 0 {
		return fmt.Errorf("failover: timeout %v must be positive", c.Timeout)
	}
	if c.Misses <= 0 {
		return fmt.Errorf("failover: misses %d must be positive", c.Misses)
	}
	return nil
}

// WorstCaseDetection returns the longest interval between a crash and the
// detector firing: the crash can land right after a successful probe, then
// Misses probes must each time out.
func (c Config) WorstCaseDetection() time.Duration {
	return time.Duration(c.Misses)*c.Period + c.Timeout
}

// Probe performs one liveness check, returning nil if the peer is alive.
// Implementations must respect the context deadline.
type Probe func(ctx context.Context) error

// Detector polls a peer and fires a callback on suspected crash. Create
// with New, start with Run; it stops after firing or when the context ends.
type Detector struct {
	cfg     Config
	probe   Probe
	onCrash func()
	onProbe func(err error)

	mu     sync.Mutex
	misses int
	probes uint64
	fired  bool
}

// New returns a detector. onCrash runs at most once, from Run's goroutine.
func New(cfg Config, probe Probe, onCrash func()) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if probe == nil {
		return nil, errors.New("failover: nil probe")
	}
	if onCrash == nil {
		return nil, errors.New("failover: nil onCrash")
	}
	return &Detector{cfg: cfg, probe: probe, onCrash: onCrash}, nil
}

// SetOnProbe registers an observability callback invoked with each probe
// result (nil on success) before it is folded into the miss counter. Must
// be called before Run; the callback runs on Run's goroutine.
func (d *Detector) SetOnProbe(f func(err error)) { d.onProbe = f }

// Run polls until the context is canceled or a crash is declared. It
// returns context.Canceled on cancellation and nil after firing onCrash.
func (d *Detector) Run(ctx context.Context) error {
	ticker := time.NewTicker(d.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		probeCtx, cancel := context.WithTimeout(ctx, d.cfg.Timeout)
		err := d.probe(probeCtx)
		cancel()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if d.onProbe != nil {
			d.onProbe(err)
		}
		if d.observe(err) {
			d.onCrash()
			return nil
		}
	}
}

// observe folds one probe result into the miss counter and reports whether
// the crash threshold was reached.
func (d *Detector) observe(err error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.probes++
	if d.fired {
		return false
	}
	if err == nil {
		d.misses = 0
		return false
	}
	d.misses++
	if d.misses >= d.cfg.Misses {
		d.fired = true
		return true
	}
	return false
}

// Probes returns how many probes have completed (for tests and metrics).
func (d *Detector) Probes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.probes
}

// Fired reports whether the detector has declared a crash.
func (d *Detector) Fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// ConnProbe returns a Probe that performs a Poll/PollReply round trip on a
// dedicated framed connection. The connection must not be shared with other
// readers. A nil error means the peer answered the matching nonce.
func ConnProbe(conn *transport.Conn) Probe {
	// One request and one reply frame for the life of the probe: a detector
	// polls hundreds of times a second and must not allocate per round trip.
	poll := wire.Frame{Type: wire.TypePoll}
	var reply wire.Frame
	return func(ctx context.Context) error {
		poll.Nonce++
		deadline, ok := ctx.Deadline()
		if !ok {
			deadline = time.Now().Add(time.Second)
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			return fmt.Errorf("failover: set deadline: %w", err)
		}
		if err := conn.Send(&poll); err != nil {
			return fmt.Errorf("failover: poll send: %w", err)
		}
		for {
			if err := conn.RecvInto(&reply); err != nil {
				return fmt.Errorf("failover: poll recv: %w", err)
			}
			if reply.Type == wire.TypePollReply && reply.Nonce == poll.Nonce {
				return nil
			}
		}
	}
}
