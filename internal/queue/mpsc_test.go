package queue

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mpscSeed returns the property-test seed, overridable via FRAME_CHAOS_SEED
// the way the chaos and sharded-EDF property suites are. The seed is logged
// so a -race failure replays exactly.
func mpscSeed(t *testing.T) int64 {
	t.Helper()
	if env := os.Getenv("FRAME_CHAOS_SEED"); env != "" {
		if s, err := strconv.ParseInt(env, 0, 64); err == nil {
			t.Logf("mpsc property seed (from FRAME_CHAOS_SEED): %d", s)
			return s
		}
	}
	s := time.Now().UnixNano()
	t.Logf("mpsc property seed: %d (replay with FRAME_CHAOS_SEED=%d)", s, s)
	return s
}

type mpscRec struct {
	producer int
	seq      int
}

// TestMPSCPerProducerOrderAcrossWrap drives many producers through a ring
// far smaller than the message count, so every slot wraps dozens of times,
// and asserts the two MPSC safety properties at once: no value is lost or
// duplicated, and each producer's values arrive in the order it pushed
// them (per-producer FIFO — the property the broker's per-topic FIFO
// reduces to, since a topic's frames all arrive on one session goroutine).
func TestMPSCPerProducerOrderAcrossWrap(t *testing.T) {
	seed := mpscSeed(t)
	const (
		producers = 8
		perProd   = 5000
		capacity  = 16 // tiny on purpose: forces constant wrap + full-ring backoff
	)
	q := NewMPSC[mpscRec](capacity)
	p := NewParker()

	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(pr)))
			for i := 0; i < perProd; i++ {
				for !q.PushInPlace(func(r *mpscRec) { r.producer = pr; r.seq = i }) {
					// Ring full: let the consumer run.
					time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
				}
				p.Unpark()
			}
		}(pr)
	}

	got := make([][]int, producers)
	total := 0
	for total < producers*perProd {
		popped := false
		for q.PopInto(func(r *mpscRec) {
			got[r.producer] = append(got[r.producer], r.seq)
			total++
		}) {
			popped = true
		}
		if !popped {
			p.Park(func() bool { return !q.Empty() })
		}
	}
	wg.Wait()
	if !q.Empty() {
		t.Fatalf("ring not empty after consuming %d values", total)
	}
	for pr := range got {
		if len(got[pr]) != perProd {
			t.Fatalf("producer %d: %d values consumed, want %d (lost/duplicated slots)", pr, len(got[pr]), perProd)
		}
		for i, s := range got[pr] {
			if s != i {
				t.Fatalf("producer %d: value %d arrived at position %d (per-producer order broken)", pr, s, i)
			}
		}
	}
}

// TestMPSCFullRejectsWithoutFill checks the bounded contract: a full ring
// refuses the push (returning false, not calling fill) and accepts again
// after a pop.
func TestMPSCFullRejectsWithoutFill(t *testing.T) {
	q := NewMPSC[int](4)
	for i := 0; i < q.Cap(); i++ {
		if !q.PushInPlace(func(v *int) { *v = i }) {
			t.Fatalf("push %d rejected below capacity %d", i, q.Cap())
		}
	}
	filled := false
	if q.PushInPlace(func(v *int) { filled = true }) {
		t.Fatal("push accepted on a full ring")
	}
	if filled {
		t.Fatal("fill ran for a rejected push")
	}
	var v0 int
	if !q.PopInto(func(v *int) { v0 = *v }) || v0 != 0 {
		t.Fatalf("pop after full: got %d, want 0", v0)
	}
	if !q.PushInPlace(func(v *int) { *v = 99 }) {
		t.Fatal("push rejected after a pop freed a slot")
	}
	for want := 1; want < q.Cap(); want++ {
		var v int
		if !q.PopInto(func(p *int) { v = *p }) || v != want {
			t.Fatalf("drain: got %d, want %d", v, want)
		}
	}
	var v int
	if !q.PopInto(func(p *int) { v = *p }) || v != 99 {
		t.Fatalf("drain tail: got %d, want 99", v)
	}
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("ring should be empty: Len=%d", q.Len())
	}
}

// TestParkerNeverMissesWakeup hammers the exact race Park/Unpark must
// close: a producer publishes one item and unparks while the consumer is
// between "saw empty" and "asleep". Every round is a fresh handoff — the
// producer waits until its item is consumed before pushing the next — so a
// single missed wakeup deadlocks the round. A watchdog wakes a consumer
// that slept a second with work queued, and that rescue fails the test at
// once. Run with -race; the seed varies the producer's timing.
func TestParkerNeverMissesWakeup(t *testing.T) {
	seed := mpscSeed(t)
	const rounds = 20000
	q := NewMPSC[int](8)
	p := NewParker()
	var consumed atomic.Int64

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < rounds; i++ {
			q.PushInPlace(func(v *int) { *v = i }) // the ring is empty: the last item was consumed
			p.Unpark()
			for consumed.Load() <= int64(i) {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			// Vary when the next push lands in the consumer's walk to
			// Park: usually at once or after a yield, occasionally after
			// a real sleep (sleep granularity is ~1ms on loaded kernels,
			// so keep those rare).
			if rng.Intn(512) == 0 {
				time.Sleep(50 * time.Microsecond)
			} else if rng.Intn(4) == 0 {
				runtime.Gosched()
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	for next := 0; next < rounds; {
		if q.PopInto(func(v *int) {
			if *v != next {
				t.Errorf("out of order: got %d, want %d", *v, next)
			}
			next++
			consumed.Store(int64(next))
		}) {
			continue
		}
		parked := make(chan struct{})
		var missed atomic.Bool
		go func() {
			// Watchdog: the producer never stalls for a second, so a Park
			// still asleep then with an item queued missed its wakeup.
			select {
			case <-parked:
			case <-time.After(time.Second):
				missed.Store(!q.Empty())
				p.Unpark()
			}
		}()
		p.Park(func() bool { return !q.Empty() })
		close(parked)
		if missed.Load() {
			t.Fatalf("wakeup missed: the consumer slept with item %d of %d queued until the watchdog woke it", next, rounds)
		}
	}
}

// FuzzMPSCInterleaving replays fuzz-chosen producer/consumer schedules over
// a tiny ring and checks conservation (nothing lost, nothing duplicated,
// per-producer order). The schedule byte string is the fuzz vector: two
// bits pick the acting producer, the rest of the byte picks push-vs-pop
// weighting.
func FuzzMPSCInterleaving(f *testing.F) {
	f.Add([]byte{0x00, 0xff, 0x13, 0x7a, 0x55})
	f.Add([]byte("interleave"))
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) == 0 || len(schedule) > 4096 {
			return
		}
		const producers = 4
		q := NewMPSC[mpscRec](4)
		next := make([]int, producers)    // per-producer next seq to push
		wantSeq := make([]int, producers) // per-producer next seq to pop
		pushed, popped := 0, 0
		for _, b := range schedule {
			if b&0x4 == 0 {
				pr := int(b) % producers
				if q.PushInPlace(func(r *mpscRec) { r.producer = pr; r.seq = next[pr] }) {
					next[pr]++
					pushed++
				}
			} else {
				q.PopInto(func(r *mpscRec) {
					if r.seq != wantSeq[r.producer] {
						t.Fatalf("producer %d: got seq %d, want %d", r.producer, r.seq, wantSeq[r.producer])
					}
					wantSeq[r.producer]++
					popped++
				})
			}
		}
		for q.PopInto(func(r *mpscRec) {
			if r.seq != wantSeq[r.producer] {
				t.Fatalf("drain: producer %d got seq %d, want %d", r.producer, r.seq, wantSeq[r.producer])
			}
			wantSeq[r.producer]++
			popped++
		}) {
		}
		if pushed != popped {
			t.Fatalf("conservation: pushed %d, popped %d", pushed, popped)
		}
	})
}

// BenchmarkMPSCPushContended measures the producer-side cost under the
// contention shape the broker sees: GOMAXPROCS publisher goroutines
// hammering one lane's intake while a consumer drains.
func BenchmarkMPSCPushContended(b *testing.B) {
	q := NewMPSC[int](1024)
	p := NewParker()
	stop := make(chan struct{})
	var drained atomic.Uint64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !q.PopInto(func(*int) { drained.Add(1) }) {
				p.Park(func() bool { return !q.Empty() })
			}
		}
	}()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			for !q.PushInPlace(func(v *int) { *v = i }) {
			}
			p.Unpark()
			i++
		}
	})
	close(stop)
	p.Unpark()
	_ = fmt.Sprintf("%d", drained.Load())
}
