package client

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/spec"
	"repro/internal/wire"
)

// TestDeliveryLogFootprint pins what a subscriber pays per topic: the
// record is the dedup bitmap and four counters, and the records of 10,000
// topics live in one slice and its slot index, a few MB in all.
func TestDeliveryLogFootprint(t *testing.T) {
	if size := unsafe.Sizeof(topicLog{}); size > 192 {
		t.Errorf("topicLog is %d B, want at most 192", size)
	}
	const topics = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	log := NewDeliveryLog()
	for id := spec.TopicID(0); id < topics; id++ {
		log.Record(id, 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d topics: %d B per record, %.2f MB of heap", topics, unsafe.Sizeof(topicLog{}), float64(grew)/(1<<20))
	if grew >= 3<<20 {
		t.Errorf("a log of %d topics holds %.1f MB of heap, want < 3 MB", topics, float64(grew)/(1<<20))
	}
	if got := log.Received(topics - 1); got != 1 {
		t.Errorf("last topic received %d, want 1", got)
	}
	runtime.KeepAlive(log)
}

// BenchmarkSubscriberDeliver is the receive path's per-delivery cost in the
// fanout_small shape: 8 subscribers, each subscribed to 500 topics, fed
// dispatches round-robin over subscribers and topics, with every topic's
// log created before timing.
func BenchmarkSubscriberDeliver(b *testing.B) {
	const subs, topics = 8, 500
	delivered := 0
	clk := clock()
	ss := make([]*Subscriber, subs)
	for i := range ss {
		ss[i] = &Subscriber{delivered: NewDeliveryLog()}
		ss[i].opts.Clock = clk
		ss[i].opts.OnDeliver = func(Delivery) { delivered++ }
	}
	f := &wire.Frame{Type: wire.TypeDispatch, Msg: wire.Message{Payload: make([]byte, 64)}}
	deliver := func(i int) {
		k := i / subs
		f.Msg.Topic = spec.TopicID(k % topics)
		f.Msg.Seq = uint64(k/topics) + 1
		ss[i%subs].onDispatch(f, "broker")
	}
	for i := 0; i < subs*topics; i++ {
		deliver(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(subs*topics + i)
	}
	b.StopTimer()
	if want := subs*topics + b.N; delivered != want {
		b.Fatalf("delivered %d of %d", delivered, want)
	}
}
