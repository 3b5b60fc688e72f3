package ringbuf

import (
	"testing"
	"testing/quick"
)

func TestPushGetWithinCapacity(t *testing.T) {
	r := New[string](4)
	idxA, ev := r.Push("a")
	if ev {
		t.Error("unexpected eviction on first push")
	}
	idxB, _ := r.Push("b")
	if idxA != 0 || idxB != 1 {
		t.Fatalf("indices = %d, %d; want 0, 1", idxA, idxB)
	}
	if v, ok := r.Get(idxA); !ok || v != "a" {
		t.Errorf("Get(0) = %q, %v; want a, true", v, ok)
	}
	if v, ok := r.Get(idxB); !ok || v != "b" {
		t.Errorf("Get(1) = %q, %v; want b, true", v, ok)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestPushEvictsOldest(t *testing.T) {
	r := New[int](3)
	for i := 0; i < 3; i++ {
		r.Push(i * 10)
	}
	idx, ev := r.Push(30)
	if !ev {
		t.Error("push into full ring did not report eviction")
	}
	if idx != 3 {
		t.Errorf("new index = %d, want 3", idx)
	}
	if _, ok := r.Get(0); ok {
		t.Error("evicted entry still readable")
	}
	for i := uint64(1); i <= 3; i++ {
		v, ok := r.Get(i)
		if !ok || v != int(i)*10 {
			t.Errorf("Get(%d) = %d, %v; want %d, true", i, v, ok, i*10)
		}
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestSetAndUpdate(t *testing.T) {
	r := New[int](2)
	idx, _ := r.Push(1)
	if !r.Set(idx, 5) {
		t.Fatal("Set on live index failed")
	}
	if v, _ := r.Get(idx); v != 5 {
		t.Errorf("after Set, Get = %d, want 5", v)
	}
	if !r.Update(idx, func(p *int) { *p += 2 }) {
		t.Fatal("Update on live index failed")
	}
	if v, _ := r.Get(idx); v != 7 {
		t.Errorf("after Update, Get = %d, want 7", v)
	}
	if r.Set(99, 0) {
		t.Error("Set on unknown index succeeded")
	}
	if r.Update(99, func(*int) {}) {
		t.Error("Update on unknown index succeeded")
	}
}

func TestPopOldest(t *testing.T) {
	r := New[int](3)
	if _, ok := r.PopOldest(); ok {
		t.Error("PopOldest on empty ring succeeded")
	}
	r.Push(1)
	r.Push(2)
	if v, ok := r.PopOldest(); !ok || v != 1 {
		t.Errorf("PopOldest = %d, %v; want 1, true", v, ok)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if r.FirstIndex() != 1 {
		t.Errorf("FirstIndex = %d, want 1", r.FirstIndex())
	}
}

func TestClearPreservesIndexProgression(t *testing.T) {
	r := New[int](3)
	r.Push(1)
	r.Push(2)
	r.Clear()
	if r.Len() != 0 {
		t.Fatalf("Len after Clear = %d, want 0", r.Len())
	}
	idx, _ := r.Push(3)
	if idx != 2 {
		t.Errorf("index after Clear = %d, want 2", idx)
	}
}

func TestSnapshotAndDoOrder(t *testing.T) {
	r := New[int](3)
	for i := 0; i < 5; i++ { // wraps: retains 2,3,4
		r.Push(i)
	}
	snap := r.Snapshot()
	want := []int{2, 3, 4}
	if len(snap) != len(want) {
		t.Fatalf("snapshot len = %d, want %d", len(snap), len(want))
	}
	for i, w := range want {
		if snap[i] != w {
			t.Errorf("snapshot[%d] = %d, want %d", i, snap[i], w)
		}
	}
	var idxs []uint64
	var vals []int
	r.Do(func(idx uint64, v int) {
		idxs = append(idxs, idx)
		vals = append(vals, v)
	})
	for i := range vals {
		if vals[i] != want[i] || idxs[i] != uint64(i+2) {
			t.Errorf("Do[%d] = (%d,%d), want (%d,%d)", i, idxs[i], vals[i], i+2, want[i])
		}
	}
}

func TestNextIndex(t *testing.T) {
	r := New[int](2)
	if r.NextIndex() != 0 {
		t.Errorf("NextIndex = %d, want 0", r.NextIndex())
	}
	for i := 0; i < 5; i++ {
		idx, _ := r.Push(i)
		if idx != uint64(i) {
			t.Errorf("Push %d got index %d", i, idx)
		}
		if r.NextIndex() != uint64(i+1) {
			t.Errorf("NextIndex after %d pushes = %d", i+1, r.NextIndex())
		}
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 did not panic")
		}
	}()
	New[int](0)
}

// TestRingRetainsMostRecentProperty: after any sequence of pushes, the ring
// retains exactly the min(total, capacity) most recent values, in order, and
// indices are a contiguous range ending at total-1.
func TestRingRetainsMostRecentProperty(t *testing.T) {
	f := func(vals []int, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		r := New[int](capacity)
		for _, v := range vals {
			r.Push(v)
		}
		n := len(vals)
		keep := n
		if keep > capacity {
			keep = capacity
		}
		if r.Len() != keep {
			return false
		}
		snap := r.Snapshot()
		for i := 0; i < keep; i++ {
			if snap[i] != vals[n-keep+i] {
				return false
			}
		}
		// Every retained index maps to the right value; evicted indices miss.
		for i := 0; i < n; i++ {
			v, ok := r.Get(uint64(i))
			retained := i >= n-keep
			if ok != retained {
				return false
			}
			if ok && v != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRingPush(b *testing.B) {
	r := New[[16]byte](1024)
	var payload [16]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(payload)
	}
}

// TestPushInPlaceMatchesPush: PushInPlace must advance indices, evictions,
// and contents exactly like Push — it only changes who writes the slot.
func TestPushInPlaceMatchesPush(t *testing.T) {
	a, b := New[int](3), New[int](3)
	for i := 0; i < 7; i++ {
		v := i * 10
		idxA, evA := a.Push(v)
		idxB, evB := b.PushInPlace(func(slot *int) { *slot = v })
		if idxA != idxB || evA != evB {
			t.Fatalf("push %d: Push = (%d, %v), PushInPlace = (%d, %v)", i, idxA, evA, idxB, evB)
		}
	}
	if a.Len() != b.Len() || a.FirstIndex() != b.FirstIndex() {
		t.Fatalf("rings diverged: len %d/%d first %d/%d", a.Len(), b.Len(), a.FirstIndex(), b.FirstIndex())
	}
	for i := a.FirstIndex(); i < a.NextIndex(); i++ {
		va, _ := a.Get(i)
		vb, ok := b.Get(i)
		if !ok || va != vb {
			t.Errorf("Get(%d) = %d vs %d (ok=%v)", i, va, vb, ok)
		}
	}
}

// TestPushInPlaceExposesEvictedValue: fill receives the slot still holding
// the evicted entry, so callers can harvest its allocations before
// overwriting — the contract the engine's payload recycling relies on.
func TestPushInPlaceExposesEvictedValue(t *testing.T) {
	r := New[[]byte](2)
	r.Push(append(make([]byte, 0, 128), 'a'))
	r.Push([]byte{'b'})
	var harvested int
	idx, evicted := r.PushInPlace(func(slot *[]byte) {
		harvested = cap(*slot) // the evicted 'a' entry's storage
		*slot = append((*slot)[:0], 'c')
	})
	if !evicted || idx != 2 {
		t.Fatalf("idx, evicted = %d, %v; want 2, true", idx, evicted)
	}
	if harvested != 128 {
		t.Errorf("fill saw cap %d, want the evicted slot's 128", harvested)
	}
	if v, ok := r.Get(2); !ok || string(v) != "c" || cap(v) != 128 {
		t.Errorf("Get(2) = %q (cap %d, ok=%v), want reused 128-cap storage", v, cap(v), ok)
	}
	if _, ok := r.Get(0); ok {
		t.Error("evicted index still readable")
	}
}

// ringSink makes New's result escape, so its header is always one heap
// allocation.
var ringSink *Ring[[72]byte]

// TestSlotsAllocatedOnFirstPush pins the footprint of an unused ring: New
// allocates the header only, every read of a never-pushed ring works without
// the slot array, and the array appears on the first Push or PushInPlace.
func TestSlotsAllocatedOnFirstPush(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { ringSink = New[[72]byte](16) }); avg > 1 {
		t.Errorf("New allocates %.0f times, want only the header", avg)
	}
	for name, push := range map[string]func(*Ring[int]){
		"Push":        func(r *Ring[int]) { r.Push(7) },
		"PushInPlace": func(r *Ring[int]) { r.PushInPlace(func(v *int) { *v = 7 }) },
	} {
		r := New[int](4)
		if r.Allocated() || r.buf != nil {
			t.Fatalf("%s: a new ring holds its slot array", name)
		}
		if r.Capacity() != 4 || r.Len() != 0 || r.Contains(0) || r.Update(0, func(*int) {}) ||
			len(r.Snapshot()) != 0 || r.NextIndex() != 0 {
			t.Fatalf("%s: a never-pushed ring is not empty", name)
		}
		if _, ok := r.Get(0); ok {
			t.Fatalf("%s: Get on a never-pushed ring found an entry", name)
		}
		r.Do(func(uint64, int) { t.Fatalf("%s: Do visited a never-pushed ring", name) })
		r.Clear()
		if _, ok := r.PopOldest(); ok || r.Allocated() {
			t.Fatalf("%s: reads allocated the slot array", name)
		}
		push(r)
		if !r.Allocated() || len(r.buf) != 4 {
			t.Fatalf("%s: slot array after the first push = %d slots, want 4", name, len(r.buf))
		}
		if v, ok := r.Get(0); !ok || v != 7 {
			t.Fatalf("%s: Get(0) = %d, %v after the first push", name, v, ok)
		}
	}
}
