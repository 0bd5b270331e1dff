package sim

import "testing"

// These tests pin down the engine's event-recycling behaviour at the
// Run/RunUntil boundary: canceled heads must be drained and recycled
// without executing, and the free list must retain and reuse every
// struct so large heaps never leak recycles to the garbage collector.

// TestRunUntilRecyclesCanceledHeadAtDeadline cancels the only pending
// event and asks RunUntil to stop before the event's timestamp. The
// canceled head must still be drained and recycled — not left pending —
// and must not execute or advance the clock past the deadline.
func TestRunUntilRecyclesCanceledHeadBeyondDeadline(t *testing.T) {
	e := New(1)
	fired := false
	id := e.At(100*Microsecond, func() { fired = true })
	id.Cancel()
	e.RunUntil(10 * Microsecond)
	if fired {
		t.Fatal("canceled event executed")
	}
	if e.Pending() != 0 {
		t.Fatalf("canceled head still pending: %d events", e.Pending())
	}
	if got := e.Executed(); got != 0 {
		t.Fatalf("Executed() = %d after canceled-only run, want 0", got)
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("clock at %v, want deadline 10µs", e.Now())
	}
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events, want the 1 recycled cancel", len(e.free))
	}
}

// TestRunUntilReusesRecycledCanceledHead checks identity: the struct
// recycled from a canceled head must be handed back by the next At.
func TestRunUntilReusesRecycledCanceledHead(t *testing.T) {
	e := New(1)
	id := e.At(50*Microsecond, func() {})
	canceledEv := id.ev
	id.Cancel()
	e.RunUntil(1 * Microsecond) // drains + recycles the canceled head
	id2 := e.At(60*Microsecond, func() {})
	if id2.ev != canceledEv {
		t.Fatal("At did not reuse the recycled canceled-head struct")
	}
	if id.Cancel() {
		t.Fatal("stale ID canceled the recycled struct's new occupant")
	}
	if !id2.Pending() {
		t.Fatal("new event lost its pending state")
	}
}

// TestFreeListScalesWithMaxHeap churns far more events than a fixed
// 4096-struct cap would hold through a mix of Run and RunUntil chunks
// and requires (a) every recycle to be retained, so Table 3-scale heaps
// never leak recycled structs to the GC, and (b) structs to keep being
// reused (the free list drains as At claims from it).
func TestFreeListScalesWithMaxHeap(t *testing.T) {
	const burst = 3 * 4096 // well past the old fixed cap
	e := New(1)
	// Phase 1: schedule one big burst at distinct times and run it all.
	// Peak heap = burst, so every struct must come back to the free list
	// and none may be dropped.
	for i := 0; i < burst; i++ {
		e.At(Time(i)*Nanosecond, func() {})
	}
	e.Run()
	if len(e.free) != burst {
		t.Fatalf("after Run: free list %d, want all %d recycles retained", len(e.free), burst)
	}
	if got := e.Stats().FreeList; got != len(e.free) {
		t.Fatalf("Stats().FreeList = %d, want %d", got, len(e.free))
	}

	// Phase 2: claim half the free list back without running anything;
	// the structs must come from the free list, not fresh allocations.
	base := e.Now()
	for i := 0; i < burst/2; i++ {
		e.At(base+Time(i+1)*Microsecond, func() {})
	}
	if len(e.free) != burst/2 {
		t.Fatalf("free list %d after %d claims, want %d — At is not reusing",
			len(e.free), burst/2, burst/2)
	}

	// Phase 3: run them in RunUntil chunks that split the pending set;
	// the free list refills.
	for e.Pending() > 0 {
		e.RunUntil(e.Now() + 100*Microsecond)
	}
	if len(e.free) != burst {
		t.Fatalf("after chunked RunUntil: free list %d, want %d", len(e.free), burst)
	}

	// Phase 4: cancel a heap's worth of events and drain them through
	// RunUntil; canceled recycles are retained too.
	ids := make([]EventID, burst/2)
	for i := range ids {
		ids[i] = e.At(e.Now()+Time(i+1)*Nanosecond, func() {})
	}
	for _, id := range ids {
		if !id.Cancel() {
			t.Fatal("cancel of pending event failed")
		}
	}
	before := e.Executed()
	e.RunUntil(e.Now() + Millisecond)
	if got := e.Executed() - before; got != 0 {
		t.Fatalf("%d canceled events executed", got)
	}
	if len(e.free) != burst {
		t.Fatalf("after canceled drain: free list %d, want %d", len(e.free), burst)
	}
}

// TestRunUntilStopsAtLiveHeadAfterCanceledPrefix interleaves canceled
// and live events around the deadline: RunUntil must discard the
// canceled prefix, execute the live events inside the window, and leave
// the first live event past the deadline untouched.
func TestRunUntilStopsAtLiveHeadAfterCanceledPrefix(t *testing.T) {
	e := New(1)
	var order []int
	e.At(5*Microsecond, func() { order = append(order, 5) }).Cancel()
	e.At(6*Microsecond, func() { order = append(order, 6) })
	e.At(15*Microsecond, func() { order = append(order, 15) }).Cancel()
	late := false
	e.At(20*Microsecond, func() { late = true })
	e.RunUntil(10 * Microsecond)
	if len(order) != 1 || order[0] != 6 {
		t.Fatalf("executed %v, want just [6]", order)
	}
	if late {
		t.Fatal("event beyond deadline executed")
	}
	if e.Pending() != 2 {
		// The canceled 15µs head is only discarded lazily once it
		// reaches the heap top within a run window; it may still be
		// pending here alongside the live 20µs event.
		if e.Pending() != 1 {
			t.Fatalf("pending = %d, want the 20µs event (+ maybe canceled 15µs)", e.Pending())
		}
	}
	e.RunUntil(30 * Microsecond)
	if !late {
		t.Fatal("20µs event never ran")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", e.Pending())
	}
}
