package sim

import "testing"

// These tests pound on the EventID cancel/recycling semantics under
// heavy churn. The engine recycles event structs through a free list,
// so an EventID is only valid while (struct pointer, seq) still match;
// a stale ID whose event already fired — or was canceled — must never
// affect the unrelated event that now occupies the recycled struct.

// TestStaleIDsUnderHeavyChurn drives many schedule/fire/cancel rounds
// so every event struct is recycled many times over, then verifies that
// a hoard of stale IDs can neither cancel nor report-pending any of the
// recycled events now occupying their structs.
func TestStaleIDsUnderHeavyChurn(t *testing.T) {
	eng := New(1)
	const rounds = 200
	const batch = 64 // > free-list reuse window per round

	var stale []EventID
	fired := 0
	for r := 0; r < rounds; r++ {
		ids := make([]EventID, batch)
		for i := range ids {
			ids[i] = eng.After(Duration(i+1)*Nanosecond, func() { fired++ })
		}
		// Cancel a third before they run; their structs go back to the
		// free list when popped.
		for i := 0; i < batch; i += 3 {
			if !ids[i].Cancel() {
				t.Fatalf("round %d: fresh cancel of ids[%d] failed", r, i)
			}
		}
		eng.Run()
		stale = append(stale, ids...)
		// Keep the hoard bounded but spanning many recycle generations.
		if len(stale) > 8*batch {
			stale = stale[len(stale)-8*batch:]
		}
		// Every stale ID must now be inert.
		for i, id := range stale {
			if id.Pending() {
				t.Fatalf("round %d: stale[%d].Pending() = true", r, i)
			}
			if id.Cancel() {
				t.Fatalf("round %d: stale[%d].Cancel() succeeded on a dead event", r, i)
			}
		}
	}
	wantFired := rounds * (batch - (batch+2)/3)
	if fired != wantFired {
		t.Errorf("fired %d events, want %d", fired, wantFired)
	}
}

// TestStaleIDMustNotCancelRecycledOccupant reproduces the sharpest
// hazard: fire event A so its struct is recycled into new event B, then
// call Cancel through A's stale ID while B is still pending. B must
// still run.
func TestStaleIDMustNotCancelRecycledOccupant(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		eng := New(uint64(trial + 1))
		var stale []EventID
		// Phase 1: a burst of events that all fire, populating the free
		// list with their recycled structs.
		for i := 0; i < 32; i++ {
			stale = append(stale, eng.After(Duration(i)*Nanosecond, func() {}))
		}
		eng.Run()

		// Phase 2: new events reuse those structs.
		ran := make([]bool, 32)
		fresh := make([]EventID, 32)
		for i := range fresh {
			i := i
			fresh[i] = eng.After(Duration(i)*Nanosecond, func() { ran[i] = true })
		}
		// Attack: every stale ID tries to cancel. None may succeed.
		for i, id := range stale {
			if id.Cancel() {
				t.Fatalf("trial %d: stale[%d] canceled a recycled occupant", trial, i)
			}
		}
		eng.Run()
		for i, ok := range ran {
			if !ok {
				t.Fatalf("trial %d: fresh event %d never ran", trial, i)
			}
		}
	}
}

// TestDoubleCancelAcrossRecycle checks that canceling twice — once
// legitimately, once after the struct has been recycled into a new
// pending event — doesn't break the new occupant.
func TestDoubleCancelAcrossRecycle(t *testing.T) {
	eng := New(7)
	id := eng.After(Nanosecond, func() { t.Error("canceled event ran") })
	if !id.Cancel() {
		t.Fatal("first cancel failed")
	}
	eng.Run() // pops the canceled event, recycling its struct

	ran := false
	fresh := eng.After(Nanosecond, func() { ran = true })
	if id.Cancel() {
		t.Error("second cancel succeeded after recycle")
	}
	if !fresh.Pending() {
		t.Error("fresh event lost pending state")
	}
	eng.Run()
	if !ran {
		t.Error("fresh event did not run")
	}
}

// TestCancelInsideHandlerUnderChurn cancels events from within running
// handlers — the pattern the protocol state machines use (timers
// canceling timers) — and checks none of the canceled ones execute even
// when their structs are under active recycling pressure.
func TestCancelInsideHandlerUnderChurn(t *testing.T) {
	eng := New(3)
	const n = 500
	ran := make([]bool, n)
	ids := make([]EventID, n)
	for i := 0; i < n; i++ {
		i := i
		ids[i] = eng.At(Time(1000+i), func() {
			ran[i] = true
			// Each handler cancels its successor and schedules a decoy
			// to churn the free list.
			if i+1 < n {
				ids[i+1].Cancel()
			}
			eng.After(Nanosecond, func() {})
		})
	}
	eng.Run()
	for i := 0; i < n; i++ {
		want := i%2 == 0 // each even event cancels the next odd one
		if ran[i] != want {
			t.Fatalf("ran[%d] = %v, want %v", i, ran[i], want)
		}
	}
}

// TestPendingTracksLifecycle checks Pending across the full life of an
// ID: scheduled → fired → struct recycled → new occupant pending.
func TestPendingTracksLifecycle(t *testing.T) {
	eng := New(9)
	id := eng.After(Nanosecond, func() {})
	if !id.Pending() {
		t.Error("freshly scheduled event not pending")
	}
	eng.Run()
	if id.Pending() {
		t.Error("fired event still pending")
	}
	fresh := eng.After(Nanosecond, func() {})
	if id.Pending() {
		t.Error("stale ID reports pending for recycled occupant")
	}
	if !fresh.Pending() {
		t.Error("fresh occupant not pending")
	}
	eng.Run()
}

// TestMaxPendingHighWaterMark pins the MaxPending instrumentation: it
// must capture the peak depth even after the heap drains.
func TestMaxPendingHighWaterMark(t *testing.T) {
	eng := New(5)
	for i := 0; i < 37; i++ {
		eng.After(Duration(i+1)*Nanosecond, func() {})
	}
	if got := eng.MaxPending(); got != 37 {
		t.Errorf("MaxPending = %d before run, want 37", got)
	}
	eng.Run()
	if eng.Pending() != 0 {
		t.Error("heap not drained")
	}
	if got := eng.MaxPending(); got != 37 {
		t.Errorf("MaxPending = %d after run, want 37 (high-water mark)", got)
	}
}
