package sim

import "testing"

// Tests for the typed event API (At2/After2D): dispatch of the stored
// (obj, aux, arg) triple, interleaved ordering with closure events at
// equal timestamps, EventID cancel/recycle semantics across both APIs,
// and the zero-allocation property the API exists for.

type typedSink struct {
	calls []uint64
	objs  []any
	auxs  []any
}

func sinkRecord(obj, aux any, arg uint64) {
	s := obj.(*typedSink)
	s.calls = append(s.calls, arg)
	s.objs = append(s.objs, obj)
	s.auxs = append(s.auxs, aux)
}

// TestAt2DispatchesTriple checks the handler receives exactly the
// scheduled (obj, aux, arg) values.
func TestAt2DispatchesTriple(t *testing.T) {
	e := New(1)
	s := &typedSink{}
	aux := &struct{ x int }{7}
	e.At2(5*Nanosecond, sinkRecord, s, aux, 42)
	e.After2D(0, 10*Nanosecond, sinkRecord, s, nil, 43)
	e.Run()
	if len(s.calls) != 2 || s.calls[0] != 42 || s.calls[1] != 43 {
		t.Fatalf("args = %v, want [42 43]", s.calls)
	}
	if s.objs[0] != any(s) || s.auxs[0] != any(aux) || s.auxs[1] != nil {
		t.Fatal("obj/aux not delivered verbatim")
	}
}

// TestMixedTypedClosureOrderingAtEqualTime pins the cross-API ordering
// contract: at equal timestamps, events fire in scheduling order (seq)
// no matter which API scheduled each one. The per-packet migration to
// At2 relies on this for byte-identical experiment output.
func TestMixedTypedClosureOrderingAtEqualTime(t *testing.T) {
	e := New(1)
	var order []int
	rec := func(obj, _ any, arg uint64) { order = append(order, int(arg)) }
	at := 100 * Nanosecond
	e.At(at, func() { order = append(order, 0) })
	e.At2(at, rec, nil, nil, 1)
	e.At(at, func() { order = append(order, 2) })
	e.At2(at, rec, nil, nil, 3)
	e.At2(at, rec, nil, nil, 4)
	e.At(at, func() { order = append(order, 5) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v, want FIFO 0..5 across both APIs", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("executed %d events, want 6", len(order))
	}
}

// TestTypedCancelAfterRecycleSeqGuard mirrors the closure-API churn
// tests: a stale EventID from a fired typed event must be inert even
// when its struct has been recycled into a new occupant — including an
// occupant scheduled through the *other* API.
func TestTypedCancelAfterRecycleSeqGuard(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		e := New(uint64(trial + 1))
		var stale []EventID
		fired := 0
		count := func(obj, _ any, _ uint64) { fired++ }
		// Phase 1: typed events fire, populating the free list.
		for i := 0; i < 32; i++ {
			stale = append(stale, e.At2(Time(i)*Nanosecond, count, nil, nil, 0))
		}
		e.Run()
		if fired != 32 {
			t.Fatalf("trial %d: fired %d, want 32", trial, fired)
		}
		for i, id := range stale {
			if id.Pending() {
				t.Fatalf("trial %d: stale typed id %d still pending", trial, i)
			}
		}

		// Phase 2: recycled structs become new occupants, alternating
		// typed and closure scheduling. Stale IDs must not cancel them.
		ran := make([]bool, 32)
		markTyped := func(obj, _ any, arg uint64) { ran[arg] = true }
		fresh := make([]EventID, 32)
		for i := range fresh {
			if i%2 == 0 {
				fresh[i] = e.At2(e.Now()+Time(i+1)*Nanosecond, markTyped, nil, nil, uint64(i))
			} else {
				i := i
				fresh[i] = e.At(e.Now()+Time(i+1)*Nanosecond, func() { ran[i] = true })
			}
		}
		for i, id := range stale {
			if id.Cancel() {
				t.Fatalf("trial %d: stale typed id %d canceled a recycled occupant", trial, i)
			}
		}
		e.Run()
		for i, ok := range ran {
			if !ok {
				t.Fatalf("trial %d: fresh event %d never ran", trial, i)
			}
		}
	}
}

// TestTypedCancelPending checks a live typed event can be canceled and
// its canceled struct is recycled without dispatching.
func TestTypedCancelPending(t *testing.T) {
	e := New(3)
	ran := false
	mark := func(obj, _ any, _ uint64) { ran = true }
	id := e.At2(10*Nanosecond, mark, nil, nil, 0)
	if !id.Pending() {
		t.Fatal("typed event not pending after schedule")
	}
	if !id.Cancel() {
		t.Fatal("cancel of pending typed event failed")
	}
	e.Run()
	if ran {
		t.Fatal("canceled typed event dispatched")
	}
	if id.Cancel() {
		t.Fatal("second cancel succeeded")
	}
}

// TestRecycleClearsTypedReferences verifies recycled structs drop their
// obj/aux/handler references so the free list never pins receivers or
// packets for the GC.
func TestRecycleClearsTypedReferences(t *testing.T) {
	e := New(5)
	s := &typedSink{}
	id := e.At2(Nanosecond, sinkRecord, s, s, 1)
	e.Run()
	ev := id.ev
	if ev.h != nil || ev.obj != nil || ev.aux != nil {
		t.Fatal("recycled event still references handler/obj/aux")
	}
}

// TestAt2ZeroAllocSteadyState pins the property the typed API exists
// for: rescheduling typed events through a warmed-up engine allocates
// nothing.
func TestAt2ZeroAllocSteadyState(t *testing.T) {
	e := New(9)
	step := func(obj, _ any, _ uint64) {}
	// Warm the free list.
	for i := 0; i < 64; i++ {
		e.At2(e.Now()+Time(i+1)*Nanosecond, step, e, nil, 0)
	}
	e.Run()
	avg := testing.AllocsPerRun(100, func() {
		e.At2(e.Now()+Nanosecond, step, e, nil, 7)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state At2 allocates %v objects per schedule, want 0", avg)
	}
}
