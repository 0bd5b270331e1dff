package sim

import (
	"slices"
	"testing"
)

// Hand-computed cases for reserved keys (Reserve / Arm / Reached). The
// differential suite in sched_prop_test.go covers them in bulk; these
// pin, one at a time, the ties a time-only comparison gets wrong and the
// places where the clock moves without a dispatch.

const resT = 10 * Microsecond // the instant every case below ties on

// TestReachedWithinAnInstant walks one picosecond that holds events on
// both sides of a reserved key in every component of the key.
func TestReachedWithinAnInstant(t *testing.T) {
	e := New(1)
	var k Key
	var got []string
	see := func(name string, want bool) Handler {
		return func() {
			got = append(got, name)
			if r := e.Reached(k); r != want {
				t.Errorf("%s (position dom %d seq %d): Reached(%+v) = %v, want %v", name, e.posDom, e.posSeq, k, r, want)
			}
		}
	}
	e.AtD(4, resT, see("same dom, scheduled before the reservation", false)) // seq 0
	k = e.Reserve(4, resT)                                                   // seq 1
	if want := (Key{At: resT, Seq: 1, Dom: 4}); k != want {
		t.Fatalf("Reserve = %+v, want %+v", k, want)
	}
	e.AtD(4, resT, see("same dom, scheduled after it", true)) // seq 2
	e.AtD(3, resT, see("lower dom", false))                   // seq 3
	e.AtD(5, resT, func() {                                   // seq 4
		see("higher dom", true)()
		// A same-instant schedule into a lower domain runs next, below
		// the key; what dispatch order has passed stays passed.
		e.AtD(2, resT, see("lower dom, scheduled from the higher one", true))
	})
	e.AtD(9, resT-1, see("a picosecond earlier", false))
	e.AtD(0, resT+1, see("a picosecond later", true))
	if e.Reached(k) {
		t.Error("reached before anything ran")
	}
	e.Run()
	want := []string{
		"a picosecond earlier",
		"lower dom",
		"same dom, scheduled before the reservation",
		"same dom, scheduled after it",
		"higher dom",
		"lower dom, scheduled from the higher one",
		"a picosecond later",
	}
	if !slices.Equal(got, want) {
		t.Errorf("dispatch order %q, want %q", got, want)
	}
	if n := e.Executed(); n != 7 {
		t.Errorf("Executed() = %d, want 7: the reserved key must not count", n)
	}
	if r, a := e.Reserved(); r != 1 || a != 0 {
		t.Errorf("Reserved() = %d, %d; want 1 reserved, 0 armed", r, a)
	}
}

// TestArmRunsAtTheReservedKey arms a key late — from an event of the
// same instant in a lower domain — and requires the armed event to run
// exactly where an event queued at Reserve time would have.
func TestArmRunsAtTheReservedKey(t *testing.T) {
	e := New(1)
	var got []string
	say := func(s string) Handler { return func() { got = append(got, s) } }
	e.AtD(4, resT, say("dom 4 seq 0"))
	k := e.Reserve(4, resT)
	e.AtD(4, resT, say("dom 4 seq 2"))
	e.AtD(5, resT, say("dom 5"))
	e.AtD(3, resT, func() {
		got = append(got, "dom 3")
		e.Arm(k, func(_, _ any, arg uint64) {
			got = append(got, "reserved")
			if !e.Reached(k) {
				t.Error("a dispatching key has not reached itself")
			}
			if e.Now() != k.At {
				t.Errorf("armed event runs at %v, reserved %+v", e.Now(), k)
			}
		}, nil, nil, 0)
		if e.Pending() != 4 {
			t.Errorf("Pending() = %d after Arm, want 4", e.Pending())
		}
	})
	if e.Pending() != 4 {
		t.Errorf("Pending() = %d before Arm, want 4: a reserved key is not queued", e.Pending())
	}
	e.Run()
	want := []string{"dom 3", "dom 4 seq 0", "reserved", "dom 4 seq 2", "dom 5"}
	if !slices.Equal(got, want) {
		t.Errorf("dispatch order %q, want %q", got, want)
	}
	if r, a := e.Reserved(); r != 1 || a != 1 {
		t.Errorf("Reserved() = %d, %d; want 1, 1", r, a)
	}
}

// TestReachedWhereTheClockMovesWithoutDispatch covers the engine's two
// clock-only moves: the tail of RunUntil and the end of Run.
func TestReachedWhereTheClockMovesWithoutDispatch(t *testing.T) {
	nop := func() {}
	t.Run("RunUntil stops short of the key", func(t *testing.T) {
		e := New(1)
		k := e.Reserve(1, resT)
		e.RunUntil(resT - 1)
		if e.Now() != resT-1 || e.Reached(k) {
			t.Errorf("clock %v, Reached = %v; want %v, false", e.Now(), e.Reached(k), resT-1)
		}
	})
	t.Run("RunUntil ends on the key's instant with nothing queued there", func(t *testing.T) {
		e := New(1)
		k, later := e.Reserve(7, resT), e.Reserve(0, resT+1)
		e.RunUntil(resT)
		if !e.Reached(k) || e.Reached(later) {
			t.Errorf("Reached = %v, %v; want true for the key at the deadline, false a picosecond on",
				e.Reached(k), e.Reached(later))
		}
	})
	t.Run("RunUntil ends on an event below the key", func(t *testing.T) {
		e := New(1)
		k := e.Reserve(7, resT)
		e.AtD(2, resT, func() {
			if e.Reached(k) {
				t.Error("reached from a lower domain of the same instant")
			}
		})
		e.RunFor(resT)
		if !e.Reached(k) {
			t.Error("not reached after RunFor returned at the key's instant")
		}
		// Set-up code between slices schedules at the boundary; the next
		// slice runs it under a key below k, and k stays passed.
		ran := false
		e.AtD(1, e.Now(), func() {
			ran = true
			if !e.Reached(k) {
				t.Error("an event scheduled after the slice un-passed the key")
			}
		})
		e.RunFor(Microsecond)
		if !ran {
			t.Error("boundary event never ran")
		}
	})
	t.Run("Run drains on an event below the key", func(t *testing.T) {
		e := New(1)
		k, later := e.Reserve(7, resT), e.Reserve(0, resT+1)
		e.AtD(2, resT, nop)
		e.Run()
		if e.Now() != resT {
			t.Fatalf("clock %v after Run, want the last event's %v", e.Now(), resT)
		}
		if !e.Reached(k) || e.Reached(later) {
			t.Errorf("Reached = %v, %v; want true at the final instant, false beyond it",
				e.Reached(k), e.Reached(later))
		}
	})
	t.Run("bare Step leaves the rest of the instant ahead", func(t *testing.T) {
		e := New(1)
		k := e.Reserve(7, resT)
		e.AtD(2, resT, nop)
		e.Step()
		if e.Reached(k) {
			t.Error("Step passed a key above the event it dispatched")
		}
	})
}

// TestReserveRejectsWhatSchedulingRejects keeps the scheduling calls'
// refusal of the past on the two calls that replace one of them.
func TestReserveRejectsWhatSchedulingRejects(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	e := New(1)
	e.RunUntil(resT)
	mustPanic("reserve in the past", func() { e.Reserve(1, resT-1) })
	mustPanic("arm in the past", func() { e.Arm(Key{At: resT - 1, Dom: 1}, func(_, _ any, _ uint64) {}, nil, nil, 0) })
}
