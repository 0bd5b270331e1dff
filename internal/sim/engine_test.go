package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := New(1)
	var got []Time
	for _, at := range []Time{50, 10, 30, 10, 20} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{10, 10, 20, 30, 50}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 50 {
		t.Errorf("Now = %v, want 50", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestEngineSchedulingDuringRun(t *testing.T) {
	e := New(1)
	var fired []Time
	e.At(10, func() {
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Errorf("nested schedule fired at %v, want [15]", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New(1)
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEventCancel(t *testing.T) {
	e := New(1)
	ran := false
	id := e.At(10, func() { ran = true })
	if !id.Pending() {
		t.Error("event not pending after schedule")
	}
	if !id.Cancel() {
		t.Error("first cancel returned false")
	}
	if id.Cancel() {
		t.Error("second cancel returned true")
	}
	e.Run()
	if ran {
		t.Error("canceled event ran")
	}
}

// TestStaleEventIDCannotCancelRecycledEvent is the regression test for
// the event-recycling bug: after an event fires, its struct may be
// reused for a new event; a stale EventID held by old code must not be
// able to cancel (or observe as pending) the new occupant.
func TestStaleEventIDCannotCancelRecycledEvent(t *testing.T) {
	e := New(1)
	var stale EventID
	stale = e.At(1, func() {})
	e.Run() // fires; event struct goes to the free list

	ran := false
	fresh := e.At(2, func() { ran = true }) // likely reuses the struct
	if stale.Pending() {
		t.Error("stale ID reports pending")
	}
	if stale.Cancel() {
		t.Error("stale ID canceled a recycled event")
	}
	e.Run()
	if !ran {
		t.Fatal("fresh event did not run — stale ID killed it")
	}
	if fresh.Pending() {
		t.Error("fired event still pending")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New(1)
	count := 0
	e.At(10, func() { count++ })
	e.At(30, func() { count++ })
	e.RunUntil(20)
	if count != 1 || e.Now() != 20 {
		t.Errorf("count=%d now=%v, want 1, 20", count, e.Now())
	}
	e.RunFor(15)
	if count != 2 || e.Now() != 35 {
		t.Errorf("count=%d now=%v, want 2, 35", count, e.Now())
	}
}

func TestRunUntilSkipsCanceledHead(t *testing.T) {
	e := New(1)
	id := e.At(5, func() { t.Error("canceled event ran") })
	id.Cancel()
	e.At(7, func() {})
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Errorf("now=%v", e.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	e := New(1)
	for i := 0; i < 7; i++ {
		e.After(Duration(i), func() {})
	}
	e.Run()
	if e.Executed() != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed())
	}
}

// Property: with arbitrary insert times, events always fire in
// non-decreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New(2)
		var fired []Time
		for _, at := range times {
			at := Time(at)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ps",
		3 * Nanosecond:  "3ns",
		2 * Microsecond: "2us",
		5 * Millisecond: "5ms",
		3 * Second:      "3s",
		Forever:         "forever",
		-3 * Second:     "-3s",
		// Negating the most negative Time gives it back: rendering it
		// must not recurse.
		-Forever - 1: "-9223372036854775808ps",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Error("Seconds(1.5)")
	}
	if Micros(2.5) != 2500*Nanosecond {
		t.Error("Micros(2.5)")
	}
	if (2 * Millisecond).Seconds() != 0.002 {
		t.Error("Seconds()")
	}
	if (3 * Microsecond).Micros() != 3 {
		t.Error("Micros()")
	}
}

// TestStatsAddCoversEveryField folds two Stats with a distinct value in
// every field, both ways round, and requires each field of the result to
// be the sum — or, for the peaks named in maxed, the larger — of its
// two. A counter added to Stats but not to Add fails here, so it cannot
// go missing from a run's totals (obs.Runtime.FinishTrial).
func TestStatsAddCoversEveryField(t *testing.T) {
	maxed := map[string]bool{"PeakLive": true, "PeakHeap": true}
	set := func(s *Stats, k func(i int) int64) {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanUint() {
				f.SetUint(uint64(k(i)))
			} else {
				f.SetInt(k(i))
			}
		}
	}
	number := func(f reflect.Value) int64 {
		if f.CanUint() {
			return int64(f.Uint())
		}
		return f.Int()
	}
	small := func(i int) int64 { return int64(i + 1) }
	large := func(i int) int64 { return int64(100 * (i + 1)) }
	for _, order := range [][2]func(int) int64{{small, large}, {large, small}} {
		var s, o Stats
		set(&s, order[0])
		set(&o, order[1])
		s.Add(o)
		v := reflect.ValueOf(s)
		for i := 0; i < v.NumField(); i++ {
			name, want := v.Type().Field(i).Name, small(i)+large(i)
			if maxed[name] {
				want = large(i)
			}
			if got := number(v.Field(i)); got != want {
				t.Errorf("Add: %s = %d, want %d", name, got, want)
			}
		}
	}
	for name := range maxed {
		if _, ok := reflect.TypeOf(Stats{}).FieldByName(name); !ok {
			t.Errorf("maxed names %s, which Stats lacks", name)
		}
	}
}
