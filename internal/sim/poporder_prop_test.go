package sim

import (
	"fmt"
	"sort"
	"testing"
)

// popKey is one event's ordering key, for order checking.
type popKey struct {
	at  Time
	dom int32
	seq uint64
}

// keyed schedules the typed event h at (at, dom) with obj a *popKey that
// carries the event's own key, its sequence number filled in once At2D
// has assigned it: a handler learns what is dispatching from its
// argument, not from the engine.
func keyed(e *Engine, dom int32, at Time, h Handler2) EventID {
	k := &popKey{at: at, dom: dom}
	id := e.At2D(dom, at, h, k, nil, 0)
	k.seq = id.seq
	return id
}

// dispatched is a handler for keyed events that appends the dispatching
// event's key — the clock, and the dom and seq it carries — to *got.
func dispatched(e *Engine, got *[]popKey) Handler2 {
	return func(obj, _ any, _ uint64) {
		k := obj.(*popKey)
		*got = append(*got, popKey{e.Now(), k.dom, k.seq})
	}
}

func keyLess(a, b popKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// TestPopOrderProperty drives the scheduler with a seeded random mix
// of pushes through both scheduling APIs, cancels, reschedules, and
// partial drains — bursty enough to exercise sorted insertion, the
// heap, and canceled-head recycling together — and asserts the
// executed order is the reference model's (see replayOps): a sort on
// the event keys (time, dom, seq).
func TestPopOrderProperty(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234, 987654321} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replayOps(t, seed, 200, opsRandom)
		})
	}
}

// TestPopOrderSingleDomain pins the single-domain contract: with every
// event in one domain, pop order is exactly (time, seq) — FIFO among
// equal-time events regardless of scheduling API.
func TestPopOrderSingleDomain(t *testing.T) {
	rng := NewRand(99)
	e := New(99)
	var got []uint64
	var want []popKey
	for i := 0; i < 500; i++ {
		at := Time(rng.Intn(40))
		var id EventID
		if i%2 == 0 {
			k := &popKey{at: at}
			id = e.At(at, func() { got = append(got, k.seq) })
			k.seq = id.seq
		} else {
			id = keyed(e, 0, at, func(obj, _ any, _ uint64) { got = append(got, obj.(*popKey).seq) })
		}
		want = append(want, popKey{at: at, seq: id.seq})
	}
	sort.Slice(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i].seq {
			t.Fatalf("pop %d: seq %d, want %d", i, got[i], want[i].seq)
		}
	}
}
