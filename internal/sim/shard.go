package sim

// Conservative parallel execution of one timeline across shard engines.
//
// A ShardGroup splits a root engine's future into k shard engines, one
// per topology partition, plus the root itself for global (dom-0)
// events. Correctness rests on three properties:
//
//   - Ownership: every scheduling domain (host, switch, link
//     direction) is executed by exactly one engine, so the events of a
//     domain are produced and consumed by a single goroutine.
//   - Lookahead: any cross-shard interaction is a packet crossing a
//     cut link with propagation delay >= look, so events executed in
//     the window [T, E) with E <= T_min + look can only schedule
//     cross-shard work at times >= E. Those schedules travel through
//     per-shard outboxes (Engine.Post) and are injected at the epoch
//     barrier in deterministic (shard, emission) order.
//   - Key order: the serial engine already orders equal-time events by
//     (dom, seq), so an event's position in the global order is a pure
//     function of its key — independent of which heap held it. Each
//     shard pops its own events in key order; dom-0 events run
//     serially on the coordinator at instants when no shard event
//     precedes them, exactly where the serial comparator puts them.
//
// The result is a run whose event execution order, RNG draws, trace
// bytes, and metric rows are identical to the serial engine's.
type ShardGroup struct {
	root   *Engine
	shards []*Engine
	look   Duration
	domTo  map[int32]int // scheduling domain → shard index

	// preWindow/postWindow bracket every parallel window: the network
	// layer uses them to switch instrumentation into per-shard buffers
	// before workers start and to merge + flush the buffers (and drop
	// back to direct emission for barrier-time root events) after they
	// join.
	preWindow  func()
	postWindow func()

	active bool

	// Per-run worker pool (see run): one goroutine per shard, fed
	// window bounds over a channel, joined with done.
	work []chan [2]Time
	done chan int
}

// NewShardGroup creates k shard engines under root and marks root as
// the group's coordinator. Shard engines get private RNGs that no
// model code draws from (components fork their own streams from the
// root RNG at build time), so the root RNG stream stays identical to a
// serial run. look is the group lookahead: the minimum propagation
// delay across any cut (cross-shard) link.
func NewShardGroup(root *Engine, k int, look Duration) *ShardGroup {
	if k < 2 {
		panic("sim: NewShardGroup needs at least 2 shards")
	}
	if look <= 0 {
		panic("sim: NewShardGroup needs positive lookahead")
	}
	g := &ShardGroup{root: root, look: look, domTo: make(map[int32]int)}
	for i := 0; i < k; i++ {
		e := New(uint64(i)*0x9e3779b97f4a7c15 + 1)
		e.group = g
		e.shardIdx = i
		g.shards = append(g.shards, e)
	}
	root.group = g
	return g
}

// N returns the number of shards.
func (g *ShardGroup) N() int { return len(g.shards) }

// Shard returns shard engine i.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the group's conservative window width.
func (g *ShardGroup) Lookahead() Duration { return g.look }

// AssignDom records that scheduling domain dom belongs to shard i.
// Every non-zero domain that can appear on an event must be assigned
// before Activate.
func (g *ShardGroup) AssignDom(dom int32, i int) { g.domTo[dom] = i }

// ShardOf returns the shard index owning dom (dom 0 → -1, the root).
func (g *ShardGroup) ShardOf(dom int32) int {
	if dom == 0 {
		return -1
	}
	i, ok := g.domTo[dom]
	if !ok {
		panic("sim: domain not assigned to a shard")
	}
	return i
}

// SetWindowHooks installs the callbacks bracketing each parallel
// window (either may be nil).
func (g *ShardGroup) SetWindowHooks(pre, post func()) {
	g.preWindow = pre
	g.postWindow = post
}

// Activate moves already-scheduled non-global events from the root
// heap to their owning shards and starts shard clocks and sequence
// counters from the root's. Events keep their (at, dom, seq) keys, so
// relative order — and the validity of any EventID held on them — is
// preserved; future seqs are allocated per engine, which is safe
// because the comparator consults seq only within one domain and each
// domain's events are produced by exactly one engine's deterministic
// sequence. Call once, after every domain is assigned.
func (g *ShardGroup) Activate() {
	if g.active {
		panic("sim: ShardGroup activated twice")
	}
	g.active = true
	for _, s := range g.shards {
		s.now = g.root.now
		s.posDom, s.posSeq = g.root.posDom, g.root.posSeq
		s.nextSeq = g.root.nextSeq
	}
	// Drain the root queue and re-push every event into its owning
	// engine. qPush rebuilds the live accounting (qExtractAll zeroed
	// it; canceled structs stay out of the count), and re-stamping
	// ev.eng keeps EventIDs held on migrated events cancelable and
	// reschedulable against the right queue.
	for _, ev := range g.root.qExtractAll() {
		dst := g.root
		if ev.dom != 0 {
			dst = g.shards[g.ShardOf(ev.dom)]
		}
		ev.eng = dst
		dst.qPush(ev)
	}
}

// nextShardEvent returns the earliest event time across all shards.
func (g *ShardGroup) nextShardEvent() Time {
	nmin := Forever
	for _, s := range g.shards {
		if t := s.peekNext(); t < nmin {
			nmin = t
		}
	}
	return nmin
}

// advanceClocks moves every shard clock forward to t (never backward).
// Called only when no shard holds an event earlier than t, so root
// events running at t observe shard-local Now() == t — and a dispatch
// position ahead of everything earlier, behind everything at t — exactly
// as they would serially, where dom 0 sorts first within the instant.
func (g *ShardGroup) advanceClocks(t Time) {
	for _, s := range g.shards {
		s.advanceTo(t)
	}
}

// settleClocks leaves every engine of the group at t with every event
// at or before t done: the state a serial RunUntil or Run returns in.
func (g *ShardGroup) settleClocks(t Time) {
	for _, s := range g.shards {
		s.settleAt(t)
	}
	g.root.settleAt(t)
}

// deliverPosts drains every shard's outbox into the destination heaps.
// Runs on the coordinator while all workers are parked, in shard order
// then emission order — both deterministic — so destination-assigned
// seqs, and therefore all downstream tie-breaks, are reproducible.
func (g *ShardGroup) deliverPosts() {
	for _, s := range g.shards {
		drainOutbox(s)
	}
	// The root outbox is normally empty (serial-mode Posts take the
	// same-engine fast path), but a root-context Post to a shard must
	// not be stranded.
	drainOutbox(g.root)
}

func drainOutbox(s *Engine) {
	for i := range s.outbox {
		p := &s.outbox[i]
		ev := p.dst.alloc(p.at, p.dom)
		ev.h = p.h
		ev.obj = p.obj
		ev.aux = p.aux
		ev.arg = p.arg
		s.outbox[i] = post{}
	}
	s.outbox = s.outbox[:0]
}

// startWorkers launches one goroutine per shard for the duration of a
// run call; stopWorkers joins them. Pools are per-run so trials never
// leak goroutines past their own execution.
func (g *ShardGroup) startWorkers() {
	g.work = make([]chan [2]Time, len(g.shards))
	g.done = make(chan int, len(g.shards))
	for i := range g.shards {
		ch := make(chan [2]Time, 1)
		g.work[i] = ch
		go func(s *Engine, ch chan [2]Time) {
			for w := range ch {
				s.runWindow(w[0], w[1])
				g.done <- 1
			}
		}(g.shards[i], ch)
	}
}

func (g *ShardGroup) stopWorkers() {
	for _, ch := range g.work {
		close(ch)
	}
	g.work = nil
}

// run is the epoch loop: the root engine's Run/RunUntil delegate here
// once a group is active. deadline follows RunUntil semantics
// (inclusive; Forever = run to exhaustion).
func (g *ShardGroup) run(deadline Time) {
	root := g.root
	g.startWorkers()
	defer g.stopWorkers()
	for {
		nmin := g.nextShardEvent()
		rootNext := root.peekNext()
		next := nmin
		if rootNext < next {
			next = rootNext
		}
		if next == Forever || next > deadline {
			break
		}
		if rootNext <= nmin {
			// Global events precede same-time shard events (dom 0 is
			// the smallest key), and no shard event exists before
			// rootNext — run them serially with every shard parked at
			// that instant so they observe exact state.
			g.advanceClocks(rootNext)
			root.runInstant(rootNext)
			// Root closures may reach into shard components (faults,
			// link flaps) and Post cross-shard follow-ups whose times —
			// one link delay out — can fall inside the next window.
			// Drain them now so the window computation sees them.
			g.deliverPosts()
			continue
		}
		// Conservative window: all shard events in [nmin, end) are
		// safe to run in parallel — cross-shard effects land at
		// >= nmin+look >= end, and global events would run at
		// rootNext >= end.
		end := nmin + g.look
		if rootNext < end {
			end = rootNext
		}
		if deadline != Forever && deadline+1 < end {
			end = deadline + 1
		}
		clockTo := end
		if clockTo > deadline {
			clockTo = deadline
		}
		if g.preWindow != nil {
			g.preWindow()
		}
		dispatched := 0
		inline := -1
		for i, s := range g.shards {
			if s.peekNext() >= end {
				continue
			}
			if inline < 0 {
				inline = i
				continue
			}
			g.work[i] <- [2]Time{end, clockTo}
			dispatched++
		}
		if inline >= 0 {
			g.shards[inline].runWindow(end, clockTo)
		}
		for ; dispatched > 0; dispatched-- {
			<-g.done
		}
		g.deliverPosts()
		if g.postWindow != nil {
			g.postWindow()
		}
	}
	if deadline != Forever {
		g.settleClocks(deadline)
	} else {
		// Serial Run leaves the clock at the last executed event; match
		// it by settling every engine at the global maximum.
		tmax := root.now
		for _, s := range g.shards {
			if s.now > tmax {
				tmax = s.now
			}
		}
		g.settleClocks(tmax)
	}
}
