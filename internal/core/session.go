package core

import (
	"strconv"

	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// Session is one ExpressPass flow: a credit-requesting sender endpoint
// at Flow.Sender and a credit-pacing receiver endpoint at Flow.Receiver.
type Session struct {
	Flow *transport.Flow
	Cfg  Config

	snd *sender
	rcv *receiver

	// gaugePrefix remembers the per-flow gauge names registered by
	// initObs ("" when none were claimed) so Retire can unregister them
	// and refund the network's flow-gauge budget.
	gaugePrefix string
}

// Dial wires a session for f and schedules its start at f.StartAt. The
// credit request is piggybacked on connection setup (§3.1), so credits
// begin flowing one half-RTT after the flow arrives.
func Dial(f *transport.Flow, cfg Config) *Session {
	cfg = cfg.withDefaults()
	s := &Session{Flow: f, Cfg: cfg}
	s.snd = &sender{sess: s, host: f.Sender}
	s.rcv = &receiver{sess: s, host: f.Receiver, rng: f.Receiver.Rand().Fork()}
	s.rcv.fb = NewFeedback(cfg, f.Receiver.LineRate())
	s.initObs()
	f.Sender.Register(f.ID, s.snd)
	f.Receiver.Register(f.ID, s.rcv)
	f.Sender.Engine().At2D(f.Sender.Dom(), f.StartAt, senderStart, s.snd, nil, 0)
	return s
}

// Typed event handlers (sim.Handler2): every recurring session event —
// timer re-arms, credit pacing, and credited data emission — schedules
// through these static functions so the steady-state credit loop never
// allocates. They are the pre-bound equivalents of the method values
// the session used to pass to Engine.At/After, each of which allocated
// a fresh closure per re-arm.

func senderStart(obj, _ any, _ uint64)        { obj.(*sender).start() }
func senderSendRequest(obj, _ any, _ uint64)  { obj.(*sender).sendRequest() }
func senderSendStop(obj, _ any, _ uint64)     { obj.(*sender).sendStop() }
func senderIdleTimeout(obj, _ any, _ uint64)  { obj.(*sender).onIdleTimeout() }
func receiverSendCredit(obj, _ any, _ uint64) { obj.(*receiver).sendCredit() }
func receiverTick(obj, _ any, _ uint64)       { obj.(*receiver).tick() }
func receiverReqMissing(obj, _ any, _ uint64) { obj.(*receiver).requestMissing() }

// senderEmitData unpacks the (payload, creditSeq) pair packed by
// OnPacket: payload in the low 16 bits, credit sequence above.
func senderEmitData(obj, _ any, arg uint64) {
	obj.(*sender).emitData(unit.Bytes(arg&emitPayloadMask), int64(arg>>emitSeqShift))
}

const (
	emitSeqShift    = 16
	emitPayloadMask = 1<<emitSeqShift - 1
)

// initObs wires the feedback-trace hook and registers per-flow metrics
// when a registry is active. Endpoints do not cache the tracer: they
// re-fetch it from their host per emission (see netem.Host.Tracer).
func (s *Session) initObs() {
	f := s.Flow
	if tr := f.Sender.Tracer(); tr != nil {
		if tr.Enabled(obs.EvFeedback) {
			rcv := s.rcv
			rcv.fb.OnUpdate = func(rate unit.Rate, w, loss float64, increased bool) {
				t2 := f.Receiver.Tracer()
				if t2 == nil {
					return
				}
				t2.Emit(obs.Event{T: f.Receiver.Engine().Now(), Type: obs.EvFeedback,
					Scope: f.Receiver.Name(), Flow: int64(f.ID),
					Val: rate.Gbits(), Aux: w, Aux2: loss})
			}
		}
	}
	if r := f.Sender.Metrics(); r != nil {
		// FCT histogram is shared across flows (one instrument), so it is
		// not subject to the per-flow gauge budget.
		s.rcv.fctHist = r.Histogram("flow/fct_ms", obs.FCTBoundsMS)
	}
	if fr := f.Sender.ClaimFlowMetrics(); fr != nil {
		pre := "flow/" + strconv.FormatInt(int64(f.ID), 10) + "/"
		s.gaugePrefix = pre
		fb, snd := s.rcv.fb, s.snd
		fr.Gauge(pre+"rate_gbps", func() float64 { return fb.Rate.Gbits() })
		fr.Gauge(pre+"w", func() float64 { return fb.W })
		fr.Gauge(pre+"delivered_bytes", func() float64 { return float64(f.BytesDelivered) })
		fr.Gauge(pre+"credits_wasted", func() float64 { return float64(snd.creditsWasted) })
	}
}

// flowGaugeSuffixes are the per-flow gauges initObs registers under the
// session's gaugePrefix; Retire unregisters exactly this set.
var flowGaugeSuffixes = [...]string{"rate_gbps", "w", "delivered_bytes", "credits_wasted"}

// Stop tears the session down and unregisters both endpoints.
func (s *Session) Stop() {
	s.rcv.stopCredits()
	s.rcv.nackTimer.Cancel()
	s.snd.reqTimer.Cancel()
	s.snd.stopTimer.Cancel()
	s.snd.idleTimer.Cancel()
	s.snd.gotCredit = true // suppress request retries
	s.Flow.Sender.Unregister(s.Flow.ID)
	s.Flow.Receiver.Unregister(s.Flow.ID)
}

// Quiesced reports whether the session has wound down on its own: the
// flow delivered every byte, the receiver's credit loop stopped (the
// CREDIT_STOP arrived — a lost stop leaves the receiver active and the
// session non-quiesced until the Fig 7a retry arc lands one), and no
// timer on either endpoint is pending. Tearing down a quiesced session
// cancels nothing that would have fired, so retirement cannot change
// the simulation's future — the property the lifecycle reaper relies on
// for byte-identity with a run that never retires. Callers should still
// allow a grace period past FinishTime before retiring so stray in-flight
// credits land while the sender is registered and the Fig 20 waste
// accounting matches a run that never retires.
func (s *Session) Quiesced() bool {
	return s.Flow.Finished && !s.rcv.active &&
		!s.snd.reqTimer.Pending() && !s.snd.stopTimer.Pending() &&
		!s.snd.idleTimer.Pending() && !s.rcv.nackTimer.Pending() &&
		!s.rcv.creditTimer.Pending() && !s.rcv.tickTimer.Pending()
}

// Retire stops the session and releases its observability footprint:
// per-flow gauges leave the metrics registry and the network's
// flow-gauge budget is refunded, so a long run's gauge set tracks live
// flows instead of growing without bound. After Retire the session
// holds no registrations and schedules no events; dropping the last
// reference makes it collectable.
func (s *Session) Retire() {
	s.Stop()
	if s.gaugePrefix == "" {
		return
	}
	if r := s.Flow.Sender.Metrics(); r != nil {
		for _, suf := range flowGaugeSuffixes {
			r.Unregister(s.gaugePrefix + suf)
		}
	}
	s.Flow.Sender.Network().ReleaseFlowMetrics()
	s.gaugePrefix = ""
}

// CreditsSent returns credits emitted by the receiver.
func (s *Session) CreditsSent() uint64 { return s.rcv.creditsSent }

// CreditsReceived returns credits that reached the sender.
func (s *Session) CreditsReceived() uint64 { return s.snd.creditsIn }

// CreditsWasted returns credits that reached the sender after it had no
// data left (the waste metric of Fig 20).
func (s *Session) CreditsWasted() uint64 { return s.snd.creditsWasted }

// CreditsDuplicated returns duplicated credits the sender's dedup window
// declined — each one a clone that, if honored, would have double-spent
// a credit.
func (s *Session) CreditsDuplicated() uint64 { return s.snd.creditsDup }

// DataDuplicated returns duplicated data packets the receiver's dedup
// window dropped before delivery accounting.
func (s *Session) DataDuplicated() uint64 { return s.rcv.dataDup }

// DataSent returns data packets emitted by the sender.
func (s *Session) DataSent() uint64 { return s.snd.dataSent }

// Rate returns the receiver's current credit sending rate.
func (s *Session) Rate() unit.Rate { return s.rcv.fb.Rate }

// W returns the receiver's current aggressiveness factor.
func (s *Session) W() float64 { return s.rcv.fb.W }

// ---- sender ----

type sender struct {
	sess *Session
	host *netem.Host

	remaining unit.Bytes // bytes not yet credited for transmission
	unbounded bool       // long-running flow (Size == 0)
	lastEmit  sim.Time   // data responses stay in credit order (FIFO NIC)

	// Fig 7a retry arcs: CREDIT_REQUEST is retransmitted until credits
	// arrive (bounded by maxRequestRetries so a dead path cannot
	// keep the engine from draining), and CREDIT_STOP until the credit
	// flow actually stops — both control packets ride the data class
	// and can be dropped.
	gotCredit  bool
	reqTimer   sim.EventID
	reqRetries int
	idleTimer  sim.EventID

	// Credit-arrival rate estimate for the preemptive stop: credits
	// seen in the previous full BaseRTT window bound how much data the
	// in-flight credits can still cover.
	winStart  sim.Time
	winCount  int
	prevWin   int
	sentAll   bool
	stopSent  bool
	lastStop  sim.Time // when the latest CREDIT_STOP left (retry guard)
	stopTimer sim.EventID

	// seen rejects duplicated credits before they touch the window or
	// emit data: a cloned credit spending twice would violate credit
	// conservation (§3.1) — the invariant checker treats a second
	// EvCreditRecv for a live sequence as a hard violation.
	seen dedupWindow

	creditsIn     uint64
	creditsWasted uint64
	creditsDup    uint64
	dataSent      uint64
}

func (sn *sender) start() {
	f := sn.sess.Flow
	f.Started = true
	sn.remaining = f.Size
	sn.unbounded = f.Size == 0
	sn.sendRequest()
}

// sendRequest emits CREDIT_REQUEST and arms the Fig 7a retry timeout
// (CREQ_SENT --no credit for timeout--> resend CREDIT_REQUEST). Retries
// are bounded: past maxRequestRetries the sender gives up without
// re-arming, so a dead path leaves no pending events and the engine
// drains. A credit arrival resets the budget.
func (sn *sender) sendRequest() {
	if sn.gotCredit {
		return
	}
	if sn.reqRetries >= maxRequestRetries {
		return
	}
	sn.reqRetries++
	f := sn.sess.Flow
	req := sn.host.Pool().Get()
	req.Kind = packet.Ctrl
	req.Ctrl = packet.CtrlCreditRequest
	req.Flow = f.ID
	req.Src = f.Sender.ID()
	req.Dst = f.Receiver.ID()
	req.Wire = unit.MinFrame
	sn.host.Send(req)
	// The NACK-recovery path re-enters with the previous retry timer
	// still armed; rescheduling it in place keeps exactly one retry
	// event alive instead of stacking a second alongside the old one.
	eng := sn.host.Engine()
	sn.reqTimer = sim.Rearm(sn.reqTimer, eng, sn.host.Dom(),
		eng.Now()+4*sn.sess.Cfg.BaseRTT, senderSendRequest, sn, nil, 0)
}

// OnPacket handles credits (and NACKs) arriving at the sender.
func (sn *sender) OnPacket(p *packet.Packet) {
	if p.Kind == packet.Ctrl && p.Ctrl == packet.CtrlNack {
		sn.onNack(p)
		return
	}
	if p.Kind != packet.Credit {
		sn.host.Pool().Put(p)
		return
	}
	if sn.seen.dup(p.Seq) {
		// A duplication impairment cloned this credit (or replayed a
		// stale one). Decline it before any accounting: no EvCreditRecv,
		// no window credit, no data emission — the clone is invisible to
		// the credit-conservation ledger.
		sn.creditsDup++
		sn.host.Pool().Put(p)
		return
	}
	eng := sn.host.Engine()
	sn.creditsIn++
	sn.reqRetries = 0
	if tr := sn.host.Tracer(); tr != nil {
		tr.Emit(obs.Event{T: eng.Now(), Type: obs.EvCreditRecv,
			Scope: sn.host.Name(), Flow: int64(p.Flow), Seq: p.Seq, Bytes: p.Wire})
	}
	sn.gotCredit = true
	sn.reqTimer.Cancel()
	if now := eng.Now(); now-sn.winStart > sn.sess.Cfg.BaseRTT {
		sn.prevWin = sn.winCount
		sn.winCount = 0
		sn.winStart = now
	}
	sn.winCount++
	creditSeq := p.Seq
	sn.host.Pool().Put(p)

	if !sn.unbounded && sn.remaining <= 0 {
		sn.creditsWasted++
		if tr := sn.host.Tracer(); tr != nil {
			tr.Emit(obs.Event{T: eng.Now(), Type: obs.EvCreditWaste,
				Scope: sn.host.Name(), Flow: int64(sn.sess.Flow.ID), Seq: creditSeq})
		}
		sn.maybeStop()
		return
	}
	payload := unit.MTUPayload
	if !sn.unbounded && sn.remaining < payload {
		payload = sn.remaining
	}
	if !sn.unbounded {
		sn.remaining -= payload
	}
	// Credit processing delay: the spread of this delay is the ∆d_host
	// of §3.1's network-calculus bound. Responses are serialized so data
	// packets leave in credit order, as a FIFO NIC pipeline would. An
	// injected host stall freezes the credit loop: the response is
	// deferred to the stall end plus the normal processing delay.
	from := eng.Now()
	if su := sn.host.CreditStallUntil(); su > from {
		from = su
	}
	at := from + sn.host.SampleProcDelay()
	if at <= sn.lastEmit {
		at = sn.lastEmit + 1
	}
	sn.lastEmit = at
	// Pack (payload, creditSeq) into the typed event's scalar arg:
	// payload ≤ MTUPayload fits the low 16 bits, leaving 48 bits of
	// credit sequence. 2^48 credits take more than ten years of
	// simulated time at a 10 Gb/s link's credit rate (~770k credits/s),
	// and sim.Time ends after 106 days.
	eng.At2D(sn.host.Dom(), at, senderEmitData, sn, nil, uint64(creditSeq)<<emitSeqShift|uint64(payload))
	if !sn.unbounded && sn.remaining <= 0 {
		sn.sentAll = true
		sn.maybeStop()
	} else if m := sn.sess.Cfg.StopMargin; m > 0 && !sn.unbounded {
		// §7 preemptive stop: stop once the credits plausibly already
		// in flight (≈ one RTT's worth at the observed arrival rate,
		// bounded by the configured margin) cover what remains. If the
		// estimate is wrong the idle watchdog re-requests.
		inflight := unit.Bytes(sn.prevWin) * unit.MTUPayload
		if inflight > m {
			inflight = m
		}
		if sn.remaining <= inflight {
			sn.maybeStop()
		}
	}
	sn.armIdleWatchdog()
}

// armIdleWatchdog re-requests credits if data remains unsent but no
// credit has arrived for several RTTs (Fig 7a: "New data /
// CREDIT_REQUEST" out of CSTOP_SENT, and timeout-driven re-request).
// Every credit arrival pushes the deadline out, so this is the
// receiver-side analogue of transport.Conn's per-ACK RTO re-arm:
// rescheduling in place spares one dead 8·BaseRTT event per credit.
func (sn *sender) armIdleWatchdog() {
	if sn.unbounded || sn.remaining <= 0 {
		sn.idleTimer.Cancel()
		return
	}
	eng := sn.host.Engine()
	sn.idleTimer = sim.Rearm(sn.idleTimer, eng, sn.host.Dom(),
		eng.Now()+8*sn.sess.Cfg.BaseRTT, senderIdleTimeout, sn, nil, 0)
}

// onIdleTimeout fires when data remains unsent but no credit arrived
// for the whole watchdog window: walk the request arc again.
func (sn *sender) onIdleTimeout() {
	if sn.remaining > 0 {
		sn.stopSent = false
		sn.gotCredit = false
		sn.sendRequest()
	}
}

func (sn *sender) emitData(payload unit.Bytes, creditSeq int64) {
	f := sn.sess.Flow
	d := sn.host.Pool().Get()
	d.Kind = packet.Data
	d.Flow = f.ID
	d.Src = f.Sender.ID()
	d.Dst = f.Receiver.ID()
	d.Payload = payload
	d.Wire = payload + (unit.MaxFrame - unit.MTUPayload)
	if d.Wire < unit.MinFrame {
		d.Wire = unit.MinFrame
	}
	d.CreditSeq = creditSeq
	sn.dataSent++
	// Emit before Send: the port takes ownership of d and may recycle it.
	if tr := sn.host.Tracer(); tr != nil {
		tr.Emit(obs.Event{T: sn.host.Engine().Now(), Type: obs.EvDataSend,
			Scope: sn.host.Name(), Flow: int64(f.ID), Seq: creditSeq, Bytes: payload})
	}
	sn.host.Send(d)
}

// maybeStop sends CREDIT_STOP once nothing is left to send.
//
// Fig 7a CSTOP_SENT retry arc: if credits keep arriving, the stop was
// lost and must be resent — but at most once per retry window. The
// guard is the lastStop timestamp, not a timer that clears stopSent: a
// timer would dangle for 4·BaseRTT after every completed flow (delaying
// engine drain), and a stale one could clear the flag right after a
// fresh stop went out, double-resending on the next stray credit.
func (sn *sender) maybeStop() {
	if sn.stopTimer.Pending() {
		return
	}
	if sn.stopSent {
		if sn.host.Engine().Now() < sn.lastStop+4*sn.sess.Cfg.BaseRTT {
			return
		}
		sn.stopSent = false // a full window of stray credits: stop was lost
	}
	sn.sendStop()
}

func (sn *sender) sendStop() {
	eng := sn.host.Engine()
	if at := sn.lastEmit + 1; at > eng.Now() {
		// FIFO NIC: data responses are still scheduled to leave (the
		// credit-processing delay defers them past now). The stop must
		// not overtake them — the receiver reads a stop as "everything
		// sent has arrived" and would NACK a tail that is still on its
		// way.
		sn.stopTimer = eng.At2D(sn.host.Dom(), at, senderSendStop, sn, nil, 0)
		return
	}
	sn.stopSent = true
	sn.lastStop = eng.Now()
	f := sn.sess.Flow
	st := sn.host.Pool().Get()
	st.Kind = packet.Ctrl
	st.Ctrl = packet.CtrlCreditStop
	st.Flow = f.ID
	st.Src = f.Sender.ID()
	st.Dst = f.Receiver.ID()
	st.Wire = unit.MinFrame
	sn.host.Send(st)
}

// onNack reopens the transfer tail the receiver reports missing: data-
// class loss ate credited packets, so the byte count the sender believes
// it sent exceeds what arrived. Recovery walks the Fig 7a request arc
// again — re-request credits, resend the shortfall, stop again.
func (sn *sender) onNack(p *packet.Packet) {
	acked := unit.Bytes(p.Ack)
	sn.host.Pool().Put(p)
	f := sn.sess.Flow
	if sn.unbounded || acked >= f.Size {
		return
	}
	if sn.remaining > 0 && !sn.stopSent {
		// Already resending (a duplicate NACK from the receiver's retry
		// while our retransmission is in flight): don't reopen bytes
		// twice.
		return
	}
	sn.remaining = f.Size - acked
	sn.sentAll = false
	sn.stopSent = false
	sn.stopTimer.Cancel()
	sn.gotCredit = false
	sn.reqRetries = 0
	sn.sendRequest()
}

// ---- receiver ----

type receiver struct {
	sess    *Session
	host    *netem.Host
	rng     *sim.Rand
	fb      *Feedback
	fctHist *obs.Histogram // nil when metrics are off

	active      bool
	creditTimer sim.EventID
	tickTimer   sim.EventID

	// NACK retry state: a CREDIT_STOP that arrives before the flow's
	// bytes all did means credited data was lost in flight; the receiver
	// NACKs (bounded, like request retries) until the tail arrives.
	nackTimer   sim.EventID
	nackRetries int

	nextSeq     int64 // next credit sequence to assign (first = 1)
	creditsSent uint64

	// Credit-loss accounting (§3.2): data packets echo the credit
	// sequence they consumed; a gap between consecutive echoes means
	// the intervening credits were dropped. Gap accounting needs no
	// maturity bookkeeping and is insensitive to path delay.
	//
	// gateSeq implements one-cut-per-congestion-event: after a rate
	// decrease, credits already in flight (seq ≤ gateSeq) still carry
	// the old rate's congestion, so their losses must not trigger a
	// second decrease. Only echoes of post-decrease credits count.
	lastEcho      int64
	gateSeq       int64
	delivered     uint64 // counted echoes this period (seq > gateSeq)
	lost          uint64 // counted gap-inferred drops this period
	prevHadSample bool   // previous period produced a feedback sample

	// seen rejects duplicated data packets (keyed by echoed credit
	// sequence) before they inflate BytesDelivered or masquerade as a
	// late hole fill-in that would wrongly decrement the loss count.
	seen    dedupWindow
	dataDup uint64
}

// OnPacket handles control and data packets arriving at the receiver.
func (rc *receiver) OnPacket(p *packet.Packet) {
	switch {
	case p.Kind == packet.Ctrl && p.Ctrl == packet.CtrlCreditRequest:
		rc.host.Pool().Put(p)
		rc.startCredits()
	case p.Kind == packet.Ctrl && p.Ctrl == packet.CtrlCreditStop:
		rc.host.Pool().Put(p)
		rc.stopCredits()
		// A shortfall against Flow.Size at this point is usually loss —
		// but not always: with StopMargin the stop deliberately precedes
		// the flow's last ~BDP of data, which is still in flight behind
		// credits already issued. Arm the NACK check one retry interval
		// out instead of firing it here, so legitimately in-flight data
		// can land first; onData cancels the timer the moment the flow
		// completes.
		rc.nackRetries = 0
		if f := rc.sess.Flow; f.Size > 0 && !f.Finished {
			eng := rc.host.Engine()
			rc.nackTimer = sim.Rearm(rc.nackTimer, eng, rc.host.Dom(),
				eng.Now()+4*rc.sess.Cfg.BaseRTT, receiverReqMissing, rc, nil, 0)
		}
	case p.Kind == packet.Ctrl && p.Ctrl == packet.CtrlFin:
		rc.host.Pool().Put(p)
		rc.stopCredits()
	case p.Kind == packet.Data:
		rc.onData(p)
	default:
		rc.host.Pool().Put(p)
	}
}

func (rc *receiver) startCredits() {
	if rc.active {
		return
	}
	rc.active = true
	rc.lastEcho = rc.nextSeq
	rc.sendCredit()
	rc.tickTimer = rc.host.Engine().After2D(rc.host.Dom(),
		rc.sess.Cfg.BaseRTT, receiverTick, rc, nil, 0)
}

func (rc *receiver) stopCredits() {
	rc.active = false
	rc.creditTimer.Cancel()
	rc.tickTimer.Cancel()
}

// requestMissing sends (and retries) a NACK while the flow is short of
// its size. Retries share the maxRequestRetries budget; the
// timer is canceled the moment the flow finishes so nothing dangles.
func (rc *receiver) requestMissing() {
	f := rc.sess.Flow
	if f.Size == 0 || f.Finished {
		rc.nackTimer.Cancel()
		return
	}
	if rc.nackRetries >= maxRequestRetries {
		return
	}
	rc.nackRetries++
	nk := rc.host.Pool().Get()
	nk.Kind = packet.Ctrl
	nk.Ctrl = packet.CtrlNack
	nk.Flow = f.ID
	nk.Src = f.Receiver.ID()
	nk.Dst = f.Sender.ID()
	nk.Ack = int64(f.BytesDelivered)
	nk.Wire = unit.MinFrame
	rc.host.Send(nk)
	eng := rc.host.Engine()
	rc.nackTimer = sim.Rearm(rc.nackTimer, eng, rc.host.Dom(),
		eng.Now()+4*rc.sess.Cfg.BaseRTT, receiverReqMissing, rc, nil, 0)
}

// sendCredit emits one credit and schedules the next per the current
// rate, with jitter (Fig 6a) and randomized size (§3.1).
func (rc *receiver) sendCredit() {
	if !rc.active {
		return
	}
	f := rc.sess.Flow
	c := rc.host.Pool().Get()
	c.Kind = packet.Credit
	c.Class = rc.sess.Cfg.Class
	c.Flow = f.ID
	c.Src = f.Receiver.ID()
	c.Dst = f.Sender.ID()
	rc.nextSeq++
	c.Seq = rc.nextSeq
	size := unit.MinFrame
	if !rc.sess.Cfg.DisableCreditSizeRandomization {
		size += unit.Bytes(rc.rng.Intn(9)) // 84–92 B
	}
	c.Wire = size
	rc.creditsSent++
	// Emit before Send: the port takes ownership of c and may recycle it.
	if tr := rc.host.Tracer(); tr != nil && tr.Enabled(obs.EvCreditSent) {
		tr.Emit(obs.Event{T: rc.host.Engine().Now(), Type: obs.EvCreditSent,
			Scope: rc.host.Name(), Flow: int64(c.Flow), Seq: c.Seq, Bytes: size,
			Val: rc.fb.Rate.Gbits(), Aux: rc.fb.W})
	}
	rc.host.Send(c)

	// Pace by nominal credit size so size randomization doesn't lower
	// the effective credit packet rate (each credit authorizes one MTU).
	gap := unit.TxTime(unit.MinFrame, rc.fb.Rate)
	gap = rc.rng.Jitter(gap, rc.sess.Cfg.JitterFrac)
	if gap < 1 {
		gap = 1
	}
	rc.creditTimer = rc.host.Engine().After2D(rc.host.Dom(),
		gap, receiverSendCredit, rc, nil, 0)
}

// onData accounts delivered bytes and updates the echo-gap loss counts.
func (rc *receiver) onData(p *packet.Packet) {
	if rc.seen.dup(p.CreditSeq) {
		// A duplication impairment cloned this data packet. Drop the
		// clone before delivery accounting: a double-counted payload
		// would finish the flow early, and re-seeing a counted echo
		// would wrongly decrement the gap-inferred loss count.
		rc.dataDup++
		rc.host.Pool().Put(p)
		return
	}
	now := rc.host.Engine().Now()
	f := rc.sess.Flow
	wasFinished := f.Finished
	f.Deliver(now, p.Payload)
	if !wasFinished && f.Finished {
		rc.nackTimer.Cancel()
		if h := rc.fctHist; h != nil {
			h.Observe(f.FCT().Seconds() * 1e3)
		}
	}
	seq := p.CreditSeq
	rc.host.Pool().Put(p)

	if seq > rc.gateSeq {
		rc.delivered++
	}
	if seq > rc.lastEcho {
		lo := rc.lastEcho
		if rc.gateSeq > lo {
			lo = rc.gateSeq
		}
		if seq-1 > lo {
			rc.lost += uint64(seq - 1 - lo)
		}
		rc.lastEcho = seq
	} else if seq > rc.gateSeq && rc.lost > 0 {
		// A "hole" filled in late: the credit wasn't dropped, its data
		// was merely reordered (possible under packet spraying, §7).
		rc.lost--
	}
}

// tick runs Algorithm 1 once per update period over the gap-inferred
// credit loss of that period.
func (rc *receiver) tick() {
	if !rc.active {
		return
	}
	cfg := rc.sess.Cfg
	if n := rc.delivered + rc.lost; n > 0 && !cfg.Naive {
		rc.fb.Update(float64(rc.lost)/float64(n), rc.prevHadSample)
		if rc.fb.LastDecreased() {
			// In-flight credits predate the cut; don't double-count.
			rc.gateSeq = rc.nextSeq
		}
		rc.prevHadSample = true
	} else {
		rc.prevHadSample = false
	}
	rc.delivered, rc.lost = 0, 0
	rc.tickTimer = rc.host.Engine().After2D(rc.host.Dom(),
		cfg.BaseRTT, receiverTick, rc, nil, 0)
}
