package faults

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"expresspass/internal/netem"
	"expresspass/internal/sim"
)

// ConfigError reports a malformed fault spec with enough position
// information to point at the offending clause: Pos is the byte offset
// of Clause within Spec. Retrieve it with errors.As to build tooling on
// top of the parser; Error() renders everything for humans.
type ConfigError struct {
	Spec   string // the full spec string being parsed
	Clause string // the clause that failed (trimmed)
	Pos    int    // byte offset of Clause within Spec
	Msg    string // what is wrong with it
}

func (e *ConfigError) Error() string {
	if e.Clause == "" {
		return fmt.Sprintf("faults: %s in spec %q", e.Msg, e.Spec)
	}
	return fmt.Sprintf("faults: clause %q (at offset %d): %s", e.Clause, e.Pos, e.Msg)
}

// Directive is one parsed impairment from a spec string. It is a flat
// all-scalar struct (comparable with ==) whose fields beyond Kind,
// Target, At, and Dur are populated per kind as the grammar below
// documents.
type Directive struct {
	Kind   string // flap|loss|stall|gemodel|state|dup|corrupt|reorder|jitter
	Target string // port name, host name, or "" for the scenario default

	// Class is the governed queue class for classed kinds
	// (loss/gemodel/state/dup/corrupt): credit|data|both.
	Class string

	// Rate is the generic probability parameter: the loss, dup or
	// corrupt rate of the governed class, or the per-packet reorder
	// probability.
	Rate float64
	// Corr is the correlation of a loss window (0: independent loss).
	Corr float64

	// Gilbert-Elliott parameters (Kind == "gemodel").
	P, R, H, K float64

	// 4-state Markov parameters (Kind == "state").
	P13, P31, P23, P32, P14 float64

	// MaxExtra bounds a reorder window's extra wire delay.
	MaxExtra sim.Duration

	// Jitter parameters (Kind == "jitter"): Axis is delay|rate, Dist is
	// uniform|normal|pareto, Mean is the mean extra delay in picoseconds
	// (delay axis) or the mean stretch fraction (rate axis).
	Axis string
	Dist string
	Mean float64

	At  sim.Time     // when the impairment starts
	Dur sim.Duration // how long it lasts
}

// Schedule is one recurring chaos schedule parsed from an every{} clause:
// the Inner directives replay at At, At+Period, At+2·Period, … (plus a
// uniform random offset in [0, Jitter] per occurrence) until At+Dur or
// Count occurrences, whichever comes first. Inner directive At fields
// are offsets within each occurrence. Duty, when set, overrides every
// inner duration to Duty·Period. Roll rotates unset inner targets across
// the network's hosts (stalls) or ports (everything else) by occurrence
// index — a rolling stall wave or roaming flap storm.
type Schedule struct {
	Period sim.Duration
	Jitter sim.Duration
	Count  int
	Duty   float64
	Roll   bool
	At     sim.Time
	Dur    sim.Duration
	Inner  []Directive
}

// Plan is an ordered fault timeline: one-shot directives plus recurring
// chaos schedules.
type Plan struct {
	Directives []Directive
	Schedules  []Schedule
}

// Empty reports whether the plan schedules nothing.
func (pl Plan) Empty() bool { return len(pl.Directives) == 0 && len(pl.Schedules) == 0 }

// ParseSpec parses a fault timeline. Grammar: ';'-separated clauses
// (whitespace ignored; ';' inside an every{…} body belongs to the body),
// each either a one-shot impairment
//
//	flap[:<port>]@<start>+<dur>
//	stall[:<host>]@<start>+<dur>
//	loss:<class>:<rate>[:corr=<c>][:<port>]@<start>+<dur>
//	gemodel:<class>:<p>:<r>[:h=<x>][:k=<x>][:<port>]@<start>+<dur>
//	state:<class>:<p13>[:p31=<x>][:p23=<x>][:p32=<x>][:p14=<x>][:<port>]@<start>+<dur>
//	dup:<class>:<rate>[:<port>]@<start>+<dur>
//	corrupt:<class>:<rate>[:<port>]@<start>+<dur>
//	reorder:<rate>:<maxdelay>[:<port>]@<start>+<dur>
//	jitter:delay:<dist>:<mean-dur>[:<port>]@<start>+<dur>
//	jitter:rate:<dist>:<mean-frac>[:<port>]@<start>+<dur>
//
// or a recurring chaos schedule composing them
//
//	every:<period>[:jitter=<dur>][:count=<n>][:duty=<f>][:roll]{ <inner>; … }@<start>+<total>
//
// with class ∈ credit|data|both, dist ∈ uniform|normal|pareto, and times
// as <number><unit>, unit ∈ ns|us|µs|ms|s. Inside every{}, inner clause
// start times are offsets from each occurrence. An omitted port resolves
// to the scenario's bottleneck at Apply time; an omitted host to the
// first host. The 4-state defaults mirror tc netem: p31 = 1−p13,
// p23 = 1, p32 = 0, p14 = 0. Examples:
//
//	gemodel:credit:0.02:0.3@10ms+40ms; dup:data:0.01@20ms+5ms
//	every:20ms:count=3:roll{ stall@0ms+2ms }@10ms+80ms
//
// Malformed specs return a *ConfigError naming the offending clause and
// its byte offset.
func ParseSpec(spec string) (Plan, error) {
	var plan Plan
	clauses, err := splitClauses(spec, 0, len(spec))
	if err != nil {
		return Plan{}, err
	}
	for _, cl := range clauses {
		if strings.HasPrefix(cl.text, "every:") || cl.text == "every" {
			sc, err := parseSchedule(spec, cl)
			if err != nil {
				return Plan{}, err
			}
			plan.Schedules = append(plan.Schedules, sc)
			continue
		}
		d, err := parseDirective(spec, cl)
		if err != nil {
			return Plan{}, err
		}
		plan.Directives = append(plan.Directives, d)
	}
	if plan.Empty() {
		return Plan{}, &ConfigError{Spec: spec, Msg: "empty spec"}
	}
	return plan, nil
}

// clause is one top-level spec clause with its position in the spec.
type clause struct {
	text string
	pos  int
}

func (c clause) errorf(spec, format string, args ...any) *ConfigError {
	return &ConfigError{Spec: spec, Clause: c.text, Pos: c.pos,
		Msg: fmt.Sprintf(format, args...)}
}

// splitClauses splits spec[from:to] on ';' at brace depth zero — a ';'
// inside an every{…} body stays with its clause — and records each
// clause's byte offset within spec. A brace error names the whole clause
// it occurs in.
func splitClauses(spec string, from, to int) ([]clause, error) {
	var out []clause
	depth, start := 0, from
	for i := from; i < to; i++ {
		switch spec[i] {
		case '{':
			depth++
		case '}':
			if depth--; depth < 0 {
				end := to
				if j := strings.IndexByte(spec[i:to], ';'); j >= 0 {
					end = i + j
				}
				return nil, trimClause(spec, start, end).errorf(spec, "unbalanced '}'")
			}
		case ';':
			if depth == 0 {
				if cl := trimClause(spec, start, i); cl.text != "" {
					out = append(out, cl)
				}
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, trimClause(spec, start, to).errorf(spec, "unterminated '{' in every{...} clause")
	}
	if cl := trimClause(spec, start, to); cl.text != "" {
		out = append(out, cl)
	}
	return out, nil
}

// trimClause is spec[from:to] without its surrounding whitespace, at
// the offset where its text starts.
func trimClause(spec string, from, to int) clause {
	raw := spec[from:to]
	text := strings.TrimLeftFunc(raw, unicode.IsSpace)
	return clause{text: strings.TrimRightFunc(text, unicode.IsSpace), pos: to - len(text)}
}

// splitTiming cuts "<head>@<start>+<dur>" and parses the times.
func splitTiming(spec string, cl clause) (head string, at sim.Time, dur sim.Duration, err error) {
	head, timing, ok := strings.Cut(cl.text, "@")
	if !ok {
		return "", 0, 0, cl.errorf(spec, "missing '@<start>+<dur>'")
	}
	at, dur, err = parseTiming(spec, cl, timing)
	return head, at, dur, err
}

// parseTiming parses "<start>+<dur>".
func parseTiming(spec string, cl clause, timing string) (at sim.Time, dur sim.Duration, err error) {
	start, durStr, ok := strings.Cut(timing, "+")
	if !ok {
		return 0, 0, cl.errorf(spec, "missing '+<dur>' after start")
	}
	atd, derr := parseDur(start)
	if derr != nil {
		return 0, 0, cl.errorf(spec, "bad start: %v", derr)
	}
	dur, derr = parseDur(durStr)
	if derr != nil {
		return 0, 0, cl.errorf(spec, "bad duration: %v", derr)
	}
	if dur <= 0 {
		return 0, 0, cl.errorf(spec, "duration must be positive")
	}
	if !fits(atd, dur) {
		return 0, 0, cl.errorf(spec, "window end %s+%s is past the simulated clock's range", start, durStr)
	}
	return sim.Time(atd), dur, nil
}

// fits reports whether the sum of the non-negative spans ts is a
// representable sim.Time.
func fits(ts ...sim.Duration) bool {
	var sum sim.Duration
	for _, t := range ts {
		if t > sim.Forever-sum {
			return false
		}
		sum += t
	}
	return true
}

func parseDirective(spec string, cl clause) (Directive, error) {
	var d Directive
	head, at, dur, err := splitTiming(spec, cl)
	if err != nil {
		return d, err
	}
	d.At, d.Dur = at, dur

	fields := strings.Split(head, ":")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	d.Kind = fields[0]
	args := fields[1:]

	// prob parses a probability argument in [0, 1].
	prob := func(s, what string) (float64, error) {
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil || v < 0 || v > 1 {
			return 0, cl.errorf(spec, "%s %q must be in [0,1]", what, s)
		}
		return v, nil
	}
	// tail consumes optional key=val arguments then at most one target.
	tail := func(args []string, keys map[string]func(string) error) error {
		for _, a := range args {
			if k, v, ok := strings.Cut(a, "="); ok {
				if set := keys[k]; set != nil {
					if err := set(v); err != nil {
						return err
					}
					continue
				}
				return cl.errorf(spec, "unknown option %q", k)
			}
			if d.Target != "" {
				return cl.errorf(spec, "multiple targets (%q and %q)", d.Target, a)
			}
			if a == "" {
				return cl.errorf(spec, "empty argument")
			}
			d.Target = a
		}
		return nil
	}
	class := func(s string) error {
		switch s {
		case "credit", "data", "both":
			d.Class = s
			return nil
		}
		return cl.errorf(spec, "class %q must be credit|data|both", s)
	}

	switch d.Kind {
	case "flap", "stall":
		if err := tail(args, nil); err != nil {
			return d, err
		}
	case "loss":
		if len(args) < 2 {
			return d, cl.errorf(spec, "loss needs ':<class>:<rate>[:corr=<c>][:<target>]'")
		}
		if err := class(args[0]); err != nil {
			return d, err
		}
		if d.Rate, err = prob(args[1], "loss rate"); err != nil {
			return d, err
		}
		if err := tail(args[2:], map[string]func(string) error{
			"corr": func(v string) (e error) { d.Corr, e = prob(v, "corr"); return },
		}); err != nil {
			return d, err
		}
	case "gemodel":
		if len(args) < 3 {
			return d, cl.errorf(spec, "gemodel needs ':<class>:<p>:<r>[:h=][:k=][:<target>]'")
		}
		if err := class(args[0]); err != nil {
			return d, err
		}
		if d.P, err = prob(args[1], "p"); err != nil {
			return d, err
		}
		if d.R, err = prob(args[2], "r"); err != nil {
			return d, err
		}
		if d.P <= 0 || d.R <= 0 {
			return d, cl.errorf(spec, "gemodel p and r must be positive (got p=%g r=%g)", d.P, d.R)
		}
		d.K = 1 // classic Gilbert: lossless Good, total loss in Bad
		if err := tail(args[3:], map[string]func(string) error{
			"h": func(v string) (e error) { d.H, e = prob(v, "h"); return },
			"k": func(v string) (e error) { d.K, e = prob(v, "k"); return },
		}); err != nil {
			return d, err
		}
	case "state":
		if len(args) < 2 {
			return d, cl.errorf(spec, "state needs ':<class>:<p13>[:p31=][:p23=][:p32=][:p14=][:<target>]'")
		}
		if err := class(args[0]); err != nil {
			return d, err
		}
		if d.P13, err = prob(args[1], "p13"); err != nil {
			return d, err
		}
		// tc netem defaults: p31 = 1−p13, p23 = 1, p32 = 0, p14 = 0.
		d.P31, d.P23 = 1-d.P13, 1
		if err := tail(args[2:], map[string]func(string) error{
			"p31": func(v string) (e error) { d.P31, e = prob(v, "p31"); return },
			"p23": func(v string) (e error) { d.P23, e = prob(v, "p23"); return },
			"p32": func(v string) (e error) { d.P32, e = prob(v, "p32"); return },
			"p14": func(v string) (e error) { d.P14, e = prob(v, "p14"); return },
		}); err != nil {
			return d, err
		}
		if d.P13+d.P14 > 1 || d.P31+d.P32 > 1 {
			return d, cl.errorf(spec, "state transition probabilities exceed 1 (p13+p14=%g, p31+p32=%g)",
				d.P13+d.P14, d.P31+d.P32)
		}
	case "dup", "corrupt":
		if len(args) < 2 {
			return d, cl.errorf(spec, "%s needs ':<class>:<rate>[:<target>]'", d.Kind)
		}
		if err := class(args[0]); err != nil {
			return d, err
		}
		if d.Rate, err = prob(args[1], d.Kind+" rate"); err != nil {
			return d, err
		}
		if err := tail(args[2:], nil); err != nil {
			return d, err
		}
	case "reorder":
		if len(args) < 2 {
			return d, cl.errorf(spec, "reorder needs ':<rate>:<maxdelay>[:<target>]'")
		}
		if d.Rate, err = prob(args[0], "reorder rate"); err != nil {
			return d, err
		}
		me, derr := parseDur(args[1])
		if derr != nil || me <= 0 {
			return d, cl.errorf(spec, "bad reorder maxdelay %q", args[1])
		}
		d.MaxExtra = me
		if err := tail(args[2:], nil); err != nil {
			return d, err
		}
	case "jitter":
		if len(args) < 3 {
			return d, cl.errorf(spec, "jitter needs ':delay|rate:<dist>:<mean>[:<target>]'")
		}
		d.Axis = args[0]
		if d.Axis != "delay" && d.Axis != "rate" {
			return d, cl.errorf(spec, "jitter axis %q must be delay|rate", d.Axis)
		}
		d.Dist = args[1]
		if !ValidDist(d.Dist) {
			return d, cl.errorf(spec, "jitter distribution %q must be uniform|normal|pareto", d.Dist)
		}
		if d.Axis == "delay" {
			m, derr := parseDur(args[2])
			if derr != nil || m <= 0 {
				return d, cl.errorf(spec, "bad jitter mean delay %q", args[2])
			}
			d.Mean = float64(m)
		} else {
			m, perr := strconv.ParseFloat(args[2], 64)
			if perr != nil || m <= 0 {
				return d, cl.errorf(spec, "bad jitter mean fraction %q", args[2])
			}
			d.Mean = m
		}
		if err := tail(args[3:], nil); err != nil {
			return d, err
		}
	default:
		return d, cl.errorf(spec, "unknown fault kind %q", d.Kind)
	}
	return d, nil
}

// parseSchedule parses an every{...} clause into a Schedule. Its timing
// follows the closing brace — "every:…{ … }@<start>+<total>" — so the
// inner directives' own '@' signs stay with the body.
func parseSchedule(spec string, cl clause) (Schedule, error) {
	var sc Schedule
	open := strings.IndexByte(cl.text, '{')
	closing := strings.LastIndexByte(cl.text, '}')
	if open < 0 || closing < open {
		return sc, cl.errorf(spec, "every needs an '{ <inner>; ... }' body")
	}
	after := strings.TrimSpace(cl.text[closing+1:])
	if !strings.HasPrefix(after, "@") {
		return sc, cl.errorf(spec, "every needs '@<start>+<total>' after the '}'")
	}
	at, dur, err := parseTiming(spec, cl, after[1:])
	if err != nil {
		return sc, err
	}
	sc.At, sc.Dur = at, dur

	params := strings.Split(strings.TrimSpace(cl.text[:open]), ":")
	if len(params) < 2 || params[0] != "every" {
		return sc, cl.errorf(spec, "every needs ':<period>' before the body")
	}
	period, derr := parseDur(params[1])
	if derr != nil || period <= 0 {
		return sc, cl.errorf(spec, "bad every period %q", params[1])
	}
	sc.Period = period
	for _, p := range params[2:] {
		p = strings.TrimSpace(p)
		if p == "roll" {
			sc.Roll = true
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return sc, cl.errorf(spec, "bad every option %q (want jitter=|count=|duty=|roll)", p)
		}
		switch k {
		case "jitter":
			j, jerr := parseDur(v)
			if jerr != nil {
				return sc, cl.errorf(spec, "bad every jitter %q", v)
			}
			sc.Jitter = j
		case "count":
			n, nerr := strconv.Atoi(v)
			if nerr != nil || n <= 0 {
				return sc, cl.errorf(spec, "bad every count %q", v)
			}
			sc.Count = n
		case "duty":
			f, ferr := strconv.ParseFloat(v, 64)
			if ferr != nil || f <= 0 || f > 1 {
				return sc, cl.errorf(spec, "every duty %q must be in (0,1]", v)
			}
			sc.Duty = f
		default:
			return sc, cl.errorf(spec, "unknown every option %q", k)
		}
	}

	inner, err := splitClauses(spec, cl.pos+open+1, cl.pos+closing)
	if err != nil {
		return sc, err
	}
	for _, icl := range inner {
		if strings.HasPrefix(icl.text, "every") {
			return sc, icl.errorf(spec, "every{} bodies cannot nest")
		}
		d, err := parseDirective(spec, icl)
		if err != nil {
			return sc, err
		}
		sc.Inner = append(sc.Inner, d)
	}
	if len(sc.Inner) == 0 {
		return sc, cl.errorf(spec, "every{} body is empty")
	}
	if n := sc.occurrences(); n > maxOccurrences {
		return sc, cl.errorf(spec, "every expands to %d occurrences, more than %d", n, maxOccurrences)
	}
	// An occurrence starts before At+Dur, late by up to Jitter, and its
	// inner windows run from there; all of it must stay on the clock.
	for _, d := range sc.Inner {
		dur := d.Dur
		if sc.Duty > 0 {
			dur = sim.Duration(float64(sc.Period) * sc.Duty)
		}
		if !fits(sc.At, sc.Dur, sc.Jitter, d.At, dur) {
			return sc, cl.errorf(spec, "every's last occurrence ends past the simulated clock's range")
		}
	}
	return sc, nil
}

// maxOccurrences caps how many times one every{} clause may replay its
// body. Apply expands every occurrence into engine events up front, so
// an unbounded clause (every:1ns over a second) would exhaust memory
// before the run starts; the built-in storms use 4 occurrences and the
// scenario fuzzer at most 4, so the cap leaves four orders of magnitude
// of headroom.
const maxOccurrences = 65536

// parseDur parses "<number><unit>" with unit ns|us|µs|ms|s into a
// non-negative span that fits in sim.Time.
func parseDur(s string) (sim.Duration, error) {
	s = strings.TrimSpace(s)
	units := []struct {
		suf string
		mul sim.Duration
	}{
		{"ns", sim.Nanosecond},
		{"µs", sim.Microsecond},
		{"us", sim.Microsecond},
		{"ms", sim.Millisecond},
		{"s", sim.Second},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suf); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
			if err != nil || f < 0 {
				return 0, fmt.Errorf("bad number %q", num)
			}
			// The float comparison also refuses NaN and +Inf; a
			// float-to-int conversion past the range would wrap.
			v := f * float64(u.mul)
			if !(v < float64(sim.Forever)) {
				return 0, fmt.Errorf("time %q is past the simulated clock's range", s)
			}
			return sim.Duration(v), nil
		}
	}
	return 0, fmt.Errorf("time %q needs a unit (ns|us|ms|s)", s)
}

// Apply schedules the whole timeline onto net. Port targets ("a->b")
// resolve against port names; "" or "bottleneck" resolves to the given
// bottleneck port; stall targets resolve against host names, defaulting
// to the first host. Chaos schedules are expanded here: occurrence
// times (and their jitter, drawn from a stream forked off the engine's)
// are fixed at Apply, so the expansion — like everything downstream of
// it — is a pure function of the run seed.
func (pl Plan) Apply(net *netem.Network, bottleneck *netem.Port) error {
	for _, d := range pl.Directives {
		if err := applyDirective(net, bottleneck, d, d.At, d.Dur, d.Target); err != nil {
			return err
		}
	}
	for _, sc := range pl.Schedules {
		if err := sc.apply(net, bottleneck); err != nil {
			return err
		}
	}
	return nil
}

func (sc Schedule) apply(net *netem.Network, bottleneck *netem.Port) error {
	var rng *sim.Rand
	if sc.Jitter > 0 {
		rng = net.Eng.Rand().Fork()
	}
	end := sc.At + sim.Time(sc.Dur)
	for i, n := 0, sc.occurrences(); i < n; i++ {
		occ := sc.At + sim.Time(i)*sim.Time(sc.Period)
		if rng != nil {
			occ += sim.Time(rng.Range(0, sc.Jitter))
		}
		if occ >= end {
			break
		}
		for _, d := range sc.Inner {
			dur := d.Dur
			if sc.Duty > 0 {
				dur = sim.Duration(float64(sc.Period) * sc.Duty)
			}
			target := d.Target
			if sc.Roll && target == "" {
				if d.Kind == "stall" {
					hosts := net.Hosts()
					if len(hosts) > 0 {
						target = hosts[i%len(hosts)].Name()
					}
				} else {
					ports := net.AllPorts()
					if len(ports) > 0 {
						target = ports[i%len(ports)].Name()
					}
				}
			}
			if err := applyDirective(net, bottleneck, d, occ+sim.Time(d.At), dur, target); err != nil {
				return err
			}
		}
	}
	return nil
}

// occurrences is how many times the schedule's body may start: Count,
// capped by the periods that begin inside its window.
func (sc Schedule) occurrences() int {
	n := sc.Dur / sc.Period
	if sc.Dur%sc.Period != 0 {
		n++
	}
	if sc.Count > 0 && sim.Duration(sc.Count) < n {
		return sc.Count
	}
	return int(n)
}

func portByName(net *netem.Network, name string) *netem.Port {
	for _, p := range net.AllPorts() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

func hostByName(net *netem.Network, name string) *netem.Host {
	hosts := net.Hosts()
	if name == "" {
		if len(hosts) == 0 {
			return nil
		}
		return hosts[0]
	}
	for _, h := range hosts {
		if h.Name() == name {
			return h
		}
	}
	return nil
}
