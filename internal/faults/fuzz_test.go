package faults

import (
	"errors"
	"strings"
	"testing"
	"unicode"

	"expresspass/internal/sim"
)

// FuzzParseFaultSpec feeds arbitrary strings to the -faults grammar:
// whatever arrives on the command line, ParseSpec returns either a
// non-empty plan or a *ConfigError pointing inside the input — never a
// panic, never an untyped error. An error that names a clause names a
// whole one, where it stands: spec[Pos:] starts with Clause, and past
// any whitespace the clause is followed by the end of the spec, a ';' or
// the '}' closing its every{} body. Seeded with the specs spec_test.go
// already pins, valid and invalid, and with two that once pointed
// elsewhere: a bare inner clause reported at an earlier inner clause it
// prefixes, and an unterminated brace reported at the whitespace before
// its clause. An accepted plan is one Apply can expand: every window,
// one-shot or inside an every{} clause at its latest occurrence, starts
// at or after 0 and ends after it starts without leaving sim.Time, and
// no every{} clause replays more than maxOccurrences times (seeded with
// a start that once wrapped to a negative time and an every:10ns clause
// that once expanded a million occurrences). Runs its seed corpus as a
// plain test in tier-1; `make fuzz-smoke` mutates it for a few seconds.
func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range []string{
		"flap@10ms+2ms; loss:credit:0.05@20ms+5ms; loss:both:0.01:swL->swR@1s+100us; stall:s0@30ms+1ms",
		"gemodel:data:0.1:0.5:h=0.2:k=0.9:swL->swR@1ms+1ms;state:both:0.05:p31=0.4:p23=0.8:p32=0.1:p14=0.01@2ms+2ms",
		"loss:data:0.02:corr=0.5@3ms+3ms;dup:credit:0.01@4ms+4ms;corrupt:data:0.005:swR->swL@5ms+5ms",
		"reorder:0.1:20us@6ms+6ms;jitter:delay:pareto:5us@7ms+7ms;jitter:rate:normal:0.25@8ms+8ms",
		"every:20ms:jitter=1ms:count=3:duty=0.1:roll{ stall@0ms+2ms; flap@5ms+1ms }@10ms+80ms",
		"flap@1ms+1ms; every:10ms{ loss:credit:0.1@0ms+1ms; stall@2ms+1ms }@5ms+50ms; dup:data:0.01@2ms+2ms",
		"every:20ms{ flap@0ms+1ms; flap }@0ms+40ms",
		"flap@1ms+1ms;   every:10ms{ flap@0ms+1ms",
		"flap@10000000s+1ms",
		"every:10ns{ stall@0ns+1ns }@0ms+10ms",
	} {
		f.Add(s)
	}
	for _, s := range invalidSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseSpec(spec)
		if err == nil {
			if len(plan.Directives)+len(plan.Schedules) == 0 {
				t.Fatalf("ParseSpec(%q) accepted the spec but returned an empty plan", spec)
			}
			for _, d := range plan.Directives {
				onClock(t, spec, d.At, d.Dur)
			}
			for _, sc := range plan.Schedules {
				onClock(t, spec, sc.At, sc.Dur)
				if n := sc.occurrences(); n > maxOccurrences {
					t.Fatalf("ParseSpec(%q) accepted an every{} clause of %d occurrences", spec, n)
				}
				for _, d := range sc.Inner {
					onClock(t, spec, d.At, d.Dur)
					dur := d.Dur
					if sc.Duty > 0 {
						dur = sim.Duration(float64(sc.Period) * sc.Duty)
					}
					// The last occurrence starts before At+Dur, up to
					// Jitter late.
					onClock(t, spec, sc.At, sc.Dur, sc.Jitter, d.At, dur)
				}
			}
			return
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("ParseSpec(%q) error %T is not *ConfigError", spec, err)
		}
		if ce.Pos < 0 || ce.Pos > len(spec) {
			t.Fatalf("ParseSpec(%q) error offset %d is outside the input", spec, ce.Pos)
		}
		if ce.Clause != "" {
			if !strings.HasPrefix(spec[ce.Pos:], ce.Clause) {
				t.Fatalf("ParseSpec(%q) names clause %q at offset %d, where the spec reads %q",
					spec, ce.Clause, ce.Pos, spec[ce.Pos:])
			}
			after := strings.TrimLeftFunc(spec[ce.Pos+len(ce.Clause):], unicode.IsSpace)
			if after != "" && after[0] != ';' && after[0] != '}' {
				t.Fatalf("ParseSpec(%q) names clause %q at offset %d, but it runs on into %q",
					spec, ce.Clause, ce.Pos, after)
			}
		}
		if len(plan.Directives)+len(plan.Schedules) != 0 {
			t.Fatalf("ParseSpec(%q) returned both a plan and an error", spec)
		}
	})
}

// onClock fails unless the window at+spans… starts at or after 0, ends
// after it starts, and no partial sum wraps past the end of sim.Time.
func onClock(t *testing.T, spec string, at sim.Time, spans ...sim.Duration) {
	t.Helper()
	if at < 0 {
		t.Fatalf("ParseSpec(%q) accepted a window starting at %v", spec, at)
	}
	end := at
	for _, d := range spans {
		if d < 0 || end+d < end {
			t.Fatalf("ParseSpec(%q) accepted a window from %v that runs off the clock (%v more)", spec, at, d)
		}
		end += d
	}
	if end <= at {
		t.Fatalf("ParseSpec(%q) accepted a window from %v that does not end after it starts", spec, at)
	}
}
