package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

var (
	wallLine   = regexp.MustCompile(`^\s*\(\S+ wall\)\s*$`)
	finCell    = regexp.MustCompile(`^(\d+)/(\d+)$`)
	tracedLine = regexp.MustCompile(`xpsim: traced (\d+) events \((\d+) sim events, peak heap (\d+)\)`)
	gcSummary  = regexp.MustCompile(`(\d+) GCs \(([^)]+) paused\)`)
)

const cleanLine = "xpsim: invariants clean"

// resultLines returns stdout without the `(1.336s wall)` line — the one
// line that differs between two runs of the same inputs — and without
// blank lines.
func resultLines(stdout []byte) []string {
	var out []string
	for _, line := range strings.Split(string(stdout), "\n") {
		if strings.TrimSpace(line) == "" || wallLine.MatchString(line) {
			continue
		}
		out = append(out, line)
	}
	return out
}

func outputSHA(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// unfinished returns the first `a/b` table cell with a < b: a run that
// ended with flows still incomplete.
func unfinished(lines []string) (string, bool) {
	for _, line := range lines {
		for _, f := range strings.Fields(line) {
			m := finCell.FindStringSubmatch(f)
			if m == nil {
				continue
			}
			a, _ := strconv.Atoi(m[1])
			b, _ := strconv.Atoi(m[2])
			if a < b {
				return f, true
			}
		}
	}
	return "", false
}

// tracedSummary is xpsim's end-of-run line for a run that had a tracer.
type tracedSummary struct {
	traced, events, peakPending uint64
}

func parseTraced(stderr string) (tracedSummary, bool) {
	m := tracedLine.FindStringSubmatch(stderr)
	if m == nil {
		return tracedSummary{}, false
	}
	var s tracedSummary
	s.traced, _ = strconv.ParseUint(m[1], 10, 64)
	s.events, _ = strconv.ParseUint(m[2], 10, 64)
	s.peakPending, _ = strconv.ParseUint(m[3], 10, 64)
	return s, true
}

// parseGC reads the GC count and total pause from the -progress summary.
func parseGC(stderr string) (count int, pauseMs float64, ok bool) {
	m := gcSummary.FindStringSubmatch(stderr)
	if m == nil {
		return 0, 0, false
	}
	count, _ = strconv.Atoi(m[1])
	d, err := time.ParseDuration(m[2])
	if err != nil {
		return 0, 0, false
	}
	return count, float64(d) / float64(time.Millisecond), true
}

// checkRun judges one finished run of w on its own; identity with the
// other repetitions is the caller's comparison of the returned lines.
func checkRun(w workload, r run) ([]string, error) {
	if r.err != nil {
		return nil, fmt.Errorf("xpsim failed: %v: %s", r.err, strings.TrimSpace(r.stderr))
	}
	lines := resultLines(r.stdout)
	if len(lines) != w.lines {
		return lines, fmt.Errorf("%d result lines, want %d", len(lines), w.lines)
	}
	if cell, bad := unfinished(lines); bad {
		return lines, fmt.Errorf("flows left unfinished: %s", cell)
	}
	if w.armed && !strings.Contains(r.stderr, cleanLine) {
		return lines, fmt.Errorf("no %q on stderr", cleanLine)
	}
	if w.traced {
		if s, ok := parseTraced(r.stderr); !ok || s.traced == 0 {
			return lines, fmt.Errorf("traced run reported no traced events")
		}
	}
	return lines, nil
}
