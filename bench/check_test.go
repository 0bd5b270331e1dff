package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

const fig17Stdout = `== fig17: Shuffle (all-to-all) flow completion times: XP vs DCTCP (scale=0.3 seed=42)
hosts=12 tasksPerHost=2 bytesPerPair=1.2MB flows=528
proto        median FCT  99% FCT   max FCT   drops  finished
-----------  ----------  --------  --------  -----  --------
expresspass  0.04508s    0.05132s  0.05211s  0      528/528
dctcp        0.04502s    0.04952s  0.04974s  1331   528/528
   (1.336s wall)

`

func TestResultLinesStripTheWallLine(t *testing.T) {
	a := resultLines([]byte(fig17Stdout))
	b := resultLines([]byte(strings.Replace(fig17Stdout, "(1.336s wall)", "(987ms wall)", 1)))
	if len(a) != 6 {
		t.Fatalf("%d result lines, want 6: %q", len(a), a)
	}
	if outputSHA(a) != outputSHA(b) {
		t.Error("two runs that differ only in the wall line hash differently")
	}
	c := resultLines([]byte(strings.Replace(fig17Stdout, "0.05132s", "0.05133s", 1)))
	if outputSHA(a) == outputSHA(c) {
		t.Error("a changed statistic did not change the hash")
	}
}

func TestUnfinished(t *testing.T) {
	if cell, bad := unfinished(resultLines([]byte(fig17Stdout))); bad {
		t.Errorf("complete run reported unfinished cell %q", cell)
	}
	short := strings.Replace(fig17Stdout, "1331   528/528", "1331   527/528", 1)
	if cell, bad := unfinished(resultLines([]byte(short))); !bad || cell != "527/528" {
		t.Errorf("unfinished = %q, %v; want 527/528, true", cell, bad)
	}
}

func TestParseStderrSummaries(t *testing.T) {
	stderr := "xpsim: invariants clean\n" +
		"xpsim: traced 3618436 events (2106982 sim events, peak heap 1259)\n" +
		"xpsim: 2.267s wall, 5.00M sim events/s, peak RSS 27.6 MiB, heap 16.9 MiB, 30 GCs (1.059ms paused)\n"
	s, ok := parseTraced(stderr)
	if !ok || s != (tracedSummary{traced: 3618436, events: 2106982, peakPending: 1259}) {
		t.Errorf("parseTraced = %+v, %v", s, ok)
	}
	n, pause, ok := parseGC(stderr)
	if !ok || n != 30 || math.Abs(pause-1.059) > 1e-9 {
		t.Errorf("parseGC = %d, %v, %v; want 30, 1.059, true", n, pause, ok)
	}
	if _, ok := parseTraced("xpsim: invariants clean\n"); ok {
		t.Error("parseTraced accepted stderr without a traced line")
	}
	if _, _, ok := parseGC(""); ok {
		t.Error("parseGC accepted empty stderr")
	}
}

func TestCheckRun(t *testing.T) {
	armed, _ := workloadByName("shuffle-armed")
	plain := armed // the same fig17 table, no mode-specific check
	plain.armed = false
	traced, _ := workloadByName("shuffle-traced")
	good := run{stdout: []byte(fig17Stdout)}
	for _, tc := range []struct {
		name string
		w    workload
		r    run
		ok   bool
	}{
		{"plain", plain, good, true},
		{"non-zero exit", plain, run{err: errors.New("exit status 1")}, false},
		{"missing row", plain, run{stdout: []byte(strings.Replace(fig17Stdout, "dctcp        0.04502s    0.04952s  0.04974s  1331   528/528\n", "", 1))}, false},
		{"unfinished", plain, run{stdout: []byte(strings.Replace(fig17Stdout, "0      528/528", "0      9/528", 1))}, false},
		{"armed and clean", armed, run{stdout: good.stdout, stderr: cleanLine + "\n"}, true},
		{"armed, no verdict", armed, good, false},
		{"traced", traced, run{stdout: good.stdout, stderr: "xpsim: traced 12 events (40 sim events, peak heap 3)"}, true},
		{"traced nothing", traced, run{stdout: good.stdout, stderr: "xpsim: traced 0 events (40 sim events, peak heap 3)"}, false},
	} {
		if _, err := checkRun(tc.w, tc.r); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

func TestFirstDiagnostic(t *testing.T) {
	out := "# expresspass/bench/layers\nlayers/probes.go:76:30: too many arguments in call to sim.New\nlayers/probes.go:80:2: more\n"
	if got := firstDiagnostic(out, errors.New("exit status 1")); !strings.HasPrefix(got, "layers/probes.go:76:30") {
		t.Errorf("firstDiagnostic = %q", got)
	}
	if got := firstDiagnostic("", errors.New("exit status 1")); got != "exit status 1" {
		t.Errorf("firstDiagnostic of empty output = %q", got)
	}
}
