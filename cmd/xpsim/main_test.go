package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"expresspass"
	"expresspass/internal/sim"
)

func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		in float64
		ok bool
	}{
		{0.1, true},
		{1, true},
		{math.SmallestNonzeroFloat64, true},
		{0, false},
		{-1, false},
		{5, false},
		{math.Nextafter(1, 2), false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		err := checkScale(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("checkScale(%v) = %v; want ok=%v", tc.in, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-scale must be in (0,1], got ") {
			t.Errorf("checkScale(%v) error %q lacks the usage text", tc.in, err)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"64m", 64 << 20, true},
		{"1G", 1 << 30, true},
		{"k", 0, false},
		{"-1", 0, false},
		{"12x", 0, false},
		// n*mult would wrap int64 to a negative size, which the caller
		// reads as "rotation off".
		{"9999999999g", 0, false},
		{"8589934591g", (1<<33 - 1) << 30, true}, // largest whole-g size that fits
		{"8589934592g", 0, false},
	} {
		got, err := parseSize(tc.in)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "invalid size") {
			t.Errorf("parseSize(%q) = %d, %v; want an invalid size error", tc.in, got, err)
		}
	}
}

func TestSchedSummary(t *testing.T) {
	want := "0 heap pops (0.0% of 1000 sim events), 0 walk spills, peak heap 0 events, 0 rebuilds"
	if got := schedSummary(sim.Stats{Executed: 1000}); got != want {
		t.Errorf("wheel-only run: %q, want %q", got, want)
	}
	st := sim.Stats{Executed: 1000, HeapPops: 250, WalkSpills: 246, PeakHeap: 258, Rebuilds: 7}
	want = "250 heap pops (25.0% of 1000 sim events), 246 walk spills, peak heap 258 events, 7 rebuilds"
	if got := schedSummary(st); got != want {
		t.Errorf("spilling run: %q, want %q", got, want)
	}
	st.Reserved, st.Armed = 400, 100
	want += "; 300 of 400 tx-done events never queued (75.0%)"
	if got := schedSummary(st); got != want {
		t.Errorf("spilling run with elided tx-dones: %q, want %q", got, want)
	}
	want = "0 heap pops (0.0% of 0 sim events), 0 walk spills, peak heap 0 events, 0 rebuilds; 0 of 8 tx-done events never queued (0.0%)"
	if got := schedSummary(sim.Stats{Reserved: 8, Armed: 8}); got != want {
		t.Errorf("saturated run: %q, want %q", got, want)
	}
}

// TestHumanSI pins the event-rate figure of the resource line: the
// suffix is picked after rounding, so a value that rounds up to the next
// unit prints in it.
func TestHumanSI(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{999.4, "999"},
		{999.6, "1.0k"},
		{12345, "12.3k"},
		{999_940, "999.9k"},
		{999_960, "1.00M"},
		{10_200_000, "10.20M"},
		{999_994_000, "999.99M"},
		{999_996_000, "1.00G"},
		{2.5e9, "2.50G"},
	} {
		if got := humanSI(tc.v); got != tc.want {
			t.Errorf("humanSI(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestHumanBytes pins the RSS and heap figures of the resource line, the
// suffix picked after rounding as in humanSI.
func TestHumanBytes(t *testing.T) {
	for _, tc := range []struct {
		v    uint64
		want string
	}{
		{0, "unknown"},
		{1, "1 B"},
		{1023, "1023 B"},
		{1 << 10, "1.0 KiB"},
		{1<<20 - 52, "1023.9 KiB"},
		{1<<20 - 1, "1.0 MiB"},
		{1 << 20, "1.0 MiB"},
		{35 << 20, "35.0 MiB"},
		{1<<30 - 52<<10, "1023.9 MiB"},
		{1<<30 - 1, "1.00 GiB"},
		{3 << 30, "3.00 GiB"},
	} {
		if got := humanBytes(tc.v); got != tc.want {
			t.Errorf("humanBytes(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestReportInvariants pins the end-of-run invariant lines: what was
// checked comes first, a warning follows when that undercuts the verdict
// (a displaced checker, nothing checked at all — which is also what a run
// that built no network reports), and a clean verdict is still exactly
// the line the benchmark harness greps for. Exempt ports and voided
// networks are part of the summary, not warnings: both are how healthy
// DCTCP and fault-injection runs look.
func TestReportInvariants(t *testing.T) {
	viol := []expresspass.InvariantViolation{{Invariant: "token-bucket", Scope: "a->b", Detail: "x"}}
	for _, tc := range []struct {
		name   string
		st     expresspass.InvariantStats
		n      uint64
		vs     []expresspass.InvariantViolation
		want   []string
		failed bool
	}{
		{"healthy", expresspass.InvariantStats{Events: 3221739, Ports: 40, Exempt: 20, Networks: 2}, 0, nil, []string{
			"xpsim: invariants: 3221739 events checked on 40 ports (20 exempt) in 2 networks (0 voided)",
			"xpsim: invariants clean",
		}, false},
		{"every port exempt", expresspass.InvariantStats{Events: 10, Ports: 4, Exempt: 4, Networks: 1}, 0, nil, []string{
			"xpsim: invariants: 10 events checked on 4 ports (4 exempt) in 1 networks (0 voided)",
			"xpsim: invariants clean",
		}, false},
		{"voided", expresspass.InvariantStats{Events: 10, Ports: 4, Networks: 3, Voided: 3}, 0, nil, []string{
			"xpsim: invariants: 10 events checked on 4 ports (0 exempt) in 3 networks (3 voided)",
			"xpsim: invariants clean",
		}, false},
		{"displaced", expresspass.InvariantStats{Events: 10, Ports: 4, Networks: 3, Displaced: 1}, 0, nil, []string{
			"xpsim: invariants: 10 events checked on 4 ports (0 exempt) in 3 networks (0 voided)",
			"xpsim: warning: 1 of 3 checkers were displaced from their network's trace path before the run ended and saw only part of it",
			"xpsim: invariants clean",
		}, false},
		{"no network", expresspass.InvariantStats{}, 0, nil, []string{
			"xpsim: invariants: 0 events checked on 0 ports (0 exempt) in 0 networks (0 voided)",
			"xpsim: warning: the invariant checkers saw no events: nothing was checked",
			"xpsim: invariants clean",
		}, false},
		{"violations", expresspass.InvariantStats{Events: 10, Ports: 4, Networks: 1}, 1, viol, []string{
			"xpsim: invariants: 10 events checked on 4 ports (0 exempt) in 1 networks (0 voided)",
			"xpsim: invariant violation: " + viol[0].String(),
			"xpsim: 1 invariant violations",
		}, true},
	} {
		var b strings.Builder
		if failed := reportInvariants(&b, tc.st, tc.n, tc.vs); failed != tc.failed {
			t.Errorf("%s: failed = %v, want %v", tc.name, failed, tc.failed)
		}
		if got, want := b.String(), strings.Join(tc.want, "\n")+"\n"; got != want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, want)
		}
	}
}

func parseFlags(t *testing.T, args ...string) (*flag.FlagSet, *options) {
	t.Helper()
	fs := flag.NewFlagSet("xpsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return fs, o
}

// TestCheckValues: a numeric flag outside its range is a usage error,
// never quietly replaced by a default; -procs 0 means GOMAXPROCS.
func TestCheckValues(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // "" = accepted
	}{
		{"-scale 0", "-scale must be in (0,1], got 0"},
		{"-procs -1", "-procs must be >= 0, got -1"},
		{"-flight-events 0", "-flight-events must be > 0, got 0"},
		{"-flight-events -8", "-flight-events must be > 0, got -8"},
		{"-flight-events 65537", "-flight-events must be in (0, 65536], got 65537"},
		{"-flight-events 9223372036854775807", "-flight-events must be in (0, 65536], got 9223372036854775807"},
		{"-metrics-interval 0s", "-metrics-interval must be > 0, got 0s"},
		{"-metrics-interval -1ms", "-metrics-interval must be > 0, got -1ms"},

		{"", ""},
		{"-procs 0", ""},
		{"-procs 1 -flight-events 1 -metrics-interval 1ns", ""},
		{"-flight-events 65536", ""},
	} {
		_, o := parseFlags(t, strings.Fields(tc.args)...)
		got := ""
		if err := checkValues(o); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("xpsim %s: error %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestCheckFlagNeeds: a flag that only adjusts another flag is a usage
// error without it — whatever value it was given, and also when the
// flag it needs was spelled out but left off — and the combinations the
// benchmark harness runs still pass.
func TestCheckFlagNeeds(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // "" = accepted
	}{
		{"-flight f.jsonl", "-flight needs -invariants"},
		{"-flight-events 64", "-flight-events needs -flight"},
		{"-invariants -flight-events 64", "-flight-events needs -flight"},
		{"-flight f.jsonl -flight-events 64", "-flight needs -invariants"},
		{"-trace-types route_build", "-trace-types needs -trace"},
		{"-trace-types no_such_type", "-trace-types needs -trace"},
		{"-trace-rotate 16m", "-trace-rotate needs -trace"},
		{"-trace-gzip", "-trace-gzip needs -trace"},
		{"-trace-gzip=false", "-trace-gzip needs -trace"},
		{"-metrics-interval 1ms", "-metrics-interval needs -metrics"}, // set, though to the default
		{"-invariants=false -flight f.jsonl", "-flight needs -invariants"},
		{"-trace= -trace-gzip", "-trace-gzip needs -trace"},

		{"", ""},
		{"-progress", ""},
		{"-invariants", ""},
		{"-trace /dev/null -trace-types route_build", ""},
		{"-trace t.jsonl -trace-rotate 16m -trace-gzip", ""},
		{"-metrics m.csv -metrics-interval 100us", ""},
		{"-invariants -flight f.jsonl -flight-events 64", ""},
	} {
		fs, _ := parseFlags(t, strings.Fields(tc.args)...)
		err := checkFlagNeeds(fs)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("xpsim %s: error %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestFlagSurface holds the three places that enumerate xpsim's flags to
// one set: what newFlags defines (so what -h prints), the flag lists in
// this command's doc comment, and README's flag table — whose default
// and "needs" columns must also say what the code does. Removing or
// adding a flag fails here until all three agree.
func TestFlagSurface(t *testing.T) {
	fs, _ := parseFlags(t)
	var defined []string
	fs.VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) }) // sorted by name

	listed := func(file string, re *regexp.Regexp, text string) {
		var out []string
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			out = append(out, m[1])
		}
		sort.Strings(out)
		if !reflect.DeepEqual(out, defined) {
			t.Errorf("%s lists flags\n %v\nbut xpsim defines\n %v", file, out, defined)
		}
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	listed("main.go's doc comment", regexp.MustCompile(`(?m)^//\t-([a-z-]+)`), doc)

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|.*$")
	listed("README's flag table", row, string(readme))
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		cells := strings.Split(m[0], "|") // "", flag, default, needs, what it does, ""
		if len(cells) != 6 {
			t.Errorf("README: flag table row %q has %d cells, want 4", m[0], len(cells)-2)
			continue
		}
		cell := func(i int) string { return strings.Trim(cells[i], " `") }
		name, def, needs := m[1], cell(2), strings.TrimPrefix(cell(3), "-")
		f := fs.Lookup(name)
		if f == nil {
			continue // reported above
		}
		want := f.DefValue
		if name == "procs" {
			want = "GOMAXPROCS"
		}
		if def != want {
			t.Errorf("README: -%s default %q, want %q", name, def, want)
		}
		if needs != flagNeeds[name] {
			t.Errorf("README: -%s needs %q, want %q", name, needs, flagNeeds[name])
		}
		// A flag kept only so old command lines parse says so in both.
		if ignored := strings.HasPrefix(f.Usage, "ignored"); ignored != strings.HasPrefix(cell(4), "ignored") {
			t.Errorf("README: -%s is described as %q; its help text says %q", name, cell(4), f.Usage)
		}
	}
}

// TestDeletedFlagIsUnknown: -pprof is gone without a trace in the code,
// so what a command line that still carries it gets is package flag's
// own unknown-flag error followed by the usage listing — which names the
// two profiling flags that remain.
func TestDeletedFlagIsUnknown(t *testing.T) {
	fs := flag.NewFlagSet("xpsim", flag.ContinueOnError)
	var usage strings.Builder
	fs.SetOutput(&usage)
	newFlags(fs)
	err := fs.Parse([]string{"-pprof", "localhost:6060", "fig17"})
	if err == nil || !strings.Contains(err.Error(), "not defined: -pprof") {
		t.Fatalf("xpsim -pprof: error %v, want flag's unknown-flag error", err)
	}
	for _, want := range []string{"-cpuprofile", "-memprofile"} {
		if !strings.Contains(usage.String(), want) {
			t.Errorf("usage after -pprof does not list %s:\n%s", want, usage.String())
		}
	}
}

// TestShardsFlagIsIgnored: intra-run sharding is gone but -shards still
// parses, because existing command lines carry it (the benchmark harness
// passes -shards 0 to every run and probes -shards 2). 0 and 1 say
// nothing; a larger count says once on stderr that it was ignored; and
// stdout is the serial run's either way.
func TestShardsFlagIsIgnored(t *testing.T) {
	goTool(t)
	bin := filepath.Join(t.TempDir(), "xpsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(shards string) (stdout, stderr string) {
		t.Helper()
		var o, e strings.Builder
		cmd := exec.Command(bin, "-procs", "1", "-shards", shards, "-seed", "7", "-scale", "0.05", "ext-classes")
		cmd.Stdout, cmd.Stderr = &o, &e
		if err := cmd.Run(); err != nil {
			t.Fatalf("xpsim -shards %s: %v\n%s", shards, err, e.String())
		}
		var kept []string
		for _, line := range strings.Split(o.String(), "\n") {
			if !strings.HasSuffix(line, " wall)") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n"), e.String()
	}
	serial, note := run("0")
	if note != "" {
		t.Errorf("-shards 0 wrote to stderr: %q", note)
	}
	for shards, want := range map[string]string{
		"1": "",
		"2": "xpsim: -shards 2 ignored: intra-run sharding was removed (DESIGN.md \"One event queue per trial\")\n",
	} {
		out, note := run(shards)
		if note != want {
			t.Errorf("-shards %s stderr %q, want %q", shards, note, want)
		}
		if out != serial {
			t.Errorf("-shards %s stdout differs from -shards 0:\n%s\n---\n%s", shards, out, serial)
		}
	}
}

// TestObservedProcsNote: a traced or metered run runs its trials in
// order on one worker (internal/runner), so an explicit -procs above 1
// next to -trace or -metrics says once on stderr that it falls back to
// serial. The default -procs, -procs 1 and a -progress-only run say
// nothing.
func TestObservedProcsNote(t *testing.T) {
	// The default -procs is GOMAXPROCS: above 1, so the first row would
	// print the note if an unset -procs counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		args []string
		note string
	}{
		{[]string{"-trace", "t.jsonl", "fig9"}, ""},
		{[]string{"-procs", "1", "-trace", "t.jsonl", "fig9"}, ""},
		{[]string{"-procs", "2", "-trace", "t.jsonl", "fig9"},
			"xpsim: -procs 2: a traced or metered run runs its trials in order on one worker\n"},
		{[]string{"-procs", "3", "-metrics", "m.csv", "fig9"},
			"xpsim: -procs 3: a traced or metered run runs its trials in order on one worker\n"},
		{[]string{"-procs", "2", "-progress", "fig9"}, ""},
	} {
		var stderr strings.Builder
		if _, err := parseCommandLine(append([]string{"xpsim"}, tc.args...), &stderr); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if stderr.String() != tc.note {
			t.Errorf("%q: stderr %q, want %q", tc.args, stderr.String(), tc.note)
		}
	}
}

// goTool skips a test that shells out to the go tool where it cannot
// (internal/sim's TestHotPathInlining is the precedent).
func goTool(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the go tool: skipped under -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
}

// heavyImport reports whether no library or command of this module may
// link pkg: the network stack, TLS and what they drag in
// (≈ 4 MiB of resident data and ≈ 1 ms of start-up on every run when
// internal/obs served net/http/pprof — DESIGN.md "Why profiling is
// file-based"), and process spawning. vendor/ is the
// standard library's copy of x/net, x/crypto and x/sys/cpu, which only
// those import.
func heavyImport(pkg string) bool {
	if pkg == "net" || pkg == "os/exec" {
		return true
	}
	for _, prefix := range []string{"net/", "crypto", "mime", "html", "vendor/"} {
		if strings.HasPrefix(pkg, prefix) {
			return true
		}
	}
	return false
}

// TestLinkSurface holds the module's link surface: nothing the root
// package or the two commands import — however many hops
// away — is a heavyImport. internal/obs is imported by every layer, so
// one convenient import there is paid by every binary, test binary and
// library user; this names the import and a chain that reaches it.
func TestLinkSurface(t *testing.T) {
	goTool(t)
	cmd := exec.Command("go", "list", "-deps", "-f", `{{.ImportPath}} {{join .Imports " "}}`,
		".", "./cmd/xpsim", "./cmd/xpcalc")
	cmd.Dir = filepath.Join("..", "..")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, stderr.String())
	}
	// importedBy holds, for each package, the first allowed package that
	// imports it (go list prints dependencies before their importers, so
	// "first" is stable). A heavy package with no entry is reached only
	// through another heavy one, which is reported in its place.
	importedBy := map[string]string{}
	var pkgs []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		pkgs = append(pkgs, f[0])
		for _, imp := range f[1:] {
			if _, seen := importedBy[imp]; !seen && !heavyImport(f[0]) {
				importedBy[imp] = f[0]
			}
		}
	}
	if len(pkgs) < 20 {
		t.Fatalf("go list -deps printed %d packages: not the module's import graph\n%s", len(pkgs), out)
	}
	for _, pkg := range pkgs {
		by, imported := importedBy[pkg]
		if !heavyImport(pkg) || !imported {
			continue
		}
		chain := pkg
		for ; imported; by, imported = importedBy[by] {
			chain += " ← " + by
		}
		t.Errorf("heavy package linked into every run: %s", chain)
	}
}

// TestNoDeadProfile: a command line that is rejected after flag parsing
// — a bad -trace-rotate size or -trace-types list, or -scenario-seed
// next to another flag or an id (exit 2), a trace file that cannot be
// created (exit 1) — must not leave a profile or a trace file behind
// (DIR in a row's arguments is the row's own directory,
// which must stay empty); xpcalc, which has no profile flags, exits 2
// on a bad rate. Profiles used to start before
// those checks, which then exited without stopping them: a 0-byte cpu
// profile go tool pprof cannot read, and no heap profile at all. A bad
// -trace-types list used to be parsed after the trace file was created.
func TestNoDeadProfile(t *testing.T) {
	goTool(t)
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, ".", "../xpcalc").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		exit int
		args string
	}{
		{"xpsim", 2, "-trace /dev/null -trace-rotate bogus fig17"},
		{"xpsim", 2, "-trace DIR/t.jsonl -trace-types bogus fig17"},
		{"xpsim", 2, "-trace DIR/t.jsonl -trace-gzip -trace-types bogus fig17"},
		{"xpsim", 2, "-trace DIR/t.csv -trace-types , fig17"},
		{"xpsim", 1, "-trace /nonexistent/t.jsonl fig17"},
		{"xpsim", 1, "-invariants -flight /nonexistent/f.jsonl fig17"},
		{"xpsim", 2, "-scenario-seed 3 -trace DIR/t.jsonl"},
		{"xpsim", 2, "-scenario-seed 3 fig15"},
		{"xpcalc", 2, "-host bogus"},
		{"xpcalc", 2, "-fabric bogus"},
	} {
		dir := t.TempDir()
		args := strings.Fields(strings.ReplaceAll(tc.args, "DIR", dir))
		if tc.name == "xpsim" {
			cpu, mem := filepath.Join(dir, "p.prof"), filepath.Join(dir, "m.prof")
			args = append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...)
		}
		err := exec.Command(filepath.Join(bin, tc.name), args...).Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.exit {
			t.Errorf("%s %s: %v, want exit status %d", tc.name, tc.args, err, tc.exit)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("%s %s: left %s behind", tc.name, tc.args, e.Name())
		}
	}
}

// TestXpcalcIsFig5 runs xpcalc with no flags. Its defaults are fig5's
// software cell (10G hosts, 40G fabric, 8 credit-queue slots, a 5.1 µs
// host delay spread over fig5's 0.2 µs floor, 16+16 ToR ports), so its
// ToR switch total is the 10/40G row of fig5's 8-credit-queue table:
// 8.392MB + 23.55KB = 8.416MB.
func TestXpcalcIsFig5(t *testing.T) {
	goTool(t)
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "../xpcalc").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(filepath.Join(bin, "xpcalc")).Output()
	if err != nil {
		t.Fatalf("xpcalc: %v", err)
	}
	var fig5 bytes.Buffer
	if err := expresspass.RunExperiment("fig5", expresspass.ExperimentParams{Scale: 1, Seed: 1}, &fig5); err != nil {
		t.Fatal(err)
	}
	// The first 10/40G row is the 8-credit-queue table's.
	row := regexp.MustCompile(`(?m)^10/40G +(\S+) +(\S+) +(\S+)$`).FindStringSubmatch(fig5.String())
	if row == nil {
		t.Fatalf("fig5 prints no 10/40G row:\n%s", fig5.String())
	}
	want := fmt.Sprintf("ToR switch total (16+16 ports): data %s + credit %s = %s\n", row[1], row[2], row[3])
	if !strings.HasSuffix(string(out), want) {
		t.Errorf("xpcalc prints\n%s\nwant its last line %q (fig5's 10/40G row)", out, want)
	}
}

// FuzzParseSize feeds arbitrary -trace-rotate sizes to parseSize: it
// never panics, an error always comes with 0 and a success is never
// negative; and for every n it accepts, n's decimal form with a k, m or g
// suffix is n<<10, n<<20 or n<<30, or an error where that overflows.
// Runs its seeds as a plain test; `make fuzz-smoke` mutates them for a
// few seconds.
func FuzzParseSize(f *testing.F) {
	for _, s := range []string{"", "0", "64m", "k", "-1", "+5", "9223372036854775807", "8589934592g"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := parseSize(s)
		switch {
		case err != nil && n != 0:
			t.Fatalf("parseSize(%q) = %d with error %v; want 0", s, n, err)
		case err != nil:
			return
		case n < 0:
			t.Fatalf("parseSize(%q) = %d, a negative size", s, n)
		}
		for suffix, shift := range map[string]uint{"k": 10, "m": 20, "g": 30} {
			in := strconv.FormatInt(n, 10) + suffix
			got, err := parseSize(in)
			if n > math.MaxInt64>>shift {
				if err == nil {
					t.Fatalf("parseSize(%q) = %d; want an overflow error", in, got)
				}
				continue
			}
			if err != nil || got != n<<shift {
				t.Fatalf("parseSize(%q) = %d, %v; want %d", in, got, err, n<<shift)
			}
		}
	})
}

// FuzzParseEventTypes feeds arbitrary -trace-types lists to
// parseEventTypes: it returns a non-empty list or an error, never both
// and never a panic; nil without an error only for "", which means every
// type; and every type it returns is named by one of the list's trimmed
// comma-separated fields. Runs its seeds as a plain test; `make
// fuzz-smoke` mutates them for a few seconds.
func FuzzParseEventTypes(f *testing.F) {
	for _, s := range []string{"", ",", "qdepth", " qdepth , credit_tx", "qdepth,,credit_tx", "nosuch"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		types, err := parseEventTypes(list)
		switch {
		case err != nil && types != nil:
			t.Fatalf("parseEventTypes(%q) = %v and error %v", list, types, err)
		case err == nil && len(types) == 0 && list != "":
			t.Fatalf("parseEventTypes(%q) names no type and reports no error", list)
		case list == "" && (types != nil || err != nil):
			t.Fatalf(`parseEventTypes("") = %v, %v; want nil, nil`, types, err)
		}
		fields := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			fields[strings.TrimSpace(name)] = true
		}
		for _, ty := range types {
			if !fields[ty.String()] {
				t.Fatalf("parseEventTypes(%q) returned %v, which no field names", list, ty)
			}
		}
	})
}

// FuzzCommandLine feeds arbitrary command lines (arguments separated by
// NUL bytes) to parseCommandLine, with its messages discarded: it never
// panics, and a command line it accepts has every numeric flag in range
// — -scale in (0,1], -procs ≥ 0, a positive -metrics-interval and
// -flight-events in (0, maxFlightEvents] — and, if it sets
// -scenario-seed, no other flag and no experiment id. Runs its seeds as
// a plain test; `make fuzz-smoke` mutates them for a few seconds.
func FuzzCommandLine(f *testing.F) {
	for _, args := range [][]string{
		{},
		{"-scale", "0.05", "-seed", "7", "fig9"},
		{"-procs", "-1"},
		{"-scale", "NaN"},
		{"-invariants", "-flight", "f.txt", "-flight-events", "9223372036854775807", "fig10"},
		{"-trace", "t.jsonl", "-trace-rotate", "8589934592g", "-trace-types", ",", "fig17"},
		{"-metrics", "m.csv", "-metrics-interval", "-1ms"},
		{"-faults", "every:20ms:roll{ stall@0ms+2ms }@10ms+80ms", "ext-chaos-storm"},
		{"-shards", "2", "-h"},
		{"-scenario-seed", "3"},
		{"-scenario-seed", "3", "-trace", "t.jsonl", "fig15"},
	} {
		f.Add(strings.Join(args, "\x00"))
	}
	f.Fuzz(func(t *testing.T, line string) {
		var args []string
		if line != "" {
			args = strings.Split(line, "\x00")
		}
		c, err := parseCommandLine(append([]string{"xpsim"}, args...), io.Discard)
		switch {
		case err != nil && c != nil:
			t.Fatalf("%q: a command and error %v", args, err)
		case err != nil:
			return
		case !(c.scale > 0 && c.scale <= 1):
			t.Fatalf("%q: accepted -scale %v", args, c.scale)
		case c.procs < 0:
			t.Fatalf("%q: accepted -procs %d", args, c.procs)
		case c.metricsIval <= 0:
			t.Fatalf("%q: accepted -metrics-interval %v", args, c.metricsIval)
		case c.flightEvents <= 0 || c.flightEvents > maxFlightEvents:
			t.Fatalf("%q: accepted -flight-events %d", args, c.flightEvents)
		}
		fs, _ := parseFlags(t, args...)
		var set []string
		fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		if slices.Contains(set, "scenario-seed") && (len(set) > 1 || len(c.ids) > 0) {
			t.Fatalf("%q: accepted -scenario-seed with flags %v and ids %q", args, set, c.ids)
		}
	})
}
