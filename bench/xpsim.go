package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir, under the repository root, holds everything the benchmark
// compiles. It is named in .gitignore.
const buildDir = ".bench_build"

// findRoot returns the repository root: the working directory or its
// parent, whichever holds cmd/xpsim. `go run -C bench .` and `go test`
// both start the harness inside bench/. It looks no further up, so a
// directory that holds only the benchmark never finds someone else's
// simulator.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "xpsim")); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", errors.New("no cmd/xpsim here or one level up: the benchmark needs the repository's source to build the simulator")
}

// goBuild compiles pkg (relative to dir) into root/.bench_build/name and
// returns the binary's path. On failure the error carries the first
// compiler diagnostic.
func goBuild(root, dir, name, pkg string, flags ...string) (string, error) {
	out := filepath.Join(root, buildDir, name)
	args := append(append([]string{"build"}, flags...), "-o", out, pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %s", pkg, firstDiagnostic(string(msg), err))
	}
	return out, nil
}

// firstDiagnostic picks the first line of compiler output that is not a
// `# package` banner.
func firstDiagnostic(out string, err error) string {
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			return line
		}
	}
	return err.Error()
}

// childEnv is the whole environment of every xpsim child: one scheduler
// thread, and none of the XPSIM_* switches the caller's shell may carry.
var childEnv = []string{"GOMAXPROCS=1"}

// run is one finished xpsim child.
type run struct {
	wall, cpu float64 // seconds: harness clock, child ru_utime+ru_stime
	rssMB     float64 // child peak RSS (VmHWM), MiB
	stdout    []byte
	stderr    string
	err       error // start failure or non-zero exit
}

func serialArgs(seed uint64, rest ...string) []string {
	return append([]string{"-procs", "1", "-shards", "0", "-seed", strconv.FormatUint(seed, 10)}, rest...)
}

// runChild executes bin to completion. Time comes from the harness clock
// and the child's rusage; memory from polling the child's VmHWM, because
// on Linux a child's ru_maxrss starts at the parent's own peak RSS (the
// high-water mark survives fork and exec), so for a child smaller than
// the harness it reports the harness.
func runChild(bin string, env, args []string) run {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return run{err: err}
	}
	stop, peak := make(chan struct{}), make(chan float64)
	go pollPeakRSS(cmd.Process.Pid, stop, peak)
	err := cmd.Wait()
	wall := time.Since(start).Seconds()
	close(stop)
	ps := cmd.ProcessState
	r := run{wall: wall, rssMB: <-peak, stdout: stdout.Bytes(), stderr: stderr.String(), err: err,
		cpu: (ps.UserTime() + ps.SystemTime()).Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && r.rssMB == 0 {
		r.rssMB = float64(ru.Maxrss) / 1024 // no /proc here: Linux reports KiB
	}
	return r
}

// pollPeakRSS reads pid's VmHWM every few milliseconds until stop closes,
// then sends the last value it saw, in MiB (0 if it never saw one). The
// mark only rises, and these workloads reach it long before they exit.
func pollPeakRSS(pid int, stop <-chan struct{}, peak chan<- float64) {
	path := "/proc/" + strconv.Itoa(pid) + "/status"
	tick := time.NewTicker(4 * time.Millisecond)
	defer tick.Stop()
	last := 0.0
	for {
		select {
		case <-stop:
			peak <- last
			return
		case <-tick.C:
			if kb, ok := vmHWM(path); ok {
				last = float64(kb) / 1024
			}
		}
	}
}

func vmHWM(statusPath string) (kb uint64, ok bool) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// setupSample launches bin and returns the time from exec to its first
// write to stdout — the `== figN: …` header xpsim prints once flags are
// parsed, the trace file is open and invariants are armed, before the
// first trial builds a topology. Stdout is a pipe nobody reads, so that
// write kills the child with SIGPIPE and the sample is exec → exit.
// (Reading the first byte instead measures when the harness is next
// scheduled: a child that carries on simulating keeps the core until the
// tick, 4 ms later, every time the two share one.)
func setupSample(bin string, args []string) (float64, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return 0, err
	}
	_ = r.Close() // no reader: the child's first write fails
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv
	cmd.Stdout = w
	start := time.Now()
	err = cmd.Start()
	_ = w.Close() // the child holds its own copy
	if err != nil {
		return 0, err
	}
	err = cmd.Wait()
	elapsed := time.Since(start).Seconds()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		return 0, fmt.Errorf("child ended without writing to stdout: %v", err)
	}
	if st, ok := exit.Sys().(syscall.WaitStatus); !ok || !st.Signaled() || st.Signal() != syscall.SIGPIPE {
		return 0, fmt.Errorf("child ended before writing to stdout: %w", err)
	}
	return elapsed, nil
}
