package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the state of the Go runtime profiling hooks the CLIs
// expose (-cpuprofile, -memprofile). Start what was requested, run the
// workload, then Stop. Profiling is file-based on purpose: this package
// is imported by every layer, and serving net/http/pprof from it linked
// a web server into every binary (DESIGN.md, "Why profiling is
// file-based"; cmd/xpsim's TestLinkSurface holds the line).
type Profiles struct {
	cpu     *os.File
	memPath string
}

// StartProfiles starts the requested profiling outputs. cpuPath and
// memPath name profile files (empty = off).
func StartProfiles(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpu = f
	}
	return p, nil
}

// Stop finishes the CPU profile and writes the heap profile, if either
// was requested.
func (p *Profiles) Stop() error {
	if p == nil {
		return nil
	}
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			return err
		}
		p.cpu = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}
