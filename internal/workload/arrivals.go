package workload

import (
	"fmt"

	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// ConfigError reports an invalid workload-generator configuration. The
// generators are driven by arithmetic on caller-supplied knobs (host
// counts, loads, rate references); a zero or degenerate knob used to
// surface as a runtime panic (Intn(0)) or a division by zero deep in
// the arrival loop — callers now get the offending field by name.
type ConfigError struct {
	Generator string // which generator rejected the config
	Field     string // offending field
	Reason    string // what about it is invalid
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("workload: %s config: %s %s", e.Generator, e.Field, e.Reason)
}

// FlowSpec describes one flow to be created by an experiment driver:
// host indexes (into the topology's host list), size, and start time.
type FlowSpec struct {
	Src, Dst int
	Size     unit.Bytes
	Start    sim.Time
}

// PoissonConfig drives the §6.3 realistic-workload generator.
type PoissonConfig struct {
	Hosts int       // number of hosts to pick src/dst from
	Dist  *SizeDist // flow sizes
	// Load is the target offered load as a fraction of RefRate.
	Load float64
	// RefRate is the capacity the load is defined against (the paper
	// targets the ToR uplink layer's aggregate capacity).
	RefRate unit.Rate
	Flows   int      // number of flows to generate
	Start   sim.Time // arrival process start
}

// Poisson generates Flows flows with exponential inter-arrivals sized so
// offered load ≈ Load·RefRate, with uniform random src≠dst pairs.
// Arrival times are strictly non-decreasing, which lifecycle-managed
// drivers rely on for chained arrival dialing. An invalid config — too
// few hosts for a src≠dst pair, a degenerate size distribution, or a
// non-positive load or reference rate — returns a *ConfigError instead
// of panicking inside the arrival loop.
func Poisson(rng *sim.Rand, cfg PoissonConfig) ([]FlowSpec, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	meanBits := float64(cfg.Dist.Mean()) * 8
	lambda := cfg.Load * float64(cfg.RefRate) / meanBits // flows/sec
	meanGap := sim.Duration(float64(sim.Second) / lambda)
	specs := make([]FlowSpec, 0, cfg.Flows)
	t := cfg.Start
	for i := 0; i < cfg.Flows; i++ {
		t += rng.ExpDuration(meanGap)
		src := rng.Intn(cfg.Hosts)
		dst := rng.Intn(cfg.Hosts - 1)
		if dst >= src {
			dst++
		}
		specs = append(specs, FlowSpec{Src: src, Dst: dst, Size: cfg.Dist.Sample(rng), Start: t})
	}
	return specs, nil
}

func (cfg PoissonConfig) validate() error {
	bad := func(field, reason string) error {
		return &ConfigError{Generator: "poisson", Field: field, Reason: reason}
	}
	switch {
	case cfg.Hosts < 2:
		return bad("Hosts", fmt.Sprintf("= %d, need >= 2 for src != dst pairs", cfg.Hosts))
	case cfg.Dist == nil:
		return bad("Dist", "is nil")
	case cfg.Dist.Mean() <= 0:
		return bad("Dist", fmt.Sprintf("%q has non-positive mean %v", cfg.Dist.Name, cfg.Dist.Mean()))
	case cfg.Load <= 0:
		return bad("Load", fmt.Sprintf("= %g, need > 0", cfg.Load))
	case cfg.RefRate <= 0:
		return bad("RefRate", fmt.Sprintf("= %v, need > 0", cfg.RefRate))
	case cfg.Flows < 0:
		return bad("Flows", fmt.Sprintf("= %d, need >= 0", cfg.Flows))
	}
	return nil
}

// ShuffleConfig drives the MapReduce shuffle generator of Fig 17:
// TasksPerHost tasks on each of Hosts hosts, every task sending Bytes to
// every other task (including tasks co-located on other hosts). Flows
// start at time zero, plus their jitter.
type ShuffleConfig struct {
	Hosts        int
	TasksPerHost int
	Bytes        unit.Bytes // per task-pair transfer (paper: 1 MB)
}

// shuffleJitter staggers shuffle flow starts uniformly over
// [0, 1 ms] so the all-to-all burst isn't a single synchronized instant.
const shuffleJitter = sim.Millisecond

// Shuffle expands the config: host h sends (Hosts−1)·TasksPerHost²
// flows, one per (local task, remote task) pair.
func Shuffle(rng *sim.Rand, cfg ShuffleConfig) []FlowSpec {
	var specs []FlowSpec
	for src := 0; src < cfg.Hosts; src++ {
		for dst := 0; dst < cfg.Hosts; dst++ {
			if src == dst {
				continue
			}
			for i := 0; i < cfg.TasksPerHost*cfg.TasksPerHost; i++ {
				st := rng.Range(0, shuffleJitter)
				specs = append(specs, FlowSpec{Src: src, Dst: dst, Size: cfg.Bytes, Start: st})
			}
		}
	}
	return specs
}
