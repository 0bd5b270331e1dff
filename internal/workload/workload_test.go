package workload

import (
	"errors"
	"math"
	"testing"

	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Table 2's bucket fractions, for distribution validation.
var table2 = map[string][4]float64{
	"DataMining":    {0.78, 0.05, 0.08, 0.09},
	"WebSearch":     {0.49, 0.03, 0.18, 0.30},
	"CacheFollower": {0.50, 0.03, 0.18, 0.29},
	"WebServer":     {0.63, 0.18, 0.19, 0.004},
}

func TestSizeDistBucketFractions(t *testing.T) {
	rng := sim.NewRand(1)
	for _, d := range AllDists() {
		want := table2[d.Name]
		var got [4]float64
		const n = 200000
		for i := 0; i < n; i++ {
			switch SizeClass(d.Sample(rng)) {
			case "S":
				got[0]++
			case "M":
				got[1]++
			case "L":
				got[2]++
			case "XL":
				got[3]++
			}
		}
		for i := range got {
			got[i] /= n
			if math.Abs(got[i]-want[i]) > 0.01+want[i]*0.05 {
				t.Errorf("%s bucket %d: got %.3f, want %.3f", d.Name, i, got[i], want[i])
			}
		}
	}
}

func TestSizeDistMeansMatchTable2(t *testing.T) {
	wantMeans := map[string]float64{
		"DataMining":    7.41e6,
		"WebSearch":     1.6e6,
		"CacheFollower": 701e3,
		"WebServer":     64e3,
	}
	for _, d := range AllDists() {
		want := wantMeans[d.Name]
		got := float64(d.Mean())
		// Tail buckets are calibrated so the analytic means land on the
		// paper's reported averages.
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s analytic mean %v, want ≈%v", d.Name, d.Mean(), unit.Bytes(want))
		}
	}
}

func TestSampleMeanMatchesAnalytic(t *testing.T) {
	rng := sim.NewRand(2)
	for _, d := range AllDists() {
		var sum float64
		const n = 300000
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(rng))
		}
		got := sum / n
		want := float64(d.Mean())
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s: sample mean %.3g vs analytic %.3g", d.Name, got, want)
		}
	}
}

func TestSizeClassBoundaries(t *testing.T) {
	cases := map[unit.Bytes]string{
		100:             "S",
		10*unit.KB - 1:  "S",
		10 * unit.KB:    "M",
		100*unit.KB - 1: "M",
		100 * unit.KB:   "L",
		1*unit.MB - 1:   "L",
		1 * unit.MB:     "XL",
		1 * unit.GB:     "XL",
	}
	for in, want := range cases {
		if got := SizeClass(in); got != want {
			t.Errorf("SizeClass(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPoissonOfferedLoad(t *testing.T) {
	rng := sim.NewRand(3)
	d := WebSearch()
	cfg := PoissonConfig{
		Hosts: 48, Dist: d, Load: 0.6, RefRate: 160 * unit.Gbps,
		Flows: 20000,
	}
	specs, err := Poisson(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != cfg.Flows {
		t.Fatalf("flows = %d", len(specs))
	}
	var bytes float64
	last := sim.Time(0)
	for i, s := range specs {
		bytes += float64(s.Size)
		if s.Start < last {
			t.Fatal("arrivals not monotonic")
		}
		last = s.Start
		if s.Src == s.Dst || s.Src < 0 || s.Src >= 48 || s.Dst < 0 || s.Dst >= 48 {
			t.Fatalf("bad endpoints in spec %d: %+v", i, s)
		}
	}
	offered := bytes * 8 / last.Seconds()
	want := 0.6 * 160e9
	if math.Abs(offered-want)/want > 0.15 {
		t.Errorf("offered load %.3g bps, want %.3g", offered, want)
	}
}

func TestShuffleSpecs(t *testing.T) {
	rng := sim.NewRand(5)
	specs := Shuffle(rng, ShuffleConfig{Hosts: 4, TasksPerHost: 2, Bytes: unit.MB})
	// 4 hosts × 3 peers × 2² task pairs.
	if len(specs) != 48 {
		t.Fatalf("specs = %d, want 48", len(specs))
	}
	count := map[[2]int]int{}
	for _, s := range specs {
		if s.Src == s.Dst {
			t.Fatal("self shuffle")
		}
		count[[2]int{s.Src, s.Dst}]++
	}
	for pair, c := range count {
		if c != 4 {
			t.Errorf("pair %v has %d flows, want tasks² = 4", pair, c)
		}
	}
}

func TestPoissonConfigValidation(t *testing.T) {
	rng := sim.NewRand(9)
	valid := PoissonConfig{
		Hosts: 8, Dist: WebSearch(), Load: 0.6, RefRate: 10 * unit.Gbps,
		Flows: 10,
	}
	if _, err := Poisson(rng, valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(*PoissonConfig)
		field string
	}{
		{"one host", func(c *PoissonConfig) { c.Hosts = 1 }, "Hosts"},
		{"zero hosts", func(c *PoissonConfig) { c.Hosts = 0 }, "Hosts"},
		{"nil dist", func(c *PoissonConfig) { c.Dist = nil }, "Dist"},
		{"zero-mean dist", func(c *PoissonConfig) { c.Dist = &SizeDist{Name: "empty"} }, "Dist"},
		{"zero load", func(c *PoissonConfig) { c.Load = 0 }, "Load"},
		{"negative load", func(c *PoissonConfig) { c.Load = -0.5 }, "Load"},
		{"zero ref rate", func(c *PoissonConfig) { c.RefRate = 0 }, "RefRate"},
		{"negative flows", func(c *PoissonConfig) { c.Flows = -1 }, "Flows"},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mut(&cfg)
		specs, err := Poisson(rng, cfg)
		if err == nil {
			t.Errorf("%s: no error (got %d specs)", tc.name, len(specs))
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T is not *ConfigError", tc.name, err)
			continue
		}
		if ce.Generator != "poisson" || ce.Field != tc.field {
			t.Errorf("%s: got %q/%q, want poisson/%s", tc.name, ce.Generator, ce.Field, tc.field)
		}
	}
}
