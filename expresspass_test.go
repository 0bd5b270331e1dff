package expresspass_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"expresspass"
)

// TestAPISurface pins the facade's exported names — the twin of
// cmd/xpsim's TestFlagSurface — so the public API changes only on
// purpose: adding or removing a name in expresspass.go fails here until
// this list says the same. A run's settings are ExperimentParams fields,
// not setters.
func TestAPISurface(t *testing.T) {
	t.Parallel()
	want := []string{
		"Bytes", "Config", "CreditClassConfig", "Dial", "Dist", "Duration", "Engine",
		"EventTypeByName", "Experiment", "ExperimentParams", "ExperimentScaleError",
		"Experiments", "FaultConfigError", "FaultDirective", "FaultInjector", "FaultPlan",
		"FaultSchedule", "Feedback", "Flow", "GB", "Gbps", "HardwareNIC", "Host",
		"HostDelayConfig", "InvariantOptions", "InvariantSet", "InvariantStats",
		"InvariantViolation", "JainIndex", "KB", "Kbps", "Link", "MB", "Mbps", "Metrics",
		"Microsecond", "Millisecond", "Nanosecond", "Network", "NewCSVTraceSink", "NewDist",
		"NewEngine", "NewFaultInjector", "NewFlow", "NewInvariantSet", "NewJSONLTraceSink",
		"NewMetrics", "NewNetwork", "NewObsRuntime", "NewRingSink", "NewRotatingTraceWriter",
		"NewSeries", "NewTracer", "Node", "ObsConfig", "ObsResources", "ObsRuntime",
		"ParseFaultSpec", "Port", "PortConfig", "PortStats", "Rate", "RateProbe",
		"RunExperiment", "RunScenario", "ScenarioOptions", "ScenarioReport", "Second",
		"Series", "Session", "SoftNIC", "Switch", "Time", "TraceEvent", "TraceEventType",
		"TraceRotateConfig", "Tracer",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "expresspass.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					got = append(got, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						got = append(got, n.Name)
					}
				}
			}
		}
	}
	got = slices.DeleteFunc(got, func(n string) bool { return !ast.IsExported(n) })
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("expresspass.go exports\n %v\nbut TestAPISurface lists\n %v", got, want)
	}
}

// TestQuickstartAPI runs the README quick-start end to end through the
// public facade.
func TestQuickstartAPI(t *testing.T) {
	eng := expresspass.NewEngine(1)
	net := expresspass.NewNetwork(eng)
	sw := net.NewSwitch("tor")
	link := expresspass.Link(10*expresspass.Gbps, 4*expresspass.Microsecond)
	a := net.NewHost("a", expresspass.HardwareNIC())
	b := net.NewHost("b", expresspass.HardwareNIC())
	net.Connect(a, sw, link)
	net.Connect(b, sw, link)
	net.BuildRoutes()

	flow := expresspass.NewFlow(net, a, b, 10*expresspass.MB, 0)
	sess := expresspass.Dial(flow, expresspass.Config{
		BaseRTT: 20 * expresspass.Microsecond,
	})
	eng.Run()

	if !flow.Finished {
		t.Fatal("flow did not finish")
	}
	if flow.BytesDelivered != 10*expresspass.MB {
		t.Errorf("delivered %v", flow.BytesDelivered)
	}
	// 10 MB at ≈9 Gbps goodput → ≈9 ms.
	if fct := flow.FCT(); fct < 8*expresspass.Millisecond || fct > 15*expresspass.Millisecond {
		t.Errorf("FCT = %v", fct)
	}
	if net.TotalDataDrops() != 0 {
		t.Error("data drops")
	}
	if sess.CreditsSent() == 0 || sess.DataSent() == 0 {
		t.Error("session counters empty")
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	exps := expresspass.Experiments()
	if len(exps) < 18 {
		t.Fatalf("experiments = %d, want ≥ 18", len(exps))
	}
	var buf bytes.Buffer
	err := expresspass.RunExperiment("table1",
		expresspass.ExperimentParams{Scale: 0.05, Seed: 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ToR down") {
		t.Errorf("table1 output:\n%s", buf.String())
	}
}

func TestFeedbackTypeExported(t *testing.T) {
	// The Algorithm 1 controller is usable standalone.
	fb := &expresspass.Feedback{
		MaxRate: 518 * expresspass.Mbps, MinRate: 2 * expresspass.Mbps,
		TargetLoss: 0.1, WMin: 0.01, WMax: 0.5,
		Rate: 100 * expresspass.Mbps, W: 0.5,
	}
	r0 := fb.Rate
	fb.Update(0, true)
	if fb.Rate <= r0 {
		t.Error("standalone feedback did not increase")
	}
}
