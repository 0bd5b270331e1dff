package expresspass_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"expresspass"
	"expresspass/internal/core"
	"expresspass/internal/experiments"
	"expresspass/internal/invariant"
	"expresspass/internal/lifecycle"
	"expresspass/internal/netem"
	"expresspass/internal/obs"
	"expresspass/internal/topology"
	"expresspass/internal/workload"
)

// TestAPISurface pins the facade's exported names — the twin of
// cmd/xpsim's TestFlagSurface — so the public API changes only on
// purpose: adding or removing a name in expresspass.go fails here until
// this list says the same. A run's settings are ExperimentParams fields,
// not setters.
func TestAPISurface(t *testing.T) {
	t.Parallel()
	want := []string{
		"Bytes", "Config", "CreditClassConfig", "Dial", "Duration", "Engine",
		"EventTypeByName", "Experiment", "ExperimentParams", "ExperimentScaleError",
		"Experiments", "FaultConfigError", "FaultDirective", "FaultPlan",
		"FaultSchedule", "Feedback", "Flow", "Gbps", "HardwareNIC", "Host",
		"HostDelayConfig", "InvariantOptions", "InvariantSet", "InvariantStats",
		"InvariantViolation", "KB", "Link", "MB", "Mbps",
		"Microsecond", "Millisecond", "Network",
		"NewEngine", "NewFlow", "NewInvariantSet", "NewJSONLTraceSink",
		"NewNetwork", "NewObsRuntime",
		"NewTracer", "Node", "ObsConfig", "ObsRuntime",
		"ParseFaultSpec", "PortConfig", "Rate",
		"RunExperiment", "RunScenario", "ScenarioReport", "Second",
		"Session", "Switch", "Time", "TraceEventType",
		"Tracer",
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

// TestDocReferencesResolve holds every cross-reference into the two
// design documents to a title that exists. A quoted title right after
// the name DESIGN.md or EXPERIMENTS.md (a comma between them allowed),
// in any Go, Markdown, shell or Makefile text of the tree, must occur in
// a # heading or a "- **…**" bullet of the document it names. A title
// may wrap across lines, inside // or # comments. CHANGES.md quotes
// titles as they were when each change landed, and the root Markdown
// files other than the project's four documents quote outside text, so
// neither is read.
func TestDocReferencesResolve(t *testing.T) {
	t.Parallel()
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
	titles := map[string][]string{}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(b), "\n")
		for i, line := range lines {
			if strings.HasPrefix(line, "#") {
				titles[doc] = append(titles[doc], line)
			}
			if !strings.HasPrefix(line, "- **") {
				continue
			}
			// A bullet's bold lead may wrap; take it to its closing **.
			lead := line
			for j := i + 1; strings.Count(lead, "**") < 2 && j < len(lines); j++ {
				lead += " " + strings.TrimSpace(lines[j])
			}
			titles[doc] = append(titles[doc], lead)
		}
	}
	ref := regexp.MustCompile(`(DESIGN|EXPERIMENTS)\.md,? "([^"]+)"`)
	wrap := regexp.MustCompile(`\s*\n\s*(?://+|#+)?\s*`)
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." && d.Name() != ".claude" {
				return filepath.SkipDir // .git and build output
			}
			return nil
		}
		ext := filepath.Ext(path)
		if (ext != ".go" && ext != ".md" && ext != ".sh" && path != "Makefile") || path == "CHANGES.md" ||
			(ext == ".md" && filepath.Dir(path) == "." && !slices.Contains(docs, path)) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range ref.FindAllStringSubmatch(wrap.ReplaceAllString(string(b), " "), -1) {
			doc, title := m[1]+".md", m[2]
			n++
			if !slices.ContainsFunc(titles[doc], func(l string) bool { return strings.Contains(l, title) }) {
				t.Errorf("%s cites %s %q, which no heading or bold bullet of %s holds", path, doc, title, doc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cross-reference found: the pattern no longer matches how the documents cite each other")
	}
}

// TestConfigSurface pins the exported fields of every config struct in
// the module — each struct type named *Config, *Options or *Params — the
// way TestAPISurface pins the facade's names: a new knob, or a new
// config type, fails here until this table says the same, so it arrives
// as a reviewed diff.
func TestConfigSurface(t *testing.T) {
	t.Parallel()
	want := []struct {
		typ    reflect.Type
		fields string
	}{
		{reflect.TypeFor[core.Config](), "Alpha WInit BaseRTT JitterFrac DisableCreditSizeRandomization Naive StopMargin Class"},
		{reflect.TypeFor[experiments.Params](), "Scale Seed Faults Procs Obs Invariants"},
		{reflect.TypeFor[invariant.Options](), "QueueBound DelayCap NoQueueBound NoDelayBound OnViolation FlightOut FlightEvents"},
		{reflect.TypeFor[lifecycle.Config](), "Engine Specs Dial Class OnRetire Grace"},
		{reflect.TypeFor[netem.CreditClassConfig](), "Priority Weight"},
		{reflect.TypeFor[netem.HostDelayConfig](), "Min Spread"},
		{reflect.TypeFor[netem.PortConfig](), "Rate Delay DataCapacity CreditQueueCap CreditBurst CreditRatio ECNThreshold CreditTailDrop RED CreditClasses RCP Phantom PFC"},
		{reflect.TypeFor[obs.Config](), "Tracer MetricsOut Interval Progress"},
		{reflect.TypeFor[obs.RotateConfig](), "MaxBytes Gzip Header"},
		{reflect.TypeFor[topology.Config](), "LinkRate LinkDelay Port"},
		{reflect.TypeFor[topology.OversubParams](), "Cores Aggs ToRs HostsPerToR"},
		{reflect.TypeFor[workload.PoissonConfig](), "Hosts Dist Load RefRate Flows Start"},
		{reflect.TypeFor[workload.ShuffleConfig](), "Hosts TasksPerHost Bytes"},
	}
	const rule = "a config field needs two production callers that set it to different values " +
		"(a test or an example is no such caller); a field with one production value is a constant " +
		"(DESIGN.md \"One value, no knob\")"
	var pinned []string
	for _, w := range want {
		var got []string
		for i := 0; i < w.typ.NumField(); i++ {
			if f := w.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if g := strings.Join(got, " "); g != w.fields {
			t.Errorf("%s has fields\n %s\nbut TestConfigSurface pins\n %s\n(%s)", w.typ, g, w.fields, rule)
		}
		pinned = append(pinned, w.typ.String())
	}

	// The table covers every config struct the module declares.
	name := regexp.MustCompile(`(Config|Options|Params)$`)
	var declared []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.IsExported() && name.MatchString(ts.Name.Name) && ts.Assign == 0 {
				if _, isStruct := ts.Type.(*ast.StructType); isStruct {
					declared = append(declared, f.Name.Name+"."+ts.Name.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(declared)
	slices.Sort(pinned)
	if !slices.Equal(declared, pinned) {
		t.Errorf("the module declares config structs\n %v\nbut TestConfigSurface pins\n %v\n(%s)", declared, pinned, rule)
	}
}

// TestInternalExportsHaveACaller fails for an exported function or
// method under internal/ that no non-test file of the tree names —
// bench/ included — so an accessor only a test reads does not land in
// production code: a same-directory test reads it through
// export_test.go. Names are matched without types: a selector that is
// not called counts only when no struct field shares its name, and any
// other function or method of the same name is a caller. So it misses
// names like Rate or Node; `make reach` (DESIGN.md "Reachability") is
// the full instrument.
func TestInternalExportsHaveACaller(t *testing.T) {
	t.Parallel()
	// The survivors, each with the test in another package that needs it.
	kept := map[string]string{
		"core.Session.CreditsDuplicated": "invariant.TestDuplicatedCreditsCannotDoubleSpend counts the credits the sender's dedup window declined",
		"core.Session.DataDuplicated":    "invariant.TestDuplicatedDataCannotInflateDelivery counts the data packets the receiver's dedup window dropped",
		"netem.Network.ActiveEndpoints":  "experiments.TestLifecycleRetirementClearsLiveState checks that retirement empties the flow table",
	}
	type decl struct {
		name *ast.Ident
		key  string
		pos  token.Position
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			return nil
		}
		for _, fd := range f.Decls {
			fd, ok := fd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				key += typ.(*ast.Ident).Name + "."
			}
			decls = append(decls, decl{fd.Name, key + fd.Name.Name, fset.Position(fd.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[*ast.Ident]bool{}
	for _, d := range decls {
		declared[d.name] = true
	}
	fields := map[string]bool{}         // every struct field name in the tree
	maybeField := map[*ast.Ident]bool{} // x.Sel not called, or a literal's key
	called := map[*ast.Ident]bool{}     // x.Sel(…)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						fields[id.Name], declared[id] = true, true
					}
				}
			case *ast.SelectorExpr:
				maybeField[n.Sel] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					maybeField[id] = true
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel.Sel] = true
				}
			}
			return true
		})
	}
	uses := map[string]int{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok && !declared[id] && !(maybeField[id] && !called[id] && fields[id.Name]) {
				uses[id.Name]++
			}
			return true
		})
	}

	for _, d := range decls {
		_, ok := kept[d.key]
		switch {
		case uses[d.name.Name] == 0 && !ok:
			t.Errorf("%s: %s has no caller outside _test.go files: delete it, or move it to the package's export_test.go", d.pos, d.key)
		case uses[d.name.Name] > 0 && ok:
			t.Errorf("%s: %s has a caller now: drop it from this test's kept list", d.pos, d.key)
		}
		delete(kept, d.key)
	}
	for key := range kept {
		t.Errorf("kept %s is not declared any more: drop it from this test's list", key)
	}
}

// TestNoAmbientState pins the package-level variables of the program —
// the root package, cmd/ and internal/, test files aside — to the tables
// built once at start-up and only read after. Anything else at package
// level is state one run could leave for, or share with, another.
func TestNoAmbientState(t *testing.T) {
	t.Parallel()
	allowed := []string{
		"cmd/xpsim.flagNeeds",
		"internal/core.flowGaugeSuffixes",
		"internal/experiments.protoSpecs",
		"internal/experiments.registry",
		"internal/invariant.subscription",
		"internal/obs.csvTypeFrag",
		"internal/obs.eventNames",
		"internal/obs.jsonTypeFrag",
	}
	var got []string
	for _, root := range []string{".", "cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != root && root == "." {
				return filepath.SkipDir // the root package only; cmd and internal walk on their own
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if g, ok := decl.(*ast.GenDecl); ok && g.Tok == token.VAR {
					for _, s := range g.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							if n.Name != "_" {
								got = append(got, filepath.ToSlash(filepath.Dir(path))+"."+n.Name)
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, allowed) {
		t.Errorf("package-level variables\n %v\nbut TestNoAmbientState allows\n %v\n"+
			"(a setting a run needs travels in its Params — experiments.Params, runner.Run, "+
			"netem.Wiring — not in a package variable; only a table built at start-up and "+
			"never written after belongs on this list)", got, allowed)
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
	if net.Stats().DataDrops != 0 {
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
