package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"expresspass/internal/dctcp"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/unit"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"fig21", "table1", "table3",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestAllSortsFiguresThenTables(t *testing.T) {
	all := All()
	if all[0].ID != "fig1" {
		t.Errorf("first = %s", all[0].ID)
	}
	// Order: figures, then tables, then ext-* extensions.
	var kinds []int
	for _, e := range all {
		switch {
		case strings.HasPrefix(e.ID, "fig"):
			kinds = append(kinds, 0)
		case strings.HasPrefix(e.ID, "table"):
			kinds = append(kinds, 1)
		default:
			kinds = append(kinds, 2)
		}
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i] < kinds[i-1] {
			t.Fatalf("ordering violated at %s", all[i].ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("fig99"); ok {
		t.Error("found nonexistent experiment")
	}
	var buf bytes.Buffer
	if err := Run("fig99", Params{}, &buf); err == nil {
		t.Error("Run of unknown id did not error")
	}
}

// TestRunRejectsNonFiniteScale: NaN slips through both clamps of
// withDefaults and int(NaN·n) then falls to every floor, so Run must
// refuse it (and ±Inf) with a typed error before printing anything.
func TestRunRejectsNonFiniteScale(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		err := Run("fig16", Params{Scale: s}, &buf)
		var se *ScaleError
		if !errors.As(err, &se) {
			t.Errorf("Run with scale %v: error %v, want a *ScaleError", s, err)
		}
		if buf.Len() != 0 {
			t.Errorf("Run with scale %v printed %q before failing", s, buf.String())
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Scale != 0.1 || p.Seed != 42 {
		t.Errorf("defaults: %+v", p)
	}
	p = Params{Scale: 5}.withDefaults()
	if p.Scale != 1 {
		t.Errorf("scale not clamped: %v", p.Scale)
	}
	if (Params{Scale: 0.5}).scaleInt(100, 10) != 50 {
		t.Error("scaleInt")
	}
	if (Params{Scale: 0.001}).withDefaults().scaleInt(100, 10) != 10 {
		t.Error("scaleInt floor")
	}
}

func TestDedupe(t *testing.T) {
	got := dedupe([]int{1, 4, 4, 9, 9, 9})
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 9 {
		t.Errorf("dedupe: %v", got)
	}
}

// TestTableRendering holds the one renderer to exact bytes: a title, a
// table whose cells are a string, a Text with a unit, a default float
// (%.4g), an int and two fmt.Stringers (unit.Bytes, sim.Duration), a
// note, and a free-form section. Every experiment prints through it, so
// a change to any format fails here before it reaches gate.sha256.
func TestTableRendering(t *testing.T) {
	res := Result{
		text("under-utilization relative to the best:"),
		&Table{Header: []string{"name", "util", "gbps", "n", "size", "rtt"}, Rows: [][]any{
			{"x", text("%.1f%%", 81.04), 1.23456, 7, unit.Bytes(577300), 25 * sim.Microsecond},
			{"longer-name", text("%d/%d", 3, 4), 0.5, 12345, 1500 * unit.Byte, sim.Millisecond},
		}},
		text("(paper: %.3g%%)", 98.0),
		text("\n(b) gap (ideal %v):", 1298*sim.Nanosecond),
		text("    p50=%.3gus max=%.3gus", 1.2971, 1.32449),
	}
	const want = `under-utilization relative to the best:
name         util   gbps   n      size     rtt
-----------  -----  -----  -----  -------  ----
x            81.0%  1.235  7      577.3KB  25us
longer-name  3/4    0.5    12345  1.5KB    1ms
(paper: 98%)

(b) gap (ideal 1.298us):
    p50=1.3us max=1.32us
`
	var buf bytes.Buffer
	res.Write(&buf)
	if got := buf.String(); got != want {
		t.Errorf("rendered\n%s\nwant\n%s", got, want)
	}
	if v := res[1].(*Table).Rows[0][1].(Text).V[0]; v != 81.04 {
		t.Errorf("the util cell holds %v, want the value 81.04 it prints as 81.0%%", v)
	}
}

// Tiny-scale smoke runs: every light experiment must complete and emit a
// table. Heavy ones are exercised by the benchmarks.
func TestLightExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	for _, id := range []string{"table1", "fig5", "fig8", "fig9", "fig10"} {
		tbls := result(t, id, Params{Scale: 0.02, Seed: 1}).tables()
		if len(tbls) == 0 || len(tbls[0].Rows) == 0 {
			t.Errorf("%s returned no table with a row", id)
		}
	}
}

// TestProtoFeatures: each protocol installs exactly its own switch
// features and leaves every other field of the topology config at zero.
func TestProtoFeatures(t *testing.T) {
	const baseRTT = 52 * sim.Microsecond
	want := map[Proto]topology.Config{
		ProtoDCTCP: {ECNThreshold: dctcp.RecommendedK(10 * unit.Gbps)},
		ProtoRCP:   {RCP: baseRTT},
		ProtoHULL:  {Phantom: true},
		ProtoDCQCN: {RED: true, PFC: 8 * unit.KB},
	}
	// ExpressPass, DX, CUBIC and ideal install none. The protocol table
	// has an entry, with a transport, for every protocol and for nothing
	// else.
	all := []Proto{ProtoExpressPass, ProtoDCTCP, ProtoRCP, ProtoDX, ProtoHULL, ProtoCubic, ProtoIdeal, ProtoDCQCN}
	for _, pr := range all {
		var cfg topology.Config
		pr.Features(&cfg, baseRTT)
		if cfg != want[pr] {
			t.Errorf("%s installs %+v, want %+v", pr, cfg, want[pr])
		}
		if protoSpecs[pr].dial == nil {
			t.Errorf("protocol %q has no entry in protoSpecs", pr)
		}
	}
	if len(protoSpecs) != len(all) {
		t.Errorf("protoSpecs has %d entries, want the %d protocols", len(protoSpecs), len(all))
	}
}
