package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"expresspass/internal/topology"
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

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.Add("x", 1.23456)
	tbl.Add("longer-name", "v")
	var buf bytes.Buffer
	tbl.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "1.235") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
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
		var buf bytes.Buffer
		if err := Run(id, Params{Scale: 0.02, Seed: 1}, &buf); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if buf.Len() < 50 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestProtoFeatures(t *testing.T) {
	for _, pr := range EvalProtos() {
		cfg := topology.Config{}
		pr.Features(&cfg, 0)
		switch pr {
		case ProtoDCTCP:
			if cfg.ECNThreshold == 0 {
				t.Error("DCTCP without ECN threshold")
			}
		case ProtoRCP:
			if cfg.RCP == nil {
				t.Error("RCP without meter config")
			}
		case ProtoHULL:
			if cfg.Phantom == nil {
				t.Error("HULL without phantom queue")
			}
		}
	}
	// The protocol table has an entry, with a transport, for every
	// protocol and for nothing else.
	all := []Proto{ProtoExpressPass, ProtoDCTCP, ProtoRCP, ProtoDX, ProtoHULL, ProtoCubic, ProtoIdeal, ProtoDCQCN}
	for _, pr := range all {
		if protoSpecs[pr].dial == nil {
			t.Errorf("protocol %q has no entry in protoSpecs", pr)
		}
	}
	if len(protoSpecs) != len(all) {
		t.Errorf("protoSpecs has %d entries, want the %d protocols", len(protoSpecs), len(all))
	}
}
