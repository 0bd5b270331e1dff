package experiments

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"expresspass/internal/dctcp"
	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
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

// TestAllSortsFiguresThenTables holds the registry table to its order —
// figures by number, then tables by number, then the ext-* extensions by
// ID — and every ID to one entry, the one Get finds.
func TestAllSortsFiguresThenTables(t *testing.T) {
	// key places an ID: its kind (figure, table, extension), its number,
	// and for an extension the ID itself.
	key := func(id string) (kind, n int, ext string) {
		for kind, prefix := range []string{"fig", "table"} {
			if num, ok := strings.CutPrefix(id, prefix); ok {
				n, err := strconv.Atoi(num)
				if err != nil {
					t.Fatalf("ID %q: %s without a number", id, prefix)
				}
				return kind, n, ""
			}
		}
		if !strings.HasPrefix(id, "ext-") {
			t.Fatalf("ID %q is neither a figure, a table nor an ext-* extension", id)
		}
		return 2, 0, id
	}
	all := All()
	seen := map[string]bool{}
	for i, e := range all {
		if seen[e.ID] {
			t.Errorf("ID %s registered twice", e.ID)
		}
		seen[e.ID] = true
		if i == 0 {
			continue
		}
		pk, pn, pe := key(all[i-1].ID)
		k, n, x := key(e.ID)
		if k < pk || k == pk && (n < pn || n == pn && x <= pe) {
			t.Errorf("%s comes after %s", e.ID, all[i-1].ID)
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
		ProtoDCTCP: {Port: netem.PortConfig{ECNThreshold: dctcp.RecommendedK(10 * unit.Gbps)}},
		ProtoRCP:   {Port: netem.PortConfig{RCP: baseRTT}},
		ProtoHULL:  {Port: netem.PortConfig{Phantom: true}},
		ProtoDCQCN: {Port: netem.PortConfig{RED: true, PFC: 8 * unit.KB}},
	}
	// ExpressPass, DX, CUBIC and ideal install none. The protocol table
	// has an entry, with a transport, for every protocol and for nothing
	// else.
	all := []Proto{ProtoExpressPass, ProtoDCTCP, ProtoRCP, ProtoDX, ProtoHULL, ProtoCubic, ProtoIdeal, ProtoDCQCN}
	for _, pr := range all {
		var cfg topology.Config
		pr.Features(&cfg, baseRTT)
		if !reflect.DeepEqual(cfg, want[pr]) {
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

// TestProtoTransports: each Conn-based protocol's CC declares how its
// Conn sends in Init, before the first segment. Dialed on a 10G star
// and run past StartAt but short of the first ACK, every Conn sends the
// way the published algorithm does: DCTCP (and HULL's hosts) ECN with a
// 2-packet floor, DCQCN paced and ECN, RCP paced from 1% of line rate,
// the ideal oracle paced at whatever rate it set.
func TestProtoTransports(t *testing.T) {
	const line = 10 * unit.Gbps
	for _, c := range []struct {
		pr         Proto
		paced, ecn bool
		minCwnd    float64
		paceRate   unit.Rate // 0: the oracle's, only checked positive
	}{
		{ProtoDCTCP, false, true, 2, line},
		{ProtoHULL, false, true, 2, line},
		{ProtoCubic, false, false, 1, line},
		{ProtoDX, false, false, 1, line},
		{ProtoDCQCN, true, true, 1, line},
		{ProtoRCP, true, false, 1, line / 100},
		{ProtoIdeal, true, false, 1, 0},
	} {
		eng := sim.New(1)
		tcfg := topology.Config{LinkRate: line}
		c.pr.Features(&tcfg, 52*sim.Microsecond)
		st := topology.NewStar(eng, 2, tcfg)
		env := &Env{Eng: eng, Net: st.Net, BaseRTT: 52 * sim.Microsecond}
		const start = 10 * sim.Microsecond
		f := transport.NewFlow(st.Net, st.Hosts[0], st.Hosts[1], 0, start)
		h := env.Dial(c.pr, f)
		conn, ok := h.(*transport.Conn)
		if !ok {
			t.Fatalf("%s: Dial returned a %T, want a *transport.Conn", c.pr, h)
		}
		eng.RunUntil(start + sim.Microsecond)
		if !f.Started || conn.AckedPkts != 0 {
			t.Fatalf("%s: started %v, %d ACKs: not between StartAt and the first ACK", c.pr, f.Started, conn.AckedPkts)
		}
		if conn.Paced != c.paced || conn.ECN != c.ecn || conn.MinCwnd != c.minCwnd {
			t.Errorf("%s: Paced %v ECN %v MinCwnd %v, want %v %v %v",
				c.pr, conn.Paced, conn.ECN, conn.MinCwnd, c.paced, c.ecn, c.minCwnd)
		}
		if c.paceRate != 0 && conn.PaceRate != c.paceRate || conn.PaceRate <= 0 {
			t.Errorf("%s: PaceRate %v, want %v", c.pr, conn.PaceRate, c.paceRate)
		}
	}
}
