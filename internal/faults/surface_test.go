package faults

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// grammarSamples fills the placeholders of EXPERIMENTS.md's fault
// grammar with values ParseSpec accepts.
var grammarSamples = strings.NewReplacer(
	"<clause>; …", "flap@0ms+1ms; stall@2ms+1ms",
	"<port>", "swL->swR", "<host>", "s0", "<class>", "credit",
	"<rate>", "0.1", "<c>", "0.5", "<p>", "0.1", "<r>", "0.5", "<h>", "0.2", "<k>", "0.9",
	"<p13>", "0.05", "…", "0.1", "<maxdelay>", "20us", "<dist>", "uniform",
	"<mean-dur>", "5us", "<mean-frac>", "0.25",
	"<period>", "20ms", "<j>", "1ms", "<n>", "3", "<f>", "0.1",
	"<start>", "10ms", "<total>", "80ms",
)

// TestFaultGrammarSurface holds EXPERIMENTS.md's fault grammar — its
// clause table and its every: line — to what ParseSpec accepts, in both
// directions, the way TestFlagSurface holds README's flag table to
// xpsim's flags. Every documented form, with its optional parts left out
// and with all of them in, filled with sample values, must parse; and
// every fault kind of parseDirective's switch, every key= option its
// clauses take and every option of parseSchedule must be documented.
func TestFaultGrammarSurface(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, grammar, ok := strings.Cut(string(doc), "\n| clause | impairment |\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md: no fault clause table")
	}
	var table []string // the clause forms, then the every: line
	for _, line := range strings.Split(grammar, "\n")[1:] {
		if !strings.HasPrefix(line, "| `") {
			break
		}
		form, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
		table = append(table, form)
	}
	every := regexp.MustCompile(`(?m)^ +(every:\S+.*)$`).FindStringSubmatch(grammar)
	if len(table) == 0 || every == nil {
		t.Fatal("EXPERIMENTS.md: an empty fault clause table or no every: line after it")
	}
	nClauses := len(table)
	table = append(table, every[1])
	optional := regexp.MustCompile(`\[([^\]]*)\]`)
	for i, form := range table {
		for _, filled := range []string{optional.ReplaceAllString(form, ""), optional.ReplaceAllString(form, "$1")} {
			spec := grammarSamples.Replace(filled)
			if i < nClauses {
				spec += "@1ms+1ms"
			}
			if strings.ContainsAny(spec, "<[…") {
				t.Errorf("EXPERIMENTS.md: %q has a placeholder with no sample: %q", form, spec)
				continue
			}
			if _, err := ParseSpec(spec); err != nil {
				t.Errorf("EXPERIMENTS.md documents %q, but ParseSpec(%q): %v", form, spec, err)
			}
		}
	}

	kinds, keys, everyOpts := grammarOfSpecGo(t)
	documented := map[string]bool{}
	for _, form := range table[:nClauses] {
		documented[strings.FieldsFunc(form, func(c rune) bool { return c == ':' || c == '[' })[0]] = true
	}
	for _, k := range kinds {
		if !documented[k] {
			t.Errorf("parseDirective accepts fault kind %q, which EXPERIMENTS.md's clause table lacks", k)
		}
	}
	clauses := strings.Join(table[:nClauses], " ")
	for _, k := range keys {
		if !strings.Contains(clauses, ":"+k+"=") {
			t.Errorf("parseDirective accepts option %s=, which EXPERIMENTS.md's clause table lacks", k)
		}
	}
	for _, o := range everyOpts {
		if !strings.Contains(every[1], ":"+o) {
			t.Errorf("parseSchedule accepts every option %q, which EXPERIMENTS.md's every: line lacks", o)
		}
	}
}

// grammarOfSpecGo reads spec.go's grammar the way TestAPISurface reads
// expresspass.go: the fault kinds are the cases of parseDirective's
// switch on d.Kind, the key= options the string keys of the option maps
// its clauses hand to tail, and the every options the cases of
// parseSchedule's switch on k plus the bare words it compares p to.
func grammarOfSpecGo(t *testing.T) (kinds, keys, everyOpts []string) {
	f, err := parser.ParseFile(token.NewFileSet(), "spec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lit := func(e ast.Expr) (string, bool) {
		b, ok := e.(*ast.BasicLit)
		if !ok || b.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil
	}
	cases := func(sw *ast.SwitchStmt) (out []string) {
		for _, st := range sw.Body.List {
			for _, e := range st.(*ast.CaseClause).List {
				if s, ok := lit(e); ok {
					out = append(out, s)
				}
			}
		}
		return out
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				switch tag := tagName(n.Tag); {
				case fn.Name.Name == "parseDirective" && tag == "d.Kind":
					kinds = append(kinds, cases(n)...)
				case fn.Name.Name == "parseSchedule" && tag == "k":
					everyOpts = append(everyOpts, cases(n)...)
				}
			case *ast.CompositeLit:
				if _, isMap := n.Type.(*ast.MapType); isMap && fn.Name.Name == "parseDirective" {
					for _, e := range n.Elts {
						if s, ok := lit(e.(*ast.KeyValueExpr).Key); ok {
							keys = append(keys, s)
						}
					}
				}
			case *ast.BinaryExpr:
				if id, ok := n.X.(*ast.Ident); ok && fn.Name.Name == "parseSchedule" && id.Name == "p" && n.Op == token.EQL {
					if s, ok := lit(n.Y); ok {
						everyOpts = append(everyOpts, s)
					}
				}
			}
			return true
		})
	}
	if len(kinds) == 0 || len(keys) == 0 || len(everyOpts) == 0 {
		t.Fatalf("spec.go: found kinds %v, options %v, every options %v; has the parser's shape changed?", kinds, keys, everyOpts)
	}
	return kinds, keys, everyOpts
}

// tagName renders a switch tag that is an identifier or a selector
// ("k", "d.Kind"), or "" for anything else.
func tagName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
	}
	return ""
}
