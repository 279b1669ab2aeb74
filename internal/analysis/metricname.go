package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MetricName enforces the Prometheus naming contract of the repo's
// /metrics exporters: every family name passed to an obs.Writer
// Counter, Gauge or Summary call is a compile-time constant in
// snake_case under an approved binary prefix, and each family is
// written exactly once per exporter function. Any bare string literal
// that starts with an approved prefix is held to the same shape, so
// typo'd names outside Writer calls are caught too.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc: "Prometheus series use constant snake_case eblocksd_/eblocksrouter_ names " +
		"and are declared exactly once per exporter",
	Run: runMetricName,
}

// metricPrefixes are the approved per-binary series prefixes.
var metricPrefixes = []string{"eblocksd_", "eblocksrouter_"}

// metricNameRE is the full required shape of a series name.
var metricNameRE = regexp.MustCompile(`^(eblocksd|eblocksrouter)_[a-z0-9]+(_[a-z0-9]+)*$`)

// writerFamilies are the methods of the metrics layer's exposition
// writer, by types.Func full name, that write one whole family and take
// its name as their first argument.
var writerFamilies = map[string]bool{
	"(*repro/internal/obs.Writer).Counter": true,
	"(*repro/internal/obs.Writer).Gauge":   true,
	"(*repro/internal/obs.Writer).Summary": true,
}

func runMetricName(pass *Pass) error {
	for _, f := range pass.Files {
		covered := map[token.Pos]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMetricEmitters(pass, fd, covered)
			}
		}
		checkMetricLiterals(pass, f, covered)
	}
	return nil
}

// hasMetricPrefix reports whether s starts with an approved series
// prefix.
func hasMetricPrefix(s string) bool {
	for _, p := range metricPrefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// checkMetricEmitters validates the obs.Writer family calls in one
// function: constant names, approved shape, and one call per family.
// Argument positions it has judged are recorded in covered so the
// bare-literal sweep does not double-report them.
func checkMetricEmitters(pass *Pass, fd *ast.FuncDecl, covered map[token.Pos]bool) {
	written := map[string]bool{} // families already written in this function
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || !writerFamilies[fn.FullName()] {
			return true
		}
		covered[call.Args[0].Pos()] = true
		tv, ok := pass.Info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(call.Args[0].Pos(), "metric name passed to %s must be a compile-time constant string", fn.Name())
			return true
		}
		name := constant.StringVal(tv.Value)
		if !metricNameRE.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(), "metric name %q is not snake_case under an approved prefix (want %s)", name, metricNameRE)
			return true
		}
		if written[name] {
			pass.Reportf(call.Args[0].Pos(), "metric %s is declared (HELP/TYPE) more than once in %s: a family must be written by exactly one Writer call", name, fd.Name.Name)
		}
		written[name] = true
		return true
	})
}

// checkMetricLiterals holds every prefix-bearing bare string literal
// in the file to the series-name shape, catching typos in names that
// never pass through a Writer call.
func checkMetricLiterals(pass *Pass, f *ast.File, covered map[token.Pos]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || covered[lit.Pos()] {
			return true
		}
		tv, ok := pass.Info.Types[ast.Expr(lit)]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true
		}
		s := constant.StringVal(tv.Value)
		if !hasMetricPrefix(s) {
			return true
		}
		// Only bare names: skip help texts, label sets, format
		// strings that merely mention a series, and bare prefix
		// constants themselves.
		if strings.ContainsAny(s, " \t\n{}#%\"") || strings.HasSuffix(s, "_") {
			return true
		}
		if !metricNameRE.MatchString(s) {
			pass.Reportf(lit.Pos(), "string %q looks like a metric name but is not snake_case under an approved prefix", s)
		}
		return true
	})
}
