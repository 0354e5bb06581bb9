package seqavf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricNameRE is the repo's naming convention: a lowercase component
// prefix, a dot, then a lowercase snake_case metric name. Units belong
// in the name's suffix in base SI form ("_seconds", "_bytes") — "_ms"
// style scaled units are banned because fleet dashboards should never
// have to guess a series' scale.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z][a-z0-9_]*$`)

// metricKind maps registry constructor → the family type it registers.
var metricKind = map[string]string{
	"Counter":        "counter",
	"Gauge":          "gauge",
	"FixedHistogram": "histogram",
}

// collectMetricNames parses every non-test .go file under the repo and
// returns each metric-name string literal passed to a registry
// constructor, keyed by name with the set of (kind, position) uses.
func collectMetricNames(t *testing.T) map[string]map[string][]string {
	t.Helper()
	found := make(map[string]map[string][]string) // name → kind → positions
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, ok := metricKind[sel.Sel.Name]
			if !ok {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if found[name] == nil {
				found[name] = make(map[string][]string)
			}
			found[name][kind] = append(found[name][kind], fset.Position(lit.Pos()).String())
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}
	return found
}

// TestMetricNameConvention lints every metric registered anywhere in the
// tree: names must be component.snake_case, must not use scaled-unit
// suffixes, and one name must not be registered as two different metric
// types (a counter and a gauge under one name would corrupt dashboards
// silently — first registration wins at runtime).
func TestMetricNameConvention(t *testing.T) {
	if _, err := os.Stat("internal/obs"); err != nil {
		t.Skip("not running from the repo root")
	}
	found := collectMetricNames(t)
	if len(found) < 40 {
		t.Fatalf("found only %d metric names; the collector is likely broken", len(found))
	}
	for name, kinds := range found {
		var positions []string
		for _, ps := range kinds {
			positions = append(positions, ps...)
		}
		if !metricNameRE.MatchString(name) {
			t.Errorf("metric %q violates component.snake_case (%s)", name, strings.Join(positions, ", "))
		}
		for _, banned := range []string{"_ms", "_us", "_ns", "_kb", "_mb"} {
			if strings.HasSuffix(name, banned) {
				t.Errorf("metric %q uses scaled-unit suffix %q; use base SI units (_seconds, _bytes) (%s)",
					name, banned, strings.Join(positions, ", "))
			}
		}
		if len(kinds) > 1 {
			t.Errorf("metric %q registered as multiple types %v (%s)",
				name, keysOf(kinds), strings.Join(positions, ", "))
		}
	}
	// Anchor a few known names so a silently empty walk cannot pass.
	for _, want := range []string{"server.request_seconds", "sweep.plan_cache_hits", "artifact.restore_seconds"} {
		if _, ok := found[want]; !ok {
			t.Errorf("expected metric %q not found; registration moved or renamed?", want)
		}
	}
}

func keysOf(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
