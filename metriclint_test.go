package seqavf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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

// metricScan is one walk of the tree's Go sources: every metric a
// registry constructor registers in non-test code, every constructor
// call whose name is not a string literal, and the tokens of every
// string literal a test uses to read a metric.
type metricScan struct {
	registered map[string]map[string][]string // name → kind → positions
	computed   []string                       // positions of non-literal names
	testTokens map[string]bool
}

// registryCall returns the constructor kind and name argument of a
// registry constructor call (reg.Counter(name), ...), or ok=false.
func registryCall(n ast.Node) (kind string, name ast.Expr, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall || len(call.Args) == 0 {
		return "", nil, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	kind, ok = metricKind[sel.Sel.Name]
	return kind, call.Args[0], ok
}

// scanMetrics parses every .go file under the repo root (skipping
// testdata and dot directories).
//
// In non-test files it records each registry constructor call: a
// string-literal name under registered, anything else under computed.
//
// In test files every string literal contributes its tokens to
// testTokens, except the name argument of a constructor call that only
// registers or writes (reg.Counter("x").Inc()): a test that bumps a
// counter has not read it. A constructor call read back in place
// (reg.Counter("x").Load(), .Count()) does count.
func scanMetrics(t *testing.T) *metricScan {
	t.Helper()
	s := &metricScan{
		registered: make(map[string]map[string][]string),
		testTokens: make(map[string]bool),
	}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			s.addTestLiterals(f)
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			kind, arg, ok := registryCall(n)
			if !ok {
				return true
			}
			pos := fset.Position(arg.Pos()).String()
			name, isLit := stringLit(arg)
			if !isLit {
				s.computed = append(s.computed, pos)
				return true
			}
			if s.registered[name] == nil {
				s.registered[name] = make(map[string][]string)
			}
			s.registered[name][kind] = append(s.registered[name][kind], pos)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}
	return s
}

// addTestLiterals adds the tokens of f's metric-reading string literals.
func (s *metricScan) addTestLiterals(f *ast.File) {
	writeOnly := make(map[ast.Expr]bool) // constructor name args not read in place
	readBack := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Load" || sel.Sel.Name == "Count") {
			if _, arg, ok := registryCall(sel.X); ok {
				readBack[arg] = true
			}
		}
		if _, arg, ok := registryCall(n); ok && !readBack[arg] {
			writeOnly[arg] = true
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || writeOnly[lit] {
			return true
		}
		if v, ok := stringLit(lit); ok {
			addTokens(s.testTokens, v)
		}
		return true
	})
}

// stringLit unquotes e when it is a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}

// metricTokenRE matches a run of characters a metric name can hold in
// either form: dotted (sweep.plan_cache_hits) or Prometheus
// (sweep_plan_cache_hits, with _bucket/_sum/_count series suffixes).
var metricTokenRE = regexp.MustCompile(`[A-Za-z0-9_.:]+`)

func addTokens(set map[string]bool, text string) {
	for _, tok := range metricTokenRE.FindAllString(text, -1) {
		set[strings.TrimRight(tok, ".:")] = true
	}
}

// readBy reports whether tokens holds name in dotted or Prometheus
// form. Names that pass metricNameRE map to Prometheus by turning the
// dot into an underscore.
func readBy(tokens map[string]bool, name string) bool {
	pn := strings.ReplaceAll(name, ".", "_")
	for _, form := range []string{name, pn, pn + "_bucket", pn + "_sum", pn + "_count"} {
		if tokens[form] {
			return true
		}
	}
	return false
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
	scan := scanMetrics(t)
	for _, pos := range scan.computed {
		t.Errorf("metric name at %s is not a string literal; the lint cannot check it", pos)
	}
	found := scan.registered
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

// TestMetricsAreRead fails on every registered metric that nothing
// reads: no test string literal (outside a constructor call that only
// writes it) and no file under seqavfbench/ or scripts/, nor
// BENCHMARK.json, names it in dotted or Prometheus form. A counter that
// nobody asserts can break silently; one that repeats a value another
// metric or span already gives is waste. Either way it is asserted in
// the test of its own code path or deleted — there is no allowlist.
func TestMetricsAreRead(t *testing.T) {
	if _, err := os.Stat("internal/obs"); err != nil {
		t.Skip("not running from the repo root")
	}
	scan := scanMetrics(t)
	readers := make(map[string]bool)
	for k := range scan.testTokens {
		readers[k] = true
	}
	for _, root := range []string{"seqavfbench", "scripts", "BENCHMARK.json"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			addTokens(readers, string(b))
			return nil
		})
		if err != nil {
			t.Fatalf("reading %s: %v", root, err)
		}
	}
	var unread []string
	for name := range scan.registered {
		if !readBy(readers, name) {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		var positions []string
		for _, ps := range scan.registered[name] {
			positions = append(positions, ps...)
		}
		t.Errorf("metric %q is registered (%s) but no test, script or benchmark reads it: assert it or delete it",
			name, strings.Join(positions, ", "))
	}
	if len(unread) > 0 {
		t.Logf("%d unread metrics", len(unread))
	}
}

func keysOf(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
