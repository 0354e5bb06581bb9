package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/stats"
)

// encodingJSON renders v the way the reports were rendered before they
// wrote themselves: json.Encoder with a two-space indent.
func encodingJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// jsonReport is either sweep report.
type jsonReport interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// checkReportJSON asserts that rep.AppendJSON appends exactly
// encodingJSON's bytes to a non-empty dst, or fails with the same error
// text exactly when encoding/json fails. It reports whether the
// encoding failed.
func checkReportJSON(t *testing.T, rep jsonReport) (failed bool) {
	t.Helper()
	want, werr := encodingJSON(rep)
	const prefix = "prefix:"
	got, gerr := rep.AppendJSON([]byte(prefix))
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("AppendJSON error %v, encoding/json error %v", gerr, werr)
		}
		return true
	case !bytes.HasPrefix(got, []byte(prefix)):
		t.Fatalf("AppendJSON dropped dst: %.40q", got)
	case !bytes.Equal(got[len(prefix):], want):
		got = got[len(prefix):]
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("AppendJSON differs from encoding/json at byte %d:\ngot  %q\nwant %q",
			i, got[max(0, i-60):min(len(got), i+60)], want[max(0, i-60):min(len(want), i+60)])
	}
	return false
}

// reportSource supplies the values fillReport draws.
type reportSource interface {
	intn(n int) int // in [0, n)
	bits() uint64
	float() float64
	str() string
}

// trickyStrings are names the writer must not copy raw, or must copy
// raw only because encoding/json does too.
var trickyStrings = []string{
	"", "w00", "fub3/node17", "spec<int>&co", `say "hi"`, `back\slash`,
	"\x00\x01\x1f", "tab\tnl\n", "del\x7f", "\u2028", "line\u2029sep",
	"é", "日本語", "\xff\xfe", "cut\xc3", "\xed\xa0\x80", "<", ">", "&",
}

// specialFloats sit on encoding/json's format boundaries or at the ends
// of the float64 range.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 100, 123456789,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-7, 9.999999e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e22,
	5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e-100, 1e100, 1e-10, 1.0000000000000002,
}

// randSource draws from a seeded stream; nonFinite admits NaN and ±Inf.
type randSource struct {
	rng       *stats.RNG
	nonFinite bool
}

func (s *randSource) intn(n int) int { return s.rng.Intn(n) }
func (s *randSource) bits() uint64   { return s.rng.Uint64() }

func (s *randSource) float() float64 {
	switch k := s.rng.Intn(100); {
	case s.nonFinite && k == 0:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[s.rng.Intn(3)]
	case k < 40:
		return specialFloats[s.rng.Intn(len(specialFloats))]
	case k < 70:
		return s.rng.Float64()
	default:
		f := math.Ldexp(s.rng.Float64(), s.rng.Intn(2100)-1074)
		if s.rng.Intn(2) == 0 {
			f = -f
		}
		return f
	}
}

func (s *randSource) str() string {
	switch k := s.rng.Intn(10); {
	case k < 5:
		return trickyStrings[s.rng.Intn(len(trickyStrings))]
	case k < 7:
		return fmt.Sprintf("fub%d/n%d", s.rng.Intn(20), s.rng.Intn(100))
	default:
		b := make([]byte, s.rng.Intn(9))
		for i := range b {
			if s.rng.Intn(2) == 0 {
				b[i] = byte(0x20 + s.rng.Intn(0x5f))
			} else {
				b[i] = byte(s.rng.Intn(256))
			}
		}
		return string(b)
	}
}

// byteSource reads the fuzzer's bytes; an exhausted source yields
// zeros and empty strings.
type byteSource struct{ b []byte }

func (s *byteSource) take(n int) []byte {
	n = min(n, len(s.b))
	out := s.b[:n]
	s.b = s.b[n:]
	return out
}

func (s *byteSource) intn(n int) int {
	if b := s.take(1); len(b) == 1 {
		return int(b[0]) % n
	}
	return 0
}

func (s *byteSource) bits() uint64 {
	var buf [8]byte
	copy(buf[:], s.take(8))
	return binary.LittleEndian.Uint64(buf[:])
}

func (s *byteSource) float() float64 { return math.Float64frombits(s.bits()) }
func (s *byteSource) str() string    { return string(s.take(s.intn(16))) }

// reportFiller fills a report's fields by reflection, so a field added
// to a report type is drawn (or, being of a kind the writer was not
// built for, fails the test) without touching the generator.
type reportFiller struct {
	src reportSource
	// base is the key set most of one report's maps share, so the
	// writer's key-order reuse is taken; the other maps are nil, empty,
	// base with one key swapped (same size, different keys) or fresh.
	base []string
}

// fillReport draws a whole report into the value rep points to.
func fillReport(src reportSource, rep any) {
	f := &reportFiller{src: src}
	for n := src.intn(6); len(f.base) < n; {
		f.base = append(f.base, fmt.Sprintf("%s#%d", src.str(), len(f.base)))
	}
	f.fill(reflect.ValueOf(rep).Elem())
}

func (f *reportFiller) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(f.src.str())
	case reflect.Int:
		v.SetInt(int64(f.src.bits()))
	case reflect.Uint64:
		v.SetUint(f.src.bits())
	case reflect.Float64:
		v.SetFloat(f.src.float())
	case reflect.Bool:
		v.SetBool(f.src.intn(2) == 1)
	case reflect.Struct:
		for i := range v.NumField() {
			f.fill(v.Field(i))
		}
	case reflect.Slice:
		switch f.src.intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + f.src.intn(4)
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := range n {
				f.fill(s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Map:
		var keys []string
		switch f.src.intn(6) {
		case 0:
			return // nil
		case 1: // empty
		case 2, 3:
			keys = f.base
		case 4:
			keys = append([]string{"swapped"}, f.base[min(1, len(f.base)):]...)
		default:
			for range f.src.intn(5) {
				keys = append(keys, f.src.str())
			}
		}
		m := reflect.MakeMapWithSize(v.Type(), len(keys))
		for _, k := range keys {
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(e)
			m.SetMapIndex(reflect.ValueOf(k), e)
		}
		v.Set(m)
	default:
		panic(fmt.Sprintf("report field %s of kind %s: teach AppendJSON and this generator", v.Type(), v.Kind()))
	}
}

// TestReportJSONMatchesEncodingJSON is the writer's contract: on 200
// seeds of random reports of both kinds, AppendJSON emits encoding/json's
// indented bytes exactly, and fails with its error exactly when it does.
// One seed in four admits NaN and ±Inf.
func TestReportJSONMatchesEncodingJSON(t *testing.T) {
	fails, oks := 0, 0
	for seed := range uint64(200) {
		src := &randSource{rng: stats.New(seed), nonFinite: seed%4 == 0}
		for _, rep := range []jsonReport{new(SweepResponse), new(IntervalSweepResponse)} {
			fillReport(src, rep)
			t.Run(fmt.Sprintf("seed%d/%T", seed, rep), func(t *testing.T) {
				if checkReportJSON(t, rep) {
					fails++
				} else {
					oks++
				}
			})
		}
	}
	if fails == 0 || oks == 0 {
		t.Fatalf("%d reports failed to encode and %d encoded: the draw misses a case", fails, oks)
	}
}

// TestReportJSONEdgeCases pins the cases the random draw may miss: nil
// reports, nil and empty results, reused key orders, and a map whose
// keys differ from the previous map's at equal size: the first
// non-finite value in its own key order (+Inf) is not the first one in
// the previous map's order (NaN), and the error must name +Inf.
func TestReportJSONEdgeCases(t *testing.T) {
	for name, rep := range map[string]jsonReport{
		"nil sweep":        (*SweepResponse)(nil),
		"nil intervals":    (*IntervalSweepResponse)(nil),
		"zero sweep":       &SweepResponse{},
		"zero intervals":   &IntervalSweepResponse{},
		"empty results":    &SweepResponse{Results: []WorkloadResult{}},
		"empty series":     &IntervalSweepResponse{Results: []IntervalWorkloadResult{{Windows: []WindowSpan{}, ChipAVF: []float64{}, SeqAVF: map[string][]float64{"a": nil, "b": {}}}}},
		"empty node map":   &SweepResponse{Results: []WorkloadResult{{SeqAVF: map[string]float64{}}}},
		"reused key order": &SweepResponse{Results: []WorkloadResult{{SeqAVF: map[string]float64{"b": 1, "a": 2}}, {SeqAVF: map[string]float64{"a": 3, "b": 4}}}},
		"swapped key":      &SweepResponse{Results: []WorkloadResult{{SeqAVF: map[string]float64{"b": 1, "d": 2}}, {SeqAVF: map[string]float64{"a": math.Inf(1), "b": math.NaN()}}}},
	} {
		t.Run(name, func(t *testing.T) { checkReportJSON(t, rep) })
	}
}

// FuzzReportJSON holds AppendJSON to encoding/json on reports drawn from
// the fuzzer's bytes: any string bytes, any float64 bit pattern.
func FuzzReportJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x03ab\x02\x05<&>\"\\\x10\xff\xfe\xe2\x80\xa8"))
	f.Add(binary.LittleEndian.AppendUint64([]byte{1, 2, 3}, math.Float64bits(1e-7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{b: data}
		var rep jsonReport = new(SweepResponse)
		if src.intn(2) == 1 {
			rep = new(IntervalSweepResponse)
		}
		fillReport(src, rep)
		checkReportJSON(t, rep)
	})
}

// xeonReports sweeps the XeonLike design (seed 2027, the service
// benchmark's) into the two reports BenchmarkReportJSON renders: 16
// workloads with per-node maps, and one 32-window workload with
// per-node series.
func xeonReports(b *testing.B) (*SweepResponse, *IntervalSweepResponse) {
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		b.Fatal(err)
	}
	fd, err := netlist.Flatten(gen.Design)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var ins []*core.Inputs
	for seed := range uint64(32) {
		ins = append(ins, randomInputs(a, seed))
	}
	res, err := a.Solve(ins[0])
	if err != nil {
		b.Fatal(err)
	}
	eng := New(Options{Workers: 1})
	ws := make([]Workload, 16)
	for i := range ws {
		ws[i] = Workload{Name: fmt.Sprintf("w%02d", i), Inputs: ins[i]}
	}
	nodes, err := eng.Report(context.Background(), res, gen.Design.Name, ws, true)
	if err != nil {
		b.Fatal(err)
	}
	iw := IntervalWorkload{Name: "phases", Inputs: ins}
	for w := range uint64(len(ins)) {
		iw.Windows = append(iw.Windows, WindowSpan{Start: w * 1000, End: (w + 1) * 1000})
	}
	series, err := eng.ReportIntervals(context.Background(), res, gen.Design.Name, []IntervalWorkload{iw}, true)
	if err != nil {
		b.Fatal(err)
	}
	return nodes, series
}

// BenchmarkReportJSON compares the report writer with the encoding/json
// rendering it replaced, on a 16-workload per-node report and a
// 32-window per-node-series report of the XeonLike design. Both render
// the same bytes (checked once before timing).
func BenchmarkReportJSON(b *testing.B) {
	nodes, series := xeonReports(b)
	for _, c := range []struct {
		name string
		rep  jsonReport
	}{{"nodes16", nodes}, {"intervals32", series}} {
		want, err := encodingJSON(c.rep)
		if err != nil {
			b.Fatal(err)
		}
		if got, err := c.rep.AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
			b.Fatalf("%s: AppendJSON differs from encoding/json (%v)", c.name, err)
		}
		b.Run(c.name+"/Writer", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				if buf, err = c.rep.AppendJSON(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/EncodingJSON", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encodingJSON(c.rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
