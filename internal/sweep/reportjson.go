package sweep

// The report writer: both sweep reports render themselves without
// reflection, emitting exactly the bytes json.NewEncoder with
// SetIndent("", "  ") emits for them, trailing newline included. A
// 16-workload per-node report is about 400 KB of JSON; encoding/json
// spends most of a nodes request on it, sorting the keys of every node
// map afresh and then re-scanning its own output to indent it.
//
// The types carry no MarshalJSON on purpose: encoding/json's rendering
// of the same values stays an independent reference, which the tests
// and the service benchmark compare these bytes against.

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"

	"seqavf/internal/core"
)

// AppendJSON appends r exactly as json.NewEncoder with SetIndent("",
// "  ") encodes it, trailing newline included. It fails, as encoding/json
// does, on a NaN or infinite float.
func (r *SweepResponse) AppendJSON(dst []byte) ([]byte, error) {
	if r == nil {
		return append(dst, "null\n"...), nil
	}
	w := reportWriter{b: dst}
	w.b = append(w.b, '{')
	w.key(1, true, "design")
	w.str(r.Design)
	w.key(1, false, "workloads")
	w.int(r.Workloads)
	w.key(1, false, "plan")
	w.stats(r.Plan, 1)
	w.key(1, false, "eval_elapsed_ms")
	w.float(r.ElapsedMS)
	w.key(1, false, "workloads_per_sec")
	w.float(r.PerSec)
	w.key(1, false, "results")
	if r.Results == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i := range r.Results {
			res := &r.Results[i]
			w.elem(2, i)
			w.b = append(w.b, '{')
			w.key(3, true, "name")
			w.str(res.Name)
			w.key(3, false, "summary")
			w.summary(&res.Summary, 3)
			if len(res.SeqAVF) > 0 {
				w.key(3, false, "seqavf")
				writeMap(&w, res.SeqAVF, 3, (*reportWriter).float)
			}
			w.close(2, '}')
		}
		w.closeList(1, len(r.Results))
	}
	w.close(0, '}')
	return w.done()
}

// AppendJSON appends r exactly as json.NewEncoder with SetIndent("",
// "  ") encodes it, trailing newline included. It fails, as encoding/json
// does, on a NaN or infinite float.
func (r *IntervalSweepResponse) AppendJSON(dst []byte) ([]byte, error) {
	if r == nil {
		return append(dst, "null\n"...), nil
	}
	w := reportWriter{b: dst}
	w.b = append(w.b, '{')
	w.key(1, true, "design")
	w.str(r.Design)
	w.key(1, false, "workloads")
	w.int(r.Workloads)
	w.key(1, false, "windows_evaluated")
	w.int(r.WindowsEvaluated)
	w.key(1, false, "plan")
	w.stats(r.Plan, 1)
	w.key(1, false, "eval_elapsed_ms")
	w.float(r.ElapsedMS)
	w.key(1, false, "results")
	if r.Results == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i := range r.Results {
			res := &r.Results[i]
			w.elem(2, i)
			w.b = append(w.b, '{')
			w.key(3, true, "name")
			w.str(res.Name)
			w.key(3, false, "windows")
			w.windows(res.Windows, 3)
			w.key(3, false, "chip_avf")
			w.floats(res.ChipAVF, 3)
			w.key(3, false, "time_weighted_mean")
			w.float(res.TimeWeightedMean)
			w.key(3, false, "peak_window")
			w.int(res.PeakWindow)
			w.key(3, false, "peak_chip_avf")
			w.float(res.PeakChipAVF)
			w.key(3, false, "peak_to_mean")
			w.float(res.PeakToMean)
			if len(res.SeqAVF) > 0 {
				w.key(3, false, "seqavf")
				writeMap(&w, res.SeqAVF, 3, func(w *reportWriter, s []float64) { w.floats(s, 4) })
			}
			w.close(2, '}')
		}
		w.closeList(1, len(r.Results))
	}
	w.close(0, '}')
	return w.done()
}

// reportWriter appends one report. Depths count indent levels: a value
// at depth d starts its own lines with 2d spaces.
type reportWriter struct {
	b []byte
	// keys is the sorted key order of the last map written, reused by
	// the next map with the identical key set.
	keys []string
	// err is the first unencodable value met.
	err error
}

// done finishes the document with encoding/json's trailing newline.
func (w *reportWriter) done() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return append(w.b, '\n'), nil
}

// newlineIndent holds a newline and enough indent for the deepest value
// the reports hold (a per-node series element, depth 5).
const newlineIndent = "\n            "

// newline starts a line at depth.
func (w *reportWriter) newline(depth int) {
	w.b = append(w.b, newlineIndent[:1+2*depth]...)
}

// key starts the field name of an object whose fields sit at depth: a
// comma unless it is the first field, the indented line and the quoted
// name. name is a Go identifier or tag, which needs no escaping.
func (w *reportWriter) key(depth int, first bool, name string) {
	if !first {
		w.b = append(w.b, ',')
	}
	w.newline(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

// elem starts element i of an array whose elements sit at depth.
func (w *reportWriter) elem(depth, i int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.newline(depth)
}

// close ends an object or non-empty array whose brackets sit at depth.
func (w *reportWriter) close(depth int, c byte) {
	w.newline(depth)
	w.b = append(w.b, c)
}

// closeList ends an array opened at depth with n elements: encoding/json
// writes an empty array as [] on one line.
func (w *reportWriter) closeList(depth, n int) {
	if n == 0 {
		w.b = append(w.b, ']')
		return
	}
	w.close(depth, ']')
}

func (w *reportWriter) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// float appends f by encoding/json's rule: the shortest representation,
// in exponent form below 1e-6 and from 1e21 up, with a one-digit
// negative exponent unpadded (1e-7, not 1e-07).
func (w *reportWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// rawString marks the bytes a JSON string may hold unescaped under
// encoding/json's HTML-safe rules: printable ASCII other than the quote,
// the backslash, and <, > and &.
var rawString = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// str appends s quoted. A string of raw bytes only is copied; any other
// is rendered by json.Marshal, so escapes, U+2028/U+2029 and invalid
// UTF-8 come out as encoding/json renders them.
func (w *reportWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if !rawString[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// floats appends a series whose brackets sit at depth.
func (w *reportWriter) floats(s []float64, depth int) {
	if s == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '[')
	for i, f := range s {
		w.elem(depth+1, i)
		w.float(f)
	}
	w.closeList(depth, len(s))
}

// windows appends a window list whose brackets sit at depth.
func (w *reportWriter) windows(s []WindowSpan, depth int) {
	if s == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '[')
	for i, ws := range s {
		w.elem(depth+1, i)
		w.b = append(w.b, '{')
		w.key(depth+2, true, "start")
		w.b = strconv.AppendUint(w.b, ws.Start, 10)
		w.key(depth+2, false, "end")
		w.b = strconv.AppendUint(w.b, ws.End, 10)
		w.close(depth+1, '}')
	}
	w.closeList(depth, len(s))
}

// stats appends plan statistics whose braces sit at depth.
func (w *reportWriter) stats(s Stats, depth int) {
	w.b = append(w.b, '{')
	w.key(depth+1, true, "Vertices")
	w.int(s.Vertices)
	w.key(depth+1, false, "UniqueSets")
	w.int(s.UniqueSets)
	w.key(depth+1, false, "SetRefs")
	w.int(s.SetRefs)
	w.key(depth+1, false, "Terms")
	w.int(s.Terms)
	w.close(depth, '}')
}

// summary appends a design summary whose braces sit at depth.
func (w *reportWriter) summary(s *core.Summary, depth int) {
	w.b = append(w.b, '{')
	w.key(depth+1, true, "SeqBits")
	w.int(s.SeqBits)
	w.key(depth+1, false, "NodeBits")
	w.int(s.NodeBits)
	w.key(depth+1, false, "LoopSeqBits")
	w.int(s.LoopSeqBits)
	w.key(depth+1, false, "CtrlBits")
	w.int(s.CtrlBits)
	w.key(depth+1, false, "WeightedSeqAVF")
	w.float(s.WeightedSeqAVF)
	w.key(depth+1, false, "WeightedNodeAVF")
	w.float(s.WeightedNodeAVF)
	w.key(depth+1, false, "VisitedFraction")
	w.float(s.VisitedFraction)
	w.key(depth+1, false, "LoopSeqFraction")
	w.float(s.LoopSeqFraction)
	w.key(depth+1, false, "Iterations")
	w.int(s.Iterations)
	w.key(depth+1, false, "Converged")
	w.b = strconv.AppendBool(w.b, s.Converged)
	w.close(depth, '}')
}

// writeMap appends the non-empty map m, whose braces sit at depth, in
// bytewise key order (encoding/json's), each value by val. Every
// workload of one report usually has the same keys, so the order sorted
// for one map is tried first on the next: when m has as many keys and
// holds each of them, the key sets are identical and the order fits.
// Otherwise the partial output is dropped, with any error it met (the
// error to report is the first in m's own order), and m's own keys are
// sorted.
func writeMap[V any](w *reportWriter, m map[string]V, depth int, val func(*reportWriter, V)) {
	mark, err := len(w.b), w.err
	if len(m) == len(w.keys) && mapEntries(w, m, depth, val) {
		return
	}
	w.b, w.err = w.b[:mark], err
	keys := w.keys[:0]
	if cap(keys) < len(m) {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.keys = keys
	mapEntries(w, m, depth, val)
}

// mapEntries appends m's entries in w.keys order and reports false at
// the first key m does not hold.
func mapEntries[V any](w *reportWriter, m map[string]V, depth int, val func(*reportWriter, V)) bool {
	w.b = append(w.b, '{')
	for i, k := range w.keys {
		v, ok := m[k]
		if !ok {
			return false
		}
		w.elem(depth+1, i)
		w.str(k)
		w.b = append(w.b, ": "...)
		val(w, v)
	}
	w.close(depth, '}')
	return true
}
