package server

// The one body decoder of the three table-carrying routes: /v1/sweep,
// /v1/sweep/intervals and /v1/harden. A 64-table sweep body is a few
// hundred KB of escaped pAVF text; encoding/json spends more time and
// memory on it than the table parser does. decodeRequest therefore
// reads the body once, walks it once matching only the exact keys of
// the route's request type, and unescapes every string into one fresh
// per-request arena. Anything the walk does not handle declines to an
// encoding/json decode of the same bytes, so every status and error
// text is the one encoding/json alone gives.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"seqavf/internal/harden"
)

// How a request body was decoded, as the ingest span's "decode"
// attribute reports it.
const (
	decodeFast     = "fast"
	decodeFallback = "fallback"
)

// maxPooledBody bounds the request and response body buffers kept for
// reuse: a buffer that grew past it (an unusually large request or
// response) is dropped, so a pool never pins the memory of one outlier.
const maxPooledBody = 1 << 20

// bodyBufs pools raw request bodies. Only the raw bytes are pooled:
// nothing decoded refers to them, because the fast walk copies every
// string into its own arena and encoding/json copies what it decodes.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// tableRequest is a request type decodeRequest serves.
type tableRequest interface {
	SweepRequest | IntervalSweepRequest | harden.Request
}

// decodeRequest decodes a table-carrying request body and reports how:
// decodeFast when the one-pass walk took the whole body, decodeFallback
// when it declined and encoding/json decoded the body instead. The walk
// declines on a read error, a syntax error, a key that is not exactly
// one of the request type's JSON keys (a differently cased key
// included), a duplicate key, null, a \u escape or invalid UTF-8 in a
// string, a number that does not fit its field, a harden cost table,
// and trailing data. A harden request is validated on either path.
// sizeHint is the body's announced length (-1 when unknown), used to
// presize a buffer the pool has not grown yet.
func decodeRequest[R tableRequest](body io.Reader, sizeHint int64) (*R, string, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	if sizeHint > 0 && sizeHint <= maxPooledBody {
		buf.Grow(int(sizeHint) + bytes.MinRead)
	}
	_, rerr := buf.ReadFrom(body)
	data := buf.Bytes()

	if rerr == nil {
		req := new(R)
		w := walker{b: data}
		w.arena.Grow(len(data))
		if w.request(req) {
			if h, ok := any(req).(*harden.Request); ok {
				if err := h.Validate(); err != nil {
					return nil, decodeFast, errorf(http.StatusBadRequest, "%v", err)
				}
			}
			return req, decodeFast, nil
		}
	}
	req := new(R)
	if err := fallbackDecode(data, rerr, req); err != nil {
		return nil, decodeFallback, err
	}
	return req, decodeFallback, nil
}

// fallbackDecode decodes with encoding/json, unknown fields refused
// (harden.ParseRequest for harden), over the bytes read followed by the
// read error if there was one, so a cut or oversized body fails exactly
// as a decoder streaming the body itself would fail.
func fallbackDecode[R tableRequest](data []byte, rerr error, req *R) error {
	if h, ok := any(req).(*harden.Request); ok {
		if rerr != nil {
			return errorf(http.StatusBadRequest, "reading body: %w", rerr)
		}
		parsed, err := harden.ParseRequest(data)
		if err != nil {
			return errorf(http.StatusBadRequest, "%v", err)
		}
		*h = *parsed
		return nil
	}
	var r io.Reader = bytes.NewReader(data)
	if rerr != nil {
		r = io.MultiReader(r, errReader{rerr})
	}
	return decodeJSON(r, req)
}

// decodeJSON decodes one JSON value from body into v, rejecting unknown
// fields; what follows the value is not read.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errorf(http.StatusBadRequest, "decoding request: %w", err)
	}
	return nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// walker is the fast path: a cursor over the whole body and the arena
// its strings are unescaped into. The arena is presized to the body,
// which bounds every unescaped string, so all strings of one request
// share one allocation; workload names and tables are substrings of it,
// and the parsed pAVF maps keep it alive until the request ends. Only
// the design name, which outlives the request, is copied out.
type walker struct {
	b     []byte
	i     int
	arena strings.Builder
}

// request walks a body holding one request object and nothing else.
func (w *walker) request(req any) bool {
	var ok bool
	switch v := req.(type) {
	case *SweepRequest:
		ok = w.sweep(v)
	case *IntervalSweepRequest:
		ok = w.intervals(v)
	case *harden.Request:
		ok = w.harden(v)
	}
	return ok && w.end()
}

// sweep walks a SweepRequest object.
func (w *walker) sweep(req *SweepRequest) bool {
	var seen uint8
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "design":
			return w.first(&seen, 1) && w.name(&req.Design)
		case "workloads":
			if !w.first(&seen, 2) {
				return false
			}
			req.Workloads = []SweepWorkload{}
			return w.workloads("pavf", func(name, table string) {
				req.Workloads = append(req.Workloads, SweepWorkload{Name: name, PAVF: table})
			})
		case "nodes":
			return w.first(&seen, 4) && w.boolean(&req.Nodes)
		}
		return false
	})
}

// intervals walks an IntervalSweepRequest object.
func (w *walker) intervals(req *IntervalSweepRequest) bool {
	var seen uint8
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "design":
			return w.first(&seen, 1) && w.name(&req.Design)
		case "workloads":
			if !w.first(&seen, 2) {
				return false
			}
			req.Workloads = []IntervalSweepWorkload{}
			return w.workloads("table", func(name, table string) {
				req.Workloads = append(req.Workloads, IntervalSweepWorkload{Name: name, Table: table})
			})
		case "nodes":
			return w.first(&seen, 4) && w.boolean(&req.Nodes)
		}
		return false
	})
}

// harden walks a harden.Request object. A cost table is left to the
// fallback: it is rare, and a map is the one shape the walk would need
// for it alone.
func (w *walker) harden(req *harden.Request) bool {
	var seen uint8
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "design":
			return w.first(&seen, 1) && w.name(&req.Design)
		case "workloads":
			if !w.first(&seen, 2) {
				return false
			}
			req.Workloads = []harden.Workload{}
			return w.workloads("pavf", func(name, table string) {
				req.Workloads = append(req.Workloads, harden.Workload{Name: name, PAVF: table})
			})
		case "budgets":
			if !w.first(&seen, 4) {
				return false
			}
			req.Budgets = []float64{}
			return w.array(func() bool {
				x, ok := w.float()
				req.Budgets = append(req.Budgets, x)
				return ok
			})
		case "solver":
			return w.first(&seen, 8) && w.str(&req.Solver)
		case "top_terms":
			return w.first(&seen, 16) && w.int(&req.TopTerms)
		}
		return false
	})
}

// workloads walks an array of {"name": ..., <table>: ...} objects and
// hands each workload's name and table to add.
func (w *walker) workloads(table string, add func(name, table string)) bool {
	return w.array(func() bool {
		var name, text string
		var seen uint8
		ok := w.object(func(key []byte) bool {
			switch string(key) {
			case "name":
				return w.first(&seen, 1) && w.str(&name)
			case table:
				return w.first(&seen, 2) && w.str(&text)
			}
			return false
		})
		if ok {
			add(name, text)
		}
		return ok
	})
}

// first marks key bit k of one object as seen; a key seen before is a
// duplicate, which encoding/json resolves last-wins and the walk
// declines.
func (w *walker) first(seen *uint8, k uint8) bool {
	dup := *seen&k != 0
	*seen |= k
	return !dup
}

// ws skips JSON whitespace.
func (w *walker) ws() {
	for w.i < len(w.b) {
		switch w.b[w.i] {
		case ' ', '\t', '\n', '\r':
			w.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, or reports that c is not next.
func (w *walker) consume(c byte) bool {
	w.ws()
	if w.i < len(w.b) && w.b[w.i] == c {
		w.i++
		return true
	}
	return false
}

// end reports whether only whitespace follows the cursor.
func (w *walker) end() bool {
	w.ws()
	return w.i == len(w.b)
}

// object walks one object; field decodes the value of each key and
// returns false to decline the key.
func (w *walker) object(field func(key []byte) bool) bool {
	if !w.consume('{') {
		return false
	}
	if w.consume('}') {
		return true
	}
	for {
		key, ok := w.key()
		if !ok || !w.consume(':') || !field(key) {
			return false
		}
		if !w.consume(',') {
			return w.consume('}')
		}
	}
}

// array walks one array; elem decodes each element.
func (w *walker) array(elem func() bool) bool {
	if !w.consume('[') {
		return false
	}
	if w.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !w.consume(',') {
			return w.consume(']')
		}
	}
}

// key returns an object key's raw bytes. Every key the walk knows is
// printable ASCII, so a key holding an escape or any other byte is
// declined before it is compared.
func (w *walker) key() ([]byte, bool) {
	if !w.consume('"') {
		return nil, false
	}
	start := w.i
	for w.i < len(w.b) {
		c := w.b[w.i]
		w.i++
		switch {
		case c == '"':
			return w.b[start : w.i-1], true
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// unescape maps the byte after a backslash to the byte it stands for;
// 0 marks \u (left to the fallback) and every invalid escape.
var unescape = [256]byte{
	'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// plain marks the bytes a JSON string holds as themselves: everything
// but the quote, the backslash and the control characters.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str decodes one string value into the arena and sets *dst to it. A
// string that is not valid UTF-8 is declined: encoding/json would
// replace its bad bytes.
func (w *walker) str(dst *string) bool {
	if !w.consume('"') {
		return false
	}
	a := &w.arena
	start := a.Len()
	b, i := w.b, w.i
	var high byte // every plain byte OR-ed, to spot non-ASCII
	for {
		seg := i
		for i < len(b) && plain[b[i]] {
			high |= b[i]
			i++
		}
		a.Write(b[seg:i])
		if i+1 >= len(b) || b[i] != '\\' {
			break
		}
		e := unescape[b[i+1]]
		if e == 0 {
			return false
		}
		a.WriteByte(e)
		i += 2
	}
	if i >= len(b) || b[i] != '"' {
		return false // end of body, a control character or a lone backslash
	}
	w.i = i + 1
	s := a.String()[start:]
	if high >= utf8.RuneSelf && !utf8.ValidString(s) {
		return false
	}
	*dst = s
	return true
}

// name decodes a string that outlives the request into an allocation
// of its own. The design name is one: the flight recorder keeps it, and
// as a substring of the arena it would pin the whole request's tables.
func (w *walker) name(dst *string) bool {
	if !w.str(dst) {
		return false
	}
	*dst = strings.Clone(*dst)
	return true
}

// boolean decodes true or false.
func (w *walker) boolean(dst *bool) bool {
	w.ws()
	rest := w.b[w.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		w.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		w.i += 5
	default:
		return false
	}
	return true
}

// number returns the number literal at the cursor, held to the JSON
// grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (w *walker) number() (string, bool) {
	w.ws()
	b, i := w.b, w.i
	digits := func() int {
		n := 0
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return "", false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return "", false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return "", false
		}
	}
	w.i = i
	return string(b[start:i]), true
}

// float decodes a number into a float64 as encoding/json does; a value
// out of float64's range is declined.
func (w *walker) float() (float64, bool) {
	lit, ok := w.number()
	if !ok {
		return 0, false
	}
	x, err := strconv.ParseFloat(lit, 64)
	return x, err == nil
}

// int decodes an integer literal into an int as encoding/json does; a
// fraction, an exponent or an overflow is declined.
func (w *walker) int(dst *int) bool {
	lit, ok := w.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}
