package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4) of the registry.
// This is the scrape surface a fleet gateway aggregates: counters and
// gauges sum/average trivially across replicas, and the fixed-bucket
// histograms expose identical le= layouts on every process, so
// per-replica _bucket series add up to fleet-level quantile estimates.
//
// Metric names translate by replacing every character outside
// [a-zA-Z0-9_:] with '_': "server.request_seconds" scrapes as
// "server_request_seconds".

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteProm writes the registry's current state in the Prometheus text
// exposition format. The snapshot is taken once (single registry lock),
// so the exposed families are mutually consistent.
func (r *Registry) WriteProm(w io.Writer) error {
	return writeProm(w, r.Snapshot())
}

func writeProm(w io.Writer, snap *Snapshot) error {
	for _, name := range sortedNames(snap.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", pn, pn, promFloat(float64(snap.Counters[name]))); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(snap.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(snap.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(snap.Histograms) {
		if err := writePromHistogram(w, promName(name), snap.Histograms[name]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram family: cumulative _bucket
// series ending in le="+Inf", then _sum and _count.
func writePromHistogram(w io.Writer, pn string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	var cum uint64
	for i, le := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum), pn, h.Count)
	return err
}

// promFloat renders a float in the exposition format's value syntax.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName maps a registry metric name onto the Prometheus name
// grammar: every character outside [a-zA-Z0-9_:] becomes '_', and a
// leading digit is prefixed with '_'.
func promName(name string) string {
	b := make([]byte, 0, len(name)+1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if i == 0 && c >= '0' && c <= '9' {
			b = append(b, '_')
		}
		if !ok {
			c = '_'
		}
		b = append(b, c)
	}
	return string(b)
}

// PromHandler serves the registry in the Prometheus text exposition
// format — the scrape endpoint a gateway or Prometheus server polls.
// Safe on a nil registry, which serves an empty (but valid) page.
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", PromContentType)
		if req.Method == http.MethodHead {
			return
		}
		_ = r.WriteProm(w) // headers are out; nothing useful left to send
	})
}
