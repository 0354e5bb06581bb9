package main

// Metrics, the per-layer replay summary, and the printed report.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, for every workload.
// The failed fraction is reported through the result's attempted and
// failed counts.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kib_per_op", "KiB"},
	{"rss_peak_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a --trace 1 run reports: per-op medians over
// the replayed ops. Times are the self time of the layer's spans.
var perLayer = []metricDef{
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.response_kib", "KiB"},
	{"server.other_ms", "ms"},
	{"pavfio.parse_ms", "ms"},
	{"pavfio.parse_intervals_ms", "ms"},
	{"netlist.analyze_ms", "ms"},
	{"core.prior_ms", "ms"},
	{"core.resolve_ms", "ms"},
	{"core.fubs_dirty_frac", "frac"},
	{"core.summarize_ms", "ms"},
	{"core.nodes_ms", "ms"},
	{"sweep.env_ms", "ms"},
	{"sweep.kernel_ms", "ms"},
	{"sweep.eval_ms", "ms"},
	{"sweep.intervals_ms", "ms"},
	{"sweep.compile_ms", "ms"},
	{"sweep.plan_cache_hit_frac", "frac"},
	{"sweep.lanes_per_op", "count"},
	{"artifact.put_ms", "ms"},
	{"artifact.put_kib", "KiB"},
	{"harden.model_ms", "ms"},
	{"harden.optimize_ms", "ms"},
	{"harden.sens_ms", "ms"},
	{"harden.sens_cache_hit_frac", "frac"},
	{"replay.trace_overhead_frac", "frac"},
}

// layers groups the per-layer times by package for the attribution
// table. sweep.env_ms and sweep.kernel_ms are parts of sweep.eval_ms and
// are listed beside it, not added.
var layers = []struct {
	name    string
	metrics []string
}{
	{"server", []string{"server.decode_ms", "server.encode_ms"}},
	{"pavfio", []string{"pavfio.parse_ms", "pavfio.parse_intervals_ms"}},
	{"netlist/graph", []string{"netlist.analyze_ms"}},
	{"core", []string{"core.prior_ms", "core.resolve_ms", "core.summarize_ms", "core.nodes_ms"}},
	{"sweep", []string{"sweep.eval_ms", "sweep.intervals_ms", "sweep.compile_ms"}},
	{"artifact", []string{"artifact.put_ms"}},
	{"harden", []string{"harden.model_ms", "harden.optimize_ms", "harden.sens_ms"}},
	{"server.other", []string{"server.other_ms"}},
}

type report struct {
	cfg config
	in  *inputs

	attempted, failed int
	firstErr          error

	setupS     []float64
	latencyMS  []float64 // every timed op, in order
	windows    []window  // latencyMS cut into measurement windows
	stealFrac  float64   // share of the host CPU time given to other guests during the timed phase
	allocBytes float64
	rssMiB     float64

	layer map[string]float64 // per-layer metrics, after a traced replay
}

func (r *report) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// endToEndValues computes the end-to-end metrics. Latency, throughput
// and CPU are medians over the measurement windows.
func (r *report) endToEndValues() map[string]float64 {
	var p50, p90, tput, cpu []float64
	for _, w := range r.windows {
		n := float64(len(w.latencyMS))
		p50 = append(p50, quantile(w.latencyMS, 0.5))
		p90 = append(p90, quantile(w.latencyMS, 0.9))
		tput = append(tput, n/w.seconds)
		cpu = append(cpu, w.cpuS*1e3/n)
	}
	return map[string]float64{
		"latency_p50_ms":   quantile(p50, 0.5),
		"latency_p90_ms":   quantile(p90, 0.5),
		"throughput_ops_s": quantile(tput, 0.5),
		"cpu_ms_per_op":    quantile(cpu, 0.5),
		"alloc_kib_per_op": r.allocBytes / 1024 / float64(len(r.latencyMS)),
		"rss_peak_mib":     r.rssMiB,
		"setup_s":          quantile(r.setupS, 0.5),
	}
}

// result is the final output line: the end-to-end metrics, or with
// trace the per-layer ones.
func (r *report) result(trace bool) result {
	defs, vals := endToEnd, r.endToEndValues()
	if trace {
		defs, vals = perLayer, r.layer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// print writes the human-readable report: the run manifest, every
// end-to-end metric with its sample count, and after a traced run the
// per-layer metrics and the attribution table.
func (r *report) print(w io.Writer) {
	timed := len(r.latencyMS)
	fmt.Fprintf(w, "manifest: git_rev=%s seqavfd_sha256=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		gitRevision(r.cfg.root), fileDigest(r.cfg.bin), runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "manifest: workload=%s seed=%d design_seed=%d inputs_digest=%s seconds=%g setups=%d warmup_ops=%d timed_ops=%d clients=1 connections=1 loop=closed\n",
		r.in.workload, r.cfg.seed, designSeed, r.in.digest, r.cfg.seconds, len(r.setupS), r.cfg.warmup, timed)
	vals := r.endToEndValues()
	var beyond []string
	for _, win := range r.windows {
		p90, n := quantile(win.latencyMS, 0.9), 0
		for _, v := range win.latencyMS {
			if v > p90 {
				n++
			}
		}
		beyond = append(beyond, fmt.Sprint(n))
	}
	perWindow := fmt.Sprintf("median of %d windows of >=%d ops", len(r.windows), windowOps)
	samples := map[string]string{
		"latency_p50_ms":   perWindow,
		"latency_p90_ms":   perWindow + ", beyond p90 per window: " + strings.Join(beyond, " "),
		"throughput_ops_s": perWindow,
		"cpu_ms_per_op":    perWindow,
		"alloc_kib_per_op": fmt.Sprintf("n=%d ops", timed),
		"rss_peak_mib":     "n=1",
		"setup_s":          fmt.Sprintf("median of n=%d", len(r.setupS)),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "e2e  %-28s %12.4f %-5s (%s)\n", d.name, vals[d.name], d.unit, samples[d.name])
	}
	fmt.Fprintf(w, "e2e  windows, p50/p90/cpu ms per op:")
	for _, win := range r.windows {
		fmt.Fprintf(w, " %.1f/%.1f/%.1f", quantile(win.latencyMS, 0.5), quantile(win.latencyMS, 0.9), win.cpuS*1e3/float64(len(win.latencyMS)))
	}
	fmt.Fprintf(w, "; %d ops; host steal %.1f%% of CPU time\n", timed, 100*r.stealFrac)
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "e2e  %-28s %12.4f %-5s (%d of %d ops)\n", "failed_frac", failedFrac, "frac", r.failed, r.attempted)
	if r.layer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "layer %-27s %12.4f %s\n", d.name, r.layer[d.name], d.unit)
	}
	p50 := vals["latency_p50_ms"]
	fmt.Fprintf(w, "attribution of latency_p50_ms = %.3f ms on %s (replay medians, %d ops):\n", p50, r.in.workload, r.cfg.replayOps)
	best, bestMS := "", math.Inf(-1)
	for _, l := range layers {
		ms := 0.0
		for _, m := range l.metrics {
			ms += r.layer[m]
		}
		fmt.Fprintf(w, "  %-14s %9.3f ms %6.1f%%\n", l.name, ms, 100*ms/p50)
		if l.name == "sweep" {
			fmt.Fprintf(w, "    %-12s %9.3f ms %6.1f%%  (part of sweep.eval)\n", "sweep.env", r.layer["sweep.env_ms"], 100*r.layer["sweep.env_ms"]/p50)
			fmt.Fprintf(w, "    %-12s %9.3f ms %6.1f%%  (part of sweep.eval)\n", "sweep.kernel", r.layer["sweep.kernel_ms"], 100*r.layer["sweep.kernel_ms"]/p50)
		}
		if ms > bestMS {
			best, bestMS = l.name, ms
		}
	}
	fmt.Fprintf(w, "dominant layer on %s: %s (%.1f%% of latency_p50_ms)\n", r.in.workload, best, 100*bestMS/p50)
}

// replayLayers replays ops 0..n-1 in process twice, interleaved: once
// traced, with the env/kernel side pass, and once untraced. Both
// replayers keep an artifact store, like the server. It fills the
// per-layer metrics with per-op medians.
func replayLayers(in *inputs, runDir string, n int, rep *report) error {
	traced, err := newReplayer(in, filepath.Join(runDir, "replay-traced"))
	if err != nil {
		return err
	}
	plain, err := newReplayer(in, filepath.Join(runDir, "replay-plain"))
	if err != nil {
		return err
	}
	perOp := make(map[string][]float64)
	var tracedMS, plainMS []float64
	for i := 0; i < max(n, 1); i++ {
		tr := newTracer()
		traced.tr = tr
		hits0 := traced.reg.Counter("sweep.plan_cache_hits").Load()
		miss0 := traced.reg.Counter("sweep.plan_cache_misses").Load()
		_, err := traced.op(i)
		traced.tr = nil
		if err != nil {
			return fmt.Errorf("traced replay of op %d: %w", i, err)
		}
		hits := float64(traced.reg.Counter("sweep.plan_cache_hits").Load() - hits0)
		misses := float64(traced.reg.Counter("sweep.plan_cache_misses").Load() - miss0)

		start := time.Now()
		if _, err := plain.op(i); err != nil {
			return fmt.Errorf("replay of op %d: %w", i, err)
		}
		plainMS = append(plainMS, float64(time.Since(start).Nanoseconds())/1e6)
		tracedMS = append(tracedMS, tr.handlerMS())

		self := tr.selfMS()
		c := tr.counts
		op := map[string]float64{
			"server.decode_ms":           self["server.decode"],
			"server.encode_ms":           self["server.encode"],
			"server.response_kib":        c["server.response_bytes"] / 1024,
			"pavfio.parse_ms":            self["pavfio.parse"],
			"pavfio.parse_intervals_ms":  self["pavfio.parse_intervals"],
			"netlist.analyze_ms":         self["netlist.analyze"],
			"core.prior_ms":              self["core.prior"],
			"core.resolve_ms":            self["core.resolve"],
			"core.fubs_dirty_frac":       ratio(c["core.fubs_dirty"], c["core.fubs_total"]),
			"core.summarize_ms":          self["core.summarize"],
			"core.nodes_ms":              self["core.nodes"],
			"sweep.env_ms":               self["sweep.env"],
			"sweep.kernel_ms":            self["sweep.kernel"],
			"sweep.eval_ms":              self["sweep.eval"],
			"sweep.intervals_ms":         self["sweep.intervals"],
			"sweep.compile_ms":           self["sweep.plan"],
			"sweep.plan_cache_hit_frac":  ratio(hits, hits+misses),
			"sweep.lanes_per_op":         c["sweep.lanes"],
			"artifact.put_ms":            self["artifact.put"],
			"artifact.put_kib":           c["artifact.put_bytes"] / 1024,
			"harden.model_ms":            self["harden.model"],
			"harden.optimize_ms":         self["harden.optimize"],
			"harden.sens_ms":             self["harden.sens"],
			"harden.sens_cache_hit_frac": ratio(c["harden.sens_hits"], c["harden.sens_lookups"]),
		}
		for k, v := range op {
			perOp[k] = append(perOp[k], v)
		}
	}
	rep.layer = make(map[string]float64, len(perLayer))
	for k, vs := range perOp {
		rep.layer[k] = quantile(vs, 0.5)
	}
	replayed := quantile(tracedMS, 0.5)
	rep.layer["server.other_ms"] = rep.endToEndValues()["latency_p50_ms"] - replayed
	rep.layer["replay.trace_overhead_frac"] = replayed/quantile(plainMS, 0.5) - 1
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// gitRevision returns HEAD of root when root is itself a git checkout.
func gitRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fileDigest(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
