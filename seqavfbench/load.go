package main

// The closed loop: one client, one connection, the next op sent only
// when the previous one has been answered.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"seqavf/internal/server"
)

type loop struct {
	in *inputs
	ck *checker
	// ecoOps are the final server's eco_loop responses by op index
	// (warm-up ops first); ecoWarm holds the warm-up responses of each
	// earlier set-up. A nil entry is an op that got no answer.
	ecoOps  [][][]byte
	ecoWarm [][][][]byte
}

func (lp *loop) eco() bool { return lp.in.workload == "eco_loop" }

// send performs op i and returns its response bodies in request order.
// A transport error or a non-2xx status fails the op.
func (lp *loop) send(d *daemon, i int) ([][]byte, error) {
	type request struct {
		path string
		body []byte
	}
	var reqs []request
	if lp.eco() {
		k := i % poolSize
		reqs = []request{
			{"/v1/designs/" + lp.in.designName + "/edit", lp.in.editBody(i)},
			{"/v1/sweep/intervals", lp.in.intervals[k]},
			{"/v1/harden", lp.in.harden[k]},
		}
	} else {
		reqs = []request{{"/v1/sweep", lp.in.bodies[i%poolSize]}}
	}
	out := make([][]byte, len(reqs))
	for k, rq := range reqs {
		status, body, err := d.post(rq.path, rq.body)
		if err != nil {
			return nil, fmt.Errorf("POST %s: %w", rq.path, err)
		}
		if status/100 != 2 {
			return nil, fmt.Errorf("POST %s: status %d: %.200s", rq.path, status, body)
		}
		out[k] = body
	}
	return out, nil
}

// do performs op i, checks a sweep answer on the spot, and counts the
// op. ECO answers are checked later, by checkECO. The latency covers the
// requests alone, not the check.
func (lp *loop) do(d *daemon, i int, rep *report) (out [][]byte, latencyMS float64) {
	rep.attempted++
	start := time.Now()
	out, err := lp.send(d, i)
	latencyMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if err == nil && !lp.eco() {
		err = lp.ck.checkSweep(i, out[0])
	}
	if err != nil {
		rep.fail(fmt.Errorf("op %d: %w", i, err))
		return nil, latencyMS
	}
	return out, latencyMS
}

// upload registers the base design on a fresh server (a cold solve).
func (lp *loop) upload(d *daemon) error {
	status, body, err := d.post("/v1/designs", lp.in.netlist)
	if err != nil {
		return fmt.Errorf("uploading the design: %w", err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("uploading the design: status %d: %.200s", status, body)
	}
	var info server.DesignInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("upload response: %w", err)
	}
	if info.Name != lp.in.designName || info.Vertices != lp.ck.baseVerts {
		return fmt.Errorf("uploaded design is %q with %d vertices, want %q with %d",
			info.Name, info.Vertices, lp.in.designName, lp.ck.baseVerts)
	}
	return nil
}

// setups starts the server cfg.setups times, each with a fresh artifact
// directory, and times each from exec through /healthz, the cold upload
// and the warm-up ops. Every server but the last is stopped; the last
// one is returned for the timed phase.
func (lp *loop) setups(cfg config, runDir string, rep *report) (*daemon, error) {
	last := max(cfg.setups, 1) - 1
	for s := 0; ; s++ {
		start := time.Now()
		d, err := startDaemon(cfg.bin, filepath.Join(runDir, fmt.Sprintf("artifacts-%d", s)))
		if err != nil {
			return nil, err
		}
		if err := lp.upload(d); err != nil {
			d.stop()
			return nil, err
		}
		warm := make([][][]byte, cfg.warmup)
		for i := range warm {
			warm[i], _ = lp.do(d, i, rep)
		}
		rep.setupS = append(rep.setupS, time.Since(start).Seconds())
		if s == last {
			if lp.eco() {
				lp.ecoOps = warm
			}
			return d, nil
		}
		d.stop()
		if lp.eco() {
			lp.ecoWarm = append(lp.ecoWarm, warm)
		}
	}
}

// windowOps is the length of one measurement window in ops. At 100 ops a
// window's p90 has ten samples beyond it.
const windowOps = 100

// window is one run of consecutive timed ops, with the wall time and the
// server's CPU time over the same span. Latency, throughput and CPU are
// computed per window and reported as the median over windows, so a
// burst of interference from other guests on the host that covers less
// than half of a run does not move them.
type window struct {
	latencyMS []float64
	seconds   float64
	cpuS      float64
}

// timed runs the closed loop on d for dur and reads the server's CPU,
// allocation and peak RSS around it. Op indices continue after the
// warm-up ops. Ops after the last full window join that window.
func (lp *loop) timed(d *daemon, dur time.Duration, rep *report) error {
	alloc0, err := d.totalAlloc(true)
	if err != nil {
		return err
	}
	steal0, err := stealTicks()
	if err != nil {
		return err
	}
	prevCPU, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	start := time.Now()
	prevAt, first := start, 0
	closeWindow := func() error {
		cpu, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		w := window{latencyMS: rep.latencyMS[first:], seconds: time.Since(prevAt).Seconds(), cpuS: cpu - prevCPU}
		if n := len(rep.windows); n > 0 && len(w.latencyMS) < windowOps {
			last := &rep.windows[n-1]
			last.latencyMS = rep.latencyMS[len(rep.latencyMS)-len(last.latencyMS)-len(w.latencyMS):]
			last.seconds += w.seconds
			last.cpuS += w.cpuS
		} else {
			rep.windows = append(rep.windows, w)
		}
		prevAt, prevCPU, first = time.Now(), cpu, len(rep.latencyMS)
		return nil
	}
	for i := rep.cfg.warmup; time.Since(start) < dur; i++ {
		out, ms := lp.do(d, i, rep)
		rep.latencyMS = append(rep.latencyMS, ms)
		if lp.eco() {
			lp.ecoOps = append(lp.ecoOps, out)
		}
		if len(rep.latencyMS)-first == windowOps {
			if err := closeWindow(); err != nil {
				return err
			}
		}
	}
	if first < len(rep.latencyMS) {
		if err := closeWindow(); err != nil {
			return err
		}
	}
	steal1, err := stealTicks()
	if err != nil {
		return err
	}
	rep.stealFrac = float64(steal1-steal0) / (time.Since(start).Seconds() * clockTicks * float64(runtime.NumCPU()))
	alloc1, err := d.totalAlloc(false)
	if err != nil {
		return err
	}
	rep.allocBytes = float64(alloc1 - alloc0)
	rep.rssMiB, err = d.peakRSSMiB()
	return err
}

// checkECO checks the eco_loop answers: the final server's ops against
// the replayed edit chain, and each earlier set-up's warm-up ops against
// the final server's (they sent the same requests to a fresh server).
func (lp *loop) checkECO(rep *report) error {
	if !lp.eco() {
		return nil
	}
	errs, err := lp.ck.checkECO(lp.ecoOps)
	if err != nil {
		return err
	}
	for i, err := range errs {
		// Ops that got no answer were counted when they were sent.
		if err != nil && lp.ecoOps[i] != nil {
			rep.fail(fmt.Errorf("eco op %d: %w", i, err))
		}
	}
	for s, warm := range lp.ecoWarm {
		for i, got := range warm {
			if got == nil {
				continue
			}
			err := errs[i]
			for k := 0; err == nil && k < len(got); k++ {
				if !bytes.Equal(maskTimings(got[k]), maskTimings(lp.ecoOps[i][k])) {
					err = fmt.Errorf("response %d differs from the final set-up's", k)
				}
			}
			if err != nil {
				rep.fail(fmt.Errorf("set-up %d, eco op %d: %w", s, i, err))
			}
		}
	}
	return nil
}
