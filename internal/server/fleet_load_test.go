package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/fleet"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
)

// fleetReplica is one live seqavfd stand-in: a real Server behind a
// real listener, with its registry for post-hoc assertions.
type fleetReplica struct {
	srv *Server
	reg *obs.Registry
	ts  *httptest.Server
}

// newFleetReplicas starts n replicas, each with the same configuration.
// serviceFloor, when positive, is slept while holding a concurrency
// slot — a deterministic per-request service time that stands in for
// CPU-bound sweep work, so throughput scaling is measurable even on a
// single-core CI machine (sleeps overlap across replicas; CPU does not).
func newFleetReplicas(t testing.TB, n int, maxConcurrent int, serviceFloor time.Duration, store func(i int) *artifact.Store) []*fleetReplica {
	t.Helper()
	reps := make([]*fleetReplica, n)
	for i := range reps {
		reg := obs.New()
		cfg := Config{Obs: reg, MaxConcurrent: maxConcurrent}
		cfg.Sweep.Workers = 1
		if store != nil {
			cfg.Artifacts = store(i)
		}
		srv := New(cfg)
		if serviceFloor > 0 {
			srv.onSlotAcquired = func() { time.Sleep(serviceFloor) }
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		reps[i] = &fleetReplica{srv: srv, reg: reg, ts: ts}
	}
	return reps
}

func replicaURLs(reps []*fleetReplica) []string {
	urls := make([]string, len(reps))
	for i, r := range reps {
		urls[i] = r.ts.URL
	}
	return urls
}

// newGateway fronts the given replicas with a real gateway listener.
func newGateway(t testing.TB, urls []string) (*fleet.Gateway, *obs.Registry, *httptest.Server) {
	t.Helper()
	reg := obs.New()
	gw, err := fleet.New(fleet.Config{
		Replicas: urls,
		Obs:      reg,
		Client:   &http.Client{Timeout: 60 * time.Second},
		Backoff:  5 * time.Millisecond,
		Cooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, reg, ts
}

// ownedDesigns picks one design name per replica such that rendezvous
// routing sends name[i] to urls[i], then registers the shared solved
// result under every name on every replica — so any replica can serve
// any design (the fleet-wide design loading the gateway's failover
// assumes).
func ownedDesigns(t testing.TB, reps []*fleetReplica, res *core.Result) []string {
	t.Helper()
	urls := replicaURLs(reps)
	names := make([]string, len(reps))
	found := 0
	for i := 0; found < len(reps) && i < 10000; i++ {
		name := fmt.Sprintf("fleet-design-%d", i)
		owner := fleet.Owner(name, urls)
		for j, u := range urls {
			if u == owner && names[j] == "" {
				names[j] = name
				found++
				break
			}
		}
	}
	if found != len(reps) {
		t.Fatalf("could not find one owned design per replica: %v", names)
	}
	for _, r := range reps {
		for _, name := range names {
			if _, err := r.srv.AddResult(name, res); err != nil {
				t.Fatalf("AddResult(%s): %v", name, err)
			}
		}
	}
	return names
}

// TestFleetThroughput is the scaling acceptance test: with a 150ms
// service floor per sweep and one slot per replica, 3 replicas behind
// the gateway must clear a 12-request workload at least 2.5× faster
// than 1 replica does — and with zero drops (every response 200).
func TestFleetThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput soak")
	}
	const (
		floor    = 150 * time.Millisecond
		requests = 12
	)
	res := solvedDesign(t, 91)
	reps := newFleetReplicas(t, 3, 1, floor, nil)
	names := ownedDesigns(t, reps, res)
	bodies := make(map[string][]byte, len(names))
	for _, name := range names {
		bodies[name] = sweepBody(t, name, res, 1, 400)
	}

	run := func(gwURL string, clients int) time.Duration {
		t.Helper()
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		per := requests / clients
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				name := names[c%len(names)]
				for i := 0; i < per; i++ {
					resp, b := postJSON(t, http.DefaultClient, gwURL+"/v1/sweep", bodies[name])
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// Baseline: the whole workload through a single-replica gateway,
	// one sequential client (MaxConcurrent=1 serializes anyway).
	_, _, soloTS := newGateway(t, replicaURLs(reps[:1]))
	soloElapsed := run(soloTS.URL, 1)

	// Fleet: same workload through the 3-replica gateway, one pinned
	// client per replica so the 1-slot replicas never 429.
	_, gwReg, fleetTS := newGateway(t, replicaURLs(reps))
	fleetElapsed := run(fleetTS.URL, 3)

	ratio := float64(soloElapsed) / float64(fleetElapsed)
	t.Logf("solo %v, fleet %v, speedup %.2fx", soloElapsed, fleetElapsed, ratio)
	if ratio < 2.5 {
		t.Fatalf("3-replica fleet speedup %.2fx, want >= 2.5x (solo %v, fleet %v)",
			ratio, soloElapsed, fleetElapsed)
	}
	if got := gwReg.Counter("gateway.route_total").Load(); got != requests {
		t.Fatalf("gateway routed %d requests, want %d", got, requests)
	}
	if got := gwReg.Counter("gateway.proxy_errors").Load(); got != 0 {
		t.Fatalf("gateway counted %d proxy errors, want 0", got)
	}
	// Each replica served exactly its designs' share: routing was
	// consistent, not round-robin.
	for i, r := range reps {
		if got := r.reg.Counter("server.sweep_ok").Load(); got != requests/3+requests {
			// requests/3 from the fleet run; all 12 from the solo run land
			// on replica 0 only.
			if i == 0 || got != requests/3 {
				t.Fatalf("replica %d served %d sweeps, want %d (or %d for the solo baseline replica)",
					i, got, requests/3, requests/3+requests)
			}
		}
	}
}

// TestFleetStormZeroDrops hammers the fleet with more clients than
// slots while scraping merged metrics concurrently: every request must
// eventually succeed (429s are retried, nothing is lost), and the
// fleet-wide exposition must account for every sweep.
func TestFleetStormZeroDrops(t *testing.T) {
	res := solvedDesign(t, 92)
	reps := newFleetReplicas(t, 3, 2, 0, nil)
	names := ownedDesigns(t, reps, res)
	_, _, gwTS := newGateway(t, replicaURLs(reps))

	const clients, perClient = 8, 4
	bodies := make(map[string][]byte, len(names))
	for _, name := range names {
		bodies[name] = sweepBody(t, name, res, 1, 500)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := names[c%len(names)]
			for i := 0; i < perClient; i++ {
				for attempt := 0; ; attempt++ {
					resp, b := postJSON(t, http.DefaultClient, gwTS.URL+"/v1/sweep", bodies[name])
					if resp.StatusCode == http.StatusOK {
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests && attempt < 200 {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					errs <- fmt.Errorf("client %d req %d: status %d: %s", c, i, resp.StatusCode, b)
					return
				}
			}
		}(c)
	}
	// Concurrent scrapes of the merged exposition must never fail or
	// serve an unparseable page.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			resp, err := http.Get(gwTS.URL + "/metrics")
			if err != nil {
				errs <- fmt.Errorf("scrape %d: %v", i, err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("scrape %d: status %d", i, resp.StatusCode)
				return
			}
			if _, err := fleet.ParseExposition(b); err != nil {
				errs <- fmt.Errorf("scrape %d: merged page unparseable: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var served int64
	for _, r := range reps {
		served += r.reg.Counter("server.sweep_ok").Load()
	}
	if served != clients*perClient {
		t.Fatalf("replicas served %d sweeps, want %d (zero drops)", served, clients*perClient)
	}
	// The merged exposition sums the fleet's counters.
	resp, err := http.Get(gwTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exp, err := fleet.ParseExposition(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range exp.Families {
		for _, s := range fam.Samples {
			if s.Name == "server_sweep_ok" && s.Labels == "" && int64(s.Value) != served {
				t.Fatalf("merged server_sweep_ok = %v, want %d", s.Value, served)
			}
		}
	}
}

// TestFleetFailoverLive kills a live replica and drives a design it
// owned: the gateway must re-route to the next hash choice and the
// request must succeed, because every replica loads every design.
func TestFleetFailoverLive(t *testing.T) {
	res := solvedDesign(t, 93)
	reps := newFleetReplicas(t, 3, 4, 0, nil)
	names := ownedDesigns(t, reps, res)
	gw, gwReg, gwTS := newGateway(t, replicaURLs(reps))

	victim := 1
	reps[victim].ts.Close()
	body := sweepBody(t, names[victim], res, 1, 600)
	resp, b := postJSON(t, http.DefaultClient, gwTS.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover sweep: status %d: %s", resp.StatusCode, b)
	}
	if got := gwReg.Counter("gateway.retries").Load(); got == 0 {
		t.Fatal("failover counted no retries")
	}
	if got := gwReg.Gauge("gateway.replica_unhealthy").Load(); got != 1 {
		t.Fatalf("gateway.replica_unhealthy = %v, want 1", got)
	}
	// The surviving replicas, not the victim, served it.
	if got := reps[victim].reg.Counter("server.sweep_ok").Load(); got != 0 {
		t.Fatalf("dead replica served %d sweeps", got)
	}
	_ = gw
}

// TestFleetRemoteWarmStart is the rolling-restart acceptance test: a
// replica restarted with an EMPTY artifact directory must warm-start
// its designs from a peer's artifact store over the remote tier — no
// re-solve — and serve bit-identical sweep results.
func TestFleetRemoteWarmStart(t *testing.T) {
	// Replica A: solves cold and persists the artifact.
	regA := obs.New()
	storeA, err := artifact.Open(t.TempDir(), artifact.Options{Obs: regA})
	if err != nil {
		t.Fatal(err)
	}
	cfgA := Config{Obs: regA, Artifacts: storeA}
	cfgA.Sweep.Workers = 1
	srvA := New(cfgA)
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	gen, err := design.Generate(func() design.Config {
		c := design.DefaultConfig(77)
		c.NumFubs = 3
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatal(err)
	}
	dA, err := srvA.LoadNetlist("", bytes.NewReader(nl.Bytes()), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if regA.Counter("artifact.cold_start").Load() != 1 {
		t.Fatal("replica A did not solve cold")
	}

	// Replica B: empty artifact dir, remote tier pointed at A. Loading
	// the same netlist must warm-start through the fleet.
	regB := obs.New()
	storeB, err := artifact.Open(t.TempDir(), artifact.Options{
		Obs:    regB,
		Remote: &artifact.Remote{Peers: []string{tsA.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgB := Config{Obs: regB, Artifacts: storeB}
	cfgB.Sweep.Workers = 1
	srvB := New(cfgB)
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	dB, err := srvB.LoadNetlist("", bytes.NewReader(nl.Bytes()), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := regB.Counter("artifact.remote_hits").Load(); got != 1 {
		t.Fatalf("artifact.remote_hits = %d, want 1 (warm start must come from the peer)", got)
	}
	if got := regA.Counter("server.artifact_requests").Load(); got != 1 {
		t.Fatalf("peer served %d artifact requests, want 1", got)
	}
	if got := regB.Counter("artifact.warm_start").Load(); got != 1 {
		t.Fatalf("artifact.warm_start = %d, want 1", got)
	}
	if got := regB.Counter("artifact.cold_start").Load(); got != 0 {
		t.Fatalf("replica B solved cold %d times though the peer held the artifact", got)
	}

	// Same design, same workloads, both replicas: results bit-identical.
	body := sweepBody(t, dA.Name, dA.Result, 3, 700)
	respA, bA := postJSON(t, http.DefaultClient, tsA.URL+"/v1/sweep", body)
	respB, bB := postJSON(t, http.DefaultClient, tsB.URL+"/v1/sweep", body)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("sweeps: A=%d B=%d", respA.StatusCode, respB.StatusCode)
	}
	var srA, srB SweepResponse
	if err := json.Unmarshal(bA, &srA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bB, &srB); err != nil {
		t.Fatal(err)
	}
	if dA.Name != dB.Name {
		t.Fatalf("design names diverge: %q vs %q", dA.Name, dB.Name)
	}
	if len(srA.Results) != len(srB.Results) {
		t.Fatalf("result counts diverge: %d vs %d", len(srA.Results), len(srB.Results))
	}
	for i := range srA.Results {
		a, b := srA.Results[i], srB.Results[i]
		if a.Summary != b.Summary {
			t.Fatalf("workload %d: cold-solved summary %+v != remote-warm summary %+v", i, a.Summary, b.Summary)
		}
	}
}
