package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"seqavf/internal/design"
	"seqavf/internal/fleet"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
)

// waitForCount polls a counter-ish predicate until it holds or the
// deadline passes: design replication runs after the client's response
// is written, so assertions about it must tolerate a short lag.
func waitForCount(t testing.TB, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetHardenThroughGateway drives POST /v1/harden end to end
// through the gateway: a multi-budget sweep must reach the design's
// owner whole, come back in request order, and survive a concurrent
// burst under the race detector.
func TestFleetHardenThroughGateway(t *testing.T) {
	res := solvedDesign(t, 93)
	reps := newFleetReplicas(t, 3, 4, 0, nil)
	names := ownedDesigns(t, reps, res)
	_, gwReg, gwTS := newGateway(t, replicaURLs(reps))

	budgets := []float64{3, 9, 1e6}
	body, err := json.Marshal(harden.Request{Design: names[0], Budgets: budgets, TopTerms: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, http.DefaultClient, gwTS.URL+"/v1/harden", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("harden via gateway: status %d: %s", resp.StatusCode, raw)
	}
	var hr harden.Response
	if err := json.Unmarshal(raw, &hr); err != nil {
		t.Fatalf("bad response: %v\n%s", err, raw)
	}
	if hr.Design != names[0] || len(hr.Plans) != len(budgets) {
		t.Fatalf("response %q with %d plans, want %q/%d: %s",
			hr.Design, len(hr.Plans), names[0], len(budgets), raw)
	}
	for i, p := range hr.Plans {
		if p.Budget != budgets[i] {
			t.Errorf("plan %d has budget %v, want %v (plans must keep request order)", i, p.Budget, budgets[i])
		}
		if len(p.Chosen) == 0 {
			t.Errorf("plan %d chose nothing", i)
		}
		if p.ResidualChipAVF > p.BaseChipAVF {
			t.Errorf("plan %d residual %v above base %v", i, p.ResidualChipAVF, p.BaseChipAVF)
		}
	}
	if last := hr.Plans[len(hr.Plans)-1]; last.ResidualChipAVF != 0 {
		t.Errorf("unbounded budget left residual %v", last.ResidualChipAVF)
	}
	if len(hr.TopTerms) == 0 {
		t.Error("response dropped top_terms")
	}
	if got := gwReg.Counter("gateway.harden_requests").Load(); got != 1 {
		t.Errorf("gateway.harden_requests = %d, want 1", got)
	}
	// names[0] is owned by reps[0]: only the owner planned the request.
	for i, r := range reps {
		want := int64(0)
		if i == 0 {
			want = 1
		}
		if got := r.reg.Counter("harden.ok").Load(); got != want {
			t.Errorf("replica %d harden.ok = %d, want %d", i, got, want)
		}
	}

	// Concurrent burst: every request must come back 200 (retrying only
	// 429 backpressure), exercising the routed path under -race.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(harden.Request{
				Design:  names[i%len(names)],
				Budgets: []float64{3, 1e6},
			})
			for attempt := 0; attempt < 200; attempt++ {
				resp, raw := postJSON(t, http.DefaultClient, gwTS.URL+"/v1/harden", b)
				if resp.StatusCode == http.StatusOK {
					return
				}
				if resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, raw)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			errs <- fmt.Errorf("request %d: never got past backpressure", i)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkFleetHarden times the eco_loop-shaped harden request (16
// pAVF tables, budgets 64/256/1024/4096, greedy, top_terms 16) on the
// XeonLike design, sent through a gateway fronting two replicas that
// both hold the design.
func BenchmarkFleetHarden(b *testing.B) {
	reps := newFleetReplicas(b, 2, 4, 0, nil)
	_, gwReg, gwTS := newGateway(b, replicaURLs(reps))
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		b.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		b.Fatal(err)
	}
	name := gen.Design.Name
	if resp, raw := postJSON(b, http.DefaultClient, gwTS.URL+"/v1/designs", nl.Bytes()); resp.StatusCode != http.StatusCreated {
		b.Fatalf("upload via gateway: status %d: %s", resp.StatusCode, raw)
	}
	waitForCount(b, "upload replication", func() bool {
		return gwReg.Counter("gateway.design_fanout_total").Load() == 1
	})
	res := reps[0].srv.Design(name).Result
	req := harden.Request{Design: name, Budgets: []float64{64, 256, 1024, 4096}, Solver: "greedy", TopTerms: 16}
	for i := 0; i < 16; i++ {
		req.Workloads = append(req.Workloads, harden.Workload{Name: fmt.Sprintf("h%02d", i), PAVF: pavfText(b, res, uint64(500+i))})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, raw := postJSON(b, http.DefaultClient, gwTS.URL+"/v1/harden", body); resp.StatusCode != http.StatusOK {
			b.Fatalf("harden via gateway: status %d: %s", resp.StatusCode, raw)
		}
	}
}

// TestFleetDesignFanoutFailover is the replication acceptance test: a
// design uploaded through the gateway lands on its owner AND the
// runner-up candidate, so killing the owner must not 404 subsequent
// routed reads — the exact failure mode single-copy registration had.
func TestFleetDesignFanoutFailover(t *testing.T) {
	reps := newFleetReplicas(t, 3, 4, 0, nil)
	urls := replicaURLs(reps)
	_, gwReg, gwTS := newGateway(t, urls)

	cfg := design.DefaultConfig(11)
	cfg.NumFubs = 3
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatal(err)
	}
	name := gen.Design.Name

	resp, raw := postJSON(t, http.DefaultClient, gwTS.URL+"/v1/designs", nl.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload via gateway: status %d: %s", resp.StatusCode, raw)
	}
	waitForCount(t, "upload replication", func() bool {
		return gwReg.Counter("gateway.design_fanout_total").Load() == 1
	})

	// Exactly the top-2 rendezvous candidates hold the design.
	ranked := fleet.Rank(name, urls)
	idx := make(map[string]int, len(urls))
	for i, u := range urls {
		idx[u] = i
	}
	owner, second, third := idx[ranked[0]], idx[ranked[1]], idx[ranked[2]]
	if reps[owner].srv.Design(name) == nil {
		t.Fatal("owner does not hold the uploaded design")
	}
	waitForCount(t, "secondary registration", func() bool {
		return reps[second].srv.Design(name) != nil
	})
	if reps[third].srv.Design(name) != nil {
		t.Error("third-ranked replica holds the design; replication should stop at top-2")
	}

	// An edit through the gateway replicates too, keeping both copies
	// current.
	mod := gen.Design.Modules[gen.Design.Fubs[0].Module]
	var src *netlist.Node
	for _, n := range mod.Nodes {
		if (n.Kind == netlist.KindComb || n.Kind == netlist.KindSeq) && n.Class != netlist.ClassDebug {
			src = n
			break
		}
	}
	if src == nil {
		t.Fatal("no eligible source node for the edit")
	}
	mod.Nodes = append(mod.Nodes, &netlist.Node{
		Name: "eco_q", Kind: netlist.KindSeq, Width: src.Width, Inputs: []string{src.Name},
	})
	var edited bytes.Buffer
	if err := netlist.Write(&edited, gen.Design); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, http.DefaultClient, gwTS.URL+"/v1/designs/"+name+"/edit", edited.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit via gateway: status %d: %s", resp.StatusCode, raw)
	}
	waitForCount(t, "edit replication", func() bool {
		return gwReg.Counter("gateway.design_fanout_total").Load() == 2
	})

	// Kill the owner: a harden routed by the design name must fail over
	// to the runner-up and succeed against its replicated copy.
	reps[owner].ts.Close()
	body, err := json.Marshal(harden.Request{Design: name, Budgets: []float64{1e9}})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, http.DefaultClient, gwTS.URL+"/v1/harden", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover harden: status %d: %s", resp.StatusCode, raw)
	}
	var hr harden.Response
	if err := json.Unmarshal(raw, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Plans) != 1 || len(hr.Plans[0].Chosen) == 0 {
		t.Fatalf("post-failover harden returned no plan: %s", raw)
	}
	if got := reps[second].reg.Counter("harden.requests").Load(); got == 0 {
		t.Error("runner-up served no harden requests after failover")
	}
	// And a sweep against the replicated copy works too.
	sres := reps[second].srv.Design(name).Result
	sbody := sweepBody(t, name, sres, 1, 800)
	resp, raw = postJSON(t, http.DefaultClient, gwTS.URL+"/v1/sweep", sbody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover sweep: status %d: %s", resp.StatusCode, raw)
	}

	// An edit with the owner dead is served by the runner-up; its
	// replication to the dead owner fails, is counted, and does not fail
	// the acknowledged write.
	resp, raw = postJSON(t, http.DefaultClient, gwTS.URL+"/v1/designs/"+name+"/edit", edited.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover edit: status %d: %s", resp.StatusCode, raw)
	}
	if got := gwReg.Counter("gateway.design_fanout_errors").Load(); got != 1 {
		t.Errorf("gateway.design_fanout_errors = %d, want 1", got)
	}
	if got := gwReg.Counter("gateway.design_fanout_total").Load(); got != 2 {
		t.Errorf("gateway.design_fanout_total = %d after a failed replication, want 2", got)
	}
}
