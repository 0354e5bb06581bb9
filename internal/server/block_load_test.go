package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// TestServeSweepBlockedLoad drives two designs concurrently through one
// shared engine: the 16-lane kernel over 18-workload requests means
// every request is exactly one full block plus one ragged 2-lane block.
// Under load with backpressure retries, every request must complete
// (zero drops), every served value must be bit-identical to a direct
// engine sweep of the same table, and /metrics must count every block
// and workload the traffic took.
func TestServeSweepBlockedLoad(t *testing.T) {
	s, reg, results := newTestServer(t, Config{
		MaxConcurrent: 4,
		Sweep:         sweep.Options{Workers: 2},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 16
	const perClient = 2
	const workloads = sweep.DefaultBlockSize + 2 // blocks of 16 and 2 lanes per request
	names := []string{"alpha", "beta"}
	bodies := make(map[string][]byte)
	refs := make(map[string]map[string]map[string]float64) // design -> workload -> node -> seqAVF
	for _, n := range names {
		bodies[n] = sweepBody(t, n, results[n], workloads, 500)
		// Reference values from a direct engine sweep of the same
		// parsed tables — the served numbers must match these bit for bit.
		var req SweepRequest
		if err := json.Unmarshal(bodies[n], &req); err != nil {
			t.Fatal(err)
		}
		ws := make([]sweep.Workload, len(req.Workloads))
		for i, w := range req.Workloads {
			in, err := pavfio.Parse(w.Name, strings.NewReader(w.PAVF))
			if err != nil {
				t.Fatalf("parsing reference table: %v", err)
			}
			ws[i] = sweep.Workload{Name: w.Name, Inputs: in}
		}
		eng := sweep.New(sweep.Options{Workers: 1})
		batch, err := eng.Sweep(results[n], ws)
		if err != nil {
			t.Fatalf("reference sweep: %v", err)
		}
		refs[n] = make(map[string]map[string]float64, len(ws))
		for i, r := range batch.Results {
			refs[n][batch.Names[i]] = r.SeqAVFByNode()
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	var mu sync.Mutex
	var completed int
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := names[c%len(names)]
			body, err := json.Marshal(func() SweepRequest {
				var req SweepRequest
				json.Unmarshal(bodies[name], &req)
				req.Nodes = true
				return req
			}())
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perClient; i++ {
				var respBody []byte
				var status int
				for attempt := 0; ; attempt++ {
					r, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- fmt.Errorf("client %d: %v", c, err)
						return
					}
					respBody, err = io.ReadAll(r.Body)
					r.Body.Close()
					if err != nil {
						errs <- fmt.Errorf("client %d: reading body: %v", c, err)
						return
					}
					if r.StatusCode != http.StatusTooManyRequests {
						status = r.StatusCode
						break
					}
					if attempt > 200 {
						errs <- fmt.Errorf("client %d: still 429 after %d attempts", c, attempt)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, status, respBody)
					return
				}
				var sr SweepResponse
				if err := json.Unmarshal(respBody, &sr); err != nil {
					errs <- fmt.Errorf("client %d: bad response JSON: %v", c, err)
					return
				}
				if len(sr.Results) != workloads {
					errs <- fmt.Errorf("client %d: %d results, want %d", c, len(sr.Results), workloads)
					return
				}
				for _, wr := range sr.Results {
					want := refs[name][wr.Name]
					if len(wr.SeqAVF) != len(want) {
						errs <- fmt.Errorf("client %d: workload %s served %d nodes, reference %d",
							c, wr.Name, len(wr.SeqAVF), len(want))
						return
					}
					for node, v := range want {
						if wr.SeqAVF[node] != v {
							errs <- fmt.Errorf("client %d: %s/%s served %v, direct engine %v",
								c, wr.Name, node, wr.SeqAVF[node], v)
							return
						}
					}
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if completed != clients*perClient {
		t.Fatalf("completed %d sweeps, want %d (zero dropped requests)", completed, clients*perClient)
	}

	// The kernel telemetry must count all served traffic: 2 blocks per
	// request (16+2 lanes) and 18 workloads per request.
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	requests := int64(clients * perClient)
	if got := snap.Counters["sweep.block_evals"]; got != 2*requests {
		t.Errorf("sweep.block_evals = %d, want %d (2 blocks per %d-workload request at width %d)",
			got, 2*requests, workloads, sweep.DefaultBlockSize)
	}
	if got := snap.Counters["sweep.workloads"]; got != int64(workloads)*requests {
		t.Errorf("sweep.workloads = %d, want %d", got, int64(workloads)*requests)
	}
	if got := reg.Gauge("server.in_flight").Load(); got != 0 {
		t.Errorf("in_flight gauge = %v after drain, want 0", got)
	}
	t.Logf("blocked load: %d sweeps across %d designs, %d block evals",
		completed, len(names), snap.Counters["sweep.block_evals"])
}
