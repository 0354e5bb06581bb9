package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a benchmark counts the server's allocations and not a
// recorder's copy of the response.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkConcurrentNodesSweep sends 16-table nodes:true sweeps of the
// XeonLike design (seed 2027) through the handler from 8 concurrent
// clients, with MaxConcurrent 8 so that none is turned away. Each
// response is about 450 KB, so B/op shows whether concurrent requests
// reuse their body and response buffers or regrow them.
func BenchmarkConcurrentNodesSweep(b *testing.B) {
	const clients = 8
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		b.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		b.Fatal(err)
	}
	s := New(Config{Obs: obs.New(), MaxConcurrent: clients, Sweep: sweep.Options{Workers: 1}})
	if _, err := s.LoadNetlist("xeonlike", &nl, core.DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	req := SweepRequest{Design: "xeonlike", Nodes: true}
	for i, tab := range benchTables(b, 16) {
		req.Workloads = append(req.Workloads, SweepWorkload{Name: fmt.Sprintf("w%02d", i), PAVF: tab})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((clients + procs - 1) / procs)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := http.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			w := &discardWriter{h: make(http.Header)}
			h.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				b.Errorf("status %d", w.status)
				return
			}
		}
	})
}
