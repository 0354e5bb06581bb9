package harden

import (
	"context"
	"testing"

	"seqavf/internal/sweep"
)

// missStore is a .sens store that never holds a vector, as for every
// design edit with a fresh fingerprint.
type missStore struct{}

func (missStore) GetSens(uint64, uint64) ([]byte, error) { return nil, nil }
func (missStore) PutSens(uint64, uint64, []byte) error   { return nil }

// BenchmarkHardenRun times one harden call in process, in the shape of
// the service benchmark's eco_loop request: XeonLike (seed 2027), 16
// workloads, budgets 64/256/1024/4096, greedy, top_terms 16, and a .sens
// store that always misses. The plan is cached, as after the edit that
// compiled it.
func BenchmarkHardenRun(b *testing.B) {
	res := xeonLike(b)
	ws := xeonWorkloads(res, 16)
	eng := sweep.New(sweep.Options{})
	if _, err := eng.Plan(res); err != nil {
		b.Fatal(err)
	}
	req := &Request{Design: "xeon", Budgets: []float64{64, 256, 1024, 4096}, Solver: SolverGreedy, TopTerms: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), eng, res, ws, req, missStore{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
