package artifact

import (
	"sync"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/obs"
)

// Two Store handles on one directory — two daemons sharing a cache
// volume — racing Put, Get, Prior, and eviction. The invariant under
// test is the atomic-rename contract: a reader observes either a
// complete checksum-valid artifact or a clean miss, never a torn write,
// and the store itself never reports a decode error for bytes it wrote.
func TestStoreSharedDirConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak")
	}
	dir := t.TempDir()

	// Pre-solve a handful of designs so the race loop does no expensive
	// math, just store traffic.
	const designs = 4
	type solved struct {
		res  *core.Result
		a    *core.Analyzer
		name string
	}
	items := make([]solved, designs)
	var probeLen int
	for i := range items {
		seed := uint64(80 + i)
		_, res, _ := buildSolved(t, seed, 1)
		items[i] = solved{res: res, a: freshAnalyzer(t, seed), name: res.Analyzer.G.Design.Name}
		if i == 0 {
			probe, err := Encode(res)
			if err != nil {
				t.Fatal(err)
			}
			probeLen = len(probe)
		}
	}

	// A bound that admits roughly half the designs keeps eviction — the
	// most delicate shared-state path — constantly active.
	regA, regB := obs.New(), obs.New()
	stA, err := Open(dir, Options{MaxBytes: int64(probeLen) * 5 / 2, Obs: regA})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := Open(dir, Options{MaxBytes: int64(probeLen) * 5 / 2, Obs: regB})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	var wg sync.WaitGroup
	for _, st := range []*Store{stA, stB} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(st *Store, w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					it := items[(r+w)%designs]
					switch r % 3 {
					case 0:
						if err := st.Put(it.res); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
					case 1:
						got, _, err := st.Get(it.a)
						if err != nil {
							t.Errorf("Get: %v", err)
							return
						}
						if got != nil && got.Analyzer.Fingerprint() != it.a.Fingerprint() {
							t.Error("Get returned another design's result")
							return
						}
					case 2:
						ps, err := st.Prior(t.Context(), it.name)
						if err != nil {
							t.Errorf("Prior: %v", err)
							return
						}
						if ps != nil && ps.Design != it.name {
							t.Errorf("Prior returned state for %q, want %q", ps.Design, it.name)
							return
						}
					}
				}
			}(st, w)
		}
	}
	wg.Wait()

	// No reader may ever have seen a torn or corrupt artifact.
	for _, reg := range []*obs.Registry{regA, regB} {
		if n := reg.Counter("artifact.decode_errors").Load(); n != 0 {
			t.Fatalf("shared-dir race produced %d decode errors: readers saw incomplete artifacts", n)
		}
		if n := reg.Counter("artifact.store_errors").Load(); n != 0 {
			t.Fatalf("shared-dir race produced %d store errors", n)
		}
	}
	// And the directory ends consistent: every artifact decodes, every
	// head resolves.
	for _, it := range items {
		if _, _, err := stA.Get(it.a); err != nil {
			t.Fatalf("post-race Get(%s): %v", it.name, err)
		}
	}
}
