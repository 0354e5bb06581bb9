package artifact

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/obs"
	"seqavf/internal/stats"
)

// putBytes runs Put's install path — artifact write, head write,
// eviction — on pre-encoded bytes, so a test can write thousands of
// distinct fingerprints without solving thousands of designs.
func putBytes(t testing.TB, st *Store, fp uint64, design string, data []byte) {
	t.Helper()
	st.mu.Lock()
	err := st.installLocked(data, fp, design)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// indexView is the comparable content of a store's index.
type indexView struct {
	files map[string]int64     // .sart / .sens name → size
	heads map[string]headEntry // .head name → size and target
	bytes int64
	order []string // LRU order, least recently used first
}

func viewIndex(st *Store) indexView {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := indexView{files: map[string]int64{}, heads: map[string]headEntry{}, bytes: st.idx.bytes}
	for el := st.idx.lru.Front(); el != nil; el = el.Next() {
		fe := el.Value.(*fileEntry)
		v.files[fe.name] = fe.size
		v.order = append(v.order, fe.name)
	}
	for h, he := range st.idx.heads {
		v.heads[h] = he
	}
	return v
}

func (v indexView) artifacts() int {
	n := 0
	for name := range v.files {
		if strings.HasSuffix(name, ext) {
			n++
		}
	}
	return n
}

// diskBytes sums what the store accounts on disk: artifacts,
// sensitivity vectors and heads.
func diskBytes(t testing.TB, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range ents {
		switch filepath.Ext(de.Name()) {
		case ext, sensExt, headExt:
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
	}
	return total
}

// A bounded store far from its bound rescans only once per
// max(1, entries/8) writes, so 2,000 writes cost tens of scans, not the
// 2,000 directory listings eviction used to make; a store that fits
// about three entries is always under 16 entries and scans on every
// write. Either way the index ends equal to the disk.
func TestStoreIndexScanCount(t *testing.T) {
	payload := make([]byte, 512)
	const writes = 2000
	for _, tc := range []struct {
		name     string
		maxBytes int64
		check    func(t *testing.T, scans int64)
	}{
		{"1GiB", 1 << 30, func(t *testing.T, scans int64) {
			if scans >= 100 {
				t.Fatalf("%d directory scans for %d writes, want < 100", scans, writes)
			}
		}},
		{"three-entries", 3 * int64(len(payload)), func(t *testing.T, scans int64) {
			if scans != writes+1 {
				t.Fatalf("%d directory scans, want %d (Open plus one per write)", scans, writes+1)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.New()
			st, err := Open(dir, Options{MaxBytes: tc.maxBytes, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < writes; i++ {
				if i%2 == 0 {
					putBytes(t, st, i, fmt.Sprintf("design-%d", i%8), payload)
				} else if err := st.PutSens(i, i, payload); err != nil {
					t.Fatal(err)
				}
			}
			scans := reg.Counter("artifact.dir_scans").Load()
			tc.check(t, scans)
			v := viewIndex(st)
			if got := st.SizeBytes(); got != v.bytes {
				t.Fatalf("SizeBytes %d, index total %d", got, v.bytes)
			}
			if got := st.Len(); got != v.artifacts() {
				t.Fatalf("Len %d, index holds %d artifacts", got, v.artifacts())
			}
			t.Logf("%d writes: %d scans, %d files indexed, %d bytes", writes, scans, len(v.files), v.bytes)
		})
	}
}

// TestStoreIndexMatchesDisk runs seeded mixes of every store operation
// while files change behind the store's back — an artifact deleted, a
// garbage head dropped in — under a bound that admits about three
// artifacts and unbounded. After every op the disk stays within the
// bound plus the entry just written, a write that scanned leaves no
// head naming a missing artifact, and no read serves another design's
// bytes. At the end a fresh Open of the directory builds the same index
// the live handle holds once it has rescanned.
func TestStoreIndexMatchesDisk(t *testing.T) {
	const designs, ops = 5, 300
	type solved struct {
		res  *core.Result
		a    *core.Analyzer
		data []byte
	}
	items := make([]solved, designs)
	for i := range items {
		_, res, _ := buildSolved(t, uint64(90+i), 1)
		data, err := Encode(res)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = solved{res: res, a: res.Analyzer, data: data}
	}
	for _, tc := range []struct {
		name     string
		maxBytes int64
	}{
		{"three-artifacts", int64(len(items[0].data)) * 7 / 2},
		{"unbounded", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.New()
			st, err := Open(dir, Options{MaxBytes: tc.maxBytes, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.New(0x5eed)
			sens := map[[2]uint64][]byte{} // (fp, env hash) → last vector written under it
			var lastWrite int64
			for op := 0; op < ops; op++ {
				switch rng.Intn(8) {
				case 0:
					if arts := globList(t, dir, "*"+ext); len(arts) > 0 {
						os.Remove(arts[rng.Intn(len(arts))])
					}
				case 1:
					junk := filepath.Join(dir, fmt.Sprintf("%016x%s", rng.Uint64(), headExt))
					if err := os.WriteFile(junk, []byte("garbage"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				it := items[rng.Intn(designs)]
				fp := it.a.Fingerprint()
				scans := reg.Counter("artifact.dir_scans").Load()
				wrote := false
				switch rng.Intn(6) {
				case 0:
					if err := st.Put(it.res); err != nil {
						t.Fatal(err)
					}
					lastWrite, wrote = int64(len(it.data)), true
				case 1:
					eh := uint64(rng.Intn(4))
					payload := bytes.Repeat([]byte{byte(op)}, 256+rng.Intn(256))
					if err := st.PutSens(fp, eh, payload); err != nil {
						t.Fatal(err)
					}
					sens[[2]uint64{fp, eh}] = payload
					lastWrite, wrote = int64(len(payload)), true
				case 2:
					got, _, err := st.Get(it.a)
					if err != nil {
						t.Fatalf("op %d Get: %v", op, err)
					}
					if got != nil && got.Analyzer.Fingerprint() != fp {
						t.Fatalf("op %d: Get returned another design's result", op)
					}
				case 3:
					eh := uint64(rng.Intn(4))
					got, err := st.GetSens(fp, eh)
					if err != nil {
						t.Fatalf("op %d GetSens: %v", op, err)
					}
					if got != nil && !bytes.Equal(got, sens[[2]uint64{fp, eh}]) {
						t.Fatalf("op %d: GetSens served bytes not written under its key", op)
					}
				case 4:
					name := it.a.G.Design.Name
					ps, err := st.Prior(t.Context(), name)
					if err != nil {
						t.Fatalf("op %d Prior: %v", op, err)
					}
					if ps != nil && ps.Design != name {
						t.Fatalf("op %d: Prior returned %q for %q", op, ps.Design, name)
					}
				case 5:
					got, err := st.Raw(fp)
					if err == nil && !bytes.Equal(got, it.data) {
						t.Fatalf("op %d: Raw served bytes not stored under %016x", op, fp)
					}
				}
				if tc.maxBytes > 0 {
					if disk := diskBytes(t, dir); disk > tc.maxBytes+lastWrite {
						t.Fatalf("op %d: %d bytes on disk, bound %d plus last write %d", op, disk, tc.maxBytes, lastWrite)
					}
				}
				if wrote && reg.Counter("artifact.dir_scans").Load() > scans {
					assertHeadsResolve(t, st)
				}
			}

			st.mu.Lock()
			st.scanLocked()
			st.mu.Unlock()
			fresh, err := Open(dir, Options{MaxBytes: tc.maxBytes})
			if err != nil {
				t.Fatal(err)
			}
			live, reopened := viewIndex(st), viewIndex(fresh)
			if !maps.Equal(live.files, reopened.files) || !maps.Equal(live.heads, reopened.heads) ||
				live.bytes != reopened.bytes || !slices.Equal(live.order, reopened.order) {
				t.Fatalf("live index %+v\nfresh Open  %+v", live, reopened)
			}
			if got := st.SizeBytes(); got != live.bytes {
				t.Fatalf("SizeBytes %d, index total %d", got, live.bytes)
			}
		})
	}
}

// assertHeadsResolve fails unless every head on disk names an artifact
// on disk.
func assertHeadsResolve(t *testing.T, st *Store) {
	t.Helper()
	for _, head := range globList(t, st.Dir(), "*"+headExt) {
		data, err := os.ReadFile(head)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := parseHead(data)
		if !ok {
			t.Fatalf("head %s survived a scan though malformed", head)
		}
		if _, err := os.Stat(st.path(fp)); err != nil {
			t.Fatalf("head %s survived a scan naming a missing artifact", head)
		}
	}
}

// Between scans eviction follows the index alone: a read moves its
// entry to the back of the LRU, and the next put evicts the oldest
// untouched entry without listing the directory.
func TestStoreEvictsInIndexOrder(t *testing.T) {
	const entries, size = 40, 100
	reg := obs.New()
	st, err := Open(t.TempDir(), Options{MaxBytes: entries * size, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for k := uint64(0); k < entries; k++ {
		if err := st.PutSens(k, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	st.scanLocked() // start the next put from a fresh scan: 40 entries, 5 puts per rescan
	st.mu.Unlock()
	if got, err := st.GetSens(0, 0); err != nil || got == nil {
		t.Fatalf("GetSens(0) = (%v, %v), want a hit", got, err)
	}
	scans := reg.Counter("artifact.dir_scans").Load()
	if err := st.PutSens(entries, 0, payload); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("artifact.dir_scans").Load(); got != scans {
		t.Fatalf("the put scanned the directory (%d scans, was %d)", got, scans)
	}
	if got, _ := st.GetSens(0, 0); got == nil {
		t.Fatal("the entry just read was evicted")
	}
	if got, _ := st.GetSens(1, 0); got != nil {
		t.Fatal("the least recently used entry survived")
	}
	if got := reg.Counter("artifact.evictions").Load(); got != 1 {
		t.Fatalf("artifact.evictions = %d, want 1", got)
	}
}

// Reads do their file I/O outside the store mutex and then touch the
// index under it, racing writes and evictions on the same handle: a
// read must see a whole vector or a miss, and the index must end equal
// to the disk.
func TestStoreConcurrentReadsAndEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{MaxBytes: 6 * 300})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(key uint64) []byte { return bytes.Repeat([]byte{byte(key)}, 300) }
	const workers, rounds, keys = 4, 200, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.New(uint64(w))
			for r := 0; r < rounds; r++ {
				key := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					if err := st.PutSens(key, key, payload(key)); err != nil {
						t.Errorf("PutSens: %v", err)
						return
					}
					continue
				}
				got, err := st.GetSens(key, key)
				if err != nil {
					t.Errorf("GetSens: %v", err)
					return
				}
				if got != nil && !bytes.Equal(got, payload(key)) {
					t.Errorf("GetSens(%d) served another key's bytes", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := viewIndex(st).bytes, diskBytes(t, dir); got != want || got > st.opts.MaxBytes {
		t.Fatalf("index total %d, disk %d, bound %d", got, want, st.opts.MaxBytes)
	}
}

// BenchmarkStorePut times one sensitivity-vector put (4 KiB, the same
// key every op) into a store holding 0 or 2,000 other files, bounded at
// 1 GiB and unbounded. The unbounded store never evicts, so it is the
// floor: what the filesystem alone charges for a create and rename in
// a directory that size. With the index the bounded store sits on that
// floor; listing the directory on every put made it about 10× slower.
func BenchmarkStorePut(b *testing.B) {
	payload := make([]byte, 4<<10)
	for _, bound := range []struct {
		name     string
		maxBytes int64
	}{{"1GiB", 1 << 30}, {"unbounded", 0}} {
		for _, resident := range []int{0, 2000} {
			b.Run(fmt.Sprintf("bound=%s/resident=%d", bound.name, resident), func(b *testing.B) {
				st, err := Open(b.TempDir(), Options{MaxBytes: bound.maxBytes})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < resident; i++ {
					if err := st.PutSens(uint64(i)+1, 0, payload); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := st.PutSens(0, 0, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
