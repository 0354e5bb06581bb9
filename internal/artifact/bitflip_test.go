package artifact

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seqavf/internal/obs"
	"seqavf/internal/stats"
)

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameBits lists the bit offsets of an artifact's header and of every
// section's id/length/CRC frame, and returns the byte ranges of the
// section payloads between them.
func frameBits(t *testing.T, data []byte) (bits []int, payloads [][2]int) {
	t.Helper()
	const header = len(magic) + 4 + 8 + 4
	const frame = 4 + 8 + 4
	span := func(lo, hi int) {
		for b := lo * 8; b < hi*8; b++ {
			bits = append(bits, b)
		}
	}
	span(0, header)
	off := header
	for off < len(data) {
		if off+frame > len(data) {
			t.Fatalf("section frame at byte %d runs past the file", off)
		}
		span(off, off+frame)
		n := int(binary.LittleEndian.Uint64(data[off+4:]))
		payloads = append(payloads, [2]int{off + frame, off + frame + n})
		off += frame + n
	}
	return bits, payloads
}

// Every single-bit flip of an artifact must be rejected, by Decode and
// by the path Prior takes to the artifact a head names: exhaustively
// over the header and the section frames, and over seeded payload bits
// (the section CRCs cover those). No flip may panic or allocate more
// than a clean decode of the same bytes. DecodePrior alone skips the
// header fingerprint, so without Prior's check against the head, 64 of
// these flips would decode as a valid prior.
func TestBitFlipsRejected(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "tinycore_md5.sart"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tinycoreSolved(t)
	fp := a.Fingerprint()
	bits, payloads := frameBits(t, clean)
	sampled := 4096
	if testing.Short() {
		sampled = 512
	}
	rng := stats.New(0xb17f11b)
	for i := 0; i < sampled; i++ {
		p := payloads[rng.Intn(len(payloads))]
		if p[1] > p[0] {
			bits = append(bits, p[0]*8+rng.Intn((p[1]-p[0])*8))
		}
	}
	for _, path := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"Decode", func(b []byte) error { _, _, err := Decode(b, a); return err }},
		{"Prior", func(b []byte) error { _, err := priorAt(b, fp); return err }},
	} {
		t.Run(path.name, func(t *testing.T) {
			if err := path.decode(clean); err != nil {
				t.Fatalf("clean artifact rejected: %v", err)
			}
			budget := allocBytes(func() { path.decode(clean) })
			buf := append([]byte(nil), clean...)
			for _, b := range bits {
				buf[b/8] ^= 1 << (b % 8)
				var err error
				got := allocBytes(func() { err = path.decode(buf) })
				if err == nil {
					t.Fatalf("flip of bit %d (byte %d) accepted", b, b/8)
				}
				if got > budget {
					t.Fatalf("flip of bit %d allocated %d bytes, clean decode %d", b, got, budget)
				}
				buf[b/8] ^= 1 << (b % 8)
			}
			t.Logf("%d flips rejected (clean decode allocates %d bytes)", len(bits), budget)
		})
	}
}

// A head that leads to an artifact carrying another fingerprint is a
// decode error for Prior, counted like any other, not a seed state.
func TestPriorRejectsFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	st, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	a, res, _ := buildSolved(t, 79, 1)
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}
	path := st.path(a.Fingerprint())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+4] ^= 1 // lowest bit of the header fingerprint
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := st.Prior(t.Context(), a.G.Design.Name)
	if ps != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Prior = (%v, %v), want an ErrCorrupt error", ps, err)
	}
	if got := reg.Counter("artifact.decode_errors").Load(); got != 1 {
		t.Fatalf("artifact.decode_errors = %d, want 1", got)
	}
}

// TestDecodeRejectsMalformedTable breaks one structural rule of the
// persisted set table at a time and recomputes the plan section's
// CRC32C, so the damage gets past the checksum to the table check. Both
// Decode and DecodePrior must refuse every variant as ErrCorrupt. The
// rows are chosen so that without the rule they break, the table would
// decode.
func TestDecodeRejectsMalformedTable(t *testing.T) {
	a, res, _ := buildSolved(t, 12, 34)
	clean, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	_, payloads := frameBits(t, clean)
	plan := payloads[secPlan-1][0]
	sets, n := res.Sets, len(res.Fwd)
	nSets, nIDs := int32(sets.Len()), int32(len(sets.IDs))
	// Byte offsets of the plan section's words: set count, offsets, ID
	// count, IDs, forward slots, backward slots.
	offAt := func(s int32) int { return plan + 4 + 4*int(s) }
	idAt := func(i int32) int { return offAt(nSets+1) + 4 + 4*int(i) }
	fwdAt := func(v int) int { return idAt(nIDs) + 4*v }
	bwdAt := func(v int) int { return fwdAt(n) + 4*v }

	// k is a set past the first with at least two terms; the first and
	// last sets must be nonempty for their offset rows.
	k := int32(1)
	for k < nSets && len(sets.SetIDs(k)) < 2 {
		k++
	}
	if k == nSets || len(sets.SetIDs(0)) == 0 || len(sets.SetIDs(nSets-1)) == 0 {
		t.Fatalf("table of %d sets lacks the shapes the rows need", nSets)
	}
	lo, hi := sets.Off[k], sets.Off[k+1]
	uniLen := int32(a.Universe().Len())

	type word struct {
		at int
		v  int32
	}
	// patch writes words into a copy of the artifact and reseals the plan
	// section's CRC32C.
	patch := func(words []word) []byte {
		buf := append([]byte(nil), clean...)
		for _, w := range words {
			binary.LittleEndian.PutUint32(buf[w.at:], uint32(w.v))
		}
		p := payloads[secPlan-1]
		binary.LittleEndian.PutUint32(buf[p[0]-4:], crc32.Checksum(buf[p[0]:p[1]], castagnoli))
		return buf
	}
	// Rewriting a word with its own value must leave a valid artifact,
	// or every row below would fail on the checksum alone.
	same := patch([]word{{offAt(0), 0}})
	if _, _, err := Decode(same, a); err != nil {
		t.Fatalf("resealed clean artifact: Decode = %v", err)
	}
	if _, err := DecodePrior(same); err != nil {
		t.Fatalf("resealed clean artifact: DecodePrior = %v", err)
	}
	for _, row := range []struct {
		name  string
		words []word
	}{
		{"first offset not 0", []word{{offAt(0), 1}}},
		{"last offset short of the term table", []word{{offAt(nSets), nIDs - 1}}},
		{"decreasing offset", []word{{offAt(k + 1), lo - 1}}},
		{"middle offset past the term table", []word{{offAt(k), nIDs + 1}}},
		{"negative term ID", []word{{idAt(lo), -1}}},
		{"term ID past the universe", []word{{idAt(hi - 1), uniLen}}},
		{"repeated term ID", []word{{idAt(lo + 1), int32(sets.IDs[lo])}}},
		{"descending term IDs", []word{{idAt(lo), int32(sets.IDs[lo+1])}, {idAt(lo + 1), int32(sets.IDs[lo])}}},
		{"forward slot below -1", []word{{fwdAt(0), -2}}},
		{"forward slot past the table", []word{{fwdAt(0), nSets}}},
		{"backward slot below -1", []word{{bwdAt(n - 1), -2}}},
		{"backward slot past the table", []word{{bwdAt(n - 1), nSets}}},
	} {
		buf := patch(row.words)
		if _, _, err := Decode(buf, a); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", row.name, err)
		}
		if _, err := DecodePrior(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodePrior = %v, want ErrCorrupt", row.name, err)
		}
	}
}
