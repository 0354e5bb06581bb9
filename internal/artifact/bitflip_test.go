package artifact

import (
	"encoding/binary"
	"errors"
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
// header fingerprint, so before Prior checked it against the head, 64
// of these flips decoded as a valid prior.
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
		{"Prior", func(b []byte) error { _, err := decodeHeadTarget(b, fp); return err }},
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
	if err := st.Put(res, nil); err != nil {
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
