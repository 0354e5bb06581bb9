// Sensitivity-vector caching. A term gradient depends only on the
// design (its fingerprint pins netlist + pAVF structure) and the
// environment it was evaluated under, so the pair (fingerprint,
// env-hash) is a complete cache key. The vector is encoded as a small
// self-describing CRC-checked artifact — the same defensive posture as
// the .sart codec, scaled down to one section — and stored through the
// SensStore interface so this package needs no dependency on the
// artifact store (which implements it with .sens files).

package harden

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"seqavf/internal/pavf"
	"seqavf/internal/sweep"
)

// SensStore persists sensitivity vectors keyed by (design fingerprint,
// environment hash). Get returns (nil, nil) on a miss. Implemented by
// *artifact.Store.
type SensStore interface {
	GetSens(fingerprint, envHash uint64) ([]byte, error)
	PutSens(fingerprint, envHash uint64, data []byte) error
}

// Vector is one cached term gradient.
type Vector struct {
	Fingerprint uint64
	EnvHash     uint64
	SeqBits     int
	ChipAVF     float64 // chip AVF at the gradient's base point
	Deriv       []float64
}

// EnvHash fingerprints an environment: FNV-1a over the raw float64 bits
// of every term value, in TermID order. Bit-exact — two envs hash equal
// only if every term value is identical.
func EnvHash(env pavf.Env) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var b [8]byte
	for _, v := range env {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		for _, c := range b {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}

// Codec framing: magic, version, header fields, float64 payload, CRC32C
// over everything before the checksum. Deliberately tiny — a corrupt or
// version-skewed vector is recomputed, never trusted.
const (
	sensMagic   = "SQAVFSNS"
	sensVersion = 1
	// sensMaxTerms caps decode allocation so fuzzed/corrupt bytes fail
	// cleanly instead of attempting a huge slice.
	sensMaxTerms = 64 << 20
)

var sensTable = crc32.MakeTable(crc32.Castagnoli)

// Damaged-vector errors are preallocated: a rejected vector must cost
// no more than a clean decode, which for a small design allocates only
// a few hundred bytes.
var (
	errSensMagic    = errors.New("harden: bad sensitivity vector magic")
	errSensChecksum = errors.New("harden: sensitivity vector checksum mismatch")
)

// Encode serializes the vector.
func (v *Vector) Encode() []byte {
	buf := make([]byte, 0, len(sensMagic)+4+8+8+8+8+8+8*len(v.Deriv)+4)
	buf = append(buf, sensMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, sensVersion)
	buf = binary.LittleEndian.AppendUint64(buf, v.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, v.EnvHash)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.SeqBits))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.ChipAVF))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v.Deriv)))
	for _, d := range v.Deriv {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, sensTable))
	return buf
}

// DecodeVector parses and checksum-verifies an encoded vector.
func DecodeVector(data []byte) (*Vector, error) {
	head := len(sensMagic) + 4 + 8 + 8 + 8 + 8 + 8
	if len(data) < head+4 {
		return nil, fmt.Errorf("harden: sensitivity vector truncated (%d bytes)", len(data))
	}
	if string(data[:len(sensMagic)]) != sensMagic {
		return nil, errSensMagic
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, sensTable) != sum {
		return nil, errSensChecksum
	}
	off := len(sensMagic)
	if ver := binary.LittleEndian.Uint32(data[off:]); ver != sensVersion {
		return nil, fmt.Errorf("harden: sensitivity vector version %d, want %d: regenerate", ver, sensVersion)
	}
	off += 4
	v := &Vector{}
	v.Fingerprint = binary.LittleEndian.Uint64(data[off:])
	off += 8
	v.EnvHash = binary.LittleEndian.Uint64(data[off:])
	off += 8
	v.SeqBits = int(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	v.ChipAVF = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	n := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if n > sensMaxTerms {
		return nil, fmt.Errorf("harden: sensitivity vector claims %d terms, cap is %d", n, sensMaxTerms)
	}
	if want := off + int(n)*8 + 4; len(data) != want {
		return nil, fmt.Errorf("harden: sensitivity vector is %d bytes, want %d for %d terms", len(data), want, n)
	}
	v.Deriv = make([]float64, n)
	for i := range v.Deriv {
		v.Deriv[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return v, nil
}

// CachedTermDerivs computes the analytical term gradient under env,
// consulting store (if non-nil) first. Cache failures — store errors,
// corrupt or version-skewed bytes, a key collision on mismatched
// metadata — degrade to a recompute (and a fresh Put overwrites the bad
// entry); only an actual gradient-computation error is fatal. The
// returned hit flag feeds the harden.sens_cache_* metrics.
func CachedTermDerivs(p *sweep.Plan, env pavf.Env, store SensStore) (*Vector, bool, error) {
	fp := p.Analyzer.Fingerprint()
	eh := EnvHash(env)
	nTerms := p.Analyzer.Universe().Len()
	if store != nil {
		if data, err := store.GetSens(fp, eh); err == nil && data != nil {
			if v, err := DecodeVector(data); err == nil &&
				v.Fingerprint == fp && v.EnvHash == eh && len(v.Deriv) == nTerms {
				return v, true, nil
			}
		}
	}
	deriv, err := TermDerivs(p, env)
	if err != nil {
		return nil, false, err
	}
	seq := seqVerts(p.Analyzer)
	avf, err := evalEnvOnce(p, env)
	if err != nil {
		return nil, false, err
	}
	v := &Vector{
		Fingerprint: fp,
		EnvHash:     eh,
		SeqBits:     len(seq),
		ChipAVF:     chipAVF(avf, seq),
		Deriv:       deriv,
	}
	if store != nil {
		_ = store.PutSens(fp, eh, v.Encode()) // cache write failure degrades, never fails the request
	}
	return v, false, nil
}
