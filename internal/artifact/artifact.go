// Package artifact persists solved SART results and their compiled sweep
// plans: the solve-once / serve-many half of the paper's §5.1 economics
// made durable across process restarts and machines.
//
// A solved design is expensive (full forward/backward walks over every
// bit vertex) but its output — the closed-form equation table plus the
// deduplicated CSR subterm plan — is small, immutable, and derivable
// from nothing but the design graph and the role-affecting options. Both
// are exactly what core.Analyzer.Fingerprint hashes, so the fingerprint
// is a content address: equal fingerprints guarantee equal equations for
// any inputs, and an artifact keyed by fingerprint can be decoded into
// any later process holding the same design with bit-identical
// Reevaluate and sweep results.
//
// The on-disk format is versioned and self-describing:
//
//	header:  magic "SQAVFART", format version u32, fingerprint u64,
//	         section count u32
//	section: id u32, payload length u64, CRC32C u32, payload
//
// with five sections — meta (design name, universe/vertex counts,
// iteration metadata, visited bitset), inputs (the solved port tables,
// sorted for deterministic bytes), plan (the result's set table in CSR
// form plus each vertex's forward and backward slot, from which a
// decoded result reads its closed forms and compiles its plan), avf (the
// solved per-vertex AVF vector, raw float64 bits), and fubstate (the
// term dictionary plus per-FUB name, structural fingerprint, and vertex
// extent that let DecodePrior rebuild per-FUB walk state with no
// analyzer, seeding incremental re-solves of edited designs). Decode and
// DecodePrior read the header and sections through one reader, and one
// check holds the set table's structural rules. Every section is
// integrity-checked with CRC32C (Castagnoli) before any of it is
// trusted; declared lengths and counts are capped against the remaining
// input before allocation, so arbitrary bytes fail cleanly instead of
// panicking or ballooning memory; and a format-version mismatch is an
// explicit "regenerate" error rather than a misparse.
//
// Decoding requires the matching *core.Analyzer (graph construction is
// cheap; it is the solve the artifact elides). The AVF vector is
// restored from its stored bits — bit-identical by construction — and
// Env is rebuilt from the stored inputs exactly as the solver would,
// so Reevaluate and Sweep on a decoded Result behave bit-identically
// to the encoded original. The partitioned solver's per-iteration
// Trace is diagnostic-only and is not persisted.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"seqavf/internal/core"
	"seqavf/internal/pavf"
	"seqavf/internal/sweep"
)

// FormatVersion is the current artifact format. Any change to the byte
// layout below MUST bump it: decoders refuse other versions with
// ErrFormatVersion instead of misreading them (the golden-fixture test
// pins the current bytes so an unbumped layout change fails in CI).
//
// Version 2 added the fubstate section (term dictionary + per-FUB
// fingerprints) for incremental re-solves. Version 3 keeps the byte
// layout but changes the fingerprints it carries — in the header, the
// file name and the fubstate entries — to the word hash core now
// computes. Older artifacts are refused with the usual "regenerate"
// error; the store overwrites them on the next Put.
const FormatVersion = 3

// magic opens every artifact file.
const magic = "SQAVFART"

// Section IDs. Versions 2 and 3 require exactly these five, in this order.
const (
	secMeta     = 1
	secInputs   = 2
	secPlan     = 3
	secAVF      = 4
	secFubState = 5
)

var (
	// ErrFormatVersion reports an artifact written by a different format
	// version. The artifact is not corrupt — it is simply unreadable by
	// this build and must be regenerated (re-run the solve; stores
	// overwrite stale entries automatically on the next Put).
	ErrFormatVersion = errors.New("artifact: unsupported format version; regenerate the artifact by re-running the solve")
	// ErrFingerprint reports an artifact that belongs to a different
	// design (or the same design under different role-affecting options).
	ErrFingerprint = errors.New("artifact: fingerprint does not match the design")
	// ErrCorrupt reports structurally invalid bytes: truncation, CRC
	// mismatch, out-of-range counts or term IDs.
	ErrCorrupt = errors.New("artifact: corrupt")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes res into a self-describing artifact. The plan
// section is res's own set table and slots (Result.Sets, Fwd, Bwd), so
// no plan is compiled to write it. The bytes are deterministic, also
// across processes: map-ordered inputs are sorted before writing, and
// everything else is already deterministic in the analyzer's
// construction order.
func Encode(res *core.Result) ([]byte, error) {
	a := res.Analyzer
	meta, err := encodeMeta(res)
	if err != nil {
		return nil, err
	}
	inputs := encodeInputs(res.Inputs)
	planSec := encodePlan(res.Sets, res.Fwd, res.Bwd)
	avfSec, err := encodeAVF(res)
	if err != nil {
		return nil, err
	}
	fubSec := encodeFubState(a)

	sections := []struct {
		id      uint32
		payload []byte
	}{{secMeta, meta}, {secInputs, inputs}, {secPlan, planSec}, {secAVF, avfSec}, {secFubState, fubSec}}
	size := len(magic) + 4 + 8 + 4
	for _, sec := range sections {
		size += 4 + 8 + 4 + len(sec.payload)
	}
	var buf bytes.Buffer
	buf.Grow(size)
	buf.WriteString(magic)
	writeU32(&buf, FormatVersion)
	writeU64(&buf, a.Fingerprint())
	writeU32(&buf, uint32(len(sections)))
	for _, sec := range sections {
		writeU32(&buf, sec.id)
		writeU64(&buf, uint64(len(sec.payload)))
		writeU32(&buf, crc32.Checksum(sec.payload, castagnoli))
		buf.Write(sec.payload)
	}
	return buf.Bytes(), nil
}

// Decode reconstructs the solved result and its compiled plan from data,
// bound to a (which must carry the artifact's fingerprint — build it
// from the same netlist and options). The result takes the checked set
// table and slots from the plan section, and the plan is the ordinary
// sweep.Compile of it. The AVF vector is restored from its stored
// float64 bits and Env rebuilt from the stored inputs exactly as the
// solver would, so the decoded Result — and Reevaluate and Sweep on it —
// behave bit-identically to the encoded original. Arbitrary or damaged
// bytes yield an error wrapping ErrCorrupt, ErrFormatVersion, or
// ErrFingerprint — never a panic.
func Decode(data []byte, a *core.Analyzer) (*core.Result, *sweep.Plan, error) {
	fp, payloads, err := readSections(data)
	if err != nil {
		return nil, nil, err
	}
	if fp != a.Fingerprint() {
		return nil, nil, fmt.Errorf("%w (artifact %016x, design %q %016x)",
			ErrFingerprint, fp, a.G.Design.Name, a.Fingerprint())
	}
	c, err := decodeSections(payloads)
	if err != nil {
		return nil, nil, err
	}
	m := c.meta
	if m.name != a.G.Design.Name {
		return nil, nil, fmt.Errorf("%w: artifact design %q, analyzer design %q", ErrFingerprint, m.name, a.G.Design.Name)
	}
	if m.uniLen != a.Universe().Len() {
		return nil, nil, fmt.Errorf("%w: artifact universe has %d terms, analyzer %d", ErrCorrupt, m.uniLen, a.Universe().Len())
	}
	if m.numVerts != a.G.NumVerts() {
		return nil, nil, fmt.Errorf("%w: artifact covers %d vertices, design has %d", ErrCorrupt, m.numVerts, a.G.NumVerts())
	}

	// Env rebuilds from the stored inputs through the same code path the
	// solver used, so it matches the original bit for bit.
	if err := a.CheckInputs(c.in); err != nil {
		return nil, nil, fmt.Errorf("%w: stored inputs rejected: %v", ErrCorrupt, err)
	}
	env, err := a.BuildEnv(c.in)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: stored inputs rejected: %v", ErrCorrupt, err)
	}
	res := &core.Result{
		Analyzer:   a,
		Inputs:     c.in,
		Env:        env,
		Sets:       c.sets,
		Fwd:        c.fwd,
		Bwd:        c.bwd,
		AVF:        c.avf,
		Visited:    m.visited,
		Iterations: m.iterations,
		Converged:  m.converged,
	}
	plan, err := sweep.Compile(res)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return res, plan, nil
}

// readSections reads an artifact's header and its five section payloads,
// each checked against its CRC32C: the one reader Decode and DecodePrior
// share. No CRC covers the header fingerprint, so it is returned for the
// caller to compare before anything is decoded.
func readSections(data []byte) (fp uint64, payloads [5][]byte, err error) {
	r := &reader{b: data}
	if string(r.bytes(len(magic))) != magic {
		return 0, payloads, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := r.u32()
	fp = r.u64()
	nSec := r.u32()
	if r.err != nil {
		return 0, payloads, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if version != FormatVersion {
		return 0, payloads, fmt.Errorf("%w (artifact version %d, this build reads %d)",
			ErrFormatVersion, version, FormatVersion)
	}
	if nSec != uint32(len(payloads)) {
		return 0, payloads, fmt.Errorf("%w: version %d carries %d sections, found %d",
			ErrCorrupt, FormatVersion, len(payloads), nSec)
	}
	// Section IDs run from secMeta to secFubState, in that order.
	for i := range payloads {
		if payloads[i], err = section(r, uint32(i+1)); err != nil {
			return 0, payloads, err
		}
	}
	if r.remaining() != 0 {
		return 0, payloads, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.remaining())
	}
	return fp, payloads, nil
}

// contents is an artifact's five sections, decoded and checked against
// one another.
type contents struct {
	meta     *metaSection
	in       *core.Inputs
	sets     pavf.CSR
	fwd, bwd []int32
	avf      []float64
	dict     []pavf.Term
	fubs     []fubEntry
}

// decodeSections decodes the payloads readSections returned and checks
// all that can be checked without an analyzer: the set table's rules
// (checkTable) against the meta section's universe length, and the
// per-vertex sections and per-FUB extents against its vertex count.
func decodeSections(p [5][]byte) (*contents, error) {
	c := &contents{}
	var err error
	if c.meta, err = decodeMeta(p[secMeta-1]); err != nil {
		return nil, err
	}
	n, uniLen := c.meta.numVerts, c.meta.uniLen
	if c.in, err = decodeInputs(p[secInputs-1]); err != nil {
		return nil, err
	}
	if c.sets, c.fwd, c.bwd, err = decodePlan(p[secPlan-1], n, uniLen); err != nil {
		return nil, err
	}
	if c.avf, err = decodeAVF(p[secAVF-1], n); err != nil {
		return nil, err
	}
	if c.dict, c.fubs, err = decodeFubState(p[secFubState-1], uniLen, n); err != nil {
		return nil, err
	}
	return c, nil
}

// section reads one section envelope (id, length, CRC32C, payload) off
// r, verifying the id and checksum.
func section(r *reader, want uint32) ([]byte, error) {
	id := r.u32()
	length := r.u64()
	sum := r.u32()
	payload := r.bytes(int(length))
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated section %d", ErrCorrupt, want)
	}
	if id != want {
		return nil, fmt.Errorf("%w: section %d where %d expected", ErrCorrupt, id, want)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("%w: section %d CRC32C mismatch", ErrCorrupt, id)
	}
	return payload, nil
}

// metaSection is the decoded meta payload.
type metaSection struct {
	name       string
	uniLen     int
	numVerts   int
	iterations int
	converged  bool
	visited    []bool
}

func encodeMeta(res *core.Result) ([]byte, error) {
	a := res.Analyzer
	n := a.G.NumVerts()
	if len(res.Fwd) != n || len(res.Bwd) != n || len(res.Visited) != n {
		return nil, fmt.Errorf("artifact: result carries %d/%d set slots / %d visited flags for %d vertices",
			len(res.Fwd), len(res.Bwd), len(res.Visited), n)
	}
	var buf bytes.Buffer
	writeStr(&buf, a.G.Design.Name)
	writeU32(&buf, uint32(a.Universe().Len()))
	writeU32(&buf, uint32(n))
	writeU32(&buf, uint32(res.Iterations))
	if res.Converged {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	bits := make([]byte, (n+7)/8)
	for v, vis := range res.Visited {
		if vis {
			bits[v/8] |= 1 << (v % 8)
		}
	}
	buf.Write(bits)
	return buf.Bytes(), nil
}

// decodeMeta parses the meta payload. Decode checks it against the
// analyzer; for DecodePrior the artifact itself is the only source of
// the design's shape.
func decodeMeta(payload []byte) (*metaSection, error) {
	r := &reader{b: payload}
	name := r.str()
	uniLen := r.u32()
	n := r.u32()
	iters := r.u32()
	conv := r.u8()
	if r.err != nil {
		return nil, fmt.Errorf("%w: meta section truncated", ErrCorrupt)
	}
	if conv > 1 {
		return nil, fmt.Errorf("%w: converged flag %d", ErrCorrupt, conv)
	}
	bits := r.bytes((int(n) + 7) / 8)
	if r.err != nil || r.remaining() != 0 {
		return nil, fmt.Errorf("%w: meta visited bitset malformed", ErrCorrupt)
	}
	m := &metaSection{
		name:       name,
		uniLen:     int(uniLen),
		numVerts:   int(n),
		iterations: int(iters),
		converged:  conv == 1,
		visited:    make([]bool, n),
	}
	// Expand byte-wise rather than bit-indexing per vertex: one load and
	// eight shifts per byte keeps this off the decode critical path.
	vis := m.visited
	for i, by := range bits {
		base := i * 8
		end := base + 8
		if end > len(vis) {
			end = len(vis)
		}
		for v := base; v < end; v++ {
			vis[v] = by&1 != 0
			by >>= 1
		}
	}
	return m, nil
}

func encodeInputs(in *core.Inputs) []byte {
	var buf bytes.Buffer
	ports := func(m map[core.StructPort]float64) {
		sps := make([]core.StructPort, 0, len(m))
		for sp := range m {
			sps = append(sps, sp)
		}
		sort.Slice(sps, func(i, j int) bool {
			if sps[i].Struct != sps[j].Struct {
				return sps[i].Struct < sps[j].Struct
			}
			return sps[i].Port < sps[j].Port
		})
		writeU32(&buf, uint32(len(sps)))
		for _, sp := range sps {
			writeStr(&buf, sp.Struct)
			writeStr(&buf, sp.Port)
			writeU64(&buf, math.Float64bits(m[sp]))
		}
	}
	ports(in.ReadPorts)
	ports(in.WritePorts)
	names := make([]string, 0, len(in.StructAVF))
	for s := range in.StructAVF {
		names = append(names, s)
	}
	sort.Strings(names)
	writeU32(&buf, uint32(len(names)))
	for _, s := range names {
		writeStr(&buf, s)
		writeU64(&buf, math.Float64bits(in.StructAVF[s]))
	}
	return buf.Bytes()
}

func decodeInputs(payload []byte) (*core.Inputs, error) {
	r := &reader{b: payload}
	in := core.NewInputs()
	ports := func(m map[core.StructPort]float64, what string) error {
		n := r.count(8) // struct len + port len at minimum
		for i := 0; i < n; i++ {
			sp := core.StructPort{Struct: r.str(), Port: r.str()}
			v := math.Float64frombits(r.u64())
			if r.err != nil {
				return fmt.Errorf("%w: inputs %s table truncated", ErrCorrupt, what)
			}
			if !(v >= 0 && v <= 1) { // also rejects NaN
				return fmt.Errorf("%w: %s pAVF for %s out of [0,1]: %v", ErrCorrupt, what, sp, v)
			}
			if _, dup := m[sp]; dup {
				return fmt.Errorf("%w: duplicate %s port %s", ErrCorrupt, what, sp)
			}
			m[sp] = v
		}
		return nil
	}
	if err := ports(in.ReadPorts, "read"); err != nil {
		return nil, err
	}
	if err := ports(in.WritePorts, "write"); err != nil {
		return nil, err
	}
	n := r.count(12)
	for i := 0; i < n; i++ {
		s := r.str()
		v := math.Float64frombits(r.u64())
		if r.err != nil {
			return nil, fmt.Errorf("%w: inputs structure table truncated", ErrCorrupt)
		}
		if !(v >= 0 && v <= 1) {
			return nil, fmt.Errorf("%w: structure AVF for %q out of [0,1]: %v", ErrCorrupt, s, v)
		}
		if _, dup := in.StructAVF[s]; dup {
			return nil, fmt.Errorf("%w: duplicate structure %q", ErrCorrupt, s)
		}
		in.StructAVF[s] = v
	}
	if r.err != nil || r.remaining() != 0 {
		return nil, fmt.Errorf("%w: inputs section malformed", ErrCorrupt)
	}
	return in, nil
}

func encodePlan(sets pavf.CSR, fwd, bwd []int32) []byte {
	var buf bytes.Buffer
	buf.Grow(4 * (2 + len(sets.Off) + len(sets.IDs) + len(fwd) + len(bwd)))
	writeU32(&buf, uint32(len(sets.Off)-1))
	for _, off := range sets.Off {
		writeU32(&buf, uint32(off))
	}
	writeU32(&buf, uint32(len(sets.IDs)))
	for _, id := range sets.IDs {
		writeU32(&buf, uint32(id))
	}
	for _, idx := range fwd {
		writeU32(&buf, uint32(idx))
	}
	for _, idx := range bwd {
		writeU32(&buf, uint32(idx))
	}
	return buf.Bytes()
}

// decodePlan reads the set table and the per-vertex slots and checks
// them with checkTable against a universe of uniLen terms. The four
// arrays are read with one bounds check each and a tight conversion
// loop — this is the decode hot path.
func decodePlan(payload []byte, numVerts, uniLen int) (sets pavf.CSR, fwd, bwd []int32, err error) {
	r := &reader{b: payload}
	nSets := r.count(4)
	if r.err != nil || r.remaining() < (nSets+1)*4 {
		return sets, nil, nil, fmt.Errorf("%w: plan offsets truncated", ErrCorrupt)
	}
	sets.Off = make([]int32, nSets+1)
	off := r.bytes(4 * (nSets + 1))
	for i := range sets.Off {
		sets.Off[i] = int32(binary.LittleEndian.Uint32(off[4*i:]))
	}
	nIDs := r.count(4)
	if r.err != nil {
		return sets, nil, nil, fmt.Errorf("%w: plan term table truncated", ErrCorrupt)
	}
	sets.IDs = make([]pavf.TermID, nIDs)
	ids := r.bytes(4 * nIDs)
	for i := range sets.IDs {
		sets.IDs[i] = pavf.TermID(binary.LittleEndian.Uint32(ids[4*i:]))
	}
	if r.remaining() != 2*numVerts*4 {
		return sets, nil, nil, fmt.Errorf("%w: plan indexes %d bytes for %d vertices", ErrCorrupt, r.remaining(), numVerts)
	}
	fwd = make([]int32, numVerts)
	fb := r.bytes(4 * numVerts)
	for i := range fwd {
		fwd[i] = int32(binary.LittleEndian.Uint32(fb[4*i:]))
	}
	bwd = make([]int32, numVerts)
	bb := r.bytes(4 * numVerts)
	for i := range bwd {
		bwd[i] = int32(binary.LittleEndian.Uint32(bb[4*i:]))
	}
	if r.err != nil || r.remaining() != 0 {
		return sets, nil, nil, fmt.Errorf("%w: plan section malformed", ErrCorrupt)
	}
	return sets, fwd, bwd, checkTable(sets, fwd, bwd, uniLen)
}

// checkTable holds the structural rules of a persisted set table, the
// ones evaluation, Result.Expr and the incremental seed rely on when
// they index it without further checks: offsets run from 0 to len(IDs)
// without decreasing (so none passes len(IDs)), each set's term IDs
// ascend strictly from 0 and stay below uniLen, and every vertex slot
// is -1 (unknown side) or names a set.
func checkTable(sets pavf.CSR, fwd, bwd []int32, uniLen int) error {
	off := sets.Off // decodePlan reads at least one
	if off[0] != 0 || int(off[len(off)-1]) != len(sets.IDs) {
		return fmt.Errorf("%w: plan offsets do not span the term table", ErrCorrupt)
	}
	for s := 1; s < len(off); s++ {
		lo, hi := off[s-1], off[s]
		if lo > hi || int(hi) > len(sets.IDs) {
			return fmt.Errorf("%w: plan set %d extent [%d,%d) outside the term table of %d", ErrCorrupt, s-1, lo, hi, len(sets.IDs))
		}
		prev := pavf.TermID(-1) // so a negative ID fails the ascent
		for _, id := range sets.IDs[lo:hi] {
			if id <= prev {
				return fmt.Errorf("%w: plan set %d terms not strictly ascending from 0 at %d", ErrCorrupt, s-1, id)
			}
			if int(id) >= uniLen {
				return fmt.Errorf("%w: plan set %d references term %d outside universe of %d", ErrCorrupt, s-1, id, uniLen)
			}
			prev = id
		}
	}
	nSets := int32(len(off) - 1)
	for _, slots := range [2][]int32{fwd, bwd} {
		for v, s := range slots {
			if s < -1 || s >= nSets {
				return fmt.Errorf("%w: plan vertex %d names set %d of %d", ErrCorrupt, v, s, nSets)
			}
		}
	}
	return nil
}

// encodeAVF stores the solved AVF vector as raw little-endian float64
// bits — restoring it is a copy, not a re-evaluation, which is what
// makes warm starts an order of magnitude cheaper than cold solves.
func encodeAVF(res *core.Result) ([]byte, error) {
	n := res.Analyzer.G.NumVerts()
	if len(res.AVF) != n {
		return nil, fmt.Errorf("artifact: result carries %d AVFs for %d vertices", len(res.AVF), n)
	}
	out := make([]byte, 8*n)
	for v, avf := range res.AVF {
		if !(avf >= 0 && avf <= 1) {
			return nil, fmt.Errorf("artifact: vertex %d AVF %v out of [0,1]", v, avf)
		}
		binary.LittleEndian.PutUint64(out[8*v:], math.Float64bits(avf))
	}
	return out, nil
}

func decodeAVF(payload []byte, numVerts int) ([]float64, error) {
	if len(payload) != 8*numVerts {
		return nil, fmt.Errorf("%w: avf section holds %d bytes for %d vertices", ErrCorrupt, len(payload), numVerts)
	}
	avf := make([]float64, numVerts)
	for v := range avf {
		f := math.Float64frombits(binary.LittleEndian.Uint64(payload[8*v:]))
		if !(f >= 0 && f <= 1) { // also rejects NaN
			return nil, fmt.Errorf("%w: vertex %d AVF %v out of [0,1]", ErrCorrupt, v, f)
		}
		avf[v] = f
	}
	return avf, nil
}

// encodeFubState writes the incremental-reuse section: the full term
// dictionary (TermID order, so DecodePrior can rebuild the universe and
// reuse the plan section's IDs verbatim) followed by one entry per FUB —
// name, structural fingerprint, vertex count — in FUB declaration order,
// which is also the vertex-array order the plan and avf sections use.
func encodeFubState(a *core.Analyzer) []byte {
	u := a.Universe()
	size := 4 + 4
	for t := 0; t < u.Len(); t++ {
		size += 1 + 4 + len(u.Term(pavf.TermID(t)).Name)
	}
	for _, name := range a.G.FubNames {
		size += 4 + len(name) + 8 + 4
	}
	var buf bytes.Buffer
	buf.Grow(size)
	writeU32(&buf, uint32(u.Len()))
	for t := 0; t < u.Len(); t++ {
		term := u.Term(pavf.TermID(t))
		buf.WriteByte(byte(term.Kind))
		writeStr(&buf, term.Name)
	}
	counts := make([]uint32, len(a.G.FubNames))
	for v := 0; v < a.G.NumVerts(); v++ {
		counts[a.G.Verts[v].Fub]++
	}
	fps := a.FubFingerprints()
	writeU32(&buf, uint32(len(a.G.FubNames)))
	for f, name := range a.G.FubNames {
		writeStr(&buf, name)
		writeU64(&buf, fps[f])
		writeU32(&buf, counts[f])
	}
	return buf.Bytes()
}

// fubEntry is one decoded fubstate FUB record.
type fubEntry struct {
	name        string
	fingerprint uint64
	verts       int
}

// decodeFubState parses the fubstate payload and checks it against the
// meta section's universe and vertex counts: the dictionary must carry
// exactly uniLen terms starting with ⊤ and free of duplicates, and the
// per-FUB vertex counts must partition numVerts exactly.
func decodeFubState(payload []byte, uniLen, numVerts int) ([]pavf.Term, []fubEntry, error) {
	r := &reader{b: payload}
	nTerms := r.count(5) // kind byte + name length at minimum
	if r.err != nil {
		return nil, nil, fmt.Errorf("%w: fubstate dictionary truncated", ErrCorrupt)
	}
	if nTerms != uniLen || nTerms == 0 {
		return nil, nil, fmt.Errorf("%w: fubstate dictionary has %d terms, meta declares %d", ErrCorrupt, nTerms, uniLen)
	}
	dict := make([]pavf.Term, nTerms)
	seen := make(map[pavf.Term]bool, nTerms)
	for i := range dict {
		kind := pavf.TermKind(r.u8())
		name := r.str()
		if r.err != nil {
			return nil, nil, fmt.Errorf("%w: fubstate dictionary truncated at term %d", ErrCorrupt, i)
		}
		if kind > pavf.KindPseudo {
			return nil, nil, fmt.Errorf("%w: fubstate term %d has unknown kind %d", ErrCorrupt, i, kind)
		}
		t := pavf.Term{Kind: kind, Name: name}
		if (i == 0) != (kind == pavf.KindTop) {
			return nil, nil, fmt.Errorf("%w: fubstate dictionary must open with exactly one ⊤ term", ErrCorrupt)
		}
		if seen[t] {
			return nil, nil, fmt.Errorf("%w: fubstate dictionary repeats term %v", ErrCorrupt, t)
		}
		seen[t] = true
		dict[i] = t
	}
	nFubs := r.count(16) // name length + fingerprint + count at minimum
	if r.err != nil || nFubs == 0 {
		return nil, nil, fmt.Errorf("%w: fubstate FUB table truncated", ErrCorrupt)
	}
	fubs := make([]fubEntry, nFubs)
	total := 0
	names := make(map[string]bool, nFubs)
	for i := range fubs {
		fubs[i] = fubEntry{name: r.str(), fingerprint: r.u64(), verts: int(r.u32())}
		if r.err != nil {
			return nil, nil, fmt.Errorf("%w: fubstate FUB table truncated at entry %d", ErrCorrupt, i)
		}
		if names[fubs[i].name] {
			return nil, nil, fmt.Errorf("%w: fubstate repeats FUB %q", ErrCorrupt, fubs[i].name)
		}
		names[fubs[i].name] = true
		total += fubs[i].verts
	}
	if total != numVerts {
		return nil, nil, fmt.Errorf("%w: fubstate vertex counts sum to %d, meta declares %d", ErrCorrupt, total, numVerts)
	}
	if r.remaining() != 0 {
		return nil, nil, fmt.Errorf("%w: fubstate section malformed", ErrCorrupt)
	}
	return dict, fubs, nil
}

// DecodePrior reconstructs a prior-solve seed from artifact bytes with
// no analyzer: unlike Decode, which requires the identical design, the
// caller here holds an edited design and wants the old design's per-FUB
// walk state to seed core.ResolveIncremental. Everything is validated
// from the artifact alone — the dictionary rebuilds the term universe,
// the set table is checked against it, and the per-FUB extents partition
// the vertex space — so corrupt, truncated, or version-skewed bytes fail
// with explicit errors (ErrCorrupt / ErrFormatVersion), never a panic.
// The header fingerprint is not checked: an edited design's differs by
// construction.
func DecodePrior(data []byte) (*core.PriorState, error) {
	_, payloads, err := readSections(data)
	if err != nil {
		return nil, err
	}
	return decodePrior(payloads)
}

// decodePrior builds the prior state from the payloads readSections
// returned.
func decodePrior(payloads [5][]byte) (*core.PriorState, error) {
	c, err := decodeSections(payloads)
	if err != nil {
		return nil, err
	}
	// Rebuild the universe in dictionary order: interning into a fresh
	// universe assigns dense sequential IDs, so position i keeps ID i and
	// the plan's term IDs apply unchanged.
	uni := pavf.NewUniverse()
	for i := 1; i < len(c.dict); i++ {
		if id := uni.Intern(c.dict[i]); int(id) != i {
			return nil, fmt.Errorf("%w: fubstate dictionary term %d re-interned as %d", ErrCorrupt, i, id)
		}
	}
	ps := &core.PriorState{
		Design:   c.meta.name,
		Universe: uni,
		Inputs:   c.in,
		Sets:     c.sets,
		Fubs:     make([]core.FubPrior, len(c.fubs)),
	}
	off := 0
	for i, fe := range c.fubs {
		ps.Fubs[i] = core.FubPrior{
			Name:        fe.name,
			Fingerprint: fe.fingerprint,
			FwdIdx:      c.fwd[off : off+fe.verts],
			BwdIdx:      c.bwd[off : off+fe.verts],
			AVF:         c.avf[off : off+fe.verts],
		}
		off += fe.verts
	}
	return ps, nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeStr(buf *bytes.Buffer, s string) {
	writeU32(buf, uint32(len(s)))
	buf.WriteString(s)
}

// reader is a bounds-checked little-endian cursor. Every accessor
// degrades to a zero value once err is set, so decoders can batch their
// error checks; count caps declared element counts against the bytes
// actually remaining, which is what keeps a fuzzed length field from
// turning into a multi-gigabyte allocation.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated", ErrCorrupt)
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.remaining() < n {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// str reads a length-prefixed string; the length is capped by the bytes
// remaining before any allocation happens.
func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || int(n) > r.remaining() {
		r.fail()
		return ""
	}
	return string(r.bytes(int(n)))
}

// count reads an element count and refuses one that could not fit in
// the remaining payload at elemSize bytes per element.
func (r *reader) count(elemSize int) int {
	n := r.u32()
	if r.err != nil || elemSize <= 0 || int(n) > r.remaining()/elemSize {
		r.fail()
		return 0
	}
	return int(n)
}
