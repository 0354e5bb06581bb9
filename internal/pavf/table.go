package pavf

// CSR is a read-only table of sets in compressed-sparse-row form: set s
// holds IDs[Off[s]:Off[s+1]], term IDs strictly ascending. A solved
// result, a compiled plan and a persisted artifact all carry their
// distinct sets this way, and per-vertex state names them by slot.
type CSR struct {
	Off []int32
	IDs []TermID
}

// Len returns the number of sets in the table.
func (c CSR) Len() int {
	if len(c.Off) == 0 {
		return 0
	}
	return len(c.Off) - 1
}

// SetIDs returns set s's terms, ascending. The slice aliases the table and
// must not be modified.
func (c CSR) SetIDs(s int32) []TermID { return c.IDs[c.Off[s]:c.Off[s+1]:c.Off[s+1]] }

// Set returns set s as a Set sharing the table's storage.
func (c CSR) Set(s int32) Set { return SetFromSorted(c.SetIDs(s)) }

// Expr returns the closed form whose sides are slots fwd and bwd of c
// (UnknownSlot = that side is unknown). Its sets alias c's storage, so
// building it allocates nothing.
func (c CSR) Expr(fwd, bwd int32) Expr {
	var x Expr
	if fwd >= 0 {
		x.Fwd, x.KnownFwd = c.Set(fwd), true
	}
	if bwd >= 0 {
		x.Bwd, x.KnownBwd = c.Set(bwd), true
	}
	return x
}

// Reserved slots of every SetTable, and the marker for an unknown side.
const (
	// EmptySlot holds ∅.
	EmptySlot int32 = 0
	// TopSlot holds {⊤}, and every interned set that contains ⊤.
	TopSlot int32 = 1
	// UnknownSlot marks a side no walk reached (conservatively 1.0).
	UnknownSlot int32 = -1
)

// SetTable hash-conses sets: every distinct set is stored once and named
// by a dense int32 slot, so set equality is slot equality and per-vertex
// state is a pointer-free []int32. A table only grows. Slots 0 and 1 are
// always ∅ and {⊤}. A set containing ⊤ interns as TopSlot: it evaluates
// to 1.0 whatever else it holds, and Union collapses to {⊤} the same way.
//
// A table is not safe for concurrent writes. A frozen table may be read
// concurrently and extended by any number of children (Extend), each
// owned by one goroutine.
type SetTable struct {
	CSR
	// hash is each slot's content hash; index is an open-addressing
	// table (linear probing, power-of-two size) of slot+1, 0 = empty.
	// The two reserved slots are never looked up and not indexed.
	hash  []uint64
	index []int32
	// scratch holds a union's merged terms before they are interned.
	scratch []TermID
}

// NewSetTable returns a table holding only ∅ (EmptySlot) and {⊤}
// (TopSlot).
func NewSetTable() *SetTable {
	return &SetTable{
		CSR:   CSR{Off: []int32{0, 0, 1}, IDs: []TermID{Top}},
		hash:  []uint64{0, 0},
		index: make([]int32, 16),
	}
}

// Extend returns a child table that starts with t's sets, under t's
// slots, and appends its own after them. The child shares t's set
// storage with its capacity clipped, so appending copies rather than
// writing t's arrays, and copies only t's index: t is never written
// through the child, and may be read concurrently while children grow.
func (t *SetTable) Extend() *SetTable {
	n, m := len(t.Off), len(t.IDs)
	return &SetTable{
		CSR:   CSR{Off: t.Off[:n:n], IDs: t.IDs[:m:m]},
		hash:  t.hash[:len(t.hash):len(t.hash)],
		index: append([]int32(nil), t.index...),
	}
}

// hashIDs mixes a set's terms into one word: a multiply-xor step per
// term and the splitmix64 finalizer, so nearby sets spread over the
// index.
func hashIDs(ids []TermID) uint64 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func equalIDs(a, b []TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, id := range a {
		if b[i] != id {
			return false
		}
	}
	return true
}

// Intern returns the slot of the set holding ids, adding it if new. ids
// must be strictly ascending; Intern copies it. A set containing ⊤
// interns as TopSlot.
func (t *SetTable) Intern(ids []TermID) int32 {
	if len(ids) == 0 {
		return EmptySlot
	}
	if ids[0] == Top {
		return TopSlot
	}
	h := hashIDs(ids)
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		s := t.index[i] - 1
		if t.hash[s] == h && equalIDs(t.SetIDs(s), ids) {
			return s
		}
	}
	s := int32(len(t.Off) - 1)
	t.IDs = append(t.IDs, ids...)
	t.Off = append(t.Off, int32(len(t.IDs)))
	t.hash = append(t.hash, h)
	t.index[i] = s + 1
	if 2*(len(t.hash)-2) > len(t.index) {
		t.grow()
	}
	return s
}

// grow doubles the index and re-inserts every slot by its stored hash.
func (t *SetTable) grow() {
	t.index = make([]int32, 2*len(t.index))
	mask := uint64(len(t.index) - 1)
	for s := 2; s < len(t.hash); s++ {
		i := t.hash[s] & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(s) + 1
	}
}

// Union returns the slot of a ∪ b (Set.Union on slots). A union equal to
// one operand — an empty side, the same slot, ⊤, or a subset — returns
// that operand's slot without hashing.
func (t *SetTable) Union(a, b int32) int32 {
	switch {
	case a == b || b == EmptySlot || a == TopSlot:
		return a
	case a == EmptySlot || b == TopSlot:
		return b
	}
	x, y := t.SetIDs(a), t.SetIDs(b)
	merged := t.scratch[:0]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			merged = append(merged, x[i])
			i++
		case x[i] > y[j]:
			merged = append(merged, y[j])
			j++
		default:
			merged = append(merged, x[i])
			i++
			j++
		}
	}
	merged = append(merged, x[i:]...)
	merged = append(merged, y[j:]...)
	t.scratch = merged
	switch len(merged) {
	case len(x):
		return a
	case len(y):
		return b
	}
	return t.Intern(merged)
}

// Compact renumbers the slots fwd and bwd name into a new table holding
// only those sets, in first-sighting order: fwd[0], bwd[0], fwd[1],
// bwd[1], and so on. It rewrites both slices in place (UnknownSlot stays
// UnknownSlot) and returns the compact table. The renumbering is a dense
// slot-indexed array; nothing is hashed.
func (t *SetTable) Compact(fwd, bwd []int32) CSR {
	remap := make([]int32, t.Len())
	for i := range remap {
		remap[i] = -1
	}
	out := CSR{Off: []int32{0}}
	slot := func(s int32) int32 {
		if s < 0 {
			return UnknownSlot
		}
		c := remap[s]
		if c < 0 {
			c = int32(len(out.Off) - 1)
			remap[s] = c
			out.IDs = append(out.IDs, t.SetIDs(s)...)
			out.Off = append(out.Off, int32(len(out.IDs)))
		}
		return c
	}
	for v := range fwd {
		fwd[v] = slot(fwd[v])
		bwd[v] = slot(bwd[v])
	}
	return out
}
