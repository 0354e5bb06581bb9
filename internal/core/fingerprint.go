package core

import (
	"slices"
	"strings"

	"seqavf/internal/graph"
	"seqavf/internal/netlist"
)

// wordHash is the fingerprint hash. It absorbs 64-bit words, pushing the
// state through the splitmix64 finalizer after each one, so a word costs
// two multiplies where byte-wise FNV-1a paid eight serial ones. The
// finalizer is what makes the state mix: a bare (h^w)*p step is affine
// in the word, the weakness that broke rendezvous hashing over raw FNV
// (DESIGN §9). Each step is a bijection of the state for a fixed word,
// so two equal-length streams differing in one word never collide;
// strings and lists carry length prefixes to keep streams of different
// shapes apart.
type wordHash uint64

// newWordHash starts a hash from a fixed nonzero state (the FNV-64
// offset basis), away from the finalizer's fixed point at zero.
func newWordHash() wordHash { return 0xcbf29ce484222325 }

func (h *wordHash) word(w uint64) {
	x := uint64(*h) ^ w
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	*h = wordHash(x)
}

// str absorbs len(s), then s in little-endian 8-byte words, the last one
// zero-padded (the length prefix keeps the padding unambiguous).
func (h *wordHash) str(s string) {
	h.word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h.word(w)
	}
}

// strs absorbs a count-prefixed string list.
func (h *wordHash) strs(ss []string) {
	h.word(uint64(len(ss)))
	for _, s := range ss {
		h.str(s)
	}
}

// endSuccs terminates a vertex's intra-FUB successor list; successors
// are local indices, never this value.
const endSuccs = ^uint64(0)

// crossPeer is one FUBIO neighbour of a vertex, named by parts that are
// stable across edits: direction (0 successor, 1 predecessor), FUB name,
// node name and bit.
type crossPeer struct {
	dir  uint64
	fub  string
	node string
	bit  int32
}

func cmpCrossPeer(x, y crossPeer) int {
	switch {
	case x.dir != y.dir:
		if x.dir < y.dir {
			return -1
		}
		return 1
	case x.fub != y.fub:
		return strings.Compare(x.fub, y.fub)
	case x.node != y.node:
		return strings.Compare(x.node, y.node)
	}
	return int(x.bit) - int(y.bit)
}

// computeFubFingerprints hashes each FUB's vertex range. Per vertex it
// absorbs one word packing bit, role and a new-node flag; when the flag
// is set (the vertex starts a node) the node's name, kind, class,
// structure binding and clock follow, so a wide node's attributes are
// hashed once rather than once per bit. Then come the intra-FUB
// successors in local indices and the FUBIO peers sorted by
// (direction, FUB, node, bit), so the hash depends neither on global
// vertex IDs nor on connect declaration order. A FUB whose hash
// keptFingerprints proves unchanged from prior takes prior's value.
func (a *Analyzer) computeFubFingerprints(prior *Analyzer) []uint64 {
	out := make([]uint64, len(a.exts))
	kept := a.keptFingerprints(prior)
	var cross []crossPeer
	for f, ext := range a.exts {
		if kept != nil && kept[f] >= 0 {
			out[f] = prior.fubFps[kept[f]]
			continue
		}
		h := newWordHash()
		h.str(a.G.FubNames[f])
		h.strs(a.Opts.ControlRegPrefixes)
		h.strs(a.Opts.ControlRegClocks)
		h.word(uint64(ext.end - ext.start))
		var node *netlist.Node
		for v := ext.start; v < ext.end; v++ {
			vx := &a.G.Verts[v]
			w := uint64(uint32(vx.Bit)) | uint64(a.roles[v])<<32
			if vx.Node != node {
				node = vx.Node
				h.word(w | 1<<40)
				h.str(node.Name)
				h.word(uint64(node.Kind) | uint64(node.Class)<<8)
				h.str(node.Struct)
				h.str(node.Port)
				h.str(node.Clock)
			} else {
				h.word(w)
			}
			cross = cross[:0]
			for _, s := range a.G.Succs(graph.VertexID(v)) {
				if int(s) >= ext.start && int(s) < ext.end {
					h.word(uint64(int(s) - ext.start))
				} else {
					cross = append(cross, a.peer(0, s))
				}
			}
			h.word(endSuccs)
			for _, p := range a.G.Preds(graph.VertexID(v)) {
				if int(p) < ext.start || int(p) >= ext.end {
					cross = append(cross, a.peer(1, p))
				}
			}
			h.word(uint64(len(cross)))
			if len(cross) > 1 {
				slices.SortFunc(cross, cmpCrossPeer)
			}
			for _, c := range cross {
				h.word(c.dir<<32 | uint64(uint32(c.bit)))
				h.str(c.fub)
				h.str(c.node)
			}
		}
		out[f] = uint64(h)
	}
	return out
}

// keptFingerprints returns, per FUB, the index of the prior FUB whose
// fingerprint this FUB's hash would reproduce, or -1; nil when prior is
// nil. Every input of the hash is compared exactly, never through a
// hash:
//   - the role-affecting options;
//   - the *FlatFub under the same name, so the same nodes and vertices
//     and the same intra-FUB rows (graph.BuildFrom copies them);
//   - the roles, vertex for vertex;
//   - the FUBIO boundary: the sorted connects touching the FUB, which
//     fix every vertex's cross peers. A FUB with a connect to itself is
//     always rehashed: that edge hashes as an intra-FUB successor, in
//     connect order.
func (a *Analyzer) keptFingerprints(prior *Analyzer) []int32 {
	if prior == nil || !slices.Equal(a.Opts.ControlRegPrefixes, prior.Opts.ControlRegPrefixes) ||
		!slices.Equal(a.Opts.ControlRegClocks, prior.Opts.ControlRegClocks) {
		return nil
	}
	kept := make([]int32, len(a.exts))
	slot := make(map[string]int)
	for f, ext := range a.exts {
		kept[f] = -1
		name := a.G.FubNames[f]
		pf, ok := prior.G.FubIndex(name)
		if !ok || a.G.Design.Fubs[f] != prior.G.Design.Fubs[pf] {
			continue
		}
		pext := prior.exts[pf]
		if !slices.Equal(a.roles[ext.start:ext.end], prior.roles[pext.start:pext.end]) {
			continue
		}
		kept[f] = int32(pf)
		slot[name] = f
	}
	if len(slot) == 0 {
		return kept
	}
	cur, selfCur := fubioBoundaries(a.G.Design.Connects, slot, len(a.exts))
	old, selfOld := fubioBoundaries(prior.G.Design.Connects, slot, len(a.exts))
	for _, f := range slot {
		if selfCur[f] || selfOld[f] || !slices.Equal(cur[f], old[f]) {
			kept[f] = -1
		}
	}
	return kept
}

// fubioEnd is one connect as seen from a FUB: direction (0 the FUB
// drives it, 1 the FUB is driven), the FUB's port, and the peer.
type fubioEnd struct {
	dir                     uint8
	port, peerFub, peerPort string
}

func cmpFubioEnd(x, y fubioEnd) int {
	if x.dir != y.dir {
		return int(x.dir) - int(y.dir)
	}
	if c := strings.Compare(x.port, y.port); c != 0 {
		return c
	}
	if c := strings.Compare(x.peerFub, y.peerFub); c != 0 {
		return c
	}
	return strings.Compare(x.peerPort, y.peerPort)
}

// fubioBoundaries lists, for every FUB named in slot (name -> index
// into the n-long results), the sorted connects touching it, and marks
// the FUBs with a connect to themselves.
func fubioBoundaries(conns []netlist.Connect, slot map[string]int, n int) ([][]fubioEnd, []bool) {
	ends := make([][]fubioEnd, n)
	self := make([]bool, n)
	for _, c := range conns {
		if f, ok := slot[c.From.Fub]; ok {
			ends[f] = append(ends[f], fubioEnd{0, c.From.Port, c.To.Fub, c.To.Port})
			self[f] = self[f] || c.To.Fub == c.From.Fub
		}
		if f, ok := slot[c.To.Fub]; ok {
			ends[f] = append(ends[f], fubioEnd{1, c.To.Port, c.From.Fub, c.From.Port})
		}
	}
	for _, e := range ends {
		slices.SortFunc(e, cmpFubioEnd)
	}
	return ends, self
}

func (a *Analyzer) peer(dir uint64, v graph.VertexID) crossPeer {
	vx := &a.G.Verts[v]
	return crossPeer{dir: dir, fub: a.G.FubNames[vx.Fub], node: vx.Node.Name, bit: vx.Bit}
}

// computeFingerprint derives the design fingerprint from the per-FUB
// ones plus the design name, the FUB names in order and the
// role-affecting options. The FUB order fixes every vertex's global ID
// and the FUB hashes name every cross edge's peers, so this covers what
// a whole-design walk would, without a second pass over the vertices.
func (a *Analyzer) computeFingerprint() uint64 {
	h := newWordHash()
	h.str(a.G.Design.Name)
	h.strs(a.G.FubNames)
	h.strs(a.Opts.ControlRegPrefixes)
	h.strs(a.Opts.ControlRegClocks)
	h.word(uint64(a.G.NumVerts()))
	for _, fp := range a.fubFps {
		h.word(fp)
	}
	return uint64(h)
}
