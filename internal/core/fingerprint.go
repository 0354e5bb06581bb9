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
// vertex IDs nor on connect declaration order.
func (a *Analyzer) computeFubFingerprints() []uint64 {
	out := make([]uint64, len(a.exts))
	var cross []crossPeer
	for f, ext := range a.exts {
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
