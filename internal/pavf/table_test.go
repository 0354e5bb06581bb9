package pavf

import (
	"math"
	"sync"
	"testing"
)

// norm is the set a SetTable stores for s: ⊤ absorbs every other term.
func norm(s Set) Set {
	if s.HasTop() {
		return TopSet()
	}
	return s
}

// FuzzSetTable drives a table and a child of it with interns, unions and
// a compaction decoded from the fuzz input, with pavf.Set as the oracle:
// every slot holds its set's content (⊤ collapsed), re-interning finds
// the same slot, Union on slots matches Set.Union, two slots are equal
// exactly when their sets are, a slot's set evaluates bit for bit as
// the set it stands for, Compact renumbers in first-sighting order
// without changing content, Expr reads a closed form's sides from their
// compact slots, and the parent is never written through the child.
func FuzzSetTable(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 5, 0, 2, 4, 6, 1, 0, 1, 1, 2, 3, 2, 9, 7})
	f.Add([]byte{0, 2, 0, 3, 0, 1, 5, 1, 2, 3, 1, 4, 4, 2, 1, 1})
	f.Add([]byte{1, 0, 1, 1, 1, 0, 0, 5, 1, 2, 3, 4, 5, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		env := make(Env, 16)
		env[Top] = 1
		for id := 1; id < len(env); id++ {
			env[id] = float64(id) / 37
		}
		// The parent holds a few sets built before any child exists.
		parent := NewSetTable()
		var sets []Set
		var slots []int32
		add := func(tab *SetTable, s Set) {
			slot := tab.Intern(s.IDs())
			if got, want := tab.Set(slot), norm(s); !got.Equal(want) {
				t.Fatalf("slot %d holds %v, want %v", slot, got.IDs(), want.IDs())
			}
			if again := tab.Intern(s.IDs()); again != slot {
				t.Fatalf("re-interning %v gave slot %d, first %d", s.IDs(), again, slot)
			}
			sets, slots = append(sets, s), append(slots, slot)
		}
		readSet := func() Set {
			ids := make([]TermID, next()%5)
			for i := range ids {
				ids[i] = TermID(next() % len(env))
			}
			return NewSet(ids...)
		}
		for i, n := 0, next()%4; i < n; i++ {
			add(parent, readSet())
		}
		frozen := parent.Len()
		frozenIDs := append([]TermID(nil), parent.IDs...)
		child := parent.Extend()
		for _, reserved := range []Set{{}, TopSet()} {
			add(child, reserved)
		}
		if slots[len(slots)-2] != EmptySlot || slots[len(slots)-1] != TopSlot {
			t.Fatalf("∅ and {⊤} interned as %d and %d", slots[len(slots)-2], slots[len(slots)-1])
		}
		for len(data) > 0 {
			switch next() % 2 {
			case 0:
				add(child, readSet())
			case 1:
				i, j := next()%len(sets), next()%len(sets)
				got := child.Union(slots[i], slots[j])
				want := norm(sets[i]).Union(norm(sets[j]))
				if !child.Set(got).Equal(want) {
					t.Fatalf("Union(%v, %v) = %v, want %v", sets[i].IDs(), sets[j].IDs(), child.Set(got).IDs(), want.IDs())
				}
				sets, slots = append(sets, want), append(slots, got)
			}
		}
		for i := range sets {
			if got, want := child.Set(slots[i]).Eval(env), norm(sets[i]).Eval(env); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Eval of %v = %v, Set.Eval %v", sets[i].IDs(), got, want)
			}
			for j := range sets {
				if (slots[i] == slots[j]) != norm(sets[i]).Equal(norm(sets[j])) {
					t.Fatalf("slots %d and %d for %v and %v", slots[i], slots[j], sets[i].IDs(), sets[j].IDs())
				}
			}
		}
		if parent.Len() != frozen || !equalIDs(parent.IDs, frozenIDs) {
			t.Fatalf("parent changed through its child: %d sets, was %d", parent.Len(), frozen)
		}

		// Compact every slot seen, reversed and with unknown sides mixed
		// in, so first sightings differ from slot order.
		n := (len(slots) + 1) / 2
		fwd, bwd := make([]int32, n), make([]int32, n)
		for v := range fwd {
			fwd[v] = slots[len(slots)-1-2*v]
			bwd[v] = UnknownSlot
			if k := len(slots) - 2 - 2*v; k >= 0 && v%3 != 2 {
				bwd[v] = slots[k]
			}
		}
		before := append(append([]int32(nil), fwd...), bwd...)
		c := child.Compact(fwd, bwd)
		seen := int32(0)
		for v := range fwd {
			for side, s := range [2]int32{fwd[v], bwd[v]} {
				old := before[v+side*n]
				if (s < 0) != (old < 0) {
					t.Fatalf("vertex %d side %d: slot %d compacted to %d", v, side, old, s)
				}
				if s < 0 {
					continue
				}
				if s > seen {
					t.Fatalf("vertex %d side %d: compact slot %d before slot %d was sighted", v, side, s, seen)
				}
				if s == seen {
					seen++
				}
				if !c.Set(s).Equal(child.Set(old)) {
					t.Fatalf("compact slot %d holds %v, slot %d held %v", s, c.Set(s).IDs(), old, child.Set(old).IDs())
				}
			}
			x := c.Expr(fwd[v], bwd[v])
			if x.KnownFwd != (fwd[v] >= 0) || x.KnownBwd != (bwd[v] >= 0) ||
				(x.KnownFwd && !x.Fwd.Equal(c.Set(fwd[v]))) || (x.KnownBwd && !x.Bwd.Equal(c.Set(bwd[v]))) {
				t.Fatalf("vertex %d: Expr %+v for slots %d/%d", v, x, fwd[v], bwd[v])
			}
		}
		if c.Len() != int(seen) {
			t.Fatalf("compact table holds %d sets, %d were sighted", c.Len(), seen)
		}
	})
}

// TestSetTableConcurrentChildren: children of one frozen table grow from
// several goroutines at once. Run under -race, this proves a child never
// writes its parent's storage, which is what lets concurrent solves on
// one analyzer share its source table.
func TestSetTableConcurrentChildren(t *testing.T) {
	parent := NewSetTable()
	var base []int32
	for id := TermID(1); id < 40; id++ {
		base = append(base, parent.Intern([]TermID{id}))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := parent.Extend()
			acc := EmptySlot
			for i := g; i < 2000; i += 3 {
				acc = child.Union(acc, base[i%len(base)])
				if i%7 == 0 {
					acc = EmptySlot
				}
			}
			if got := child.Set(base[g]).IDs(); len(got) != 1 || got[0] != TermID(g+1) {
				t.Errorf("child %d: parent slot %d reads %v", g, base[g], got)
			}
		}(g)
	}
	wg.Wait()
	if parent.Len() != len(base)+2 {
		t.Fatalf("parent grew to %d sets", parent.Len())
	}
}
