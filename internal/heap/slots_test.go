package heap

import (
	"errors"
	"math/rand"
	"testing"

	"causalgc/internal/ids"
)

// checkSlotBookkeeping asserts the slot rule's invariants on every live
// object: holes counts the NilRef slots, no hole trails, and every slot
// below the search hint is set.
func checkSlotBookkeeping(t *testing.T, h *Heap, step int) {
	t.Helper()
	for _, o := range h.objects {
		holes := 0
		for _, r := range o.slots {
			if !r.Valid() {
				holes++
			}
		}
		if holes != o.holes {
			t.Fatalf("step %d: %v counts %d holes, slots hold %d", step, o.id, o.holes, holes)
		}
		if n := len(o.slots); n > 0 && !o.slots[n-1].Valid() {
			t.Fatalf("step %d: %v has a trailing hole", step, o.id)
		}
		if o.low > len(o.slots) {
			t.Fatalf("step %d: %v hint %d past %d slots", step, o.id, o.low, len(o.slots))
		}
		for i := 0; i < o.low; i++ {
			if !o.slots[i].Valid() {
				t.Fatalf("step %d: %v hole %d below hint %d", step, o.id, i, o.low)
			}
		}
	}
}

// recountEdges rebuilds the edge table from first principles: one count
// per valid inter-cluster slot of every object of a non-removed cluster.
func recountEdges(h *Heap) map[edge]int {
	want := make(map[edge]int)
	for _, o := range h.objects {
		if o.home.removed {
			continue
		}
		for _, r := range o.slots {
			if r.Valid() && r.Cluster != o.home.id {
				want[edge{from: o.home.id, to: r.Cluster}]++
			}
		}
	}
	return want
}

func lowestHole(o *Object) int {
	for i, r := range o.slots {
		if !r.Valid() {
			return i
		}
	}
	return len(o.slots)
}

// TestHeapEdgesMatchSlotsProperty drives random AddRef / SetSlot /
// DropRefs / Collect / RemoveCluster sequences and checks after every
// step that the edge table equals a recount from the valid slots of
// non-removed clusters, that the slot bookkeeping is consistent, that
// AddRef always takes the lowest-index hole, and that an object of a
// removed cluster refuses mutation until the sweep reclaims it.
func TestHeapEdgesMatchSlotsProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(1, NopHooks{})
		var clusters []ids.ClusterID
		for i := 0; i < 4; i++ {
			clusters = append(clusters, h.NewCluster())
		}
		remote := []Ref{
			{Obj: ids.ObjectID{Site: 2, Seq: 1}, Cluster: ids.ClusterID{Site: 2, Seq: 1}},
			{Obj: ids.ObjectID{Site: 2, Seq: 2}, Cluster: ids.ClusterID{Site: 2, Seq: 1}},
			{Obj: ids.ObjectID{Site: 3, Seq: 1}, Cluster: ids.ClusterID{Site: 3, Seq: 7}},
		}
		live := func() []*Object { return h.Objects() }
		randomRef := func() Ref {
			if rng.Intn(4) == 0 {
				return remote[rng.Intn(len(remote))]
			}
			os := live()
			o := os[rng.Intn(len(os))]
			return Ref{Obj: o.id, Cluster: o.home.id}
		}
		for step := 0; step < 400; step++ {
			os := live()
			holder := os[rng.Intn(len(os))]
			dead := holder.home.removed
			mutated := func(err error) {
				t.Helper()
				if dead != errors.Is(err, ErrNoSuchObject) || (!dead && err != nil) {
					t.Fatalf("seed %d step %d: holder dead=%v, err %v", seed, step, dead, err)
				}
			}
			switch op := rng.Intn(10); {
			case op < 2: // grow the heap
				cl := clusters[rng.Intn(len(clusters))]
				if h.ClusterRemoved(cl) {
					cl = h.NewCluster()
					clusters = append(clusters, cl)
				}
				o := h.NewObject(cl)
				_, err := h.AddRef(holder.id, Ref{Obj: o.id, Cluster: cl})
				mutated(err)
			case op < 5:
				want := lowestHole(holder)
				got, err := h.AddRef(holder.id, randomRef())
				mutated(err)
				if !dead && got != want {
					t.Fatalf("seed %d step %d: AddRef took slot %d, lowest hole is %d", seed, step, got, want)
				}
			case op < 7:
				ref := NilRef
				if rng.Intn(3) == 0 {
					ref = randomRef()
				}
				mutated(h.SetSlot(holder.id, rng.Intn(holder.NumSlots()+3), ref))
			case op < 8:
				mutated(h.DropRefs(holder.id, randomRef().Obj))
			case op < 9:
				h.Collect()
			default:
				cl := clusters[rng.Intn(len(clusters))]
				if _, ok := h.clusters[cl]; ok {
					if err := h.RemoveCluster(cl); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkSlotBookkeeping(t, h, step)
			want := recountEdges(h)
			if len(want) != len(h.edges) {
				t.Fatalf("seed %d step %d: %d edges, recount %d: %v vs %v", seed, step, len(h.edges), len(want), h.edges, want)
			}
			for e, n := range want {
				if h.edges[e] != n {
					t.Fatalf("seed %d step %d: edge %v→%v count %d, recount %d", seed, step, e.from, e.to, h.edges[e], n)
				}
			}
		}
	}
}

// TestHeapChurnSlotsBounded: 5000 create/drop pairs under the root end
// with a bounded root slot array, and the exported image does not grow
// with history.
func TestHeapChurnSlotsBounded(t *testing.T) {
	churn := func(pairs int) Image {
		h := New(1, NopHooks{})
		keep := h.NewObject(h.NewCluster())
		if _, err := h.AddRef(h.RootObject(), Ref{Obj: keep.id, Cluster: keep.home.id}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pairs; i++ {
			o := h.NewObject(h.NewCluster())
			if _, err := h.AddRef(h.RootObject(), Ref{Obj: o.id, Cluster: o.home.id}); err != nil {
				t.Fatal(err)
			}
			if err := h.DropRefs(h.RootObject(), o.id); err != nil {
				t.Fatal(err)
			}
			// The GGD verdict the engine would reach for the detached
			// cluster.
			if err := h.RemoveCluster(o.home.id); err != nil {
				t.Fatal(err)
			}
			if i%64 == 0 {
				h.Collect()
			}
		}
		h.Collect()
		if n := h.Object(h.RootObject()).NumSlots(); n != 1 {
			t.Fatalf("%d pairs: root holds %d slots, want 1", pairs, n)
		}
		if n := h.NumSlots(); n != 1 {
			t.Fatalf("%d pairs: heap holds %d slots, want 1", pairs, n)
		}
		return h.Export()
	}
	rootSlots := func(img Image) int {
		for _, oi := range img.Objects {
			if oi.ID == img.RootObject {
				return len(oi.Slots)
			}
		}
		t.Fatal("root missing from image")
		return 0
	}
	short, long := churn(1), churn(5000)
	if rootSlots(short) != rootSlots(long) || len(short.Objects) != len(long.Objects) || len(short.Clusters) != len(long.Clusters) {
		t.Errorf("image depends on history: root slots %d vs %d, objects %d vs %d, clusters %d vs %d",
			rootSlots(short), rootSlots(long), len(short.Objects), len(long.Objects), len(short.Clusters), len(long.Clusters))
	}
}

// TestHeapSlotReuseRule pins the index rule: the lowest hole first,
// trailing holes trimmed, live indices never moving, and a restored
// image handing out the same indices as the heap it came from.
func TestHeapSlotReuseRule(t *testing.T) {
	h := New(1, NopHooks{})
	root := h.RootObject()
	refs := make([]Ref, 5)
	for i := range refs {
		o := h.NewObject(h.NewCluster())
		refs[i] = Ref{Obj: o.id, Cluster: o.home.id}
		if got, _ := h.AddRef(root, refs[i]); got != i {
			t.Fatalf("AddRef %d took slot %d", i, got)
		}
	}
	for _, i := range []int{3, 1} {
		if err := h.ClearSlot(root, i); err != nil {
			t.Fatal(err)
		}
	}
	ro := h.Object(root)
	if ro.NumSlots() != 5 || ro.Slot(4) != refs[4] || ro.Slot(2) != refs[2] {
		t.Fatalf("clearing inner slots moved live ones: %v", ro.Slots())
	}
	// Clearing the last slot trims it and the hole before it.
	if err := h.ClearSlot(root, 4); err != nil {
		t.Fatal(err)
	}
	if ro.NumSlots() != 3 {
		t.Fatalf("trailing holes kept: %v", ro.Slots())
	}
	// A restored copy and the original hand out the same indices.
	r, err := Restore(NopHooks{}, h.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{1, 3, 4} {
		a, _ := h.AddRef(root, refs[0])
		b, _ := r.AddRef(root, refs[0])
		if a != want || b != want {
			t.Fatalf("AddRef took %d (live) / %d (restored), want %d", a, b, want)
		}
	}
}

// TestRemoveClusterSweepsDespiteStaleRef: a reference re-stored into a
// GGD-removed cluster does not resurrect its object; the next
// collection reclaims it and the slot dangles.
func TestRemoveClusterSweepsDespiteStaleRef(t *testing.T) {
	h := New(1, NopHooks{})
	o := h.NewObject(h.NewCluster())
	ref := Ref{Obj: o.id, Cluster: o.home.id}
	if _, err := h.AddRef(h.RootObject(), ref); err != nil {
		t.Fatal(err)
	}
	if err := h.DropRefs(h.RootObject(), o.id); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveCluster(ref.Cluster); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddRef(h.RootObject(), ref); err != nil {
		t.Fatal(err)
	}
	if st := h.Collect(); st.Swept != 1 {
		t.Fatalf("swept %d, want the removed cluster's object", st.Swept)
	}
	if h.Object(o.id) != nil || !h.Object(h.RootObject()).Holds(ref) {
		t.Fatal("want the object reclaimed and the stale slot left dangling")
	}
}
