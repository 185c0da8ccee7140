package site_test

import (
	"errors"
	"reflect"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// settleCounter counts lifecycle callbacks.
type settleCounter struct {
	collections int
	removed     map[ids.ClusterID]bool
}

func (c *settleCounter) ClusterRemoved(_ ids.SiteID, cl ids.ClusterID) { c.removed[cl] = true }
func (c *settleCounter) Collected(ids.SiteID, heap.CollectStats)       { c.collections++ }

func observedSite(t *testing.T) (*site.Runtime, *settleCounter) {
	t.Helper()
	obs := &settleCounter{removed: map[ids.ClusterID]bool{}}
	opts := site.DefaultOptions()
	opts.Observer = obs
	return site.New(1, netsim.NewSim(netsim.Faults{Seed: 1}), opts), obs
}

// TestBatchSettlesOnce: a 32-op batch whose 16 drops each make GGD
// remove a cluster runs one local collection, not one per drop, and
// every dropped cluster is removed and its object reclaimed by the
// time the commit returns.
func TestBatchSettlesOnce(t *testing.T) {
	s, obs := observedSite(t)
	root := s.Root().Obj
	var fill []wire.BatchOp
	for i := 0; i < 16; i++ {
		fill = append(fill, wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}})
	}
	old, err := s.ApplyBatch(fill)
	if err != nil {
		t.Fatal(err)
	}
	ops := append([]wire.BatchOp(nil), fill...)
	for _, ref := range old {
		ops = append(ops, wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpDropRefs, Holder: root, Target: ref}})
	}
	before := obs.collections
	fresh, err := s.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.collections - before; got != 1 {
		t.Errorf("batch ran %d collections, want 1", got)
	}
	for _, ref := range old {
		if !obs.removed[ref.Cluster] || s.HasObject(ref.Obj) {
			t.Errorf("dropped %v: removed=%v, object present=%v", ref, obs.removed[ref.Cluster], s.HasObject(ref.Obj))
		}
	}
	for _, ref := range fresh[:16] {
		if !s.HasObject(ref.Obj) {
			t.Errorf("created %v missing", ref)
		}
	}
	if got, want := s.NumObjects(), 17; got != want {
		t.Errorf("%d objects, want %d", got, want)
	}
}

// TestBatchDropThenReuse pins a batch that drops the last reference to
// an object and then uses it again later in the same batch. The drop's
// removal stands (the engine drains after every op) and the object is
// dead from then on: a re-add of the same target stores a dangling
// reference, using it as a holder fails with ErrNoSuchObject, and the
// object is reclaimed at the batch's end — exactly what the same ops
// committed one by one do.
func TestBatchDropThenReuse(t *testing.T) {
	type outcome struct {
		removed, present, failed bool
		rootSlots                []heap.Ref
		engine                   any
	}
	result := func(batched bool, reuse func(root, a heap.Ref) wire.OpRecord) outcome {
		s, obs := observedSite(t)
		root := s.Root().Obj
		a, err := s.NewLocal(root)
		if err != nil {
			t.Fatal(err)
		}
		ops := []wire.BatchOp{
			{Op: wire.OpRecord{Kind: wire.OpDropRefs, Holder: root, Target: a}},
			{Op: reuse(s.Root(), a)},
		}
		if batched {
			_, err = s.ApplyBatch(ops)
		} else {
			for _, op := range ops {
				if _, err = s.ApplyBatch([]wire.BatchOp{op}); err != nil {
					break
				}
			}
		}
		if err != nil && !errors.Is(err, heap.ErrNoSuchObject) {
			t.Fatal(err)
		}
		_, objs := s.Snapshot()
		var slots []heap.Ref
		for _, o := range objs {
			if o.ID == root {
				slots = o.Slots
			}
		}
		return outcome{removed: obs.removed[a.Cluster], present: s.HasObject(a.Obj), failed: err != nil,
			rootSlots: slots, engine: s.EngineStats()}
	}
	for _, tc := range []struct {
		name   string
		reuse  func(root, a heap.Ref) wire.OpRecord
		failed bool
		slots  int
	}{
		{"re-add", func(root, a heap.Ref) wire.OpRecord {
			return wire.OpRecord{Kind: wire.OpAddRef, Holder: root.Obj, Target: a}
		}, false, 1},
		{"holder", func(_, a heap.Ref) wire.OpRecord {
			return wire.OpRecord{Kind: wire.OpNewLocal, Holder: a.Obj}
		}, true, 0},
		{"sender", func(root, a heap.Ref) wire.OpRecord {
			return wire.OpRecord{Kind: wire.OpSendRef, Holder: a.Obj, To: root, Target: a}
		}, true, 0},
	} {
		batched, singleton := result(true, tc.reuse), result(false, tc.reuse)
		if !batched.removed || batched.present || batched.failed != tc.failed || len(batched.rootSlots) != tc.slots {
			t.Errorf("%s: removed=%v present=%v failed=%v root slots %v; want removed, reclaimed, failed=%v, %d slot(s)",
				tc.name, batched.removed, batched.present, batched.failed, batched.rootSlots, tc.failed, tc.slots)
		}
		if !reflect.DeepEqual(batched, singleton) {
			t.Errorf("%s: batched %+v differs from singleton %+v", tc.name, batched, singleton)
		}
	}
}

// TestRecoverSlotIndicesExact: holes, a checkpoint, more AddRef and
// ClearSlot, then a crash. The recovered heap equals the live one slot
// for slot, and hands out the same next index.
func TestRecoverSlotIndicesExact(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	dir := t.TempDir()
	p := openPersist(t, dir, 1000)
	s1 := recoverSite(t, 1, net, p)
	root := s1.Root().Obj
	refs := make([]heap.Ref, 6)
	for i := range refs {
		var err error
		if refs[i], err = s1.NewLocal(root); err != nil {
			t.Fatal(err)
		}
	}
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustDo(s1.ClearSlot(root, 1))
	mustDo(s1.ClearSlot(root, 3))
	mustDo(s1.Checkpoint())
	if _, err := s1.NewLocal(root); err != nil { // fills slot 1
		t.Fatal(err)
	}
	mustDo(s1.ClearSlot(root, 5))                // trims to 5 slots
	mustDo(s1.AddRef(root, refs[2]))             // fills slot 3
	if _, err := s1.NewLocal(root); err != nil { // appends slot 5
		t.Fatal(err)
	}
	mustDo(s1.ClearSlot(root, 0))
	_, want := s1.Snapshot()
	crash(t, net, 1, p)

	r1 := recoverSite(t, 1, net, openPersist(t, dir, 1000))
	_, got := r1.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered heap differs:\n got %v\nwant %v", got, want)
	}
	next, err := r1.NewLocal(root)
	if err != nil {
		t.Fatal(err)
	}
	_, objs := r1.Snapshot()
	for _, o := range objs {
		if o.ID == root && (len(o.Slots) != 6 || o.Slots[0] != next) {
			t.Fatalf("recovered root took the next ref at the wrong index: %v", o.Slots)
		}
	}
}
