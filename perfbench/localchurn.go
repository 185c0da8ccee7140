package main

import (
	"math/rand"

	"causalgc"
)

// localChurn is one in-memory node with no peers. Each batch creates
// half its ops as NewLocal objects under randomly chosen long-lived
// holders and drops the oldest holdings with the other half, so the
// live window stays bounded: commit → heap apply → settle/mark-sweep,
// with no wire, persist, transport or cross-site GGD traffic.
type localChurn struct {
	holders []causalgc.Ref
	window  []holding
	rng     *rand.Rand
	batches int
}

// holding is one live reference the client keeps: holder index and
// target.
type holding struct {
	h   int
	ref causalgc.Ref
}

const (
	lcHolders = 16
	lcWindow  = 512
	lcBatch   = 32 // ops per batch: half creates, half drops
	lcBatches = 1024
)

func newLocalChurn(e *env, idx int) workload {
	w := &localChurn{rng: rand.New(rand.NewSource(e.seed*1000 + int64(idx))), batches: lcBatches}
	if e.tiny {
		w.batches = 24
	}
	return w
}

func (w *localChurn) setup(ep *episode) error {
	n := causalgc.NewNode(1, causalgc.WithObserver(ep.probe))
	ep.nodes = []*causalgc.Node{n}
	b := n.Batch()
	hs := make([]*causalgc.BatchRef, lcHolders)
	for i := range hs {
		hs[i] = b.NewLocal(b.Root())
	}
	if err := b.Commit(); err != nil {
		return err
	}
	for _, h := range hs {
		w.holders = append(w.holders, h.Ref())
	}
	// Fill the live window so the timed phase starts in steady state.
	for len(w.window) < lcWindow {
		b := n.Batch()
		created := w.creates(b, lcBatch)
		if err := b.Commit(); err != nil {
			return err
		}
		w.keep(created)
	}
	return nil
}

// creates stages k NewLocal ops under random holders.
func (w *localChurn) creates(b *causalgc.Batch, k int) []holdingRef {
	out := make([]holdingRef, k)
	for i := range out {
		h := w.rng.Intn(len(w.holders))
		out[i] = holdingRef{h: h, br: b.NewLocal(b.Ref(w.holders[h]))}
	}
	return out
}

// holdingRef is a staged holding, resolved after the commit.
type holdingRef struct {
	h  int
	br *causalgc.BatchRef
}

func (w *localChurn) keep(created []holdingRef) {
	for _, c := range created {
		w.window = append(w.window, holding{h: c.h, ref: c.br.Ref()})
	}
}

func (w *localChurn) load(ep *episode, parent uint64) error {
	n := ep.nodes[0]
	for i := 0; i < w.batches; i++ {
		b := n.Batch()
		created := w.creates(b, lcBatch/2)
		drops := w.window[:lcBatch/2]
		clusters := make([]causalgc.ClusterID, len(drops))
		for j, d := range drops {
			b.DropRefs(b.Ref(w.holders[d.h]), b.Ref(d.ref))
			clusters[j] = d.ref.Cluster
		}
		start := ep.commit(b, parent)
		ep.probe.arm(start, clusters)
		w.window = w.window[lcBatch/2:]
		w.keep(created)
	}
	return nil
}

func (w *localChurn) finish(ep *episode, parent uint64) error {
	for _, h := range w.holders {
		ep.captureLog(ep.nodes[0], h.Cluster)
	}
	ep.gate("local-churn")
	return nil
}
