package main

import (
	"math/rand"
	"time"

	"causalgc"
)

// cycleDetect is four in-memory sites over one Async transport. From
// site 1 the client builds a distributed structure in one batch —
// NewRemote elements on sites 2–4 linked by third-party SendRefs,
// alternately an 8-element ring and an 8-element doubly-linked list —
// waits for quiescence, detaches it in one batch and waits until every
// element's cluster is removed: GGD detection, with a tiny heap and no
// journal.
type cycleDetect struct {
	rng        *rand.Rand
	structures int
}

const (
	cdSites      = 4
	cdElems      = 8
	cdStructures = 500
	cdLogEvery   = 16 // capture element logs of every 16th structure
)

func newCycleDetect(e *env, idx int) workload {
	w := &cycleDetect{rng: rand.New(rand.NewSource(e.seed*1000 + int64(idx))), structures: cdStructures}
	if e.tiny {
		w.structures = 6
	}
	return w
}

func (w *cycleDetect) setup(ep *episode) error {
	tr := ep.newTransport()
	for id := 1; id <= cdSites; id++ {
		ep.nodes = append(ep.nodes, causalgc.NewNode(causalgc.SiteID(id),
			causalgc.WithTransport(tr), causalgc.WithObserver(ep.probe)))
	}
	return nil
}

func (w *cycleDetect) load(ep *episode, parent uint64) error {
	n := ep.nodes[0]
	for s := 0; s < w.structures; s++ {
		b := n.Batch()
		root := b.Root()
		elems := make([]*causalgc.BatchRef, cdElems)
		for i := range elems {
			elems[i] = b.NewRemote(root, causalgc.SiteID(2+w.rng.Intn(cdSites-1)))
		}
		for i := range elems {
			if s%2 == 0 { // ring
				b.SendRef(root, elems[i], elems[(i+1)%cdElems])
			} else if i+1 < cdElems { // doubly-linked list
				b.SendRef(root, elems[i], elems[i+1])
				b.SendRef(root, elems[i+1], elems[i])
			}
		}
		ep.commit(b, parent)
		ep.idle()
		if s%cdLogEvery == 0 {
			for _, e := range elems {
				ep.captureLog(ep.nodes[e.Ref().Cluster.Site-1], e.Ref().Cluster)
			}
		}

		d := n.Batch()
		clusters := make([]causalgc.ClusterID, cdElems)
		for i, e := range elems {
			d.DropRefs(d.Root(), d.Ref(e.Ref()))
			clusters[i] = e.Ref().Cluster
		}
		start := ep.commit(d, parent)
		wt := ep.probe.arm(start, clusters)
		select {
		case <-wt.done:
		case <-time.After(detectDeadline):
			// Counted as missed by probe.detections.
		}
	}
	return nil
}

func (w *cycleDetect) finish(ep *episode, parent uint64) error {
	ep.gate("cycle-detect")
	return nil
}
