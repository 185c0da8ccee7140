package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"causalgc"
	"causalgc/monitor"
	"causalgc/persist"
)

// durableChurn is three durable sites (WithPersistence in fresh
// directories, default per-commit fsync) over one Async transport. The
// client rotates over the sites; each batch mixes local creates, remote
// creates, a third-party SendRef, a cross-site 3-ring that becomes
// garbage in the same batch, and drops of the oldest holdings. Collect
// runs after every batch and Refresh every dcRefreshEvery batches. After
// the load and its quiesce, one site is crashed over a fixed replay
// tail and recovered: the write path (WAL append and fsync, gob
// encoding, checkpoints) and recovery.
type durableChurn struct {
	dir     string
	rng     *rand.Rand
	batches int

	holders [dcSites][]causalgc.Ref
	window  [dcSites][]holding
	opts    [dcSites][]causalgc.Option

	// Captured for the layer phase.
	wal      [][]byte
	snapshot []byte
}

const (
	dcSites        = 3
	dcHolders      = 8
	dcWindow       = 96 // live holdings per site
	dcBatches      = 240
	dcRefreshEvery = 64
	dcCrashSite    = 2
	dcTailBatches  = 64 // the replayed tail: local-create batches after a checkpoint
	dcTailCreates  = 4
)

func newDurableChurn(e *env, idx int) workload {
	w := &durableChurn{
		dir:     filepath.Join(e.work, fmt.Sprintf("durable-%d-%d", os.Getpid(), e.nextDir())),
		rng:     rand.New(rand.NewSource(e.seed*1000 + int64(idx))),
		batches: dcBatches,
	}
	if e.tiny {
		w.batches = 12
	}
	return w
}

func (w *durableChurn) setup(ep *episode) error {
	tr := ep.newTransport()
	for i := 0; i < dcSites; i++ {
		id := causalgc.SiteID(i + 1)
		w.opts[i] = []causalgc.Option{
			causalgc.WithPersistence(filepath.Join(w.dir, fmt.Sprintf("site-%d", id))),
			causalgc.WithTransport(tr),
			causalgc.WithObserver(ep.probe),
		}
		opts := w.opts[i]
		if ep.traced {
			opts = append(slices.Clone(opts), causalgc.WithMonitor(monitor.New(16)))
		}
		n, err := causalgc.Recover(id, opts...)
		if err != nil {
			return err
		}
		ep.nodes = append(ep.nodes, n)
	}
	for i, n := range ep.nodes {
		b := n.Batch()
		hs := make([]*causalgc.BatchRef, dcHolders)
		for j := range hs {
			hs[j] = b.NewLocal(b.Root())
		}
		if err := b.Commit(); err != nil {
			return err
		}
		for _, h := range hs {
			w.holders[i] = append(w.holders[i], h.Ref())
		}
	}
	// Fill every window with local and remote holdings, so the timed
	// phase starts in steady state.
	for i, n := range ep.nodes {
		for len(w.window[i]) < dcWindow {
			b := n.Batch()
			var staged []holdingRef
			for k := 0; k < 16; k++ {
				h := w.rng.Intn(dcHolders)
				var br *causalgc.BatchRef
				if k%3 == 0 {
					br = b.NewRemote(b.Ref(w.holders[i][h]), w.other(i))
				} else {
					br = b.NewLocal(b.Ref(w.holders[i][h]))
				}
				staged = append(staged, holdingRef{h: h, br: br})
			}
			if err := b.Commit(); err != nil {
				return err
			}
			w.keep(i, staged)
		}
	}
	ep.idle()
	return nil
}

// other picks a random site other than site index i.
func (w *durableChurn) other(i int) causalgc.SiteID {
	return causalgc.SiteID((i+1+w.rng.Intn(dcSites-1))%dcSites + 1)
}

func (w *durableChurn) keep(i int, staged []holdingRef) {
	for _, s := range staged {
		w.window[i] = append(w.window[i], holding{h: s.h, ref: s.br.Ref()})
	}
}

func (w *durableChurn) load(ep *episode, parent uint64) error {
	for k := 0; k < w.batches; k++ {
		i := k % dcSites
		n := ep.nodes[i]
		a := causalgc.SiteID((i+1)%dcSites + 1)
		c := causalgc.SiteID((i+2)%dcSites + 1)
		if w.rng.Intn(2) == 0 {
			a, c = c, a
		}
		b := n.Batch()
		holder := func() (int, *causalgc.BatchRef) {
			h := w.rng.Intn(dcHolders)
			return h, b.Ref(w.holders[i][h])
		}
		var staged []holdingRef
		for j := 0; j < 4; j++ {
			h, hr := holder()
			staged = append(staged, holdingRef{h: h, br: b.NewLocal(hr)})
		}
		for j := 0; j < 2; j++ {
			h, hr := holder()
			staged = append(staged, holdingRef{h: h, br: b.NewRemote(hr, w.other(i))})
		}
		// Third-party transfer: hand the object on c to the one on a.
		h, hr := holder()
		x, y := b.NewRemote(hr, a), b.NewRemote(hr, c)
		b.SendRef(hr, x, y)
		staged = append(staged, holdingRef{h: h, br: x}, holdingRef{h: h, br: y})
		// A cross-site 3-ring that is garbage once the batch commits.
		_, hr = holder()
		ring := []*causalgc.BatchRef{b.NewRemote(hr, a), b.NewRemote(hr, c), b.NewLocal(hr)}
		for j, r := range ring {
			b.SendRef(hr, r, ring[(j+1)%len(ring)])
		}
		for _, r := range ring {
			b.DropRefs(hr, r)
		}
		drops := w.window[i][:len(staged)]
		for _, d := range drops {
			b.DropRefs(b.Ref(w.holders[i][d.h]), b.Ref(d.ref))
		}
		start := ep.commit(b, parent)
		clusters := make([]causalgc.ClusterID, len(ring))
		for j, r := range ring {
			clusters[j] = r.Ref().Cluster
		}
		ep.probe.arm(start, clusters)
		w.window[i] = w.window[i][len(drops):]
		w.keep(i, staged)

		// Collecting after every batch lets a same-batch ring be
		// detected by the protocol instead of waiting on this loop's
		// cadence (README.md).
		ep.collectAll(parent)
		if (k+1)%dcRefreshEvery == 0 {
			ep.refreshAll(parent)
		}
	}
	return nil
}

// finish crashes one site over a fixed replay tail, recovers it, checks
// it holds its pre-crash objects, and settles the system again.
func (w *durableChurn) finish(ep *episode, parent uint64) error {
	for i, n := range ep.nodes {
		for _, h := range w.holders[i] {
			ep.captureLog(n, h.Cluster)
		}
	}
	ep.gate("durable-churn before crash")

	ci := dcCrashSite - 1
	n := ep.nodes[ci]
	if _, err := ep.rec.call("node.checkpoint", parent, n.Checkpoint); err != nil {
		ep.violate("checkpoint before crash: %v", err)
	}
	for k := 0; k < dcTailBatches; k++ {
		b := n.Batch()
		for j := 0; j < dcTailCreates; j++ {
			b.NewLocal(b.Ref(w.holders[ci][w.rng.Intn(dcHolders)]))
		}
		if err := b.Commit(); err != nil {
			ep.violate("tail commit: %v", err)
		}
	}
	ep.idle()
	before := objectIDs(n)
	if err := n.Close(); err != nil {
		ep.violate("crash close: %v", err)
	}

	mon := monitor.New(16)
	opts := append(slices.Clone(w.opts[ci]), causalgc.WithMonitor(mon))
	var rn *causalgc.Node
	d, err := ep.rec.call("node.recover", parent, func() error {
		var err error
		rn, err = causalgc.Recover(dcCrashSite, opts...)
		return err
	})
	if err != nil {
		return fmt.Errorf("recover site %d: %w", dcCrashSite, err)
	}
	ep.nodes[ci] = rn
	ep.recovery = d
	if ps := mon.Snapshot().Persist; ps != nil {
		ep.tailRecords = ps.RecoveredRecords
	}
	if after := objectIDs(rn); !slices.Equal(before, after) {
		ep.violate("recovered site %d holds %d objects, had %d before the crash", dcCrashSite, len(after), len(before))
	}
	if ep.settle(parent) == 0 {
		ep.violate("durable-churn: not clean within %d rounds after recovery", maxQuiesceRounds)
	}
	ep.gate("durable-churn after recovery")
	return nil
}

// capture reads back a surviving site's journal and snapshot for the
// layer phase; the nodes must be closed.
func (w *durableChurn) capture() error {
	st, err := persist.Open(filepath.Join(w.dir, "site-1"), persist.Options{NoSync: true})
	if err != nil {
		return err
	}
	w.wal = st.WAL()
	w.snapshot = st.Snapshot()
	return st.Close()
}

func (w *durableChurn) cleanup() { os.RemoveAll(w.dir) }

// persistTotals sums the live persist counters of the nodes that carry
// a monitor (traced episodes).
func persistTotals(nodes []*causalgc.Node) persist.Stats {
	var t persist.Stats
	for _, n := range nodes {
		m := n.Monitor()
		if m == nil {
			continue
		}
		ps := m.Snapshot().Persist
		if ps == nil {
			continue
		}
		t.Appends += ps.Appends
		t.Syncs += ps.Syncs
		t.SyncNanos += ps.SyncNanos
		t.SyncMaxNanos = max(t.SyncMaxNanos, ps.SyncMaxNanos)
		t.Snapshots += ps.Snapshots
	}
	return t
}
