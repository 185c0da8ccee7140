package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"causalgc"
	"causalgc/persist"
	"causalgc/transport"
)

// detectDeadline bounds how long a structure made garbage may take to be
// reclaimed; a later or missing reclamation fails the structure.
const detectDeadline = 5 * time.Second

// maxQuiesceRounds bounds the Collect/Refresh rounds that drive a system
// to its clean state after the load.
const maxQuiesceRounds = 40

// env is what every episode of one run shares.
type env struct {
	work string // scratch directory inside the checkout
	tiny bool   // test-sized episodes
	seed int64
	dirs int
}

// nextDir numbers a fresh scratch subdirectory.
func (e *env) nextDir() int {
	e.dirs++
	return e.dirs
}

// episode is the record of one fixed-size episode: set-up, a timed load
// of a fixed op count, and a quiesce to a clean, verified state.
type episode struct {
	traced bool
	rec    *recorder
	probe  *probe

	nodes []*causalgc.Node
	async *transport.Async // the shared in-memory transport, if any

	setup, load, quiesce time.Duration

	ops        int
	commitUS   []float64
	detectUS   []float64
	attempted  int
	failed     int
	violations []string
	heapMB     float64

	// Counter snapshots at the start of the load, its end, and the end
	// of the quiesce.
	c0, cLoad, cQuiet counters
	refreshes         int

	// durable-churn: Recover time of the crashed site and the WAL
	// records it replayed.
	recovery    time.Duration
	tailRecords int

	logs []capturedLog // traced: logs for the vclock layer phase
}

func newEpisode(traced bool) *episode {
	ep := &episode{traced: traced, probe: newProbe()}
	if traced {
		ep.rec = newRecorder()
	}
	return ep
}

// newTransport creates the episode's shared in-memory transport,
// wrapped for delivery timing when traced.
func (ep *episode) newTransport() transport.Transport {
	ep.async = transport.NewAsync(transport.Faults{})
	if ep.traced {
		return &timedTransport{Transport: ep.async, rec: ep.rec}
	}
	return ep.async
}

// violate records a correctness-gate violation.
func (ep *episode) violate(format string, args ...any) {
	ep.violations = append(ep.violations, fmt.Sprintf(format, args...))
}

// commit times one batch commit as a sample of the load and returns
// when it started.
func (ep *episode) commit(b *causalgc.Batch, parent uint64) time.Time {
	nops := b.Len()
	start := time.Now()
	_, err := ep.rec.call("batch.commit", parent, b.Commit)
	ep.commitUS = append(ep.commitUS, us(time.Since(start)))
	ep.ops += nops
	ep.attempted += nops
	if err != nil {
		ep.failed += nops
		ep.violate("commit of %d ops: %v", nops, err)
	}
	return start
}

// idle waits until the episode's transport has delivered everything:
// the shared one, or each node's private one.
func (ep *episode) idle() {
	if ep.async != nil {
		ep.async.Quiesce()
		return
	}
	for _, n := range ep.nodes {
		if q, ok := n.Transport().(interface{ Quiesce() }); ok {
			q.Quiesce()
		}
	}
}

// collectAll runs Collect on every node, traced as node.collect.
func (ep *episode) collectAll(parent uint64) {
	for _, n := range ep.nodes {
		if _, err := ep.rec.call("node.collect", parent, func() error {
			_, err := n.Collect()
			return err
		}); err != nil {
			ep.violate("collect on site %v: %v", n.ID(), err)
		}
	}
}

// refreshAll runs one Refresh round on every node, traced as
// node.refresh.
func (ep *episode) refreshAll(parent uint64) {
	ep.refreshes++
	for _, n := range ep.nodes {
		if _, err := ep.rec.call("node.refresh", parent, n.Refresh); err != nil {
			ep.violate("refresh on site %v: %v", n.ID(), err)
		}
	}
}

// drained reports whether the system is clean: the oracle finds no
// garbage and no dangling reference, and no node retains unacknowledged
// mutator frames.
func (ep *episode) drained() bool {
	if !causalgc.Check(ep.nodes...).Clean() {
		return false
	}
	for _, n := range ep.nodes {
		if n.FrameStats().OutboxRetained != 0 {
			return false
		}
	}
	return true
}

// settle drives Collect/Refresh rounds until the system is clean, at
// least one round, and reports the rounds it took (0 when it never got
// clean).
func (ep *episode) settle(parent uint64) int {
	for round := 1; round <= maxQuiesceRounds; round++ {
		ep.collectAll(parent)
		ep.refreshAll(parent)
		ep.idle()
		if ep.drained() {
			return round
		}
	}
	return 0
}

// gate checks the correctness gate every workload ends with.
func (ep *episode) gate(what string) {
	rep := causalgc.Check(ep.nodes...)
	if len(rep.Garbage) != 0 || len(rep.Dangling) != 0 {
		ep.violate("%s: oracle %v", what, rep)
	}
	for _, n := range ep.nodes {
		fs, es := n.FrameStats(), n.Stats()
		if fs.OutboxRetained != 0 || fs.OutboxEvicted != 0 {
			ep.violate("%s: site %v outbox retained=%d evicted=%d", what, n.ID(), fs.OutboxRetained, fs.OutboxEvicted)
		}
		if es.AssertRowsDropped != 0 || es.LegacyEvicted != 0 {
			ep.violate("%s: site %v assert rows dropped=%d legacy evicted=%d", what, n.ID(), es.AssertRowsDropped, es.LegacyEvicted)
		}
	}
}

// counters sums the nodes' engine and frame counters and the transport's
// GGD sends.
type counters struct {
	engine       causalgc.EngineStats
	frames       causalgc.FrameStats
	ggd          int
	sent, bytes  int
	coll, marked int
	persist      persist.Stats
}

func (ep *episode) counters() counters {
	var c counters
	for _, n := range ep.nodes {
		e, f := n.Stats(), n.FrameStats()
		c.engine.Removed += e.Removed
		c.engine.Evaluations += e.Evaluations
		c.engine.PropagationsSent += e.PropagationsSent
		c.engine.DestroysSent += e.DestroysSent
		c.engine.AssertsSent += e.AssertsSent
		c.engine.AssertResends += e.AssertResends
		c.engine.DestroyResends += e.DestroyResends
		c.engine.LegacyResends += e.LegacyResends
		c.frames.OutboxResends += f.OutboxResends
	}
	if ep.async != nil {
		st := ep.async.Stats()
		for kind, k := range st.Snapshot() {
			if strings.HasPrefix(kind, "ggd.") {
				c.ggd += k.Sent
			}
		}
		c.sent, c.bytes = st.TotalSent(), st.TotalBytes()
	}
	c.coll, c.marked = ep.probe.counts()
	c.persist = persistTotals(ep.nodes)
	return c
}

// minus returns the counter deltas c - o.
func (c counters) minus(o counters) counters {
	d := c
	d.engine.Removed -= o.engine.Removed
	d.engine.Evaluations -= o.engine.Evaluations
	d.engine.PropagationsSent -= o.engine.PropagationsSent
	d.engine.DestroysSent -= o.engine.DestroysSent
	d.engine.AssertsSent -= o.engine.AssertsSent
	d.engine.AssertResends -= o.engine.AssertResends
	d.engine.DestroyResends -= o.engine.DestroyResends
	d.engine.LegacyResends -= o.engine.LegacyResends
	d.frames.OutboxResends -= o.frames.OutboxResends
	d.ggd -= o.ggd
	d.sent -= o.sent
	d.bytes -= o.bytes
	d.coll -= o.coll
	d.marked -= o.marked
	d.persist.Appends -= o.persist.Appends
	d.persist.Syncs -= o.persist.Syncs
	d.persist.SyncNanos -= o.persist.SyncNanos
	d.persist.Snapshots -= o.persist.Snapshots
	return d
}

// liveHeapMB forces a collection and returns the live Go heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// objectIDs lists a node's live object identifiers in identifier order.
func objectIDs(n *causalgc.Node) []causalgc.ObjectID {
	var ids []causalgc.ObjectID
	for _, r := range n.Objects() {
		ids = append(ids, r.Obj)
	}
	return ids
}

// closeNodes closes the episode's nodes and transport.
func (ep *episode) closeNodes() {
	for _, n := range ep.nodes {
		n.Close()
	}
	if ep.async != nil {
		ep.async.Close()
	}
	// Drop the closed system so later episodes measure only their own.
	ep.nodes, ep.async = nil, nil
}

// capturedLog is a cloned global-root log and its owner's clock.
type capturedLog struct {
	log   *causalgc.Log
	clock uint64
}

// captureLog clones a cluster's log for the layer phase (traced only).
func (ep *episode) captureLog(n *causalgc.Node, cl causalgc.ClusterID) {
	if !ep.traced {
		return
	}
	if l := n.LogSnapshot(cl); l != nil {
		ep.logs = append(ep.logs, capturedLog{log: l, clock: n.Clock(cl)})
	}
}
