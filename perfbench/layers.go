package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"causalgc/internal/wire"
	"causalgc/persist"
)

// maxAppendProbe bounds how many captured WAL payloads are re-appended
// to a fresh store by the persist layer phase.
const maxAppendProbe = 256

// layerMetrics computes the traced run's per-layer metrics: counters
// and spans recorded around the calls into each layer during the
// traced episodes, then a layer phase that times the wire, persist and
// vclock public functions on the data those episodes left behind.
func layerMetrics(e *env, traced, plain []*episode, last workload) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	perOp := func(ep *episode, get func(counters) int) float64 {
		return float64(get(ep.cLoad.minus(ep.c0))) / float64(ep.ops)
	}
	perCluster := func(get func(counters) int) float64 {
		return median(perEpisode(traced, func(ep *episode) float64 {
			d := ep.cQuiet.minus(ep.c0)
			if d.engine.Removed == 0 {
				return 0
			}
			return float64(get(d)) / float64(d.engine.Removed)
		}))
	}
	spans := func(name string) []float64 {
		return pooled(traced, func(ep *episode) []float64 { return ep.rec.durations(name) })
	}

	_, c99, _, _ := episodeTail(traced, func(ep *episode) []float64 { return ep.commitUS })
	_, d99, _, _ := episodeTail(traced, func(ep *episode) []float64 { return ep.detectUS })
	set("causalgc.commit_p99_us", "us", c99)
	set("causalgc.detect_p99_us", "us", d99)
	set("causalgc.quiesce_s", "s", medianQuiesce(traced))
	set("trace.ops_per_s_ratio", "ratio", median(perEpisode(plain, opsPerS))/median(perEpisode(traced, opsPerS)))
	set("causalgc.commit_drift", "ratio", median(perEpisode(traced, func(ep *episode) float64 { return drift(ep.commitUS) })))

	set("heap.collections_per_op", "count/op", median(perEpisode(traced, func(ep *episode) float64 {
		return perOp(ep, func(c counters) int { return c.coll })
	})))
	set("heap.marked_per_op", "objects/op", median(perEpisode(traced, func(ep *episode) float64 {
		return perOp(ep, func(c counters) int { return c.marked })
	})))

	deliver := spans("site.deliver")
	set("site.deliver_p50_us", "us", quantile(deliver, 0.5))
	_, v := tailPercentile(deliver)
	set("site.deliver_p99_us", "us", v)
	set("site.collect_us", "us", mean(spans("node.collect")))
	set("site.refresh_us", "us", mean(spans("node.refresh")))
	set("site.checkpoint_us", "us", mean(spans("node.checkpoint")))
	var perRecord []float64
	for _, ep := range traced {
		if ep.tailRecords > 0 {
			perRecord = append(perRecord, us(ep.recovery)/float64(ep.tailRecords))
		}
	}
	set("recovery_s", "s", median(recoveries(traced)))
	set("site.replay_us_per_record", "us", median(perRecord))

	set("core.props_per_cluster", "msgs/cluster", perCluster(func(c counters) int { return c.engine.PropagationsSent }))
	set("core.destroys_per_cluster", "msgs/cluster", perCluster(func(c counters) int { return c.engine.DestroysSent }))
	set("core.asserts_per_cluster", "msgs/cluster", perCluster(func(c counters) int { return c.engine.AssertsSent + c.engine.AssertResends }))
	set("core.evaluations_per_cluster", "count/cluster", perCluster(func(c counters) int { return c.engine.Evaluations }))
	set("core.resends_per_refresh", "msgs/round", median(perEpisode(traced, func(ep *episode) float64 {
		if ep.refreshes == 0 {
			return 0
		}
		d := ep.cQuiet.minus(ep.c0)
		return float64(d.engine.AssertResends+d.engine.DestroyResends+d.engine.LegacyResends+d.frames.OutboxResends) / float64(ep.refreshes)
	})))

	set("transport.msgs_per_op", "msgs/op", median(perEpisode(traced, func(ep *episode) float64 {
		return perOp(ep, func(c counters) int { return c.sent })
	})))
	set("transport.bytes_per_op", "B/op", median(perEpisode(traced, func(ep *episode) float64 {
		return perOp(ep, func(c counters) int { return c.bytes })
	})))
	set("transport.ggd_msgs_per_cluster", "msgs/cluster", perCluster(func(c counters) int { return c.ggd }))

	set("persist.syncs_per_commit", "count/commit", median(perEpisode(traced, func(ep *episode) float64 {
		return float64(ep.cLoad.minus(ep.c0).persist.Syncs) / float64(len(ep.commitUS))
	})))
	set("persist.fsync_mean_us", "us", median(perEpisode(traced, func(ep *episode) float64 {
		d := ep.cLoad.minus(ep.c0).persist
		if d.Syncs == 0 {
			return 0
		}
		return float64(d.SyncNanos) / float64(d.Syncs) / 1e3
	})))
	set("persist.fsync_max_us", "us", median(perEpisode(traced, func(ep *episode) float64 {
		return float64(ep.cLoad.persist.SyncMaxNanos) / 1e3
	})))
	set("persist.snapshots", "count", median(perEpisode(traced, func(ep *episode) float64 {
		return float64(ep.cLoad.minus(ep.c0).persist.Snapshots)
	})))

	closure, width := vclockPhase(traced[len(traced)-1].logs)
	set("vclock.closure_us", "us", closure)
	set("vclock.log_width", "processes", width)

	wm, err := wirePhase(e, last)
	if err != nil {
		return nil, err
	}
	for k, v := range wm {
		m[k] = v
	}
	return m, nil
}

// vclockPhase times Log.Closure over the captured log clones, repeating
// the set until it has run for at least 20 ms, and returns the mean
// time per closure and the mean processes per log.
func vclockPhase(logs []capturedLog) (closureUS, width float64) {
	if len(logs) == 0 {
		return 0, 0
	}
	for _, l := range logs {
		width += float64(len(l.log.Processes()))
	}
	width /= float64(len(logs))
	n := 0
	t := time.Now()
	for time.Since(t) < 20*time.Millisecond {
		for _, l := range logs {
			l.log.Closure(l.clock)
		}
		n += len(logs)
	}
	return us(time.Since(t)) / float64(n), width
}

// wirePhase measures the wire and persist layers on a durable
// workload's captured journal and snapshot; other workloads journal
// nothing and report zeros.
func wirePhase(e *env, last workload) (map[string]metric, error) {
	m := map[string]metric{}
	names := []struct{ name, unit string }{
		{"wire.record_bytes", "B"}, {"wire.encode_ns_per_record", "ns"}, {"wire.encode_allocs_per_record", "allocs"},
		{"wire.decode_ns_per_record", "ns"}, {"wire.decode_allocs_per_record", "allocs"},
		{"wire.snapshot_bytes", "B"}, {"wire.snapshot_decode_ms", "ms"}, {"heap.slots_per_object", "slots/object"},
		{"persist.append_p50_us", "us"}, {"persist.append_p99_us", "us"},
	}
	for _, n := range names {
		m[n.name] = metric{0, n.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	dc, ok := last.(*durableChurn)
	if !ok || len(dc.wal) == 0 {
		return m, nil
	}

	var bytes int
	recs := make([]*wire.WALRecord, len(dc.wal))
	ns, allocs, err := measure(func() error {
		for i, p := range dc.wal {
			r, err := wire.DecodeRecord(p)
			if err != nil {
				return err
			}
			recs[i] = r
			bytes += len(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(dc.wal))
	set("wire.record_bytes", float64(bytes)/n)
	set("wire.decode_ns_per_record", ns/n)
	set("wire.decode_allocs_per_record", allocs/n)
	ns, allocs, err = measure(func() error {
		for _, r := range recs {
			if _, err := wire.EncodeRecord(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	set("wire.encode_ns_per_record", ns/n)
	set("wire.encode_allocs_per_record", allocs/n)

	if len(dc.snapshot) > 0 {
		set("wire.snapshot_bytes", float64(len(dc.snapshot)))
		var img *wire.SiteImage
		var times []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			var err error
			if img, err = wire.DecodeSnapshot(dc.snapshot); err != nil {
				return nil, err
			}
			times = append(times, float64(time.Since(t))/1e6)
		}
		set("wire.snapshot_decode_ms", median(times))
		slots := 0
		for _, o := range img.Heap.Objects {
			slots += len(o.Slots)
		}
		if len(img.Heap.Objects) > 0 {
			set("heap.slots_per_object", float64(slots)/float64(len(img.Heap.Objects)))
		}
	}

	var st *persist.Store
	dir := filepath.Join(e.work, "append-probe")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	st, err = persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	var appends []float64
	for i, p := range dc.wal {
		if i == maxAppendProbe {
			break
		}
		t := time.Now()
		if err := st.Append(p); err != nil {
			st.Close()
			return nil, err
		}
		appends = append(appends, us(time.Since(t)))
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	set("persist.append_p50_us", quantile(appends, 0.5))
	_, v := tailPercentile(appends)
	set("persist.append_p99_us", v)
	return m, nil
}

// measure runs f once and returns its wall time in ns and the heap
// allocations it made.
func measure(f func() error) (ns, allocs float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	err = f()
	d := time.Since(t)
	runtime.ReadMemStats(&b)
	return float64(d), float64(b.Mallocs - a.Mallocs), err
}
