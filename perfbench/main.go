// Command perfbench is the repository's benchmark: three closed-loop
// workloads driven by one client goroutine through the public causalgc
// API, each run as a sequence of fixed-size episodes (set-up, a timed
// load of a fixed op count, a quiesce to a verified clean state). See
// README.md for the workloads, the metrics and what each should move.
//
//	perfbench -root <checkout> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the JSON result; a correctness
// gate violation still prints it (with "correct": false) and exits 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload's client: it builds an episode's
// nodes, runs its fixed-size load, and ends it with its correctness
// gate. Workloads with durable sites also implement capturer.
type workload interface {
	setup(ep *episode) error
	load(ep *episode, parent uint64) error
	finish(ep *episode, parent uint64) error
}

// capturer is a workload that leaves a journal for the layer phase.
type capturer interface {
	capture() error
	cleanup()
}

type workloadSpec struct {
	name string
	make func(e *env, idx int) workload
}

var workloads = []workloadSpec{
	{"local-churn", newLocalChurn},
	{"cycle-detect", newCycleDetect},
	{"durable-churn", newDurableChurn},
}

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 7

func main() {
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	name := flag.String("workload", "", "workload: local-churn, cycle-detect or durable-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured time; whole episodes run until it is reached")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	spec, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res, err := run(spec, *root, *seed, time.Duration(*seconds)*time.Second, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	info, _ := json.Marshal(res.Info)
	fmt.Printf("info %s\n", info)
	out, _ := json.Marshal(res.Result)
	fmt.Println(string(out))
	if !res.Result.Correct {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "perfbench: gate: %s\n", v)
		}
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the run's verdict and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's result plus what is recorded beside it.
type report struct {
	Result     result
	Info       map[string]any
	Violations []string
}

// run measures one workload for the given time and reports its metrics.
func run(spec workloadSpec, root string, seed int64, budget time.Duration, trace, tiny bool) (*report, error) {
	work := filepath.Join(root, ".bench_build", "perfbench-work")
	if err := os.MkdirAll(work, 0o777); err != nil {
		return nil, err
	}
	e := &env{work: work, tiny: tiny, seed: seed}

	var plain, traced []*episode
	var setups []float64
	var last workload
	start := time.Now()
	for i := 0; ; i++ {
		tr := trace && i%2 == 1
		ep, w, err := runEpisode(spec, e, i, tr)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", spec.name, i, err)
		}
		setups = append(setups, ep.setup.Seconds())
		if tr {
			traced = append(traced, ep)
			last = w
		} else {
			plain = append(plain, ep)
		}
		if time.Since(start) >= budget && (!trace || len(traced) > 0) {
			break
		}
	}
	for k := 0; len(setups) < minSetups; k++ {
		s, err := setupOnly(spec, e, 1000+k)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setups = append(setups, s)
	}

	all := append(append([]*episode(nil), plain...), traced...)
	rep := &report{Info: map[string]any{}}
	for _, ep := range all {
		rep.Result.Attempted += ep.attempted
		rep.Result.Failed += ep.failed
		rep.Violations = append(rep.Violations, ep.violations...)
	}
	rep.Result.Correct = len(rep.Violations) == 0 && rep.Result.Failed == 0

	var m map[string]metric
	if trace {
		var err error
		m, err = layerMetrics(e, traced, plain, last)
		if err != nil {
			return nil, err
		}
		if err := writeSpans(root, spec.name, seed, traced); err != nil {
			return nil, err
		}
	} else {
		m = endToEnd(setups, plain, rep.Info)
	}
	rep.Result.Metrics = m
	describe(rep.Info, spec.name, seed, root, plain, traced, setups)
	return rep, nil
}

// runEpisode runs one fixed-size episode of a workload.
func runEpisode(spec workloadSpec, e *env, idx int, traced bool) (*episode, workload, error) {
	ep := newEpisode(traced)
	w := spec.make(e, idx)
	if c, ok := w.(capturer); ok {
		defer c.cleanup()
	}
	defer ep.closeNodes() // no-op once the episode closed them itself

	t := time.Now()
	if err := w.setup(ep); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	ep.setup = time.Since(t)

	ep.c0 = ep.counters()
	id := ep.rec.newID()
	t = time.Now()
	if err := w.load(ep, id); err != nil {
		return nil, nil, fmt.Errorf("load: %w", err)
	}
	ep.load = time.Since(t)
	ep.rec.add(id, 0, "episode.load", t, t.Add(ep.load))
	ep.cLoad = ep.counters()

	id = ep.rec.newID()
	t = time.Now()
	if ep.settle(id) == 0 {
		ep.violate("%s: not clean within %d quiesce rounds", spec.name, maxQuiesceRounds)
	}
	ep.quiesce = time.Since(t)
	ep.rec.add(id, 0, "episode.quiesce", t, t.Add(ep.quiesce))
	ep.cQuiet = ep.counters()

	id = ep.rec.newID()
	t = time.Now()
	if err := w.finish(ep, id); err != nil {
		return nil, nil, fmt.Errorf("finish: %w", err)
	}
	ep.rec.add(id, 0, "episode.finish", t, time.Now())

	lat, missed := ep.probe.detections(detectDeadline)
	ep.detectUS = lat
	ep.attempted += len(lat) + missed
	ep.failed += missed
	if missed > 0 {
		ep.violate("%s: %d structures not reclaimed within %v", spec.name, missed, detectDeadline)
	}
	ep.heapMB = liveHeapMB()
	ep.closeNodes()
	ep.probe = nil // keep only this episode's samples once it is over
	if c, ok := w.(capturer); ok && traced {
		if err := c.capture(); err != nil {
			return nil, nil, fmt.Errorf("capture: %w", err)
		}
	}
	return ep, w, nil
}

// setupOnly times one set-up and tears it down.
func setupOnly(spec workloadSpec, e *env, idx int) (float64, error) {
	ep := newEpisode(false)
	w := spec.make(e, idx)
	if c, ok := w.(capturer); ok {
		defer c.cleanup()
	}
	defer ep.closeNodes()
	t := time.Now()
	if err := w.setup(ep); err != nil {
		return 0, err
	}
	return time.Since(t).Seconds(), nil
}

// pooled concatenates one sample series over episodes.
func pooled(eps []*episode, get func(*episode) []float64) []float64 {
	var out []float64
	for _, ep := range eps {
		out = append(out, get(ep)...)
	}
	return out
}

// perEpisode maps episodes to one value each.
func perEpisode(eps []*episode, get func(*episode) float64) []float64 {
	out := make([]float64, len(eps))
	for i, ep := range eps {
		out[i] = get(ep)
	}
	return out
}

func opsPerS(ep *episode) float64 { return float64(ep.ops) / ep.load.Seconds() }

// gcMsgsPerCluster is the GGD protocol messages the engines sent —
// propagations, edge destructions and asserts, first sends and
// re-sends, to local and remote processes alike — per cluster removed,
// over load and quiesce.
func gcMsgsPerCluster(ep *episode) float64 {
	d := ep.cQuiet.minus(ep.c0).engine
	if d.Removed == 0 {
		return 0
	}
	return float64(d.PropagationsSent+d.DestroysSent+d.AssertsSent+d.AssertResends) / float64(d.Removed)
}

// episodeTail reports, over episodes, the median of each episode's
// median and of its tail percentile (the highest with at least ten of
// the episode's samples beyond it), with that percentile and the
// per-episode sample count.
func episodeTail(eps []*episode, get func(*episode) []float64) (p50, tail, pct float64, n int) {
	var mids, tails []float64
	for _, ep := range eps {
		xs := get(ep)
		p, v := tailPercentile(xs)
		mids, tails = append(mids, quantile(xs, 0.5)), append(tails, v)
		pct, n = p, len(xs)
	}
	return median(mids), median(tails), pct, n
}

// endToEnd computes the untraced run's metrics. Every value is a
// median over the run's episodes, so a disturbance that hits one
// episode does not move it. The tails, quiesce_s and recovery_s go to
// the info line (see README.md for why they carry no bound).
func endToEnd(setups []float64, eps []*episode, info map[string]any) map[string]metric {
	c50, c99, cp, cn := episodeTail(eps, func(ep *episode) []float64 { return ep.commitUS })
	d50, d99, dp, dn := episodeTail(eps, func(ep *episode) []float64 { return ep.detectUS })
	info["commit_samples_per_episode"], info["commit_tail_pct"] = cn, cp
	info["detect_samples_per_episode"], info["detect_tail_pct"] = dn, dp
	reported := map[string]metric{
		"commit_p99_us": {c99, "us"},
		"detect_p99_us": {d99, "us"},
		"quiesce_s":     {medianQuiesce(eps), "s"},
	}
	if rec := recoveries(eps); len(rec) > 0 {
		reported["recovery_s"] = metric{median(rec), "s"}
	}
	info["reported"] = reported
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"ops_per_s":           {median(perEpisode(eps, opsPerS)), "1/s"},
		"commit_p50_us":       {c50, "us"},
		"detect_p50_us":       {d50, "us"},
		"gc_msgs_per_cluster": {median(perEpisode(eps, gcMsgsPerCluster)), "msgs/cluster"},
		"go_heap_mb":          {median(perEpisode(eps, func(ep *episode) float64 { return ep.heapMB })), "MB"},
	}
}

func medianQuiesce(eps []*episode) float64 {
	return median(perEpisode(eps, func(ep *episode) float64 { return ep.quiesce.Seconds() }))
}

// recoveries lists the Recover times of the episodes that crashed a
// site.
func recoveries(eps []*episode) []float64 {
	var out []float64
	for _, ep := range eps {
		if ep.tailRecords > 0 {
			out = append(out, ep.recovery.Seconds())
		}
	}
	return out
}

// describe records the run's environment and sizes beside the result.
func describe(info map[string]any, name string, seed int64, root string, plain, traced []*episode, setups []float64) {
	info["workload"] = name
	info["seed"] = seed
	info["nproc"] = runtime.NumCPU()
	info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	info["go"] = runtime.Version()
	info["commit"] = vcsRevision()
	info["source_sha256"] = sourceHash(root)
	info["episodes"] = len(plain)
	info["traced_episodes"] = len(traced)
	info["setups"] = len(setups)
	all := append(append([]*episode(nil), plain...), traced...)
	if len(all) > 0 {
		info["ops_per_episode"] = all[0].ops
	}
	var tail []float64
	for _, ep := range all {
		if ep.tailRecords > 0 {
			tail = append(tail, float64(ep.tailRecords))
		}
	}
	if len(tail) > 0 {
		info["replayed_tail_records"] = median(tail)
	}
}

// vcsRevision is the commit the binary was built from, when the build
// saw a repository.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash identifies the measured source tree when no commit hash is
// available: SHA-256 over the paths and contents of the checkout's Go
// sources and go.mod files.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeSpans writes every traced episode's spans as JSON lines.
func writeSpans(root, name string, seed int64, traced []*episode) error {
	dir := filepath.Join(root, ".bench_build", "perfbench-trace")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	for i, ep := range traced {
		if err := ep.rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d-ep%d.jsonl", name, seed, i))); err != nil {
			return err
		}
	}
	return nil
}
