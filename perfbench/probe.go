package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"causalgc"
	"causalgc/transport"
)

// probe is the benchmark's Observer on every node of an episode. It
// timestamps GGD cluster removals, so the detection latency of each
// structure the client makes garbage can be measured, and counts local
// collections. Callbacks run under a node's lock: they only record.
type probe struct {
	mu          sync.Mutex
	removedAt   map[causalgc.ClusterID]time.Time
	watch       map[causalgc.ClusterID]*watched
	structures  []*watched
	collections int
	marked      int
}

// watched is one structure whose clusters must all be removed.
type watched struct {
	start     time.Time
	last      time.Time
	remaining int
	done      chan struct{}
}

func newProbe() *probe {
	return &probe{
		removedAt: make(map[causalgc.ClusterID]time.Time),
		watch:     make(map[causalgc.ClusterID]*watched),
	}
}

// ClusterRemoved records the removal time and settles any watch on it.
func (p *probe) ClusterRemoved(_ causalgc.SiteID, cl causalgc.ClusterID) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, seen := p.removedAt[cl]; seen {
		return // re-fired by a recovery replay
	}
	p.removedAt[cl] = now
	if w := p.watch[cl]; w != nil {
		delete(p.watch, cl)
		w.last = now
		w.remaining--
		if w.remaining == 0 {
			close(w.done)
		}
	}
}

// Collected counts one local mark-sweep.
func (p *probe) Collected(_ causalgc.SiteID, st causalgc.CollectStats) {
	p.mu.Lock()
	p.collections++
	p.marked += st.Marked
	p.mu.Unlock()
}

// arm watches the clusters of a structure that became garbage by the
// commit started at start. Clusters already removed (during that
// commit) count at their removal time.
func (p *probe) arm(start time.Time, clusters []causalgc.ClusterID) *watched {
	w := &watched{start: start, done: make(chan struct{})}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cl := range clusters {
		if t, ok := p.removedAt[cl]; ok {
			if t.After(w.last) {
				w.last = t
			}
			continue
		}
		w.remaining++
		p.watch[cl] = w
	}
	if w.remaining == 0 {
		close(w.done)
	}
	p.structures = append(p.structures, w)
	return w
}

// counts returns the collection counters.
func (p *probe) counts() (collections, marked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.collections, p.marked
}

// detections returns the detection latency of every reclaimed
// structure, and how many were not reclaimed within deadline.
func (p *probe) detections(deadline time.Duration) (latUS []float64, missed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.structures {
		if w.remaining > 0 || w.last.Sub(w.start) > deadline {
			missed++
			continue
		}
		latUS = append(latUS, us(w.last.Sub(w.start)))
	}
	return latUS, missed
}

// span is one traced call: a layer boundary crossed by the benchmark.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory per run; later ones are
// counted, not kept.
const maxSpans = 1 << 18

// recorder keeps the spans of a traced episode in memory. A nil
// recorder records nothing, so untraced episodes run the same code.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	next    uint64
	spans   []span
	dropped int
	byName  map[string][]float64 // span durations in µs, by name
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), byName: make(map[string][]float64)}
}

// newID reserves a span identifier, so a parent can be named before it
// ends. Zero for a nil recorder.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span; id 0 draws a fresh identifier.
func (r *recorder) add(id, parent uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.next++
		id = r.next
	}
	r.byName[name] = append(r.byName[name], us(end.Sub(start)))
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
}

// call times f, recording it as a span under parent when tracing.
func (r *recorder) call(name string, parent uint64, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	r.add(0, parent, name, t0, t1)
	return t1.Sub(t0), err
}

// durations returns the recorded durations (µs) of spans named name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.byName[name]...)
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// timedTransport wraps a transport so each delivery's handler time is
// recorded as a span. Payloads pass through untouched, so their Kind,
// ApproxSize and Application marker are exactly the inner transport's.
type timedTransport struct {
	transport.Transport
	rec *recorder
}

// Register installs h behind a timing shim.
func (t *timedTransport) Register(site causalgc.SiteID, h transport.Handler) {
	t.Transport.Register(site, func(from causalgc.SiteID, p transport.Payload) {
		t0 := time.Now()
		h(from, p)
		t.rec.add(0, 0, "site.deliver", t0, time.Now())
	})
}
