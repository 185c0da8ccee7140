package site

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
)

// This file implements the lock-striped sharded site (DESIGN.md §3.4).
// A Sharded composes N full Runtimes — each owning a partition of the
// site's clusters under its own mutex — behind the same public API as
// an unsharded Runtime. The shards share the site identity, the
// identity mint (heap.Counters plus the remote-creation mint), the
// retirement-stream table (streams), and one Persist journal; they
// interact only through the ordered cross-shard handoff queues, where
// a sibling shard is addressed exactly like a reliable remote peer:
// frames are journaled before they enter a queue, retained in the
// sending shard's outbox, and retired by the ordinary FrameAck path.
//
// Routing rule: a local cluster belongs to the shard recorded at its
// placement (round-robin for clusters minted under the root cluster,
// the executing shard otherwise); the site's root cluster belongs to
// shard 0; an unknown local cluster hashes deterministically. Objects
// follow their cluster and never migrate.
//
// Lock order: ckptMu → shards[0].mu → … → shards[N-1].mu → st.mu /
// Persist.mu / handoff listMu (leaves). A single operation holds ONE
// shard lock; only the stop-the-world checkpoint holds them all, in
// ascending index order.

// Instance is the site abstraction the Node layer drives: implemented
// by both the unsharded *Runtime and the lock-striped *Sharded.
type Instance interface {
	ID() ids.SiteID
	Root() heap.Ref
	Close()

	NewLocal(holder ids.ObjectID) (heap.Ref, error)
	NewLocalIn(holder ids.ObjectID, cl ids.ClusterID) (heap.Ref, error)
	NewCluster() (ids.ClusterID, error)
	NewRemote(holder ids.ObjectID, target ids.SiteID) (heap.Ref, error)
	SendRef(fromObj ids.ObjectID, to heap.Ref, target heap.Ref) error
	AddRef(holder ids.ObjectID, target heap.Ref) error
	DropRefs(holder ids.ObjectID, target heap.Ref) error
	ClearSlot(holder ids.ObjectID, slot int) error
	ApplyBatch(ops []wire.BatchOp) ([]heap.Ref, error)

	Collect() (heap.CollectStats, error)
	Refresh() error
	Checkpoint() error

	NumObjects() int
	NumSlots() int
	HasObject(obj ids.ObjectID) bool
	ClusterRemoved(cl ids.ClusterID) bool
	EngineStats() core.Stats
	FrameStats() FrameStats
	Depths() Depths
	LogSnapshot(cl ids.ClusterID) *vclock.Log
	Clock(cl ids.ClusterID) uint64
	Snapshot() (ids.ObjectID, []ObjectSnapshot)
}

var (
	_ Instance = (*Runtime)(nil)
	_ Instance = (*Sharded)(nil)
)

// handoffQueue is the ordered cross-shard delivery queue of one
// destination shard. listMu guards the item list and is a leaf lock
// (enqueues happen under the sending shard's mutex); deliverMu
// serialises drainers so the destination shard processes its queue in
// FIFO order — the "ordered handoff" of the tentpole: within one
// queue, frames are delivered in the order the causal stamps were
// assigned by their senders.
type handoffQueue struct {
	listMu    sync.Mutex
	items     []netsim.Payload
	deliverMu sync.Mutex
}

func (q *handoffQueue) push(p netsim.Payload) {
	q.listMu.Lock()
	q.items = append(q.items, p)
	q.listMu.Unlock()
}

func (q *handoffQueue) pop() (netsim.Payload, bool) {
	q.listMu.Lock()
	defer q.listMu.Unlock()
	if len(q.items) == 0 {
		return nil, false
	}
	p := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return p, true
}

func (q *handoffQueue) depth() int {
	q.listMu.Lock()
	defer q.listMu.Unlock()
	return len(q.items)
}

// Sharded is a lock-striped site: N shard Runtimes behind one site
// identity. See the file comment for the architecture.
type Sharded struct {
	id   ids.SiteID
	net  netsim.Network
	opts Options
	n    int

	shards []*Runtime
	st     *streams
	ctr    *heap.Counters
	queues []*handoffQueue

	// journal is the single shared Persist (nil for a volatile site).
	// Shards append to it directly; snapshots go through the
	// stop-the-world checkpoint below, never through a single shard.
	journal *Persist

	// objMap routes objects to shards (ids.ObjectID → int), maintained
	// by each shard heap's object tracker. cluMap routes local clusters
	// (ids.ClusterID → int), appended at placement time and never
	// shrunk: a removed cluster keeps routing to the shard holding its
	// tombstone, so zombie-drop and stale-delivery logic fire on the
	// right engine.
	objMap sync.Map
	cluMap sync.Map

	// rr is the round-robin placement cursor for clusters minted under
	// the root cluster (persisted as SiteImage.PlaceRR).
	rr atomic.Uint64

	// ckptMu serialises stop-the-world checkpoints; cycleMu serialises
	// the site-wide Collect/Refresh cycles (their journal records must
	// not interleave with each other's shard sweeps).
	ckptMu  sync.Mutex
	cycleMu sync.Mutex

	// replaying mirrors the shards' flags during RecoverSharded.
	replaying bool
}

// NewSharded creates a volatile sharded site with n shards (n < 1 is
// clamped to 1) and registers it on the network. For a durable site
// use RecoverSharded.
func NewSharded(id ids.SiteID, net netsim.Network, opts Options, n int) *Sharded {
	s := buildSharded(id, net, opts, n)
	for i := 0; i < s.n; i++ {
		s.shards[i] = newShardRuntime(id, net, opts, s.st, s.ctr, s.hooksFor(i))
		s.installTracker(i)
	}
	s.objMap.Store(s.shards[0].heap.RootObject(), 0)
	net.Register(id, s.handleNet)
	return s
}

func buildSharded(id ids.SiteID, net netsim.Network, opts Options, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{
		id:     id,
		net:    net,
		opts:   opts,
		n:      n,
		shards: make([]*Runtime, n),
		st:     newStreams(),
		ctr:    heap.NewCounters(),
		queues: make([]*handoffQueue, n),
	}
	for i := range s.queues {
		s.queues[i] = &handoffQueue{}
	}
	return s
}

// hooksFor builds the sharding callbacks binding shard i to this
// composition.
func (s *Sharded) hooksFor(i int) *shardHooks {
	return &shardHooks{
		index: i,
		owns: func(cl ids.ClusterID) bool {
			return cl.Site == s.id && s.clusterShardIdx(cl) == i
		},
		place: func(newClu, holderClu ids.ClusterID, pin bool) int {
			return s.placeCluster(newClu, holderClu, i, pin)
		},
		clusterShard: s.clusterShardIdx,
		placed: func(cl ids.ClusterID, place int) {
			s.cluMap.Store(cl, place-1)
		},
		route: s.enqueue,
	}
}

// installTracker wires shard i's heap into the object routing map.
func (s *Sharded) installTracker(i int) {
	idx := i
	s.shards[i].heap.SetObjectTracker(func(obj ids.ObjectID, alive bool) {
		if alive {
			s.objMap.Store(obj, idx)
		} else {
			s.objMap.Delete(obj)
		}
	})
}

// clusterShardIdx answers the routing shard of a same-site cluster:
// the root cluster is shard 0's, placed clusters route by the
// placement map, anything else (a cluster minted remotely on this
// site's behalf, a pre-shard legacy identity) hashes deterministically
// so every shard — and every recovery — agrees without coordination.
func (s *Sharded) clusterShardIdx(cl ids.ClusterID) int {
	if s.n == 1 {
		return 0
	}
	if cl.Root {
		return 0
	}
	if v, ok := s.cluMap.Load(cl); ok {
		return v.(int)
	}
	return int(hashCluster(cl) % uint64(s.n))
}

// hashCluster is a fixed splitmix64-style mix: the fallback routing
// hash must be identical across runs and across recoveries.
func hashCluster(cl ids.ClusterID) uint64 {
	x := cl.Seq ^ (uint64(cl.Site) << 32) ^ 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// placeCluster decides and records the placement of a freshly minted
// local cluster. Clusters minted under the root cluster spread
// round-robin (they are the anchors parallel mutators fan out from);
// everything else stays with the executing shard for locality. pin
// forces the executing shard (multi-op batches).
func (s *Sharded) placeCluster(newClu, holderClu ids.ClusterID, executing int, pin bool) int {
	idx := executing
	if !pin && holderClu.Root {
		idx = int(s.rr.Add(1)-1) % s.n
	}
	s.cluMap.Store(newClu, idx)
	return idx + 1
}

// enqueue routes one self-addressed frame into the handoff queues.
// Acknowledgement frames fan out to every shard — the shared stream
// watermark is cumulative across shards, and retirement is idempotent,
// so each shard retires its own covered rows. Called under the sending
// shard's mutex (listMu is a leaf).
func (s *Sharded) enqueue(p netsim.Payload) {
	switch p.(type) {
	case wire.FrameAck, wire.StreamAdvance:
		for _, q := range s.queues {
			q.push(p)
		}
	default:
		s.queues[s.frameShardIdx(p)].push(p)
	}
}

// frameShardIdx answers the destination shard of one frame by its
// destination cluster (mutator frames by the target object's cluster,
// GGD control frames by the To cluster).
func (s *Sharded) frameShardIdx(p netsim.Payload) int {
	switch m := p.(type) {
	case wire.Create:
		return s.clusterShardIdx(m.Cluster)
	case wire.RefTransfer:
		if m.ToCluster.Valid() {
			return s.clusterShardIdx(m.ToCluster)
		}
		if v, ok := s.objMap.Load(m.ToObj); ok {
			return v.(int)
		}
		return 0
	case wire.Destroy:
		return s.clusterShardIdx(m.To)
	case wire.Assert:
		return s.clusterShardIdx(m.To)
	case wire.Propagate:
		return s.clusterShardIdx(m.To)
	case wire.HintAck:
		return s.clusterShardIdx(m.To)
	}
	return 0
}

// drainHandoffs delivers queued cross-shard frames until every queue
// is empty. Each queue drains under its deliverMu with no other lock
// held, so two drainers never deadlock: a drainer blocks only on one
// deliverMu or one shard mutex at a time, and frame delivery never
// acquires a deliverMu. Cascades terminate — delivering an ack emits
// nothing, and mutator/control cascades bottom out in the engines.
func (s *Sharded) drainHandoffs() {
	for {
		idle := true
		for i, q := range s.queues {
			if s.drainQueue(i, q) {
				idle = false
			}
		}
		if idle {
			return
		}
	}
}

func (s *Sharded) drainQueue(i int, q *handoffQueue) bool {
	q.deliverMu.Lock()
	defer q.deliverMu.Unlock()
	drained := false
	for {
		p, ok := q.pop()
		if !ok {
			return drained
		}
		drained = true
		s.shards[i].handle(s.id, p)
	}
}

// afterEvent runs after every public operation and network delivery,
// outside all shard locks: flush the cross-shard handoffs, then take a
// snapshot if the shared journal says one is due.
func (s *Sharded) afterEvent() {
	s.drainHandoffs()
	s.maybeCheckpoint()
}

// --- Checkpointing -------------------------------------------------------

// shardJournal is the Journal each shard sees: appends pass through to
// the shared Persist; per-shard checkpoint offers are refused — one
// shard's state is not the site's, so only the stop-the-world path
// below may snapshot (and truncate the shared WAL).
type shardJournal struct {
	p *Persist
}

func (j *shardJournal) Append(rec *wire.WALRecord) error { return j.p.Append(rec) }

func (j *shardJournal) Checkpoint(func() (*wire.SiteImage, error)) error { return nil }

var _ Journal = (*shardJournal)(nil)

func (s *Sharded) maybeCheckpoint() {
	if s.journal == nil || s.replaying || !s.journal.Due() {
		return
	}
	// Failures are sticky inside Persist (the next Append surfaces
	// them), same as the unsharded checkpointLocked contract.
	_ = s.checkpointAll(true)
}

// checkpointAll is the stop-the-world snapshot: acquire every shard
// mutex in ascending order, drain the handoff queues by direct
// dispatch under the held locks (a snapshot must not strand in-flight
// cross-shard frames in a volatile queue), export the composite image,
// and write it while still holding everything — Persist truncates the
// WAL on snapshot, so no shard may append between build and write.
// onlyIfDue re-checks Due under ckptMu: two drainers racing past
// maybeCheckpoint's unlocked Due check serialise here, and the loser
// — whose snapshot the winner just took, resetting the record count —
// skips a redundant back-to-back stop-the-world pass.
//
// A concurrent drainer holding a deliverMu may have popped a frame and
// be blocked on a shard mutex we hold: that frame is in neither the
// queues nor the image, which is safe — its journal record lands after
// the truncation once the drainer resumes, exactly like any
// post-snapshot delivery.
func (s *Sharded) checkpointAll(onlyIfDue bool) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if onlyIfDue && !s.journal.Due() {
		return nil
	}
	for _, r := range s.shards {
		r.mu.Lock()
	}
	defer func() {
		for _, r := range s.shards {
			r.mu.Unlock()
		}
	}()
	s.drainAllLocked()
	img, err := s.exportImageAllLocked()
	if err != nil {
		return err
	}
	return s.journal.ForceCheckpoint(func() (*wire.SiteImage, error) { return img, nil })
}

// drainAllLocked empties the handoff queues by direct dispatch while
// every shard mutex is held (deliverMu is NOT taken: item order with a
// concurrently blocked drainer is already commutative — the protocol
// tolerates reordering; FIFO determinism is only promised for
// single-threaded schedules, where no concurrent drainer exists).
func (s *Sharded) drainAllLocked() {
	for {
		idle := true
		for i, q := range s.queues {
			for {
				p, ok := q.pop()
				if !ok {
					break
				}
				idle = false
				s.shards[i].deliverShardLocked(s.id, p)
			}
		}
		if idle {
			return
		}
	}
}

// exportImageAllLocked renders the composite v4 image: shard 0 in the
// legacy top-level fields (plus the shared stream table), shards
// 1..N-1 in ShardExtra. Caller holds every shard mutex with the
// engines drained and the handoff queues empty.
func (s *Sharded) exportImageAllLocked() (*wire.SiteImage, error) {
	img, err := s.shards[0].exportImageLocked()
	if err != nil {
		return nil, err
	}
	img.Shards = s.n
	img.PlaceRR = s.rr.Load()
	for _, r := range s.shards[1:] {
		ss, err := r.exportShardStateLocked()
		if err != nil {
			return nil, err
		}
		img.ShardExtra = append(img.ShardExtra, ss)
	}
	return img, nil
}

// Checkpoint forces a snapshot now. A no-op without a journal.
func (s *Sharded) Checkpoint() error {
	if s.journal == nil {
		return nil
	}
	return s.checkpointAll(false)
}

// --- Network delivery ----------------------------------------------------

// handleNet is the transport entry point: split and route the frames
// to their destination shards, then settle cross-shard effects.
func (s *Sharded) handleNet(from ids.SiteID, p netsim.Payload) {
	s.deliverNet(from, p)
	s.afterEvent()
}

// deliverNet routes one inbound payload. An envelope splits into one
// sub-envelope per destination shard (inner order preserved within
// each shard — the only order the receiver's streams depend on); acks
// and floor advisories fan out to every shard, like on the handoff
// path.
func (s *Sharded) deliverNet(from ids.SiteID, p netsim.Payload) {
	if env, ok := p.(wire.Envelope); ok && s.n > 1 {
		parts := make([][]netsim.Payload, s.n)
		for _, f := range env.Frames {
			switch f.(type) {
			case wire.FrameAck, wire.StreamAdvance:
				for i := range parts {
					parts[i] = append(parts[i], f)
				}
			default:
				i := s.frameShardIdx(f)
				parts[i] = append(parts[i], f)
			}
		}
		for i, frames := range parts {
			switch len(frames) {
			case 0:
			case 1:
				s.shards[i].handle(from, frames[0])
			default:
				s.shards[i].handle(from, wire.Envelope{Frames: frames})
			}
		}
		return
	}
	switch p.(type) {
	case wire.FrameAck, wire.StreamAdvance:
		for _, r := range s.shards {
			r.handle(from, p)
		}
	default:
		s.shards[s.frameShardIdx(p)].handle(from, p)
	}
}

// --- Mutator API ----------------------------------------------------------

// shardFor routes an operation to the shard owning the given object
// (shard 0 for unknown objects, whose operations fail there with the
// same ErrNoSuchObject any shard would report).
func (s *Sharded) shardFor(obj ids.ObjectID) *Runtime {
	if v, ok := s.objMap.Load(obj); ok {
		return s.shards[v.(int)]
	}
	return s.shards[0]
}

// ID returns the site identifier.
func (s *Sharded) ID() ids.SiteID { return s.id }

// Root returns a reference to the site's root object (owned by shard 0).
func (s *Sharded) Root() heap.Ref { return s.shards[0].Root() }

// ShardCount returns the number of shards.
func (s *Sharded) ShardCount() int { return s.n }

// Close freezes every shard.
func (s *Sharded) Close() {
	for _, r := range s.shards {
		r.Close()
	}
}

// NewLocal creates an object in a fresh cluster, executing on the
// holder's shard; the placement policy may put the new cluster on a
// sibling shard, reached through the handoff queue.
func (s *Sharded) NewLocal(holder ids.ObjectID) (heap.Ref, error) {
	ref, err := s.shardFor(holder).NewLocal(holder)
	s.afterEvent()
	return ref, err
}

// NewLocalIn creates an object in an existing local cluster.
func (s *Sharded) NewLocalIn(holder ids.ObjectID, cl ids.ClusterID) (heap.Ref, error) {
	ref, err := s.shardFor(holder).NewLocalIn(holder, cl)
	s.afterEvent()
	return ref, err
}

// NewCluster mints a fresh local cluster, rotating the executing (and
// owning — bare clusters pin to their executing shard) shard.
func (s *Sharded) NewCluster() (ids.ClusterID, error) {
	idx := int(s.rr.Add(1)-1) % s.n
	cl, err := s.shards[idx].NewCluster()
	s.afterEvent()
	return cl, err
}

// NewRemote creates an object on another site, executing on the
// holder's shard.
func (s *Sharded) NewRemote(holder ids.ObjectID, target ids.SiteID) (heap.Ref, error) {
	ref, err := s.shardFor(holder).NewRemote(holder, target)
	s.afterEvent()
	return ref, err
}

// SendRef copies a reference, executing on the sender's shard.
func (s *Sharded) SendRef(fromObj ids.ObjectID, to heap.Ref, target heap.Ref) error {
	err := s.shardFor(fromObj).SendRef(fromObj, to, target)
	s.afterEvent()
	return err
}

// AddRef stores target into a new slot of holder.
func (s *Sharded) AddRef(holder ids.ObjectID, target heap.Ref) error {
	err := s.shardFor(holder).AddRef(holder, target)
	s.afterEvent()
	return err
}

// DropRefs clears every slot of holder referencing target.Obj.
func (s *Sharded) DropRefs(holder ids.ObjectID, target heap.Ref) error {
	err := s.shardFor(holder).DropRefs(holder, target)
	s.afterEvent()
	return err
}

// ClearSlot drops one slot of holder.
func (s *Sharded) ClearSlot(holder ids.ObjectID, slot int) error {
	err := s.shardFor(holder).ClearSlot(holder, slot)
	s.afterEvent()
	return err
}

// ApplyBatch commits a batch on the shard owning its first concrete
// holder (batch staging requires every concrete holder to live there;
// fresh clusters minted by a multi-op batch pin to that shard, so the
// whole group stays local — see premintBatchLocked).
func (s *Sharded) ApplyBatch(ops []wire.BatchOp) ([]heap.Ref, error) {
	r := s.shards[0]
	for _, bop := range ops {
		if bop.HolderFrom == 0 && bop.Op.Holder.Valid() {
			r = s.shardFor(bop.Op.Holder)
			break
		}
	}
	refs, err := r.ApplyBatch(ops)
	s.afterEvent()
	return refs, err
}

// --- GGD cycles -----------------------------------------------------------

// Collect runs the collection cycle on every shard. One site-wide
// OpCollect is journaled through shard 0 (replay intercepts it and
// re-runs the site-wide cycle); cross-shard cascades settle through
// the handoff queues between shard sweeps.
func (s *Sharded) Collect() (heap.CollectStats, error) {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	var total heap.CollectStats
	var firstErr error
	for i, r := range s.shards {
		r.mu.Lock()
		stats, err := r.collectShardLocked(i == 0)
		r.mu.Unlock()
		total.Marked += stats.Marked
		total.Swept += stats.Swept
		total.Roots += stats.Roots
		if err != nil && firstErr == nil {
			firstErr = err
		}
		s.drainHandoffs()
	}
	s.maybeCheckpoint()
	return total, firstErr
}

// Refresh runs the recovery round on every shard: one site-wide
// OpRefresh journaled through shard 0, one damper round bump for the
// whole site, per-shard re-sends, then ONE merged floor-advisory pass
// — a stream's floor is the minimum over every shard's retained floor,
// computed here because no single shard knows what its siblings still
// retain (emitting a floor past a sibling's retained row would let the
// peer retire it undelivered).
func (s *Sharded) Refresh() error {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	s.st.mu.Lock()
	s.st.refreshRound++
	s.st.mu.Unlock()
	var firstErr error
	for i, r := range s.shards {
		r.mu.Lock()
		err := r.refreshShardLocked(i == 0, false)
		r.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		s.drainHandoffs()
	}
	if !s.replaying {
		s.advanceMergedFloors()
		s.drainHandoffs()
	}
	s.maybeCheckpoint()
	return firstErr
}

// advanceMergedFloors is the sharded counterpart of
// advanceFloorsLocked: per-(peer, stream) floors merged by minimum
// across shards, advisories emitted through shard 0. A sequence
// assigned concurrently with the merge is always above the snapshotted
// nextSeq, hence above any floor emitted here — the advisory can never
// cover it.
func (s *Sharded) advanceMergedFloors() {
	st := s.st
	st.mu.Lock()
	keys := make([]streamKey, 0, len(st.send))
	for k := range st.send {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return streamKeyLess(keys[i], keys[j]) })
	type snap struct{ nextSeq, ackedTo uint64 }
	snaps := make(map[streamKey]snap, len(keys))
	for _, k := range keys {
		ss := st.send[k]
		snaps[k] = snap{nextSeq: ss.nextSeq, ackedTo: ss.ackedTo}
	}
	st.mu.Unlock()
	floors := make(map[streamKey]uint64, len(keys))
	for _, r := range s.shards {
		r.mu.Lock()
		for _, k := range keys {
			f := r.retainedFloorLocked(k.peer, k.kind)
			if f != 0 && (floors[k] == 0 || f < floors[k]) {
				floors[k] = f
			}
		}
		r.mu.Unlock()
	}
	r0 := s.shards[0]
	r0.mu.Lock()
	advances := 0
	for _, k := range keys {
		sn := snaps[k]
		if sn.nextSeq == 0 {
			continue
		}
		floor := floors[k]
		if floor == 0 {
			floor = sn.nextSeq + 1
		}
		if floor-1 <= sn.ackedTo {
			continue
		}
		advances++
		r0.emitLocked(k.peer, wire.StreamAdvance{Stream: k.kind, Floor: floor})
	}
	r0.mu.Unlock()
	if advances > 0 {
		st.mu.Lock()
		st.fstats.AdvancesSent += advances
		st.mu.Unlock()
	}
}

// --- Recovery -------------------------------------------------------------

// RecoverSharded reconstructs a sharded site from its journal, exactly
// as Recover does for an unsharded one. The shard count is sticky per
// data directory: an existing snapshot's count wins over the argument
// (WAL shard tags must keep routing to the partition that wrote them);
// a journal with no snapshot yet sizes to cover the highest shard tag
// in the WAL. Replay routes each record to the shard that journaled
// it; site-wide OpCollect/OpRefresh records (always tagged shard 0)
// re-run the site-wide cycle. Self-addressed frames are NOT re-routed
// during replay — the destination shard's own Deliver records carry
// them — and a crash between the sender's journal append and the
// receiver's is healed like any lost frame: outbox re-send, refresh.
func RecoverSharded(id ids.SiteID, net netsim.Network, opts Options, j *Persist, shards int) (*Sharded, error) {
	img, recs, err := j.Load()
	if err != nil {
		return nil, fmt.Errorf("site %v: recover sharded: %w", id, err)
	}
	n := shards
	if img != nil {
		if img.Site != id {
			return nil, fmt.Errorf("site %v: recover sharded: journal belongs to site %v", id, img.Site)
		}
		n = img.Shards
		if n < 1 {
			n = 1 // v2/v3 (or 1-shard v4) image: the whole site is shard 0
		}
	}
	for _, rec := range recs {
		if rec.Shard >= n {
			n = rec.Shard + 1
		}
	}
	s := buildSharded(id, net, opts, n)
	s.journal = j
	if img == nil {
		for i := 0; i < s.n; i++ {
			s.shards[i] = newShardRuntime(id, net, opts, s.st, s.ctr, s.hooksFor(i))
		}
	} else {
		restoreStreams(s.st, img)
		s.rr.Store(img.PlaceRR)
		if want := s.n - 1; len(img.ShardExtra) != want && img.Shards > 1 {
			return nil, fmt.Errorf("site %v: recover sharded: image has %d extra shard states, want %d", id, len(img.ShardExtra), want)
		}
		states := make([]wire.ShardState, s.n)
		states[0] = wire.ShardState{
			Heap:        img.Heap,
			Engine:      img.Engine,
			Removals:    img.Removals,
			PendingRefs: img.PendingRefs,
			SeenIntro:   img.SeenIntro,
			Outbox:      img.Outbox,
		}
		copy(states[1:], img.ShardExtra)
		// Routing maps first: restoring a shard engine installs the owns
		// predicate, which consults them immediately.
		for i, ss := range states {
			s.seedRouting(i, ss)
		}
		for i, ss := range states {
			s.shards[i], err = s.restoreShardRuntime(i, ss)
			if err != nil {
				return nil, fmt.Errorf("site %v: recover sharded: shard %d: %w", id, i, err)
			}
		}
	}
	for i := 0; i < s.n; i++ {
		s.installTracker(i)
		s.shards[i].journal = &shardJournal{p: j}
		s.shards[i].replaying = true
	}
	s.objMap.Store(s.shards[0].heap.RootObject(), 0)
	if img != nil {
		// Rebuild the object routing of restored heaps (the tracker only
		// sees live mutations).
		for i, r := range s.shards {
			for _, o := range r.heap.Objects() {
				s.objMap.Store(o.ID(), i)
			}
		}
	}
	s.replaying = true
	// Register before replay: frames from already-running peers buffer
	// per shard in recoverBuf instead of being dropped.
	net.Register(id, s.handleNet)
	for _, rec := range recs {
		s.applyShardRecord(rec)
	}
	// End of replay: flip the flags, process the buffered live traffic,
	// re-send every shard's unconfirmed outbox.
	s.replaying = false
	for _, r := range s.shards {
		r.mu.Lock()
		r.replaying = false
		buffered := r.recoverBuf
		r.recoverBuf = nil
		resend := make([]outboundFrame, len(r.outbox))
		copy(resend, r.outbox)
		r.mu.Unlock()
		for _, d := range buffered {
			r.handle(d.from, d.p)
		}
		r.mu.Lock()
		opened := r.beginCoalesceLocked()
		for _, f := range resend {
			r.emitLocked(f.to, f.p)
		}
		if opened {
			r.flushCoalesceLocked()
		}
		r.mu.Unlock()
		s.drainHandoffs()
	}
	if err := s.Refresh(); err != nil {
		return nil, fmt.Errorf("site %v: recover sharded: %w", id, err)
	}
	if img != nil {
		// Make the bumped recovery epoch durable immediately (see
		// Recover) and bound the next replay.
		if err := s.checkpointAll(false); err != nil {
			return nil, fmt.Errorf("site %v: recover sharded: checkpoint: %w", id, err)
		}
	}
	return s, nil
}

// seedRouting pre-populates the routing maps from one shard's durable
// image: live clusters, engine processes, and tombstones (a removed
// cluster must keep routing to the shard holding its tombstone).
func (s *Sharded) seedRouting(i int, ss wire.ShardState) {
	for _, ci := range ss.Heap.Clusters {
		if ci.ID.Site == s.id && !ci.ID.Root {
			s.cluMap.Store(ci.ID, i)
		}
	}
	for _, pi := range ss.Engine.Procs {
		if pi.ID.Site == s.id && !pi.ID.Root {
			s.cluMap.Store(pi.ID, i)
		}
	}
	for cl := range ss.Engine.Tombstones {
		if cl.Site == s.id && !cl.Root {
			s.cluMap.Store(cl, i)
		}
	}
}

// restoreShardRuntime rebuilds shard i from its durable state block.
func (s *Sharded) restoreShardRuntime(i int, ss wire.ShardState) (*Runtime, error) {
	sh := s.hooksFor(i)
	opts := s.opts
	opts.Engine.Owns = sh.owns
	r := &Runtime{
		id:          s.id,
		net:         s.net,
		opts:        opts,
		st:          s.st,
		sh:          sh,
		pendingRefs: make(map[ids.ObjectID][]pendingRef),
		seenIntro:   make(map[introKey]struct{}, len(ss.SeenIntro)),
		removals:    ss.Removals,
	}
	var err error
	r.engine, err = core.Restore(s.id, (*sender)(r), r.onRemove, opts.Engine, ss.Engine)
	if err != nil {
		return nil, err
	}
	r.heap, err = heap.RestoreShard((*hooks)(r), ss.Heap, s.ctr, i == 0)
	if err != nil {
		return nil, err
	}
	r.restoreShardState(ss.PendingRefs, ss.SeenIntro, ss.Outbox)
	return r, nil
}

// applyShardRecord replays one WAL record on the shard that journaled
// it. Site-wide cycle records re-run the site-wide cycle (journaling
// is suppressed while replaying, so nothing is re-recorded).
func (s *Sharded) applyShardRecord(rec *wire.WALRecord) {
	if rec.Op != nil {
		switch rec.Op.Kind {
		case wire.OpCollect:
			_, _ = s.Collect()
			return
		case wire.OpRefresh:
			_ = s.Refresh()
			return
		}
	}
	idx := rec.Shard
	if idx < 0 || idx >= s.n {
		idx = 0
	}
	s.shards[idx].applyRecord(rec)
	s.drainHandoffs()
}

// --- Introspection --------------------------------------------------------

// NumObjects sums the live objects across shards (each object lives in
// exactly one shard heap).
func (s *Sharded) NumObjects() int {
	total := 0
	for _, r := range s.shards {
		total += r.NumObjects()
	}
	return total
}

// NumSlots sums the slot counts across shards.
func (s *Sharded) NumSlots() int {
	total := 0
	for _, r := range s.shards {
		total += r.NumSlots()
	}
	return total
}

// HasObject reports whether the object exists on any shard.
func (s *Sharded) HasObject(obj ids.ObjectID) bool {
	if v, ok := s.objMap.Load(obj); ok {
		return s.shards[v.(int)].HasObject(obj)
	}
	// The routing entry may lag a restore or a sweep: scan every shard
	// before concluding absence (a false negative would misreport a
	// live object; the scan is a read-only query off the hot path).
	for _, r := range s.shards {
		if r.HasObject(obj) {
			return true
		}
	}
	return false
}

// ClusterRemoved asks the shard owning the cluster.
func (s *Sharded) ClusterRemoved(cl ids.ClusterID) bool {
	return s.shards[s.clusterShardIdx(cl)].ClusterRemoved(cl)
}

// LogSnapshot asks the shard owning the cluster.
func (s *Sharded) LogSnapshot(cl ids.ClusterID) *vclock.Log {
	return s.shards[s.clusterShardIdx(cl)].LogSnapshot(cl)
}

// Clock asks the shard owning the cluster.
func (s *Sharded) Clock(cl ids.ClusterID) uint64 {
	return s.shards[s.clusterShardIdx(cl)].Clock(cl)
}

// EngineStats sums the per-shard GGD engine counters.
func (s *Sharded) EngineStats() core.Stats {
	var total core.Stats
	for _, r := range s.shards {
		addStats(&total, r.EngineStats())
	}
	return total
}

// ShardEngineStats returns one shard's engine counters (monitor depth
// gauges are per shard as well as aggregate).
func (s *Sharded) ShardEngineStats(i int) core.Stats {
	return s.shards[i].EngineStats()
}

// FrameStats returns the shared retirement counters with the outbox
// gauge summed across shards.
func (s *Sharded) FrameStats() FrameStats {
	s.st.mu.Lock()
	fs := s.st.fstats
	s.st.mu.Unlock()
	fs.OutboxRetained = 0
	for _, r := range s.shards {
		r.mu.Lock()
		fs.OutboxRetained += len(r.outbox)
		r.mu.Unlock()
	}
	return fs
}

// ShardOutboxDepth returns one shard's unacknowledged outbound frame
// count.
func (s *Sharded) ShardOutboxDepth(i int) int {
	r := s.shards[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.outbox)
}

// Depths sums the retained-state table sizes across shards (aggregate
// monitor gauges; per-shard gauges come from ShardDepths).
func (s *Sharded) Depths() Depths {
	var total Depths
	for i := range s.shards {
		addDepths(&total, s.ShardDepths(i))
	}
	return total
}

// ShardDepths returns one shard's retained-state table sizes.
func (s *Sharded) ShardDepths(i int) Depths {
	return s.shards[i].Depths()
}

func addDepths(total *Depths, d Depths) {
	total.Outbox += d.Outbox
	total.AssertRows += d.AssertRows
	total.DestroyRows += d.DestroyRows
	total.LegacyBundles += d.LegacyBundles
	total.PendingRefs += d.PendingRefs
	total.PendingDeliveries += d.PendingDeliveries
}

// HandoffDepth returns the number of queued cross-shard frames (zero
// at quiescence: afterEvent drains before returning).
func (s *Sharded) HandoffDepth() int {
	total := 0
	for _, q := range s.queues {
		total += q.depth()
	}
	return total
}

// Snapshot merges the per-shard object snapshots (sorted by ID) under
// shard 0's root.
func (s *Sharded) Snapshot() (ids.ObjectID, []ObjectSnapshot) {
	root, objs := s.shards[0].Snapshot()
	for _, r := range s.shards[1:] {
		_, more := r.Snapshot()
		objs = append(objs, more...)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID.Less(objs[j].ID) })
	return root, objs
}

// addStats accumulates engine counters field-wise.
func addStats(total *core.Stats, s core.Stats) {
	total.Removed += s.Removed
	total.Evaluations += s.Evaluations
	total.PropagationsSent += s.PropagationsSent
	total.DestroysSent += s.DestroysSent
	total.AssertsSent += s.AssertsSent
	total.AssertResends += s.AssertResends
	total.DestroyResends += s.DestroyResends
	total.LegacyResends += s.LegacyResends
	total.ResendsSuppressed += s.ResendsSuppressed
	total.RowsRetired += s.RowsRetired
	total.AssertRowsDropped += s.AssertRowsDropped
	total.LegacyEvicted += s.LegacyEvicted
	total.HintsExpired += s.HintsExpired
	total.StaleDeliveries += s.StaleDeliveries
}
