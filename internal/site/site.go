package site

import (
	"fmt"
	"sync"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
)

// Options configure a Runtime.
type Options struct {
	// AutoCollect runs a local collection whenever GGD removes a local
	// cluster, so reclamation cascades without explicit Collect calls.
	// Defaults to true via New.
	AutoCollect bool
	// Engine tunes the GGD engine (the unsafe ablation switch).
	Engine core.Options
	// Observer, when non-nil, receives lifecycle notifications. Callbacks
	// run with the runtime's mutex held and must not call back into the
	// Runtime.
	Observer Observer
	// MaxBatchFrames caps the frames coalesced into one wire.Envelope by
	// a batch commit (or an envelope dispatch); a larger group flushes
	// in several envelopes. Zero means DefaultMaxBatchFrames.
	MaxBatchFrames int
}

// DefaultMaxBatchFrames is the default cap on frames per coalesced
// envelope (Options.MaxBatchFrames): large enough that realistic
// batches fit one envelope, small enough that one envelope stays well
// under transport frame limits.
const DefaultMaxBatchFrames = 256

// Observer receives site lifecycle events: the public metrics hook of the
// causalgc API. Implementations must be fast and must not re-enter the
// Runtime (callbacks run under its mutex).
type Observer interface {
	// ClusterRemoved fires when GGD detects a local cluster as global
	// garbage and removes it.
	ClusterRemoved(site ids.SiteID, cluster ids.ClusterID)
	// Collected fires after every local mark-sweep collection, whether
	// requested explicitly or triggered by an AutoCollect cascade.
	Collected(site ids.SiteID, stats heap.CollectStats)
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{AutoCollect: true}
}

// pendingRef is a buffered reference transfer awaiting its holder.
type pendingRef struct {
	target   heap.Ref
	intro    ids.ClusterID
	introSeq uint64
}

// introKey identifies one forwarding of a reference: the introducing
// cluster and its forwarding sequence number. Forwarding seqs are drawn
// from the introducer's event clock, so the pair is globally unique.
type introKey struct {
	intro ids.ClusterID
	seq   uint64
}

// outboundFrame is one sent mutator frame retained until the receiving
// site's cumulative FrameAck retires it (re-sent by crash recovery and
// by damper-due refresh rounds).
type outboundFrame struct {
	to  ids.SiteID
	seq uint64
	p   netsim.Payload
	bo  core.Backoff
}

// maxOutbox is the hard-cap backstop on retained outbound mutator
// frames. Under the acknowledged-retirement protocol the outbox trims
// its acknowledged prefix and stays near-empty in steady state; the cap
// only fires against a peer that never acknowledges (down forever,
// partitioned). Evicting an unacknowledged frame is tolerated loss —
// the GGD plane survives it; an undelivered mutator frame costs at
// worst residual garbage, never safety — and is counted in
// FrameStats.OutboxEvicted and surfaced through AckObserver instead of
// happening silently.
const maxOutbox = 1024

// maxSeenIntro bounds the receiver-side transfer dedup set. Evicting an
// entry can at worst let a re-sent transfer be applied twice, which
// adds a redundant slot — a leak risk, never a safety violation.
const maxSeenIntro = 1 << 16

// bufDelivery is one live delivery buffered while a recovery replay is
// in progress.
type bufDelivery struct {
	from ids.SiteID
	p    netsim.Payload
}

// shardHooks wires one Runtime into a Sharded composition (DESIGN.md
// §3.4). Every callback is set by Sharded before the runtime handles
// its first event and never changes afterwards; nil shardHooks (the sh
// field of an unsharded Runtime) selects the classic single-lock
// behavior everywhere.
type shardHooks struct {
	// index is this shard's position (0-based). Shard 0 owns the site's
	// root cluster.
	index int
	// owns narrows cluster locality below site equality: true only for
	// same-site clusters this shard routes. Installed as the engine's
	// Owns predicate too.
	owns func(ids.ClusterID) bool
	// place picks the placement shard for a freshly minted local cluster
	// and records the routing choice; holderClu is the creating holder's
	// cluster (NoCluster for a bare NewCluster). pin forces the
	// executing shard (multi-op batches, where a cross-shard create
	// would strand the batch's deferred references). Returns the
	// 1-based shard recorded in OpRecord.Place.
	place func(newClu, holderClu ids.ClusterID, pin bool) int
	// clusterShard answers the 0-based routing shard of any same-site
	// cluster (placement map first, deterministic hash otherwise).
	clusterShard func(ids.ClusterID) int
	// placed records an applied placement: the WAL replay path
	// repopulates the routing map through it (premint is skipped during
	// replay; the recorded Place is authoritative).
	placed func(cl ids.ClusterID, place int)
	// route hands a self-addressed frame to the ordered cross-shard
	// handoff queue of its destination shard.
	route func(p netsim.Payload)
}

// Runtime is one site — or, within a Sharded composition, one shard of
// a site: a full runtime owning a partition of the site's clusters,
// sharing the site identity, the identity mint, and the retirement
// stream table with its sibling shards.
type Runtime struct {
	mu     sync.Mutex
	id     ids.SiteID
	heap   *heap.Heap
	engine *core.Engine
	net    netsim.Network
	opts   Options

	// st is the retirement-stream table: private to an unsharded
	// runtime, shared across the shards of a sharded site. Its mutex is
	// a leaf under r.mu.
	st *streams
	// sh holds the sharding callbacks; nil on an unsharded runtime.
	sh *shardHooks

	// pendingRefs buffers reference transfers that arrived before the
	// creation message of their holder object (cross-sender races).
	pendingRefs map[ids.ObjectID][]pendingRef
	// removals counts GGD removals since the last collection.
	removals int

	// journal, when non-nil, receives a durable record of every relevant
	// event before it takes effect (write-ahead; see DESIGN.md §5).
	journal Journal
	// replaying suppresses journaling and buffers live deliveries while
	// Recover replays the WAL.
	replaying  bool
	recoverBuf []bufDelivery
	// seenIntro dedups received reference transfers by (introducer,
	// forwarding-seq), making recovery resends idempotent.
	seenIntro map[introKey]struct{}
	// outbox retains outbound mutator frames (populated only when a
	// journal is attached) until the receiver acknowledges them; oldest
	// first, hard-capped at maxOutbox as a documented backstop.
	outbox []outboundFrame

	// dirtyAcks are the streams whose watermark must be (re-)acked at
	// the end of the current dispatch. Per shard: the shard that settled
	// a frame sends the ack.
	dirtyAcks map[streamKey]struct{}

	// coalescing, when set, buffers outbound frames per destination
	// instead of sending them: open during a batch commit and during
	// the dispatch of a received envelope, flushed as one wire.Envelope
	// per peer (DESIGN.md §3.3). The buffer allocates lazily on the
	// first frame, so frameless windows (most one-op batches) cost
	// nothing.
	coalescing bool
	coalesce   map[ids.SiteID][]netsim.Payload

	// batching, set while applyBatchLocked runs the ops of a batch,
	// defers settleLocked's collection cascade to the batch's end.
	batching bool

	// closed freezes the runtime: deliveries are dropped (tolerated
	// loss) so introspection keeps answering from an unchanging state.
	closed bool
}

// New creates a site runtime and registers it on the network. For a
// durable site use Recover, which attaches a journal and replays any
// existing state.
func New(id ids.SiteID, net netsim.Network, opts Options) *Runtime {
	r := newRuntime(id, net, opts)
	net.Register(id, r.handle)
	return r
}

// newRuntime builds a fresh unsharded runtime without registering it.
func newRuntime(id ids.SiteID, net netsim.Network, opts Options) *Runtime {
	r := &Runtime{
		id:          id,
		net:         net,
		opts:        opts,
		st:          newStreams(),
		pendingRefs: make(map[ids.ObjectID][]pendingRef),
		seenIntro:   make(map[introKey]struct{}),
	}
	r.engine = core.New(id, (*sender)(r), r.onRemove, opts.Engine)
	r.heap = heap.New(id, (*hooks)(r))
	r.engine.Register(r.heap.RootCluster())
	return r
}

// newShardRuntime builds one shard of a sharded site: a rootless heap
// partition (except shard 0) drawing identities from the shared mint,
// an engine whose locality predicate is the shard's routing rule, and
// the shared stream table.
func newShardRuntime(id ids.SiteID, net netsim.Network, opts Options, st *streams, ctr *heap.Counters, sh *shardHooks) *Runtime {
	opts.Engine.Owns = sh.owns
	r := &Runtime{
		id:          id,
		net:         net,
		opts:        opts,
		st:          st,
		sh:          sh,
		pendingRefs: make(map[ids.ObjectID][]pendingRef),
		seenIntro:   make(map[introKey]struct{}),
	}
	r.engine = core.New(id, (*sender)(r), r.onRemove, r.opts.Engine)
	r.heap = heap.NewShard(id, (*hooks)(r), ctr, sh.index == 0)
	if sh.index == 0 {
		r.engine.Register(r.heap.RootCluster())
	}
	return r
}

// ID returns the site identifier.
func (r *Runtime) ID() ids.SiteID { return r.id }

// Root returns a reference to the site's root object; its slots model the
// mutator's named references.
func (r *Runtime) Root() heap.Ref {
	return r.heap.RootRef()
}

// owns reports whether this runtime routes cl: plain site equality when
// unsharded, the shard routing rule otherwise.
func (r *Runtime) owns(cl ids.ClusterID) bool {
	if r.sh != nil {
		return r.sh.owns(cl)
	}
	return cl.Site == r.id
}

// shardIndex returns this runtime's shard position (0 when unsharded).
func (r *Runtime) shardIndex() int {
	if r.sh != nil {
		return r.sh.index
	}
	return 0
}

// --- heap.Hooks and core plumbing ---------------------------------------

// hooks adapts Runtime to heap.Hooks without exposing the methods on the
// public API.
type hooks Runtime

func (h *hooks) EdgeUp(holder, target ids.ClusterID, first bool, intro ids.ClusterID, introSeq uint64) {
	(*Runtime)(h).engine.EdgeUp(holder, target, first, intro, introSeq)
}

func (h *hooks) EdgeDown(holder, target ids.ClusterID) {
	(*Runtime)(h).engine.EdgeDown(holder, target)
}

var _ heap.Hooks = (*hooks)(nil)

// sender adapts Runtime to core.Sender: it assigns retirement-stream
// sequences (per destination site and stream) and stamps them onto the
// wire frames, so receivers can acknowledge cumulatively.
//
// The engine only runs inside Runtime methods that hold r.mu, so every
// callback below executes under the lock by construction; the
// interface fixes the method names, so the *Locked suffix cannot carry
// that fact and the calls are annotated as audited lockcheck
// exceptions instead.
type sender Runtime

func (s *sender) SendDestroy(from, to ids.ClusterID, m core.DestroyMsg, seq uint64) uint64 {
	r := (*Runtime)(s)
	seq = r.assignSeqLocked(to.Site, core.StreamDestroy, seq)               //causalgc:allow-locked-call engine callbacks run under r.mu
	r.emitLocked(to.Site, wire.Destroy{From: from, To: to, M: m, Seq: seq}) //causalgc:allow-locked-call engine callbacks run under r.mu
	return seq
}

func (s *sender) SendLegacy(from, to ids.ClusterID, m core.DestroyMsg, seq uint64) uint64 {
	r := (*Runtime)(s)
	seq = r.assignSeqLocked(to.Site, core.StreamLegacy, seq)                              //causalgc:allow-locked-call engine callbacks run under r.mu
	r.emitLocked(to.Site, wire.Destroy{From: from, To: to, M: m, Seq: seq, Legacy: true}) //causalgc:allow-locked-call engine callbacks run under r.mu
	return seq
}

func (s *sender) SendAssert(from, to ids.ClusterID, m core.AssertMsg, seq uint64) uint64 {
	r := (*Runtime)(s)
	seq = r.assignSeqLocked(to.Site, core.StreamAssert, seq)               //causalgc:allow-locked-call engine callbacks run under r.mu
	r.emitLocked(to.Site, wire.Assert{From: from, To: to, M: m, Seq: seq}) //causalgc:allow-locked-call engine callbacks run under r.mu
	return seq
}

func (s *sender) SendPropagate(from, to ids.ClusterID, m core.Propagation) {
	(*Runtime)(s).emitLocked(to.Site, wire.Propagate{From: from, To: to, M: m}) //causalgc:allow-locked-call engine callbacks run under r.mu
}

func (s *sender) SettleFrame(peer ids.SiteID, stream core.Stream, seq uint64) {
	(*Runtime)(s).markRecvLocked(peer, stream, seq) //causalgc:allow-locked-call engine callbacks run under r.mu
}

var _ core.Sender = (*sender)(nil)

// onRemove is the engine's removal callback: discard the cluster's global
// roots from the local root set (§2.2) and schedule reclamation.
func (r *Runtime) onRemove(cl ids.ClusterID) {
	// Errors are impossible here by construction: the engine only removes
	// clusters it registered, which exist in the heap.
	_ = r.heap.RemoveCluster(cl)
	r.removals++
	if r.opts.Observer != nil {
		r.opts.Observer.ClusterRemoved(r.id, cl)
	}
}

// collectLocked runs one local collection and notifies the observer.
func (r *Runtime) collectLocked() heap.CollectStats {
	stats := r.heap.Collect()
	if r.opts.Observer != nil {
		r.opts.Observer.Collected(r.id, stats)
	}
	return stats
}

// Close freezes the runtime: deliveries still arriving from a shared
// transport are dropped (tolerated loss) instead of mutating state, so
// post-Close introspection reads a stable image. Mutator entry points
// are gated by the owning Node.
func (r *Runtime) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
}

// handle is the network delivery entry point.
func (r *Runtime) handle(from ids.SiteID, p netsim.Payload) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.replaying {
		// A live delivery racing the recovery replay: buffered, then
		// journaled and processed once the replay completes.
		if !r.closed {
			r.recoverBuf = append(r.recoverBuf, bufDelivery{from: from, p: p})
		}
		return
	}
	r.deliverShardLocked(from, p)
	r.checkpointLocked()
}

// deliverShardLocked journals and dispatches one delivery with r.mu
// already held: the body of handle, also used by the sharded
// stop-the-world checkpoint, which drains the handoff queues while
// holding every shard's lock. Caller holds r.mu (and never a sibling
// shard's lock except on the all-locks checkpoint path).
func (r *Runtime) deliverShardLocked(from ids.SiteID, p netsim.Payload) {
	if r.closed {
		return
	}
	if r.journal != nil {
		if err := r.journal.Append(&wire.WALRecord{Shard: r.shardIndex(), Deliver: &wire.DeliverRecord{From: from, Payload: p}}); err != nil {
			// An unjournalable delivery must not take effect: acting on it
			// would desynchronise the replayable history from the messages
			// this site sends. Dropping is safe — the protocol tolerates
			// loss (§5).
			return
		}
	}
	r.dispatchLocked(from, p)
}

// dispatchLocked applies one delivery, settles the engine, and flushes
// any acknowledgements the delivery earned. A received wire.Envelope is
// applied frame by frame but settled and acknowledged once, and the
// responses it provokes (FrameAcks, asserts, cascade traffic) are
// themselves coalesced into one envelope per peer. Caller holds r.mu.
func (r *Runtime) dispatchLocked(from ids.SiteID, p netsim.Payload) {
	opened := false
	if _, ok := p.(wire.Envelope); ok {
		opened = r.beginCoalesceLocked()
	}
	r.applyFrameLocked(from, p)
	r.settleLocked()
	r.flushAcksLocked()
	if opened {
		r.flushCoalesceLocked()
	}
}

// applyFrameLocked applies one wire frame (an envelope's inner frames
// recursively, in order). Caller holds r.mu.
func (r *Runtime) applyFrameLocked(from ids.SiteID, p netsim.Payload) {
	switch m := p.(type) {
	case wire.Create:
		r.handleCreate(m)
		// Mutator frames settle on any delivery: every disposition
		// (applied, duplicate-dropped, zombie-dropped) is final and
		// replayable.
		r.markRecvLocked(from, core.StreamMut, m.Seq)
	case wire.RefTransfer:
		r.handleRefTransfer(m)
		r.markRecvLocked(from, core.StreamMut, m.Seq)
	case wire.Destroy:
		r.engine.HandleDestroyFrame(m.To, m.From, m.M, m.Seq, m.Legacy)
	case wire.Propagate:
		r.engine.HandlePropagate(m.To, m.From, m.M)
	case wire.Assert:
		r.engine.HandleAssertFrame(m.To, m.From, m.M, m.Seq)
	case wire.HintAck:
		r.engine.HandleAck(m.To, m.From, m.M)
	case wire.FrameAck:
		r.handleFrameAckLocked(from, m)
	case wire.StreamAdvance:
		r.handleAdvanceLocked(from, m)
	case wire.Envelope:
		for _, f := range m.Frames {
			r.applyFrameLocked(from, f)
		}
	}
}

// journalOp durably records a mutator operation before it is applied.
func (r *Runtime) journalOp(op wire.OpRecord) error {
	if r.journal == nil || r.replaying {
		return nil
	}
	if err := r.journal.Append(&wire.WALRecord{Shard: r.shardIndex(), Op: &op}); err != nil {
		return fmt.Errorf("site %v: journal %v: %w", r.id, op.Kind, err)
	}
	return nil
}

// checkpointLocked offers the journal a snapshot opportunity at a
// quiescent point. Checkpoint failures are sticky inside the journal
// (the next Append surfaces them); the completed operation itself is
// already durable in the WAL.
func (r *Runtime) checkpointLocked() {
	if r.journal == nil || r.replaying {
		return
	}
	_ = r.journal.Checkpoint(r.exportImageLocked)
}

// assignMutSeqLocked draws the next mutator-stream sequence for a frame
// bound to target, or zero for volatile sites (no journal → no outbox →
// nothing to acknowledge).
func (r *Runtime) assignMutSeqLocked(target ids.SiteID) uint64 {
	if r.journal == nil {
		return 0
	}
	return r.assignSeqLocked(target, core.StreamMut, 0)
}

// recordOutboundLocked retains a sent mutator frame until the receiver
// acknowledges it, evicting the oldest past the maxOutbox backstop
// (counted tolerated loss).
func (r *Runtime) recordOutboundLocked(to ids.SiteID, seq uint64, p netsim.Payload) {
	if r.journal == nil || seq == 0 {
		return
	}
	if len(r.outbox) >= maxOutbox {
		victim := r.outbox[0]
		copy(r.outbox, r.outbox[1:])
		r.outbox = r.outbox[:len(r.outbox)-1]
		r.st.mu.Lock()
		r.st.fstats.OutboxEvicted++
		r.st.mu.Unlock()
		if ao, ok := r.opts.Observer.(AckObserver); ok {
			ao.FrameEvicted(r.id, victim.to, core.StreamMut, 1)
		}
	}
	r.outbox = append(r.outbox, outboundFrame{to: to, seq: seq, p: p})
}

func (r *Runtime) handleCreate(m wire.Create) {
	if r.engine.Removed(m.Cluster) {
		// A duplicate or recovery-re-sent creation of a cluster GGD has
		// already removed: applying it would resurrect a zombie object —
		// the swept cluster shell is gone, so the heap would rebuild a
		// live-looking cluster and pin the object as an entry root
		// forever, while the tombstoned engine process can never issue a
		// second verdict. Dropping is the idempotent outcome: the first
		// creation was fully processed and reclaimed.
		return
	}
	r.engine.HandleCreate(m.Cluster, m.Creator, m.Stamp)
	o, err := r.heap.NewObjectAt(m.Obj, m.Cluster)
	if err != nil {
		return // duplicate create: idempotent drop
	}
	// The object is referenced from outside this heap partition from
	// birth (a remote site or a sibling shard): it is a global root.
	_ = r.heap.MarkEntry(o.ID())
	for _, pr := range r.pendingRefs[m.Obj] {
		_, _ = r.heap.AddRefIntro(m.Obj, pr.target, pr.intro, pr.introSeq)
	}
	delete(r.pendingRefs, m.Obj)
}

func (r *Runtime) handleRefTransfer(m wire.RefTransfer) {
	// Dedup by (introducer, forwarding-seq): forwarding seqs are unique
	// per introducing cluster, so a re-sent transfer — a crashed sender
	// re-playing its outbox, or a journaled delivery re-arriving after
	// the sender's recovery — is applied exactly once.
	if m.IntroSeq > 0 {
		k := introKey{intro: m.FromCluster, seq: m.IntroSeq}
		if _, dup := r.seenIntro[k]; dup {
			return
		}
		if len(r.seenIntro) >= maxSeenIntro {
			for old := range r.seenIntro {
				delete(r.seenIntro, old)
				break
			}
		}
		r.seenIntro[k] = struct{}{}
	}
	if r.heap.Object(m.ToObj) == nil {
		if m.ToCluster.Valid() && (r.engine.Registered(m.ToCluster) || r.engine.Removed(m.ToCluster)) {
			// The holder's cluster is known here but the object is gone:
			// an object can only be named after its creation was
			// processed (which registers the cluster), so the holder was
			// collected and this introduction can never form its edge.
			// Expire it at the hint's owner instead of parking the frame
			// forever.
			r.engine.ResolveIntroduction(m.ToCluster, m.Target.Cluster, m.FromCluster, m.IntroSeq)
			return
		}
		// The holder's creation message has not arrived yet (different
		// sender): buffer and replay on creation.
		r.pendingRefs[m.ToObj] = append(r.pendingRefs[m.ToObj], pendingRef{
			target: m.Target, intro: m.FromCluster, introSeq: m.IntroSeq,
		})
		return
	}
	// AddRefIntro triggers EdgeUp: the receiver stamps the new edge in
	// its own clock space — the authoritative lazy log-keeping record
	// (§3.4) — and sends the edge-assert resolving the introduction.
	_, _ = r.heap.AddRefIntro(m.ToObj, m.Target, m.FromCluster, m.IntroSeq)
}

// settleLocked drives removal cascades to completion: GGD removals clear
// entry tables, the following collection destroys the last proxies, whose
// destruction messages may remove further local clusters, and so on.
// Inside a batch only the engine drains; applyBatchLocked runs the
// collection cascade once, after the last op (DESIGN.md §3.3).
func (r *Runtime) settleLocked() {
	r.engine.Drain()
	if !r.opts.AutoCollect || r.batching {
		return
	}
	for r.removals > 0 {
		r.removals = 0
		r.collectLocked()
		r.engine.Drain()
	}
}

// --- Mutator API ---------------------------------------------------------

// The singleton mutator entry points all follow one commit sequence —
// stage-check (reject without journaling, mirroring the historical
// pre-journal validation), pre-mint (sharded sites record the drawn
// identities and placement on the OpRecord), write-ahead journal,
// apply, checkpoint — shared with the batch path (ApplyBatch), which
// runs the same stages once per group instead of once per op.

// runOpLocked commits one mutator operation through the singleton
// path. Caller holds r.mu.
func (r *Runtime) runOpLocked(op wire.OpRecord) (heap.Ref, error) {
	if err := r.stageOpLocked(op); err != nil {
		return heap.NilRef, err
	}
	r.premintLocked(&op, false)
	if err := r.journalOp(op); err != nil {
		return heap.NilRef, err
	}
	ref, err := r.applyOpLocked(op)
	r.checkpointLocked()
	return ref, err
}

// premintLocked draws the identities op will mint and records them
// (plus the placement shard for fresh clusters and the mutator-stream
// sequence of any frame the op emits) on the record before it is
// journaled. Only sharded sites pre-mint: with concurrent shards the
// WAL append order need not match the live mint (or seq-draw) order,
// so replaying the counters in WAL order would shift identities and
// rebind frame sequences — the recorded values make replay exact. An
// unsharded runtime replays under one lock, where WAL order IS mint
// order, and keeps its legacy (mint-at-apply) format. During replay
// the recorded values are authoritative and nothing is drawn. pin
// forces fresh clusters onto the executing shard (multi-op batches).
// Caller holds r.mu; the op has passed stageOpLocked. For batch ops
// with deferred arguments the caller passes a copy with the arguments
// resolved against the batch's own predicted mints (premintBatchLocked).
//
// A pre-drawn sequence whose op later fails to apply (or whose journal
// append fails) leaves a gap in the stream, exactly like a pre-minted
// identity that is never materialised: the next Refresh's floor
// advisory walks the peer's watermark over it.
func (r *Runtime) premintLocked(op *wire.OpRecord, pin bool) {
	if r.sh == nil || r.replaying {
		return
	}
	ctr := r.heap.Counters()
	switch op.Kind {
	case wire.OpNewLocal:
		// Draw order matches the solo apply path: cluster, then object.
		op.MintClu = ctr.MintClu()
		op.MintObj = ctr.MintObj()
		holderClu := ids.NoCluster
		if ho := r.heap.Object(op.Holder); ho != nil {
			holderClu = ho.Cluster()
		}
		cl := ids.ClusterID{Site: r.id, Seq: op.MintClu}
		op.Place = r.sh.place(cl, holderClu, pin)
		if op.Place-1 != r.sh.index {
			// Cross-shard placement: the apply emits a Create through the
			// handoff queue, addressed to the own site.
			op.MutSeq = r.assignMutSeqLocked(r.id)
		}
	case wire.OpNewLocalIn:
		op.MintObj = ctr.MintObj()
		op.Place = r.sh.clusterShard(op.Clu) + 1
		if op.Place-1 != r.sh.index {
			op.MutSeq = r.assignMutSeqLocked(r.id)
		}
	case wire.OpNewCluster:
		op.MintClu = ctr.MintClu()
		cl := ids.ClusterID{Site: r.id, Seq: op.MintClu}
		op.Place = r.sh.place(cl, ids.NoCluster, true)
	case wire.OpNewRemote:
		r.st.mu.Lock()
		r.st.mint++
		op.MintObj = r.st.mint
		r.st.mu.Unlock()
		op.MutSeq = r.assignMutSeqLocked(op.Site)
	case wire.OpSendRef:
		op.MutSeq = r.premintSendRefSeqLocked(op.To, op.Target)
	}
}

// premintSendRefSeqLocked pre-draws the mutator-stream sequence of the
// RefTransfer a SendRef will emit, mirroring the apply-time conditions
// exactly (same lock hold, so the state cannot change in between): no
// frame for a destination this partition owns, and no sequence for
// frames SentRef gives no dedup identity (intra-cluster copies, where
// target and destination share a cluster — a staged holder is always
// live, hence its engine process registered). Caller holds r.mu.
func (r *Runtime) premintSendRefSeqLocked(to, target heap.Ref) uint64 {
	if to.Obj.Site == r.id && r.owns(to.Cluster) {
		return 0
	}
	if target.Cluster == to.Cluster {
		return 0
	}
	return r.assignMutSeqLocked(to.Obj.Site)
}

// mutSeqLocked resolves the sequence of one outbound mutator frame:
// the pre-drawn value when the record carries one (sharded commit, or
// a replay of it) — observed into the shared counter so later draws
// stay above it — and a live draw otherwise. Caller holds r.mu.
func (r *Runtime) mutSeqLocked(preminted uint64, target ids.SiteID) uint64 {
	if preminted != 0 {
		r.observeSeqLocked(target, core.StreamMut, preminted)
		return preminted
	}
	return r.assignMutSeqLocked(target)
}

// NewLocal creates an object in a fresh cluster on this site, referenced
// from holder (often the root object). It returns a reference to the new
// object.
func (r *Runtime) NewLocal(holder ids.ObjectID) (heap.Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runOpLocked(wire.OpRecord{Kind: wire.OpNewLocal, Holder: holder})
}

// NewLocalIn creates an object in an existing local cluster, referenced
// from holder. Used by coarse clustering policies (§3.5).
func (r *Runtime) NewLocalIn(holder ids.ObjectID, cl ids.ClusterID) (heap.Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runOpLocked(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: holder, Clu: cl})
}

// NewCluster mints a fresh local cluster identity (for NewLocalIn).
func (r *Runtime) NewCluster() (ids.ClusterID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, err := r.runOpLocked(wire.OpRecord{Kind: wire.OpNewCluster})
	return ref.Cluster, err
}

// NewRemote creates an object in a fresh cluster on the target site,
// referenced from holder: the paper's "a root object 1 creates an object
// 2" (§3.1). The creator mints the identities; the creation message
// carries the creator's stamp — the only piggybacked log-keeping datum.
func (r *Runtime) NewRemote(holder ids.ObjectID, target ids.SiteID) (heap.Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runOpLocked(wire.OpRecord{Kind: wire.OpNewRemote, Holder: holder, Site: target})
}

// SendRef copies a reference the sender holds to a (usually remote)
// object: the mutator messages of Fig 7. fromObj must currently hold
// target in one of its slots; to names the destination object. When the
// destination is local the copy is immediate; otherwise a single mutator
// message is sent — lazy log-keeping adds no control messages even when
// target denotes a third-party object on yet another site (§3.4).
func (r *Runtime) SendRef(fromObj ids.ObjectID, to heap.Ref, target heap.Ref) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.runOpLocked(wire.OpRecord{Kind: wire.OpSendRef, Holder: fromObj, To: to, Target: target})
	return err
}

// AddRef stores target into a new slot of holder (a local mutation).
func (r *Runtime) AddRef(holder ids.ObjectID, target heap.Ref) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.runOpLocked(wire.OpRecord{Kind: wire.OpAddRef, Holder: holder, Target: target})
	return err
}

// DropRefs clears every slot of holder that references target.Obj: the
// mutator destroys its edge(s) to that object.
func (r *Runtime) DropRefs(holder ids.ObjectID, target heap.Ref) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.runOpLocked(wire.OpRecord{Kind: wire.OpDropRefs, Holder: holder, Target: target})
	return err
}

// ClearSlot drops one slot of holder; the index becomes reusable under
// the heap's slot rule (package heap).
func (r *Runtime) ClearSlot(holder ids.ObjectID, slot int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.runOpLocked(wire.OpRecord{Kind: wire.OpClearSlot, Holder: holder, Slot: slot})
	return err
}

// applyOpLocked applies one resolved mutator operation: validation,
// mutation, sends (through emitLocked, so a surrounding batch commit
// coalesces them) and the settle cascade — everything except locking,
// journaling and checkpointing, which the callers own. For OpNewCluster
// the returned Ref carries only the minted cluster. Caller holds r.mu.
func (r *Runtime) applyOpLocked(op wire.OpRecord) (heap.Ref, error) {
	switch op.Kind {
	case wire.OpNewLocal:
		return r.applyNewLocalLocked(op)
	case wire.OpNewLocalIn:
		return r.applyNewLocalInLocked(op)
	case wire.OpNewCluster:
		var cl ids.ClusterID
		if op.MintClu != 0 {
			cl = ids.ClusterID{Site: r.id, Seq: op.MintClu}
			r.heap.Counters().ObserveClu(op.MintClu)
		} else {
			cl = r.heap.NewCluster()
		}
		r.notePlacement(cl, op.Place)
		r.engine.Register(cl)
		return heap.Ref{Cluster: cl}, nil
	case wire.OpNewRemote:
		return r.applyNewRemoteLocked(op)
	case wire.OpSendRef:
		return heap.NilRef, r.applySendRefLocked(op.Holder, op.To, op.Target, op.MutSeq)
	case wire.OpAddRef:
		_, err := r.heap.AddRef(op.Holder, op.Target)
		r.settleLocked()
		return heap.NilRef, err
	case wire.OpDropRefs:
		err := r.heap.DropRefs(op.Holder, op.Target.Obj)
		r.settleLocked()
		return heap.NilRef, err
	case wire.OpClearSlot:
		err := r.heap.ClearSlot(op.Holder, op.Slot)
		r.settleLocked()
		return heap.NilRef, err
	}
	return heap.NilRef, fmt.Errorf("site %v: apply %v: unknown op", r.id, op.Kind)
}

// notePlacement records an applied cluster placement in the shard
// routing map (replay repopulates the map through this path; the live
// path already stored it at pre-mint, and the re-store is idempotent).
func (r *Runtime) notePlacement(cl ids.ClusterID, place int) {
	if r.sh != nil && place != 0 {
		r.sh.placed(cl, place)
	}
}

func (r *Runtime) applyNewLocalLocked(op wire.OpRecord) (heap.Ref, error) {
	holder := op.Holder
	if r.heap.Object(holder) == nil {
		return heap.NilRef, fmt.Errorf("site %v: NewLocal holder %v: %w", r.id, holder, heap.ErrNoSuchObject)
	}
	var cl ids.ClusterID
	var obj ids.ObjectID
	if op.MintClu != 0 {
		// Pre-minted identities (sharded site, live or replay).
		cl = ids.ClusterID{Site: r.id, Seq: op.MintClu}
		obj = ids.ObjectID{Site: r.id, Seq: op.MintObj}
		r.heap.Counters().ObserveClu(op.MintClu)
		r.heap.Counters().ObserveObj(op.MintObj)
	} else {
		cl = r.heap.NewCluster()
	}
	r.notePlacement(cl, op.Place)
	if op.Place != 0 && op.Place-1 != r.shardIndex() {
		// The placement policy put the fresh cluster on a sibling shard:
		// create it there through the self-as-peer handoff path.
		return r.createOnShardLocked(holder, obj, cl, op.MutSeq)
	}
	r.engine.Register(cl)
	var o *heap.Object
	if obj.Valid() {
		var err error
		o, err = r.heap.NewObjectAt(obj, cl)
		if err != nil {
			return heap.NilRef, err
		}
	} else {
		o = r.heap.NewObject(cl)
	}
	ref := heap.Ref{Obj: o.ID(), Cluster: cl}
	if _, err := r.heap.AddRef(holder, ref); err != nil {
		return heap.NilRef, err
	}
	r.settleLocked()
	return ref, nil
}

func (r *Runtime) applyNewLocalInLocked(op wire.OpRecord) (heap.Ref, error) {
	holder, cl := op.Holder, op.Clu
	if cl.Site != r.id {
		return heap.NilRef, fmt.Errorf("site %v: NewLocalIn %v: %w", r.id, cl, heap.ErrForeignCluster)
	}
	if r.heap.Object(holder) == nil {
		return heap.NilRef, fmt.Errorf("site %v: NewLocalIn holder %v: %w", r.id, holder, heap.ErrNoSuchObject)
	}
	var obj ids.ObjectID
	if op.MintObj != 0 {
		obj = ids.ObjectID{Site: r.id, Seq: op.MintObj}
		r.heap.Counters().ObserveObj(op.MintObj)
	}
	if op.Place != 0 && op.Place-1 != r.shardIndex() {
		// The target cluster lives on a sibling shard.
		return r.createOnShardLocked(holder, obj, cl, op.MutSeq)
	}
	r.engine.Register(cl)
	var o *heap.Object
	if obj.Valid() {
		var err error
		o, err = r.heap.NewObjectAt(obj, cl)
		if err != nil {
			return heap.NilRef, err
		}
	} else {
		o = r.heap.NewObject(cl)
	}
	ref := heap.Ref{Obj: o.ID(), Cluster: cl}
	if _, err := r.heap.AddRef(holder, ref); err != nil {
		return heap.NilRef, err
	}
	r.settleLocked()
	return ref, nil
}

// createOnShardLocked creates a pre-minted object whose cluster a
// sibling shard owns: the exact remote-creation flow of
// applyNewRemoteLocked with the own site as target — the creation frame
// travels the ordered handoff queue instead of the network, and every
// invariant (journal-before-send, outbox retention, FrameAck-to-self
// retirement, zombie-drop at the owner) comes along for free. seq is
// the record's pre-drawn stream sequence (op.MutSeq). Caller holds
// r.mu.
func (r *Runtime) createOnShardLocked(holder ids.ObjectID, obj ids.ObjectID, cl ids.ClusterID, seq uint64) (heap.Ref, error) {
	ho := r.heap.Object(holder)
	ref := heap.Ref{Obj: obj, Cluster: cl}
	// Order matters, exactly as in applyNewRemoteLocked: AddRefIntro
	// fires EdgeUp, which bumps the creator's clock for the creation
	// event; the stamp shipped with the frame is that clock.
	if _, err := r.heap.AddRefIntro(holder, ref, ids.NoCluster, ids.CreationSeq); err != nil {
		return heap.NilRef, err
	}
	stamp := r.engine.RemoteCreationStamp(ho.Cluster())
	create := wire.Create{
		Creator: ho.Cluster(),
		Stamp:   stamp,
		Obj:     obj,
		Cluster: cl,
		Seq:     r.mutSeqLocked(seq, r.id),
	}
	r.emitLocked(r.id, create)
	r.recordOutboundLocked(r.id, create.Seq, create)
	r.settleLocked()
	return ref, nil
}

func (r *Runtime) applyNewRemoteLocked(op wire.OpRecord) (heap.Ref, error) {
	holder, target := op.Holder, op.Site
	ho := r.heap.Object(holder)
	if ho == nil {
		return heap.NilRef, fmt.Errorf("site %v: NewRemote holder %v: %w", r.id, holder, heap.ErrNoSuchObject)
	}
	if target == r.id {
		return heap.NilRef, fmt.Errorf("site %v: NewRemote: %w", r.id, ErrRemoteSelf)
	}
	var mint uint64
	if op.MintObj != 0 {
		// Pre-minted (sharded site): the recorded draw is authoritative;
		// keep the shared counter at least that far along.
		mint = op.MintObj
		r.st.mu.Lock()
		if r.st.mint < mint {
			r.st.mint = mint
		}
		r.st.mu.Unlock()
	} else {
		r.st.mu.Lock()
		r.st.mint++
		mint = r.st.mint
		r.st.mu.Unlock()
	}
	obj := ids.ObjectID{Site: target, Seq: uint64(r.id)<<32 | mint}
	cl := ids.ClusterID{Site: target, Seq: uint64(r.id)<<32 | mint}
	ref := heap.Ref{Obj: obj, Cluster: cl}
	// Order matters: AddRefIntro fires EdgeUp, which bumps the creator's
	// clock for the creation event; the stamp shipped with the message is
	// that clock, so the new object's own row records its creator
	// correctly. ids.CreationSeq marks the creation (no edge-assert: the
	// creation message is the assert).
	if _, err := r.heap.AddRefIntro(holder, ref, ids.NoCluster, ids.CreationSeq); err != nil {
		return heap.NilRef, err
	}
	stamp := r.engine.RemoteCreationStamp(ho.Cluster())
	create := wire.Create{
		Creator: ho.Cluster(),
		Stamp:   stamp,
		Obj:     obj,
		Cluster: cl,
		Seq:     r.mutSeqLocked(op.MutSeq, target),
	}
	r.emitLocked(target, create)
	r.recordOutboundLocked(target, create.Seq, create)
	r.settleLocked()
	return ref, nil
}

func (r *Runtime) applySendRefLocked(fromObj ids.ObjectID, to heap.Ref, target heap.Ref, preSeq uint64) error {
	fo := r.heap.Object(fromObj)
	if fo == nil {
		return fmt.Errorf("site %v: SendRef from %v: %w", r.id, fromObj, heap.ErrNoSuchObject)
	}
	if !r.holds(fo, target) {
		return fmt.Errorf("site %v: SendRef: %v of %v: %w", r.id, target, fromObj, ErrNotHolder)
	}
	if to.Obj.Site == r.id && r.owns(to.Cluster) {
		// Destination owned by this heap partition: immediate copy.
		if r.heap.Object(to.Obj) == nil {
			return fmt.Errorf("site %v: SendRef to %v: %w", r.id, to.Obj, heap.ErrNoSuchObject)
		}
		seq := r.engine.SentRef(fo.Cluster(), target.Cluster, to.Cluster)
		_, err := r.heap.AddRefIntro(to.Obj, target, fo.Cluster(), seq)
		r.settleLocked()
		return err
	}
	// Once a reference to a local object crosses the partition boundary
	// (to another site, or to a sibling shard), the object becomes a
	// global root (§2.1): local GC must treat it as a root until GGD
	// removes its cluster. Targets this shard does not own were marked
	// by whichever shard first exported them — the first export of any
	// reference necessarily executes on the owning shard.
	if r.owns(target.Cluster) {
		_ = r.heap.MarkEntry(target.Obj)
	}
	// Sender-side lazy log-keeping: DV_i[k][j]++ (or DV_i[i][j]++ when
	// sending the holder's own cluster reference).
	seq := r.engine.SentRef(fo.Cluster(), target.Cluster, to.Cluster)
	xfer := wire.RefTransfer{
		FromCluster: fo.Cluster(),
		IntroSeq:    seq,
		ToObj:       to.Obj,
		ToCluster:   to.Cluster,
		Target:      target,
	}
	// IntroSeq 0 frames (intra-cluster copies, stale holders) carry no
	// dedup identity, so a re-send would apply them twice; they stay out
	// of the retirement stream and the outbox — losing one to a crash is
	// loss-equivalent, which the protocol tolerates.
	if seq != 0 {
		xfer.Seq = r.mutSeqLocked(preSeq, to.Obj.Site)
	}
	r.emitLocked(to.Obj.Site, xfer)
	r.recordOutboundLocked(to.Obj.Site, xfer.Seq, xfer)
	r.settleLocked()
	return nil
}

func (r *Runtime) holds(o *heap.Object, target heap.Ref) bool {
	// Sending one's own reference is always legal, mirroring the paper's
	// "sends a reference denoting itself".
	return target.Obj == o.ID() || o.Holds(target)
}

// Collect runs local collections until no further GGD cascade fires.
// Collections are journaled: sweeping the last proxy of a remote
// cluster advances the engine clock and emits destruction messages, so
// replay must reproduce them.
func (r *Runtime) Collect() (heap.CollectStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.collectShardLocked(true)
}

// collectShardLocked is the body of Collect: journal (when this shard
// speaks for the site), collect, settle, checkpoint. Sharded.Collect
// journals one site-wide OpCollect through shard 0 and runs the body on
// every shard. Caller holds r.mu and no other shard's lock.
func (r *Runtime) collectShardLocked(journal bool) (heap.CollectStats, error) {
	if journal {
		if err := r.journalOp(wire.OpRecord{Kind: wire.OpCollect}); err != nil {
			return heap.CollectStats{}, err
		}
	}
	stats := r.collectLocked()
	r.engine.Drain()
	r.settleLocked()
	r.checkpointLocked()
	return stats, nil
}

// Refresh re-propagates every local process's vector and re-ships the
// unacknowledged retained state — the engine's journal rows and bundles
// plus this site's outbox frames, each under its re-send damper — then
// advises peers of any stream floors so cumulative watermarks cannot
// stall on abandoned gaps: the recovery round that re-detects residual
// garbage after message loss (§5, DESIGN.md §3.2).
func (r *Runtime) Refresh() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.mu.Lock()
	r.st.refreshRound++
	r.st.mu.Unlock()
	return r.refreshShardLocked(true, true)
}

// refreshShardLocked is the body of Refresh minus the round bump (the
// site bumps once, not once per shard). floors gates the StreamAdvance
// advisories: an unsharded runtime advances its own floors; a sharded
// site suppresses the per-shard pass and emits merged floors from
// Sharded.Refresh instead — one shard's retained floor says nothing
// about a sibling's, and advancing past a sibling's retained row would
// let the peer retire it undelivered. Caller holds r.mu and no other
// shard's lock.
func (r *Runtime) refreshShardLocked(journal, floors bool) error {
	if journal {
		if err := r.journalOp(wire.OpRecord{Kind: wire.OpRefresh}); err != nil {
			return err
		}
	}
	r.engine.Refresh()
	r.resendOutboxLocked()
	if floors {
		r.advanceFloorsLocked()
	}
	r.settleLocked()
	r.flushAcksLocked()
	r.checkpointLocked()
	return nil
}

// --- Introspection -------------------------------------------------------

// NumObjects returns the number of live heap objects (including the root
// object).
func (r *Runtime) NumObjects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heap.NumObjects()
}

// NumSlots returns the total slot-array length over the live heap
// objects (heap.Heap.NumSlots).
func (r *Runtime) NumSlots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heap.NumSlots()
}

// HasObject reports whether the object still exists.
func (r *Runtime) HasObject(obj ids.ObjectID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heap.Object(obj) != nil
}

// ClusterRemoved reports whether GGD removed the cluster.
func (r *Runtime) ClusterRemoved(cl ids.ClusterID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.Removed(cl)
}

// EngineStats returns the GGD engine counters.
func (r *Runtime) EngineStats() core.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.Stats()
}

// LogSnapshot returns a deep copy of a local process's log, or nil.
func (r *Runtime) LogSnapshot(cl ids.ClusterID) *vclock.Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.LogSnapshot(cl)
}

// Clock returns a local process's event counter.
func (r *Runtime) Clock(cl ids.ClusterID) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.Clock(cl)
}

// ObjectSnapshot is one object's state for the oracle.
type ObjectSnapshot struct {
	ID      ids.ObjectID
	Cluster ids.ClusterID
	Slots   []heap.Ref
}

// Snapshot exports the site's objects and root for the global oracle.
func (r *Runtime) Snapshot() (root ids.ObjectID, objs []ObjectSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	root = r.heap.RootObject()
	for _, o := range r.heap.Objects() {
		objs = append(objs, ObjectSnapshot{ID: o.ID(), Cluster: o.Cluster(), Slots: o.Slots()})
	}
	return root, objs
}
