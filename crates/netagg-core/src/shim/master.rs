//! Master-side shim layer.
//!
//! Tracks per-request state (the paper's "partial result collection"),
//! receives root aggregates (or raw partials from direct workers when no
//! boxes are deployed), performs the final cross-tree merge and emulates
//! empty per-worker results. It is also the parent of the root boxes, so
//! it runs the same straggler bypass the boxes do.

use crate::conn_cache::ConnCache;
use crate::failure::DetectorConfig;
use crate::fanin::{repoint_in_flight, select_stragglers, FanInRoute};
use crate::ledger::{ChunkDisposition, FanInLedger};
use crate::lifecycle::{CancelToken, JoinScope, OrderedMutex, WakerGuard, DEFAULT_JOIN_DEADLINE};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::shim::worker::per_request_tree;
use crate::shim::TreeSelection;
use crate::tick::{self, Job, Node, Probes, Redirect};
use crate::tree::{master_addr, Parent, TreeSpec};
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{Connection, NetError, NodeId, Transport};
use netagg_obs::trace::{self, TraceCtx, TraceRecorder};
use netagg_obs::{names, Counter, Gauge, Histogram, MetricsRegistry};
use parking_lot::Condvar;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The fully aggregated answer to one request.
#[derive(Debug, Clone)]
pub struct AggregatedResult {
    /// The combined result (all partial results merged).
    pub combined: Bytes,
    /// How many empty per-worker results the shim emulated (the paper's
    /// "empty partial results": the master logic sees one real result and
    /// `expected_workers - 1` empties).
    pub emulated_empty: usize,
    /// Serialised identity element used for the emulated empties.
    pub empty_payload: Bytes,
    /// Number of source messages merged at the master (roots + directs).
    pub master_inputs: usize,
    /// Total payload bytes the master received for this request.
    pub master_input_bytes: usize,
}

impl AggregatedResult {
    /// The per-worker result vector the unmodified master logic iterates
    /// over: one combined result plus emulated empties.
    pub fn emulated_worker_results(&self) -> Vec<Bytes> {
        let mut v = Vec::with_capacity(self.emulated_empty + 1);
        v.push(self.combined.clone());
        for _ in 0..self.emulated_empty {
            v.push(self.empty_payload.clone());
        }
        v
    }
}

/// Master shim configuration.
#[derive(Debug, Clone)]
pub struct MasterShimConfig {
    /// How requests map onto aggregation trees.
    pub selection: TreeSelection,
    /// Per-request straggler bypass threshold for root boxes.
    pub straggler_threshold: Option<Duration>,
    /// Drop per-request state not claimed by a waiter within this age
    /// (abandoned requests would otherwise accumulate forever).
    pub pending_ttl: Duration,
    /// Metrics registry the shim publishes to (`shim.master.*`,
    /// `straggler.master_bypasses`). `None` disables metrics.
    pub obs: Option<MetricsRegistry>,
}

impl Default for MasterShimConfig {
    fn default() -> Self {
        Self {
            selection: TreeSelection::PerRequest,
            straggler_threshold: None,
            pending_ttl: Duration::from_secs(600),
            obs: None,
        }
    }
}

/// Pre-resolved `shim.master.*` metric handles.
struct MasterObs {
    requests_registered: Arc<Counter>,
    requests_completed: Arc<Counter>,
    messages_in: Arc<Counter>,
    bytes_in: Arc<Counter>,
    emulated_empties: Arc<Counter>,
    duplicates_dropped: Arc<Counter>,
    repoints: Arc<Counter>,
    requests_inflight: Arc<Gauge>,
    sources_outstanding: Arc<Gauge>,
    request_wait_us: Arc<Histogram>,
    master_bypasses: Arc<Counter>,
    tracer: Arc<TraceRecorder>,
    /// Component label for master-side spans, e.g. `master-1`.
    component: Arc<str>,
    registry: MetricsRegistry,
}

impl MasterObs {
    fn new(registry: MetricsRegistry, app: AppId) -> Self {
        Self {
            requests_registered: registry.counter(names::SHIM_MASTER_REQUESTS_REGISTERED),
            requests_completed: registry.counter(names::SHIM_MASTER_REQUESTS_COMPLETED),
            messages_in: registry.counter(names::SHIM_MASTER_MESSAGES_IN),
            bytes_in: registry.counter(names::SHIM_MASTER_BYTES_IN),
            emulated_empties: registry.counter(names::SHIM_MASTER_EMULATED_EMPTIES),
            duplicates_dropped: registry.counter(names::SHIM_MASTER_DUPLICATES_DROPPED),
            repoints: registry.counter(names::SHIM_MASTER_REPOINTS),
            requests_inflight: registry.gauge(names::SHIM_MASTER_REQUESTS_INFLIGHT),
            sources_outstanding: registry.gauge(names::SHIM_MASTER_SOURCES_OUTSTANDING),
            request_wait_us: registry.histogram(names::SHIM_MASTER_REQUEST_WAIT_US),
            master_bypasses: registry.counter(names::STRAGGLER_MASTER_BYPASSES),
            tracer: registry.tracer(),
            component: format!("master-{}", app.0).into(),
            registry,
        }
    }

    /// Refresh the per-request ledger gauges. Called with the pending map
    /// locked after any transition that changes owed/ended accounting.
    fn update_ledger_gauges(&self, pending: &HashMap<RequestId, Pending>) {
        let inflight = pending.values().filter(|p| !p.complete).count();
        let outstanding: usize = pending
            .values()
            .filter(|p| !p.complete)
            .map(|p| p.ledger.outstanding())
            .sum();
        self.requests_inflight.set(inflight as f64);
        self.sources_outstanding.set(outstanding as f64);
    }
}

/// Trace anchor of one sampled request at the master: the root span's id
/// is the trace id itself (DESIGN.md §11), so only the start is kept.
#[derive(Debug, Clone, Copy)]
struct PendingTrace {
    trace_id: u64,
    /// Registration (or first-data) time on the shared monotonic axis.
    start_ns: u64,
}

struct Pending {
    expected_workers: usize,
    /// Set-based fan-in accounting, keyed by (tree, source): completion
    /// means every owed contributor has delivered its final chunk.
    /// Replaces the old `expected`/`expected_extra` counters, which were
    /// racy under failure re-points (see DESIGN.md §8).
    ledger: FanInLedger<(TreeId, SourceId)>,
    /// Received chunks tagged by contributor, so the final merge can drop
    /// everything from contributors the ledger ignored (exact duplicate
    /// suppression when a box streamed partial chunks and then failed).
    inputs: Vec<((TreeId, SourceId), Bytes)>,
    registered_at: Instant,
    first_data: Option<Instant>,
    complete: bool,
    /// `Some` when the request is trace-sampled (DESIGN.md §11).
    trace: Option<PendingTrace>,
}

/// How many delivered request ids the shim remembers for duplicate
/// suppression of late replays. Replays trail the failure they recover
/// from by at most the in-flight window, so a few thousand ids is far
/// more history than any redelivery can span.
const DELIVERED_MEMORY: usize = 4096;

struct Inner {
    app: AppId,
    addr: NodeId,
    agg: Arc<dyn DynAggregator>,
    cfg: MasterShimConfig,
    specs: Vec<TreeSpec>,
    /// Per-tree fan-in routes: root boxes and direct workers. Updated
    /// when a root box fails; new requests seed their ledger from it.
    routes: OrderedMutex<HashMap<TreeId, FanInRoute>>,
    pending: OrderedMutex<HashMap<RequestId, Pending>>,
    /// Recently delivered request ids (reaped from `pending` by `wait`).
    /// Late replayed chunks for these are duplicates and must not
    /// resurrect a fresh ledger entry — that would complete the request
    /// a second time and leak the resurrected entry. Bounded FIFO.
    delivered: OrderedMutex<(VecDeque<RequestId>, HashSet<RequestId>)>,
    cv: Condvar,
    num_trees: u32,
    cancel: CancelToken,
    /// Control-plane connections (RequestMeta, Broadcast, straggler and
    /// failure redirects), one per destination.
    ctrl: ConnCache,
    /// Dials the tick's probe connections.
    transport: Arc<dyn Transport>,
    /// Failure detection, once armed (see
    /// [`MasterShim::arm_failure_detection`]).
    detector: OnceLock<DetectorConfig>,
    obs: Option<MasterObs>,
}

/// A handle to one registered request.
pub struct PendingRequest {
    inner: Arc<Inner>,
    request: RequestId,
}

/// The master-side shim.
pub struct MasterShim {
    inner: Arc<Inner>,
    scope: JoinScope,
    /// Wakes `PendingRequest::wait` condvar sleepers on cancellation.
    _cv_waker: WakerGuard,
}

impl MasterShim {
    /// Bind the master address and start the shim's listener (and, with a
    /// straggler threshold, its tick thread).
    pub fn start(
        transport: Arc<dyn Transport>,
        app: AppId,
        agg: Arc<dyn DynAggregator>,
        specs: &[TreeSpec],
        cfg: MasterShimConfig,
    ) -> Result<Arc<Self>, NetError> {
        let addr = master_addr(app);
        let mut listener = transport.bind(addr)?;
        let routes = specs
            .iter()
            .map(|spec| (spec.tree, FanInRoute::for_master(spec, app)))
            .collect();
        let obs = cfg.obs.clone().map(|reg| MasterObs::new(reg, app));
        let cancel = CancelToken::new();
        let scope = JoinScope::with_obs(
            format!("master-shim-{}", app.0),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            cfg.obs.as_ref(),
        );
        let inner = Arc::new(Inner {
            app,
            addr,
            agg,
            ctrl: ConnCache::new(transport.clone(), addr),
            transport,
            detector: OnceLock::new(),
            cfg,
            specs: specs.to_vec(),
            routes: OrderedMutex::new(lock_order::MASTER_ROUTES, routes),
            pending: OrderedMutex::new(lock_order::MASTER_PENDING, HashMap::new()),
            delivered: OrderedMutex::new(
                lock_order::MASTER_DELIVERED,
                (VecDeque::new(), HashSet::new()),
            ),
            cv: Condvar::new(),
            num_trees: specs.len() as u32,
            cancel: cancel.clone(),
            obs,
        });
        // Wake condvar waiters on cancellation (takes the pending lock so a
        // waiter between its cancel check and its park cannot miss the
        // notify). Weak: a strong ref here would cycle through the token.
        let weak = Arc::downgrade(&inner);
        let cv_waker = cancel.register_waker(move || {
            if let Some(i) = weak.upgrade() {
                drop(i.pending.lock());
                i.cv.notify_all();
            }
        });
        let shim = Arc::new(Self {
            inner: inner.clone(),
            scope,
            _cv_waker: cv_waker,
        });
        {
            let inner = inner.clone();
            let shim2 = Arc::downgrade(&shim);
            shim.scope
                .spawn(format!("master-shim-{}", app.0), move || loop {
                    match listener.accept_cancellable(&inner.cancel) {
                        Ok(conn) => {
                            if let Some(s) = shim2.upgrade() {
                                let inner = inner.clone();
                                s.scope
                                    .spawn(
                                        format!("master-shim-{}-reader", inner.app.0),
                                        move || reader_loop(&inner, conn),
                                    )
                                    .expect("spawn master shim reader");
                            }
                        }
                        Err(NetError::Timeout) => continue,
                        Err(_) => return, // cancelled or listener torn down
                    }
                })
                .map_err(|e| NetError::Io(e.to_string()))?;
        }
        if inner.cfg.straggler_threshold.is_some() {
            shim.spawn_tick().map_err(|e| NetError::Io(e.to_string()))?;
        }
        Ok(shim)
    }

    /// Arm failure detection of the root boxes: the tick probes every
    /// child box the shim's routes hold and re-points around failures.
    /// Starts the tick thread unless it already runs or there is no child
    /// box to watch. Later calls are no-ops.
    pub(crate) fn arm_failure_detection(&self, cfg: DetectorConfig) {
        let ticking = self.inner.cfg.straggler_threshold.is_some();
        if self.inner.detector.set(cfg).is_ok() && !ticking && !self.inner.watched().is_empty() {
            self.spawn_tick().expect("spawn tick");
        }
    }

    /// The master's timer thread: the straggler scan and the failure
    /// detector.
    fn spawn_tick(&self) -> std::io::Result<()> {
        let inner = self.inner.clone();
        let app = inner.app.0;
        self.scope
            .spawn(format!("master-shim-{app}-tick"), move || {
                let inner = &inner;
                let mut jobs = Vec::new();
                if let Some(threshold) = inner.cfg.straggler_threshold {
                    // Hierarchical thresholds: the master waits longer than the
                    // boxes so box-level bypass (closer to the data) resolves
                    // stragglers first.
                    let scan = move || scan_stragglers(inner, threshold * 4);
                    jobs.push(Job::every(threshold, scan));
                }
                tick::run(inner, &inner.cancel, jobs);
            })
    }

    /// Register a request before (or while) workers send their partials.
    /// `expected_workers` is the number of workers participating; the shim
    /// uses it to emulate that many minus one empty results.
    pub fn register_request(&self, request: u64, expected_workers: usize) -> PendingRequest {
        let request = RequestId(request);
        if let Some(o) = &self.inner.obs {
            o.requests_registered.inc();
        }
        let mut pending = self.inner.pending.lock();
        // Opportunistic GC: drop abandoned request state older than the TTL
        // (completed results nobody waited for, or requests that never
        // finished).
        let ttl = self.inner.cfg.pending_ttl;
        pending.retain(|_, p| p.registered_at.elapsed() < ttl);
        let p = pending
            .entry(request)
            .or_insert_with(|| fresh_pending(&self.inner, request));
        p.expected_workers = expected_workers;
        if let Some(o) = &self.inner.obs {
            o.update_ledger_gauges(&pending);
        }
        PendingRequest {
            inner: self.inner.clone(),
            request,
        }
    }

    /// Register a request that only a *subset* of the workers participates
    /// in (e.g. a search query routed to some shards). The shim sends
    /// per-request metadata to the on-path boxes so they know how many
    /// sources to expect (the paper's `RequestMeta` flow: the master shim
    /// records request information and forwards it to the agg boxes).
    pub fn register_request_subset(&self, request: u64, workers: &[u32]) -> PendingRequest {
        let rid = RequestId(request);
        if let Some(o) = &self.inner.obs {
            o.requests_registered.inc();
        }
        let subset: std::collections::HashSet<u32> = workers.iter().copied().collect();
        // Root-span ctx rides down with the metadata so box-side views can
        // reference the master's root span (root span id == trace id).
        let meta_ctx = self.inner.obs.as_ref().map_or(TraceCtx::NONE, |o| {
            if o.tracer.sampled(request) {
                let tid = trace::trace_id(self.inner.app.0, request);
                TraceCtx {
                    trace_id: tid,
                    parent_span_id: tid,
                }
            } else {
                TraceCtx::NONE
            }
        });
        let mut master_owed: Vec<(TreeId, SourceId)> = Vec::new();
        for tree_id in trees_for_request(&self.inner, rid) {
            let Some(spec) = self.inner.specs.iter().find(|s| s.tree == tree_id) else {
                continue;
            };
            // Compute each box's participating source *set* bottom-up:
            // direct workers in the subset plus child boxes with non-empty
            // participating subtrees.
            let mut part: HashMap<u32, Vec<SourceId>> = HashMap::new();
            let mut order: Vec<&crate::tree::TreeBox> = spec.boxes.iter().collect();
            // Children before parents: sort by depth (walk to master).
            let depth = |mut b: u32| -> usize {
                let mut d = 0;
                while let Some(Parent::Box(p)) = spec.tree_box(b).map(|t| t.parent) {
                    d += 1;
                    b = p;
                }
                d
            };
            order.sort_by_key(|tb| std::cmp::Reverse(depth(tb.box_id)));
            for tb in order {
                let mut sources: Vec<SourceId> = tb
                    .worker_children
                    .iter()
                    .filter(|w| subset.contains(w))
                    .map(|w| SourceId::Worker(*w))
                    .collect();
                sources.extend(
                    tb.box_children
                        .iter()
                        .filter(|c| part.get(c).map(|v| !v.is_empty()).unwrap_or(false))
                        .map(|c| SourceId::Box(*c)),
                );
                part.insert(tb.box_id, sources);
            }
            // Tell every participating box exactly which sources to expect.
            for tb in &spec.boxes {
                let Some(sources) = part.get(&tb.box_id) else {
                    continue;
                };
                if sources.is_empty() {
                    continue;
                }
                let msg = Message::RequestMeta {
                    app: self.inner.app,
                    request: rid,
                    tree: tree_id,
                    ctx: meta_ctx,
                    sources: sources.clone(),
                };
                let _ = self.inner.ctrl.send(tb.addr, msg.encode());
            }
            // Master-facing owed entries for this tree. A root box that
            // already failed (dropped from the route's owed set) is
            // substituted by its participating children directly.
            {
                let routes = self.inner.routes.lock();
                let route = routes.get(&tree_id);
                for tb in &spec.boxes {
                    if tb.parent != Parent::Master {
                        continue;
                    }
                    let Some(sources) = part.get(&tb.box_id) else {
                        continue;
                    };
                    if sources.is_empty() {
                        continue;
                    }
                    let still_routed = route
                        .map(|r| r.owed.contains(&SourceId::Box(tb.box_id)))
                        .unwrap_or(true);
                    if still_routed {
                        master_owed.push((tree_id, SourceId::Box(tb.box_id)));
                    } else {
                        master_owed.extend(sources.iter().map(|s| (tree_id, *s)));
                    }
                }
            }
            master_owed.extend(
                spec.direct_workers
                    .iter()
                    .filter(|w| subset.contains(w))
                    .map(|w| (tree_id, SourceId::Worker(*w))),
            );
        }
        let mut pending = self.inner.pending.lock();
        let p = pending
            .entry(rid)
            .or_insert_with(|| fresh_pending(&self.inner, rid));
        p.expected_workers = workers.len();
        p.ledger.set_requirement(master_owed);
        if let Some(o) = &self.inner.obs {
            o.update_ledger_gauges(&pending);
        }
        PendingRequest {
            inner: self.inner.clone(),
            request: rid,
        }
    }

    /// Distribute `payload` to every worker down the request's aggregation
    /// tree (the one-to-many extension the paper sketches in Section 5):
    /// the master sends one copy per root box (or per direct worker when no
    /// boxes are deployed); boxes replicate to their children over their
    /// high-bandwidth links.
    pub fn broadcast(&self, request: u64, payload: Bytes) -> Result<(), AggError> {
        let rid = RequestId(request);
        for tree_id in trees_for_request(&self.inner, rid) {
            let Some(spec) = self.inner.specs.iter().find(|s| s.tree == tree_id) else {
                continue;
            };
            let msg = Message::Broadcast {
                app: self.inner.app,
                request: rid,
                tree: tree_id,
                payload: payload.clone(),
            };
            let mut targets: Vec<NodeId> = spec
                .boxes
                .iter()
                .filter(|b| b.parent == Parent::Master && b.expected_sources() > 0)
                .map(|b| b.addr)
                .collect();
            targets.extend(
                spec.direct_workers
                    .iter()
                    .map(|w| crate::tree::worker_addr(self.inner.app, *w)),
            );
            for t in targets {
                self.inner.ctrl.send(t, msg.encode())?;
            }
        }
        Ok(())
    }

    /// React to a confirmed root-box failure on one tree: *move* the
    /// box's behind-sources into direct-to-master ledger entries, for the
    /// route (future requests) and every in-flight request, then tell the
    /// box's children to send here permanently. Idempotent under repeated
    /// firings, straggler redirects racing the detector, and replayed
    /// duplicates.
    pub fn on_child_box_failed(&self, tree: TreeId, failed_box: u32) {
        let inner = &self.inner;
        let redirect = child_box_failed(inner, tree, failed_box).map(|c| (inner.app, tree, c));
        tick::redirect(&inner.ctrl, inner.addr, redirect, inner.cfg.obs.as_ref());
    }

    /// The master shim's transport address.
    pub fn addr(&self) -> NodeId {
        self.inner.addr
    }

    /// Stop all shim threads: cancel the token (waking blocked accepts,
    /// reads and `wait` condvar sleepers immediately) and join the scope
    /// under its deadline. Idempotent.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        self.scope.finish();
        // Requests abandoned mid-flight never reach the `wait` success
        // path, so their root span would be missing and every hop span of
        // the trace would dangle. Close them start → now so partial traces
        // still form one connected tree (DESIGN.md §11). Completed entries
        // already recorded their root in `wait`.
        if let Some(o) = &self.inner.obs {
            let mut pending = self.inner.pending.lock();
            for (rid, p) in pending.drain() {
                if let Some(t) = p.trace.filter(|_| !p.complete) {
                    o.tracer.record_span(
                        names::spans::MASTER_REQUEST,
                        &o.component,
                        t.trace_id,
                        t.trace_id,
                        0,
                        rid.0,
                        t.start_ns,
                        trace::now_ns(),
                    );
                }
            }
        }
    }
}

impl Drop for MasterShim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl PendingRequest {
    /// Block until the fully aggregated result is available.
    pub fn wait(&self, timeout: Duration) -> Result<AggregatedResult, AggError> {
        let deadline = Instant::now() + timeout;
        let mut pending = self.inner.pending.lock();
        loop {
            if self.inner.cancel.is_cancelled() {
                return Err(AggError::Shutdown);
            }
            let p = pending
                .get(&self.request)
                .ok_or_else(|| AggError::Net("request not registered".into()))?;
            if p.complete {
                let p = pending.remove(&self.request).unwrap();
                // Remember the delivery (bounded memory) so late replayed
                // chunks cannot resurrect the request. Lock order:
                // pending before delivered, matching the reader path.
                {
                    let mut delivered = self.inner.delivered.lock();
                    delivered.0.push_back(self.request);
                    delivered.1.insert(self.request);
                    if delivered.0.len() > DELIVERED_MEMORY {
                        if let Some(old) = delivered.0.pop_front() {
                            delivered.1.remove(&old);
                        }
                    }
                }
                drop(pending);
                if let Some(o) = &self.inner.obs {
                    // Registration → fully merged result, as the unmodified
                    // master logic experiences it.
                    o.request_wait_us.record_duration(p.registered_at.elapsed());
                    o.emulated_empties
                        .add(p.expected_workers.saturating_sub(1) as u64);
                }
                // Final aggregation step across tree roots / direct workers
                // (Section 3.1: with multiple trees the master merges the
                // roots' results). Chunks from contributors the ledger
                // ignored (a box that streamed partials and then failed,
                // with its workers replaying) are dropped here: exact
                // duplicate suppression.
                let kept: Vec<Bytes> = p
                    .inputs
                    .iter()
                    .filter(|(k, _)| !p.ledger.is_ignored(k))
                    .map(|(_, b)| b.clone())
                    .collect();
                let master_inputs = kept.len();
                let master_input_bytes = kept.iter().map(Bytes::len).sum();
                let combined = self.inner.agg.aggregate_serialized(kept)?;
                // Close the request's root span: registration → fully
                // merged result. Its span id is the trace id itself, so
                // every hop recorded anywhere hangs below this one.
                if let (Some(o), Some(t)) = (&self.inner.obs, p.trace) {
                    o.tracer.record_span(
                        names::spans::MASTER_REQUEST,
                        &o.component,
                        t.trace_id,
                        t.trace_id,
                        0,
                        self.request.0,
                        t.start_ns,
                        trace::now_ns(),
                    );
                }
                return Ok(AggregatedResult {
                    combined,
                    emulated_empty: p.expected_workers.saturating_sub(1),
                    empty_payload: self.inner.agg.empty_serialized(),
                    master_inputs,
                    master_input_bytes,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(AggError::Timeout);
            }
            self.inner.cv.wait_for(pending.inner(), deadline - now);
        }
    }

    /// The request this handle tracks.
    pub fn request_id(&self) -> u64 {
        self.request.0
    }
}

/// Trees that carry data for a request under the configured selection.
fn trees_for_request(inner: &Inner, request: RequestId) -> Vec<TreeId> {
    match inner.cfg.selection {
        TreeSelection::PerRequest => vec![per_request_tree(request, inner.num_trees)],
        TreeSelection::Keyed => (0..inner.num_trees).map(TreeId).collect(),
    }
}

/// Provision per-request state with a fan-in ledger seeded from the
/// current routing table (the owed contributor set of every tree the
/// request uses). Callers hold the pending lock; this takes routes
/// (lock order: pending before routes).
fn fresh_pending(inner: &Inner, request: RequestId) -> Pending {
    let routes = inner.routes.lock();
    let mut owed: Vec<(TreeId, SourceId)> = Vec::new();
    for tree in trees_for_request(inner, request) {
        if let Some(r) = routes.get(&tree) {
            owed.extend(r.owed.iter().map(|s| (tree, *s)));
        }
    }
    let trace = inner.obs.as_ref().and_then(|o| {
        o.tracer.sampled(request.0).then(|| PendingTrace {
            trace_id: trace::trace_id(inner.app.0, request.0),
            start_ns: trace::now_ns(),
        })
    });
    Pending {
        expected_workers: 0,
        ledger: FanInLedger::new(owed),
        inputs: Vec::new(),
        registered_at: Instant::now(),
        first_data: None,
        complete: false,
        trace,
    }
}

fn reader_loop(inner: &Arc<Inner>, mut conn: Box<dyn Connection>) {
    loop {
        let frame = match conn.recv_cancellable(&inner.cancel) {
            Ok(f) => f,
            Err(NetError::Timeout) => continue,
            Err(_) => return, // cancelled, peer closed, or transport error
        };
        let Ok(msg) = Message::decode(frame) else {
            continue;
        };
        match msg {
            Message::Data {
                app,
                request,
                tree,
                source,
                seq,
                last,
                ctx,
                sent_ns,
                payload,
            } => {
                if app != inner.app {
                    continue;
                }
                let mut recv_span: Option<(u64, u64)> = None;
                if let Some(o) = &inner.obs {
                    o.messages_in.inc();
                    o.bytes_in.add(payload.len() as u64);
                    // Stitch the final hop: sender stamp → arrival here.
                    if ctx.is_active() && o.tracer.enabled() {
                        let now = trace::now_ns();
                        let wire = o.tracer.next_span_id();
                        o.tracer.record_span(
                            names::spans::WIRE_TRANSFER,
                            &o.component,
                            ctx.trace_id,
                            wire,
                            ctx.parent_span_id,
                            request.0,
                            sent_ns.min(now),
                            now,
                        );
                        recv_span = Some((wire, now));
                    }
                }
                let mut pending = inner.pending.lock();
                // A chunk for an already-delivered request (a worker
                // replaying after the waiter reaped the result) is a
                // duplicate; seeding a fresh ledger for it would complete
                // the request a second time. Lock order: pending before
                // delivered, matching the reap in `PendingRequest::wait`.
                if inner.delivered.lock().1.contains(&request) {
                    if let Some(o) = &inner.obs {
                        o.duplicates_dropped.inc();
                    }
                    continue;
                }
                // Unregistered requests are recorded (the data may arrive
                // before register_request on another thread); the ledger
                // is seeded from the routing table either way.
                let p = pending
                    .entry(request)
                    .or_insert_with(|| fresh_pending(inner, request));
                if p.complete {
                    continue;
                }
                let key = (tree, source);
                match p.ledger.accept_chunk(key, seq) {
                    ChunkDisposition::Ignored | ChunkDisposition::Duplicate => {
                        if let Some(o) = &inner.obs {
                            o.duplicates_dropped.inc();
                        }
                        continue;
                    }
                    ChunkDisposition::Fresh { .. } => {}
                }
                p.first_data.get_or_insert_with(Instant::now);
                if !payload.is_empty() {
                    p.inputs.push((key, payload));
                }
                if last {
                    p.ledger.note_end(key);
                    if p.ledger.is_complete() {
                        p.complete = true;
                        if let Some(o) = &inner.obs {
                            o.requests_completed.inc();
                        }
                        inner.cv.notify_all();
                    }
                }
                if let Some(o) = &inner.obs {
                    o.update_ledger_gauges(&pending);
                    // Ingest span for accepted chunks (duplicates keep only
                    // the wire-transfer span above).
                    if let Some((wire, start)) = recv_span {
                        o.tracer.record_span(
                            names::spans::MASTER_RECV,
                            &o.component,
                            ctx.trace_id,
                            o.tracer.next_span_id(),
                            wire,
                            request.0,
                            start,
                            trace::now_ns(),
                        );
                    }
                }
            }
            Message::Heartbeat { nonce, .. } => {
                let _ = conn.send(
                    Message::HeartbeatAck {
                        from: u32::MAX,
                        nonce,
                    }
                    .encode(),
                );
            }
            _ => {}
        }
    }
}

/// The shared root-box failure transition behind
/// [`MasterShim::on_child_box_failed`] and the tick's failure detector.
/// Returns the failed box's children, owed a permanent redirect, or
/// `None` when the route no longer held the box.
fn child_box_failed(inner: &Inner, tree: TreeId, failed_box: u32) -> Option<Vec<NodeId>> {
    // Lock order: pending before routes (matches the reader path).
    let mut pending = inner.pending.lock();
    // Route-level idempotency: only the first firing finds the entry.
    let (behind, children) = inner.routes.lock().get_mut(&tree).and_then(|r| {
        let children = r.child_boxes.get(&failed_box)?.children_addrs.clone();
        Some((r.fail_child(failed_box)?, children))
    })?;
    let behind: Vec<(TreeId, SourceId)> = behind.into_iter().map(|s| (tree, s)).collect();
    let mut repointed = 0u64;
    let mut completed = 0u64;
    for (rid, p) in pending.iter_mut() {
        if p.complete {
            continue;
        }
        let step = repoint_in_flight(&mut p.ledger, (tree, SourceId::Box(failed_box)), &behind);
        if step.moved {
            repointed += 1;
            // Mark the adoption in the request's trace: the span tree
            // stays connected across the failure because the replayed
            // chunks' fresh ctx re-attaches here.
            if let (Some(o), Some(t)) = (&inner.obs, p.trace) {
                let now = trace::now_ns();
                o.tracer.record_span(
                    names::spans::MASTER_REPOINT,
                    &o.component,
                    t.trace_id,
                    o.tracer.next_span_id(),
                    t.trace_id,
                    rid.0,
                    now,
                    now,
                );
            }
        }
        if step.complete {
            p.complete = true;
            completed += 1;
        }
    }
    if let Some(o) = &inner.obs {
        // Count the route transition even when no request was in
        // flight, so the audit trail always records the failure.
        o.repoints.add(repointed.max(1));
        o.requests_completed.add(completed);
        o.registry.emit(
            names::EVENT_REPOINT,
            format!(
                "master shim (app {}) re-pointed failed box {} on tree {} \
                 across {} in-flight requests",
                inner.app.0, failed_box, tree.0, repointed
            ),
        );
        o.update_ledger_gauges(&pending);
    }
    if completed > 0 {
        inner.cv.notify_all();
    }
    Some(children)
}

impl Node for Arc<Inner> {
    fn probes(&self) -> Option<Probes> {
        let (transport, obs) = (self.transport.clone(), self.cfg.obs.clone());
        self.detector
            .get()
            .map(|cfg| Probes::new(transport, self.addr, cfg, obs))
    }

    fn watched(&self) -> HashSet<u32> {
        let routes = self.routes.lock();
        routes
            .values()
            .flat_map(|r| r.child_boxes.keys().copied())
            .collect()
    }

    fn fail_child_box(&self, box_id: u32) {
        let held: Vec<TreeId> = self
            .routes
            .lock()
            .iter()
            .filter(|(_, r)| r.child_boxes.contains_key(&box_id))
            .map(|(&tree, _)| tree)
            .collect();
        let redirects: Vec<Redirect> = held
            .into_iter()
            .filter_map(|tree| Some((self.app, tree, child_box_failed(self, tree, box_id)?)))
            .collect();
        tick::redirect(&self.ctrl, self.addr, redirects, self.cfg.obs.as_ref());
    }
}

/// Straggler bypass at the master, mirroring the agg-box logic: a root box
/// that contributed nothing within `threshold` (while other data flowed)
/// is bypassed for that request.
fn scan_stragglers(inner: &Inner, threshold: Duration) {
    let mut redirects: Vec<(RequestId, TreeId, Vec<NodeId>)> = Vec::new();
    {
        // Lock order: pending before routes (matches fresh_pending).
        let mut pending = inner.pending.lock();
        let routes = inner.routes.lock();
        for (request, p) in pending.iter_mut() {
            if p.complete || p.registered_at.elapsed() < threshold {
                continue;
            }
            for tree in trees_for_request(inner, *request) {
                let Some(route) = routes.get(&tree) else {
                    continue;
                };
                let bypassed = select_stragglers(&mut p.ledger, &route.child_boxes, |s| (tree, s));
                redirects.extend(bypassed.into_iter().map(|(_, c)| (*request, tree, c)));
            }
        }
    }
    for (request, tree, children) in redirects {
        if let Some(o) = &inner.obs {
            o.master_bypasses.inc();
            o.registry.emit_for_request(
                names::EVENT_STRAGGLER,
                format!(
                    "master shim (app {}) bypassed a root box for request {} tree {}",
                    inner.app.0, request.0, tree.0
                ),
                request.0,
            );
        }
        let msg = Message::Redirect {
            app: inner.app,
            permanent: false,
            request,
            tree,
            new_parent: inner.addr,
        };
        for child in children {
            let _ = inner.ctrl.send(child, msg.encode());
        }
    }
    // Bypass may complete requests whose other sources already ended.
    let mut pending = inner.pending.lock();
    let mut completed = false;
    for p in pending
        .values_mut()
        .filter(|p| !p.complete && p.ledger.is_complete())
    {
        p.complete = true;
        completed = true;
        if let Some(o) = &inner.obs {
            o.requests_completed.inc();
        }
    }
    if let Some(o) = &inner.obs {
        o.update_ledger_gauges(&pending);
    }
    if completed {
        inner.cv.notify_all();
    }
}
