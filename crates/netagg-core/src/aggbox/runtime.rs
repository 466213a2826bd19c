//! The agg box runtime: network layer, per-request local aggregation
//! trees, duplicate suppression, straggler bypass and redirect handling.
//!
//! One `AggBox` hosts the aggregation functions of many applications. Data
//! messages are demultiplexed per `(app, request, tree)` into a
//! [`LocalAggTree`] whose combine tasks run on the box's cooperative
//! [`TaskScheduler`]; the finished aggregate is forwarded to the tree
//! parent (next box or master) by a dedicated egress thread over
//! persistent connections.

use crate::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use crate::aggbox::tree::{LocalAggTree, TraceTarget};
use crate::conn_cache::ConnCache;
use crate::failure::DetectorConfig;
use crate::fanin::{repoint_in_flight, select_stragglers, FanInRoute};
use crate::ledger::{ChunkDisposition, FanInLedger};
use crate::lifecycle::{
    CancelToken, JoinScope, Mailbox, OrderedMutex, OrderedRwLock, OverflowPolicy,
    DEFAULT_JOIN_DEADLINE,
};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::straggler::StragglerPolicy;
use crate::tick::{self, Job, Node, Probes, Redirect};
use crate::DynAggregator;
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{Connection, NetError, NodeId, Transport};
use netagg_obs::trace::{self, TraceCtx, TraceRecorder};
use netagg_obs::{names, Counter, Histogram, MetricsRegistry};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Depth of the egress mailbox. Completion callbacks run on scheduler pool
/// threads, so the egress queue must never block them: overflow drops the
/// oldest message and the drop is metric-accounted (DESIGN.md §9).
const EGRESS_DEPTH: usize = 4096;

/// Configuration of one agg box.
#[derive(Debug, Clone)]
pub struct AggBoxConfig {
    /// Global logical id (must match the tree specs).
    pub box_id: u32,
    /// Transport address to bind.
    pub addr: NodeId,
    /// Cooperative task scheduler options.
    pub scheduler: SchedulerConfig,
    /// Local aggregation tree fan-in.
    pub fanin: usize,
    /// Straggler bypass of child boxes: how long a request may go without
    /// data from an expected child box (after its first data arrived)
    /// before the box bypasses it, and after how many bypasses the child
    /// is treated as failed. `None` disables.
    pub straggler: Option<StragglerPolicy>,
    /// Stream partial aggregates downstream once a request has buffered
    /// this many bytes, instead of holding the whole request in memory
    /// (`None` = emit only the final aggregate).
    pub flush_bytes: Option<usize>,
    /// Metrics registry the box (and its scheduler) publishes to
    /// (`aggbox.*`, `straggler.*`). `None` disables metrics.
    pub obs: Option<MetricsRegistry>,
}

impl AggBoxConfig {
    /// Default configuration for a box with the given id and address.
    pub fn new(box_id: u32, addr: NodeId) -> Self {
        Self {
            box_id,
            addr,
            scheduler: SchedulerConfig::default(),
            fanin: 8,
            straggler: None,
            flush_bytes: None,
            obs: None,
        }
    }
}

/// Per-(app, tree) routing state installed at deployment time.
#[derive(Debug, Clone)]
pub struct RouteInstall {
    /// Application the route belongs to.
    pub app: AppId,
    /// Tree the route belongs to.
    pub tree: TreeId,
    /// Where this box's output goes (next box or master shim address).
    pub parent: NodeId,
    /// The sources expected per request and the child boxes behind them.
    /// Requests seed their fan-in ledger from its owed set.
    pub fanin: FanInRoute,
    /// Addresses of this box's direct children (workers and boxes), used
    /// to replicate broadcasts down the tree.
    pub children_addrs: Vec<NodeId>,
}

/// Trace anchor of one sampled request at this box: the per-request span
/// every local span (queue wait, combine, forward, repoint) parents to.
#[derive(Debug, Clone, Copy)]
struct ReqTrace {
    trace_id: u64,
    /// The `span.box.request` span id (recorded at completion).
    span_id: u64,
    /// First-data arrival on the shared monotonic axis.
    start_ns: u64,
}

struct ReqState {
    tree: Arc<LocalAggTree>,
    /// Sequence number of the next outgoing chunk (streaming flushes).
    out_seq: u32,
    first_data: Instant,
    /// Set-based accounting of which sources are still owed (replaces the
    /// old counter + `expected_extra` arithmetic; see DESIGN.md §8).
    ledger: FanInLedger<SourceId>,
    input_closed: bool,
    /// `Some` when the request is trace-sampled (DESIGN.md §11).
    trace: Option<ReqTrace>,
}

/// Bounded FIFO of recently emitted request output chunks (kept so a late
/// per-request redirect can resend everything that went to a slow or dead
/// parent).
struct OutReplay {
    map: HashMap<(AppId, RequestId, TreeId), Vec<Bytes>>,
    order: std::collections::VecDeque<(AppId, RequestId, TreeId)>,
    capacity: usize,
}

impl OutReplay {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
            capacity,
        }
    }

    fn record(&mut self, key: (AppId, RequestId, TreeId), payload: Bytes) {
        use std::collections::hash_map::Entry;
        match self.map.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().push(payload),
            Entry::Vacant(v) => {
                v.insert(vec![payload]);
                self.order.push_back(key);
                while self.order.len() > self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.map.remove(&old);
                    }
                }
            }
        }
    }

    fn get(&self, key: &(AppId, RequestId, TreeId)) -> Option<Vec<Bytes>> {
        self.map.get(key).cloned()
    }

    /// Every retained entry for `(app, tree)`, in emission order — the
    /// resend set for a permanent re-point (the old parent died and may
    /// have taken any of these with it).
    fn matching(&self, app: AppId, tree: TreeId) -> Vec<(RequestId, Vec<Bytes>)> {
        self.order
            .iter()
            .filter(|(a, _, t)| *a == app && *t == tree)
            .filter_map(|k| self.map.get(k).map(|c| (k.1, c.clone())))
            .collect()
    }
}

/// Pre-resolved metric handles mirroring [`BoxStats`] into a
/// [`MetricsRegistry`] (plus latency and event streams the legacy counters
/// do not carry).
struct BoxObs {
    messages_in: std::sync::Arc<Counter>,
    bytes_in: std::sync::Arc<Counter>,
    requests_completed: std::sync::Arc<Counter>,
    duplicates_dropped: std::sync::Arc<Counter>,
    send_errors: std::sync::Arc<Counter>,
    request_agg_us: std::sync::Arc<Histogram>,
    straggler_redirects: std::sync::Arc<Counter>,
    straggler_escalations: std::sync::Arc<Counter>,
    repoints: std::sync::Arc<Counter>,
    tracer: Arc<TraceRecorder>,
    /// Component label for box-side spans, e.g. `aggbox-2`.
    component: Arc<str>,
    /// Component label for scheduler-task spans, e.g. `aggbox-2-sched`.
    component_sched: Arc<str>,
    registry: MetricsRegistry,
}

impl BoxObs {
    fn new(registry: MetricsRegistry, box_id: u32) -> Self {
        Self {
            messages_in: registry.counter(names::AGGBOX_MESSAGES_IN),
            bytes_in: registry.counter(names::AGGBOX_BYTES_IN),
            requests_completed: registry.counter(names::AGGBOX_REQUESTS_COMPLETED),
            duplicates_dropped: registry.counter(names::AGGBOX_DUPLICATES_DROPPED),
            send_errors: registry.counter(names::AGGBOX_SEND_ERRORS),
            request_agg_us: registry.histogram(names::AGGBOX_REQUEST_AGG_US),
            straggler_redirects: registry.counter(names::STRAGGLER_REDIRECTS),
            straggler_escalations: registry.counter(names::STRAGGLER_ESCALATIONS),
            repoints: registry.counter(names::AGGBOX_REPOINTS),
            tracer: registry.tracer(),
            component: format!("aggbox-{box_id}").into(),
            component_sched: format!("aggbox-{box_id}-sched").into(),
            registry,
        }
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Default)]
pub struct BoxStats {
    /// Payload bytes received.
    pub bytes_in: AtomicU64,
    /// Protocol messages received.
    pub messages_in: AtomicU64,
    /// Requests whose final aggregate was forwarded.
    pub requests_completed: AtomicU64,
    /// Data chunks dropped by duplicate suppression.
    pub duplicates_dropped: AtomicU64,
    /// Straggler bypasses issued for child boxes.
    pub straggler_redirects: AtomicU64,
    /// Egress sends that failed after retry.
    pub send_errors: AtomicU64,
}

/// Point-in-time view of one agg box (see [`AggBox::snapshot`]).
#[derive(Debug, Clone)]
pub struct BoxSnapshot {
    /// Global logical id of the box.
    pub box_id: u32,
    /// Payload bytes received so far.
    pub bytes_in: u64,
    /// Protocol messages received so far.
    pub messages_in: u64,
    /// Requests whose final aggregate was forwarded.
    pub requests_completed: u64,
    /// Chunks dropped by duplicate suppression.
    pub duplicates_dropped: u64,
    /// Straggler bypasses issued.
    pub straggler_redirects: u64,
    /// Egress sends that failed after retry.
    pub send_errors: u64,
    /// Requests with open state right now.
    pub active_requests: usize,
    /// Bytes buffered across all local aggregation trees right now.
    pub buffered_bytes: usize,
    /// Aggregation tasks waiting for a pool thread right now.
    pub tasks_queued: usize,
    /// Per-application CPU accounting.
    pub apps: Vec<crate::aggbox::scheduler::AppCpu>,
}

struct Inner {
    cfg: AggBoxConfig,
    transport: Arc<dyn Transport>,
    scheduler: Arc<TaskScheduler>,
    apps: OrderedRwLock<HashMap<AppId, Arc<dyn DynAggregator>>>,
    routes: OrderedRwLock<HashMap<(AppId, TreeId), RouteInstall>>,
    states: OrderedMutex<HashMap<(AppId, RequestId, TreeId), ReqState>>,
    /// Per-request output redirections (straggler bypass upstream of us).
    out_redirects: OrderedMutex<HashMap<(AppId, RequestId, TreeId), NodeId>>,
    /// Recently completed outputs, kept so a late per-request redirect can
    /// resend an aggregate that already went to the (slow or dead) parent.
    out_replay: OrderedMutex<OutReplay>,
    /// Bounded hand-off to the egress thread (`DropOldest`: completion
    /// callbacks run on scheduler threads and must never block here).
    egress: Mailbox<(NodeId, Message)>,
    /// Persistent connections of the egress thread and of the tick's
    /// failure redirects.
    conns: ConnCache,
    /// Failure detection, once armed (see [`AggBox::arm_failure_detection`]).
    detector: OnceLock<DetectorConfig>,
    cancel: CancelToken,
    stats: BoxStats,
    obs: Option<BoxObs>,
}

/// A running agg box.
pub struct AggBox {
    inner: Arc<Inner>,
    scope: JoinScope,
}

impl AggBox {
    /// Bind the box's address and start its listener and egress threads,
    /// plus its tick thread when a stream flush or a straggler policy is
    /// configured.
    pub fn start(transport: Arc<dyn Transport>, cfg: AggBoxConfig) -> Result<Arc<Self>, NetError> {
        let mut listener = transport.bind(cfg.addr)?;
        let cancel = CancelToken::new();
        let box_id = cfg.box_id;
        let scope = JoinScope::with_obs(
            format!("aggbox-{box_id}"),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            cfg.obs.as_ref(),
        );
        let egress = match &cfg.obs {
            Some(reg) => Mailbox::with_obs(
                format!("aggbox{box_id}.egress"),
                EGRESS_DEPTH,
                OverflowPolicy::DropOldest,
                cancel.clone(),
                reg,
            ),
            None => Mailbox::new(
                format!("aggbox{box_id}.egress"),
                EGRESS_DEPTH,
                OverflowPolicy::DropOldest,
                cancel.clone(),
            ),
        };
        let scheduler = Arc::new(TaskScheduler::new_with_obs(
            cfg.scheduler.clone(),
            cfg.obs.clone(),
        ));
        let obs = cfg.obs.clone().map(|reg| BoxObs::new(reg, box_id));
        let inner = Arc::new(Inner {
            conns: ConnCache::new(transport.clone(), cfg.addr),
            detector: OnceLock::new(),
            cfg,
            transport: transport.clone(),
            scheduler,
            apps: OrderedRwLock::new(lock_order::AGG_APPS, HashMap::new()),
            routes: OrderedRwLock::new(lock_order::AGG_ROUTES, HashMap::new()),
            states: OrderedMutex::new(lock_order::AGG_STATES, HashMap::new()),
            out_redirects: OrderedMutex::new(lock_order::AGG_OUT_REDIRECTS, HashMap::new()),
            out_replay: OrderedMutex::new(lock_order::AGG_OUT_REPLAY, OutReplay::new(64)),
            egress,
            cancel,
            stats: BoxStats::default(),
            obs,
        });
        let boxed = Arc::new(Self {
            inner: inner.clone(),
            scope,
        });
        // Listener thread: accepts connections and spawns a reader each.
        {
            let this = Arc::downgrade(&boxed);
            let inner = inner.clone();
            boxed
                .scope
                .spawn(format!("aggbox-{box_id}-listen"), move || loop {
                    match listener.accept_cancellable(&inner.cancel) {
                        Ok(conn) => {
                            if let Some(strong) = this.upgrade() {
                                strong.spawn_reader(conn);
                            }
                        }
                        Err(NetError::Timeout) => continue,
                        Err(_) => return, // cancelled or listener torn down
                    }
                })
                .map_err(|e| NetError::Io(e.to_string()))?;
        }
        // Egress thread.
        {
            let inner = inner.clone();
            boxed
                .scope
                .spawn(format!("aggbox-{box_id}-egress"), move || {
                    egress_loop(&inner)
                })
                .map_err(|e| NetError::Io(e.to_string()))?;
        }
        if inner.cfg.flush_bytes.is_some() || inner.cfg.straggler.is_some() {
            boxed
                .spawn_tick()
                .map_err(|e| NetError::Io(e.to_string()))?;
        }
        Ok(boxed)
    }

    /// Arm failure detection of this box's child boxes: the tick probes
    /// every child box its routes hold and re-points around failures.
    /// Starts the tick thread unless it already runs or there is no child
    /// box to watch. Call after installing routes; later calls are no-ops.
    pub(crate) fn arm_failure_detection(&self, cfg: DetectorConfig) {
        let ticking = self.inner.cfg.flush_bytes.is_some() || self.inner.cfg.straggler.is_some();
        if self.inner.detector.set(cfg).is_ok() && !ticking && !self.inner.watched().is_empty() {
            self.spawn_tick().expect("spawn tick");
        }
    }

    /// The box's timer thread: the stream flush, the straggler scan (whose
    /// counts per child box are its own state) and the failure detector.
    fn spawn_tick(&self) -> std::io::Result<()> {
        let inner = self.inner.clone();
        let box_id = inner.cfg.box_id;
        self.scope.spawn(format!("aggbox-{box_id}-tick"), move || {
            let inner = &inner;
            let mut jobs = Vec::new();
            if let Some(bytes) = inner.cfg.flush_bytes {
                let flush = move || flush_partials(inner, bytes);
                jobs.push(Job::every(Duration::from_millis(10), flush));
            }
            if let Some(policy) = inner.cfg.straggler {
                let mut counts = HashMap::new();
                let scan = move || scan_stragglers(inner, policy, &mut counts);
                jobs.push(Job::every(policy.threshold / 4, scan));
            }
            tick::run(inner, &inner.cancel, jobs);
        })
    }

    /// Register an application's aggregation function with a target
    /// resource share.
    pub fn register_app(&self, app: AppId, agg: Arc<dyn DynAggregator>, share: f64) {
        self.inner.scheduler.register_app(app, share);
        self.inner.apps.write().insert(app, agg);
    }

    /// Install routing for one (application, tree).
    pub fn install_route(&self, route: RouteInstall) {
        self.inner
            .routes
            .write()
            .insert((route.app, route.tree), route);
    }

    /// React to a confirmed failure of a child box on one route: future
    /// requests expect that box's children directly, every in-flight
    /// request's ledger moves the box's obligations onto its
    /// behind-sources, and then the box's children are told to send here
    /// permanently. Idempotent under repeated firings.
    pub fn on_child_box_failed(&self, app: AppId, tree: TreeId, failed_box: u32) {
        let inner = &self.inner;
        let redirect = child_box_failed(inner, app, tree, failed_box).map(|c| (app, tree, c));
        tick::redirect(
            &inner.conns,
            inner.cfg.addr,
            redirect,
            inner.cfg.obs.as_ref(),
        );
    }

    /// Counters exposed for the harness and tests.
    pub fn stats(&self) -> &BoxStats {
        &self.inner.stats
    }

    /// A point-in-time observability snapshot: counters, live request
    /// state, scheduler accounting — what a production middlebox would
    /// export to its metrics endpoint.
    pub fn snapshot(&self) -> BoxSnapshot {
        let states = self.inner.states.lock();
        let active_requests = states.len();
        let buffered_bytes: usize = states.values().map(|s| s.tree.pending_bytes()).sum();
        drop(states);
        BoxSnapshot {
            box_id: self.inner.cfg.box_id,
            bytes_in: self.inner.stats.bytes_in.load(Ordering::Relaxed),
            messages_in: self.inner.stats.messages_in.load(Ordering::Relaxed),
            requests_completed: self.inner.stats.requests_completed.load(Ordering::Relaxed),
            duplicates_dropped: self.inner.stats.duplicates_dropped.load(Ordering::Relaxed),
            straggler_redirects: self.inner.stats.straggler_redirects.load(Ordering::Relaxed),
            send_errors: self.inner.stats.send_errors.load(Ordering::Relaxed),
            active_requests,
            buffered_bytes,
            tasks_queued: self.inner.scheduler.queued(),
            apps: self.inner.scheduler.cpu_times(),
        }
    }

    /// The box's cooperative task scheduler.
    pub fn scheduler(&self) -> &Arc<TaskScheduler> {
        &self.inner.scheduler
    }

    /// Transport address the box is bound to.
    pub fn addr(&self) -> NodeId {
        self.inner.cfg.addr
    }

    /// Global logical id of the box.
    pub fn box_id(&self) -> u32 {
        self.inner.cfg.box_id
    }

    /// Stop all threads: cancel the box's token (waking every blocked
    /// accept, recv and egress dequeue immediately), join the scope under
    /// its deadline, then stop the combine pool. Idempotent.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        self.scope.finish();
        // Join the combine pool on this thread: the scheduler's drop may run
        // on a pool thread (a completion callback holding the box's last
        // reference), which detaches that thread past the teardown.
        self.inner.scheduler.shutdown();
        // Requests still open at teardown never reach `on_complete`, so
        // their box request span would never be recorded — and the
        // queue-wait / combine spans parented beneath it would be orphans.
        // Close them start → now, so a box killed mid-request still leaves
        // one connected trace tree (DESIGN.md §11).
        if let Some(o) = &self.inner.obs {
            let mut states = self.inner.states.lock();
            for ((_, request, _), st) in states.drain() {
                if let Some(rt) = st.trace {
                    o.tracer.record_span(
                        names::spans::BOX_REQUEST,
                        &o.component,
                        rt.trace_id,
                        rt.span_id,
                        rt.trace_id,
                        request.0,
                        rt.start_ns,
                        trace::now_ns(),
                    );
                }
            }
        }
    }

    fn spawn_reader(self: &Arc<Self>, conn: Box<dyn Connection>) {
        let inner = self.inner.clone();
        // After cancellation the scope drops the closure instead of
        // spawning: a connection accepted during teardown is simply closed.
        self.scope
            .spawn(format!("aggbox-{}-reader", inner.cfg.box_id), move || {
                reader_loop(&inner, conn)
            })
            .expect("spawn reader");
    }
}

impl Drop for AggBox {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn reader_loop(inner: &Arc<Inner>, mut conn: Box<dyn Connection>) {
    loop {
        let frame = match conn.recv_cancellable(&inner.cancel) {
            Ok(f) => f,
            Err(NetError::Timeout) => continue,
            Err(_) => return, // cancelled, peer closed, or transport error
        };
        let msg = match Message::decode(frame) {
            Ok(m) => m,
            Err(_) => continue, // corrupt frame: drop
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
            } => handle_data(
                inner, app, request, tree, source, seq, last, ctx, sent_ns, payload,
            ),
            Message::RequestMeta {
                app,
                request,
                tree,
                // The master's root-span ctx rides along for completeness;
                // box-side spans parent to the trace id directly because
                // meta may arrive after the first data chunk (DESIGN.md §11).
                ctx: _,
                sources,
            } => {
                let to_close = {
                    let mut states = inner.states.lock();
                    let st = get_or_create(inner, &mut states, app, request, tree);
                    match st {
                        Some(st) => {
                            st.ledger.set_requirement(sources);
                            maybe_close_input(&mut states, app, request, tree)
                        }
                        None => None,
                    }
                };
                close_input(inner, to_close, app);
            }
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } => {
                if permanent {
                    {
                        let mut routes = inner.routes.write();
                        if let Some(r) = routes.get_mut(&(app, tree)) {
                            r.parent = new_parent;
                        }
                    }
                    // The old parent is dead (this is the detector's
                    // re-point): any output this box already forwarded to
                    // it died with it, and the workers behind this box will
                    // not replay those chunks — the box absorbed and acked
                    // their partials. Resend the retained replay window.
                    // Held states lock: a request with live state is still
                    // open here (its completion resolves its destination
                    // only after removing the state, so it will see the
                    // route update above) — resend only its flushed chunks,
                    // keeping their original seqs and never `last`, or the
                    // real final chunk would be suppressed as a duplicate
                    // seq upstream. A request without state (or whose final
                    // chunk is already recorded past `out_seq`) is fully in
                    // the window and replays with `last` intact; delivered
                    // requests are deduped upstream by per-source seqs and
                    // the master's delivered-id memory.
                    let resend: Vec<(RequestId, Vec<Bytes>, bool)> = {
                        let states = inner.states.lock();
                        inner
                            .out_replay
                            .lock()
                            .matching(app, tree)
                            .into_iter()
                            .map(|(rid, chunks)| {
                                let finished = match states.get(&(app, rid, tree)) {
                                    Some(st) => chunks.len() as u32 > st.out_seq,
                                    None => true,
                                };
                                (rid, chunks, finished)
                            })
                            .collect()
                    };
                    for (rid, chunks, finished) in resend {
                        resend_replay(inner, app, rid, tree, new_parent, chunks, finished);
                    }
                } else {
                    inner
                        .out_redirects
                        .lock()
                        .insert((app, request, tree), new_parent);
                    // If the request already completed here, resend its
                    // aggregate to the new parent (the old parent was slow
                    // or dead and the output may be lost with it).
                    if let Some(chunks) = inner.out_replay.lock().get(&(app, request, tree)) {
                        resend_replay(inner, app, request, tree, new_parent, chunks, true);
                    }
                }
            }
            Message::Broadcast {
                app,
                request,
                tree,
                payload,
            } => {
                // Replicate down the tree: one copy per direct child. The
                // replication happens over the box's high-bandwidth link,
                // which is the point of on-path distribution.
                let children = {
                    let routes = inner.routes.read();
                    routes
                        .get(&(app, tree))
                        .map(|r| r.children_addrs.clone())
                        .unwrap_or_default()
                };
                for child in children {
                    let _ = inner.egress.send((
                        child,
                        Message::Broadcast {
                            app,
                            request,
                            tree,
                            payload: payload.clone(),
                        },
                    ));
                }
            }
            Message::Heartbeat { from: _, nonce } => {
                let ack = Message::HeartbeatAck {
                    from: inner.cfg.box_id,
                    nonce,
                };
                let _ = conn.send(ack.encode());
            }
            Message::HeartbeatAck { .. } => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_data(
    inner: &Arc<Inner>,
    app: AppId,
    request: RequestId,
    tree: TreeId,
    source: SourceId,
    seq: u32,
    last: bool,
    ctx: TraceCtx,
    sent_ns: u64,
    payload: Bytes,
) {
    inner.stats.messages_in.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .bytes_in
        .fetch_add(payload.len() as u64, Ordering::Relaxed);
    let mut recv_span: Option<(u64, u64)> = None; // (wire/recv parent chain tail, start_ns)
    if let Some(o) = &inner.obs {
        o.messages_in.inc();
        o.bytes_in.add(payload.len() as u64);
        // Stitch the hop: the sender's ctx parents a wire-transfer span
        // (sender stamp → arrival) and the ingest work below hangs off it.
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
    let to_close = {
        let mut states = inner.states.lock();
        let Some(st) = get_or_create(inner, &mut states, app, request, tree) else {
            return; // unknown app or route
        };
        // Ledger-side duplicate suppression: re-pointed-away sources and
        // replayed sequence numbers are both dropped here.
        match st.ledger.accept_chunk(source, seq) {
            ChunkDisposition::Ignored | ChunkDisposition::Duplicate => {
                inner
                    .stats
                    .duplicates_dropped
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &inner.obs {
                    o.duplicates_dropped.inc();
                }
                return;
            }
            ChunkDisposition::Fresh { .. } => {}
        }
        if !payload.is_empty() {
            let tree_ref = st.tree.clone();
            // LocalAggTree has its own fine-grained lock; push never blocks.
            tree_ref.push(&inner.scheduler, app, payload);
        }
        if last {
            st.ledger.note_end(source);
            maybe_close_input(&mut states, app, request, tree)
        } else {
            None
        }
    };
    close_input(inner, to_close, app);
    // Ingest span for accepted chunks: arrival → ledger/tree hand-off done
    // (duplicates and unknown routes keep only the wire-transfer span).
    if let (Some((wire, start)), Some(o)) = (recv_span, &inner.obs) {
        o.tracer.record_span(
            names::spans::BOX_RECV,
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

/// Run `end_input` outside the states lock: completion may fire the
/// forwarding callback, which re-locks `states` for cleanup.
fn close_input(inner: &Arc<Inner>, tree: Option<Arc<LocalAggTree>>, app: AppId) {
    if let Some(t) = tree {
        t.end_input(&inner.scheduler, app);
    }
}

/// Resend one request's retained output chunks to `new_parent` after a
/// redirect (per-request straggler redirect or permanent failure
/// re-point). The replayed chunks re-attach at the trace root (the
/// deterministic trace id); the adopting parent's wire/recv spans hang off
/// that fresh ctx. `finished` marks whether the retained chunks include
/// the request's final output: only then may the resend carry `last` —
/// for a still-open request the real final chunk follows under the next
/// seq, and a premature `last` here would close the source early.
fn resend_replay(
    inner: &Arc<Inner>,
    app: AppId,
    request: RequestId,
    tree: TreeId,
    new_parent: NodeId,
    chunks: Vec<Bytes>,
    finished: bool,
) {
    let ctx = match &inner.obs {
        Some(o) if o.tracer.sampled(request.0) => {
            let tid = trace::trace_id(app.0, request.0);
            TraceCtx {
                trace_id: tid,
                parent_span_id: tid,
            }
        }
        _ => TraceCtx::NONE,
    };
    let sent_ns = if ctx.is_active() { trace::now_ns() } else { 0 };
    let n = chunks.len();
    for (i, payload) in chunks.into_iter().enumerate() {
        let _ = inner.egress.send((
            new_parent,
            Message::Data {
                app,
                request,
                tree,
                source: SourceId::Box(inner.cfg.box_id),
                seq: i as u32,
                last: finished && i + 1 == n,
                ctx,
                sent_ns,
                payload,
            },
        ));
    }
}

/// Check whether all owed sources have delivered; if so, mark the input
/// closed and return the tree so the caller can call `end_input` *after
/// releasing the states lock* (completion may re-lock `states`).
#[must_use]
fn maybe_close_input(
    states: &mut HashMap<(AppId, RequestId, TreeId), ReqState>,
    app: AppId,
    request: RequestId,
    tree: TreeId,
) -> Option<Arc<LocalAggTree>> {
    let st = states.get_mut(&(app, request, tree))?;
    if st.input_closed {
        return None;
    }
    if st.ledger.is_complete() {
        st.input_closed = true;
        Some(st.tree.clone())
    } else {
        None
    }
}

/// Shared failure re-point path: update the steady-state route (future
/// requests owe the failed box's children directly, and its grandchild
/// boxes are adopted for chained failures), then move the obligations of
/// every in-flight request's ledger. Returns the failed box's children,
/// owed a permanent redirect, or `None` when the route no longer held
/// the box. Lock order: states before routes (matches `scan_stragglers`).
fn child_box_failed(
    inner: &Arc<Inner>,
    app: AppId,
    tree: TreeId,
    failed_box: u32,
) -> Option<Vec<NodeId>> {
    let mut to_close = Vec::new();
    let mut repointed = 0u64;
    let children = {
        let mut states = inner.states.lock();
        // `None` = already handled (repeated detector firing or a
        // straggler escalation that raced the failure detector).
        let (behind, children) = inner.routes.write().get_mut(&(app, tree)).and_then(|r| {
            let children = r.fanin.child_boxes.get(&failed_box)?.children_addrs.clone();
            Some((r.fanin.fail_child(failed_box)?, children))
        })?;
        for ((a, req, t), st) in states.iter_mut() {
            if *a != app || *t != tree || st.input_closed {
                continue;
            }
            let step = repoint_in_flight(&mut st.ledger, SourceId::Box(failed_box), &behind);
            if step.moved {
                repointed += 1;
                // Mark the adoption inside the request's trace so the
                // stitched tree shows where obligations moved.
                if let (Some(o), Some(rt)) = (&inner.obs, st.trace) {
                    let now = trace::now_ns();
                    o.tracer.record_span(
                        names::spans::BOX_REPOINT,
                        &o.component,
                        rt.trace_id,
                        o.tracer.next_span_id(),
                        rt.span_id,
                        req.0,
                        now,
                        now,
                    );
                }
            }
            if step.complete {
                st.input_closed = true;
                to_close.push(st.tree.clone());
            }
        }
        children
    };
    if let Some(o) = &inner.obs {
        o.repoints.add(repointed.max(1));
        o.registry.emit(
            names::EVENT_REPOINT,
            format!(
                "box {} re-pointed failed child box {failed_box} for app {} tree {} \
                 ({repointed} in-flight requests moved)",
                inner.cfg.box_id, app.0, tree.0
            ),
        );
    }
    for t in to_close {
        close_input(inner, Some(t), app);
    }
    Some(children)
}

/// Create the request state (and its completion forwarding) on first data.
fn get_or_create<'a>(
    inner: &Arc<Inner>,
    states: &'a mut HashMap<(AppId, RequestId, TreeId), ReqState>,
    app: AppId,
    request: RequestId,
    tree: TreeId,
) -> Option<&'a mut ReqState> {
    use std::collections::hash_map::Entry;
    match states.entry((app, request, tree)) {
        Entry::Occupied(e) => Some(e.into_mut()),
        Entry::Vacant(v) => {
            let agg = inner.apps.read().get(&app)?.clone();
            // Seed the fan-in ledger from the route's current owed set (a
            // box that already failed permanently is no longer owed; its
            // children are).
            let owed: Vec<SourceId> = {
                let routes = inner.routes.read();
                routes
                    .get(&(app, tree))?
                    .fanin
                    .owed
                    .iter()
                    .copied()
                    .collect()
            };
            let ltree = LocalAggTree::new(agg, inner.cfg.fanin);
            // Trace anchor: one `span.box.request` per sampled request,
            // parented directly to the trace root (RequestMeta — and hence
            // the master's root span id — may arrive after the first data).
            let req_trace = inner.obs.as_ref().and_then(|o| {
                o.tracer.sampled(request.0).then(|| {
                    let rt = ReqTrace {
                        trace_id: trace::trace_id(app.0, request.0),
                        span_id: o.tracer.next_span_id(),
                        start_ns: trace::now_ns(),
                    };
                    ltree.set_trace(TraceTarget {
                        tracer: o.tracer.clone(),
                        trace_id: rt.trace_id,
                        parent_span_id: rt.span_id,
                        request: request.0,
                        component: o.component_sched.clone(),
                    });
                    rt
                })
            });
            let weak: Weak<Inner> = Arc::downgrade(inner);
            ltree.on_complete(Box::new(move |result| {
                let Some(inner) = weak.upgrade() else { return };
                let Ok(payload) = result else { return };
                let (seq, first_data, req_trace) = inner
                    .states
                    .lock()
                    .get(&(app, request, tree))
                    .map(|st| (st.out_seq, Some(st.first_data), st.trace))
                    .unwrap_or((0, None, None));
                // Outgoing hop ctx: the chunk's wire span parents to this
                // box's forward span. `sent_ns` is stamped here, at message
                // construction, so the receiver's wire-transfer span also
                // covers time spent queued behind the egress thread.
                let (ctx, sent_ns, forward_span) = match (&inner.obs, req_trace) {
                    (Some(o), Some(rt)) => {
                        let fs = o.tracer.next_span_id();
                        (
                            TraceCtx {
                                trace_id: rt.trace_id,
                                parent_span_id: fs,
                            },
                            trace::now_ns(),
                            Some((rt, fs)),
                        )
                    }
                    _ => (TraceCtx::NONE, 0, None),
                };
                let msg = Message::Data {
                    app,
                    request,
                    tree,
                    source: SourceId::Box(inner.cfg.box_id),
                    seq,
                    last: true,
                    ctx,
                    sent_ns,
                    payload: payload.clone(),
                };
                // Count the completion before handing the aggregate to the
                // egress thread: observers polling after the master saw the
                // result must find the counter already incremented.
                inner
                    .stats
                    .requests_completed
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &inner.obs {
                    o.requests_completed.inc();
                    if let Some(t0) = first_data {
                        // First data byte in → final aggregate out.
                        o.request_agg_us.record_duration(t0.elapsed());
                    }
                    if let Some((rt, fs)) = forward_span {
                        let now = trace::now_ns();
                        // The box's whole residency for this request:
                        // first data in → final aggregate handed to egress.
                        o.tracer.record_span(
                            names::spans::BOX_REQUEST,
                            &o.component,
                            rt.trace_id,
                            rt.span_id,
                            rt.trace_id,
                            request.0,
                            rt.start_ns,
                            now,
                        );
                        o.tracer.record_span(
                            names::spans::BOX_FORWARD,
                            &o.component,
                            rt.trace_id,
                            fs,
                            rt.span_id,
                            request.0,
                            sent_ns,
                            now,
                        );
                    }
                }
                inner
                    .out_replay
                    .lock()
                    .record((app, request, tree), payload);
                // Clean up the request state (also before the egress
                // hand-off, for the same observer-visibility reason).
                inner.states.lock().remove(&(app, request, tree));
                // Resolve the destination only AFTER the final chunk is in
                // the replay window and the state is gone: the permanent
                // re-point handler treats a state-less request as fully
                // recorded, and conversely a completion that still had
                // state while the re-point snapshotted is guaranteed to
                // read the updated route here — either way exactly one
                // `last` chunk reaches a live parent.
                let dest = {
                    let redirects = inner.out_redirects.lock();
                    redirects.get(&(app, request, tree)).copied()
                }
                .or_else(|| inner.routes.read().get(&(app, tree)).map(|r| r.parent));
                inner.out_redirects.lock().remove(&(app, request, tree));
                let Some(dest) = dest else { return };
                let _ = inner.egress.send((dest, msg));
            }));
            Some(v.insert(ReqState {
                tree: ltree,
                out_seq: 0,
                first_data: Instant::now(),
                ledger: FanInLedger::new(owed),
                input_closed: false,
                trace: req_trace,
            }))
        }
    }
}

fn egress_loop(inner: &Arc<Inner>) {
    loop {
        // Blocks until a message arrives; cancellation wakes it immediately
        // (the mailbox is bound to the box's token).
        let Ok((dest, msg)) = inner.egress.recv() else {
            return; // cancelled or closed
        };
        if inner.conns.send(dest, msg.encode()).is_err() {
            inner.stats.send_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &inner.obs {
                o.send_errors.inc();
            }
        }
    }
}

impl Node for Arc<Inner> {
    fn probes(&self) -> Option<Probes> {
        let (transport, obs) = (self.transport.clone(), self.cfg.obs.clone());
        self.detector
            .get()
            .map(|cfg| Probes::new(transport, self.cfg.addr, cfg, obs))
    }

    fn watched(&self) -> HashSet<u32> {
        let routes = self.routes.read();
        routes
            .values()
            .flat_map(|r| r.fanin.child_boxes.keys().copied())
            .collect()
    }

    fn fail_child_box(&self, box_id: u32) {
        let held: Vec<(AppId, TreeId)> = self
            .routes
            .read()
            .iter()
            .filter(|(_, r)| r.fanin.child_boxes.contains_key(&box_id))
            .map(|(&key, _)| key)
            .collect();
        let redirects: Vec<Redirect> = held
            .into_iter()
            .filter_map(|(app, tree)| Some((app, tree, child_box_failed(self, app, tree, box_id)?)))
            .collect();
        tick::redirect(&self.conns, self.cfg.addr, redirects, self.cfg.obs.as_ref());
    }
}

/// Stream partial aggregates downstream for requests whose buffered bytes
/// exceed the flush threshold (Section 3.2.1: the local aggregation tree
/// executes in a pipelined fashion and "little data is buffered").
fn flush_partials(inner: &Arc<Inner>, threshold: usize) {
    // Collect candidates without holding the states lock across the
    // tree operations.
    let candidates: Vec<((AppId, RequestId, TreeId), Arc<LocalAggTree>)> = {
        let states = inner.states.lock();
        states
            .iter()
            .filter(|(_, st)| !st.input_closed)
            .filter(|(_, st)| st.tree.pending_bytes() >= threshold)
            .map(|(k, st)| (*k, st.tree.clone()))
            .collect()
    };
    for ((app, request, tree_id), tree) in candidates {
        let Some(chunk) = tree.take_partial(&inner.scheduler, app) else {
            continue;
        };
        let dest = {
            let redirects = inner.out_redirects.lock();
            redirects.get(&(app, request, tree_id)).copied()
        }
        .or_else(|| inner.routes.read().get(&(app, tree_id)).map(|r| r.parent));
        let Some(dest) = dest else { continue };
        let (seq, req_trace) = {
            let mut states = inner.states.lock();
            match states.get_mut(&(app, request, tree_id)) {
                Some(st) => {
                    let s = st.out_seq;
                    st.out_seq += 1;
                    (s, st.trace)
                }
                None => continue,
            }
        };
        // Streamed partials are forward hops too: each gets its own
        // forward span under the box's request span.
        let (ctx, sent_ns, forward_span) = match (&inner.obs, req_trace) {
            (Some(o), Some(rt)) => {
                let fs = o.tracer.next_span_id();
                (
                    TraceCtx {
                        trace_id: rt.trace_id,
                        parent_span_id: fs,
                    },
                    trace::now_ns(),
                    Some((rt, fs)),
                )
            }
            _ => (TraceCtx::NONE, 0, None),
        };
        let msg = Message::Data {
            app,
            request,
            tree: tree_id,
            source: SourceId::Box(inner.cfg.box_id),
            seq,
            last: false,
            ctx,
            sent_ns,
            payload: chunk.clone(),
        };
        if let (Some(o), Some((rt, fs))) = (&inner.obs, forward_span) {
            o.tracer.record_span(
                names::spans::BOX_FORWARD,
                &o.component,
                rt.trace_id,
                fs,
                rt.span_id,
                request.0,
                sent_ns,
                trace::now_ns(),
            );
        }
        inner
            .out_replay
            .lock()
            .record((app, request, tree_id), chunk);
        let _ = inner.egress.send((dest, msg));
    }
}

/// Bypass straggling child boxes: if a request has received data from
/// some sources but a child box has contributed nothing within the
/// threshold, instruct that box's children to send this request's data
/// directly here, and stop expecting the box (Section 3.1, "Handling
/// stragglers"). `straggles` counts the bypasses per child box.
fn scan_stragglers(inner: &Arc<Inner>, policy: StragglerPolicy, straggles: &mut HashMap<u32, u32>) {
    let mut redirects: Vec<(AppId, RequestId, TreeId, u32, Vec<NodeId>)> = Vec::new();
    {
        // Lock order: states before routes (matches child_box_failed).
        let mut states = inner.states.lock();
        let routes = inner.routes.read();
        for (&(app, request, tree), st) in states.iter_mut() {
            if st.input_closed
                || st.first_data.elapsed() < policy.threshold
                || st.ledger.seen_len() == 0
            {
                continue;
            }
            let Some(route) = routes.get(&(app, tree)) else {
                continue;
            };
            let bypassed = select_stragglers(&mut st.ledger, &route.fanin.child_boxes, |s| s);
            redirects.extend(
                bypassed
                    .into_iter()
                    .map(|(box_id, children)| (app, request, tree, box_id, children)),
            );
        }
    }
    for (app, request, tree, box_id, children) in redirects {
        inner
            .stats
            .straggler_redirects
            .fetch_add(1, Ordering::Relaxed);
        let count = straggles.entry(box_id).or_insert(0);
        *count += 1;
        let escalate = *count >= policy.repeat_limit;
        if let Some(o) = &inner.obs {
            o.straggler_redirects.inc();
            o.registry.emit(
                names::EVENT_STRAGGLER,
                format!(
                    "box {} bypassed child box {box_id} for app {} request {} tree {}{}",
                    inner.cfg.box_id,
                    app.0,
                    request.0,
                    tree.0,
                    if escalate {
                        " (escalated to permanent)"
                    } else {
                        ""
                    },
                ),
            );
            if escalate {
                o.straggler_escalations.inc();
            }
        }
        if escalate {
            // Repeated slowness across requests: treat the box as
            // permanently failed (Section 3.1) — its children re-point
            // here, future requests no longer expect it, and in-flight
            // ledgers move its obligations (idempotent with the failure
            // detector firing for the same box).
            child_box_failed(inner, app, tree, box_id);
        }
        let msg = Message::Redirect {
            app,
            permanent: escalate,
            request,
            tree,
            new_parent: inner.cfg.addr,
        };
        for child in children {
            let _ = inner.egress.send((child, msg.clone()));
        }
        // Re-check whether the bypass completes the request (the owed
        // set changed).
        let to_close = {
            let mut states = inner.states.lock();
            maybe_close_input(&mut states, app, request, tree)
        };
        close_input(inner, to_close, app);
    }
}
