//! Worker-side shim layer.

use crate::conn_cache::ConnCache;
use crate::lifecycle::{
    CancelToken, JoinScope, Mailbox, MailboxRecvTimeoutError, OrderedMutex, OrderedRwLock,
    OverflowPolicy, DEFAULT_JOIN_DEADLINE,
};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::tree::{box_addr, master_addr, worker_addr, TreeSpec};
use crate::AggError;
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{Connection, NetError, NodeId, Transport};
use netagg_obs::trace::{self, TraceCtx, TraceRecorder};
use netagg_obs::{names, Counter, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Depth of the broadcast delivery mailbox. An application that does not
/// consume broadcasts keeps only the newest `BROADCAST_DEPTH` payloads
/// (`DropOldest`); delivery never blocks the control reader.
const BROADCAST_DEPTH: usize = 256;

/// How partial results are spread over multiple aggregation trees
/// (Section 3.1, "Multiple aggregation trees per application").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeSelection {
    /// The whole request uses one tree chosen by hashing the request id
    /// (online services such as search).
    PerRequest,
    /// Each chunk picks its tree from a caller-provided key hash (batch
    /// applications partition by key); `finish_request` closes every tree.
    Keyed,
}

/// Worker-shim counters.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Payload bytes sent (excluding protocol framing).
    pub bytes_sent: AtomicU64,
    /// Data chunks sent.
    pub chunks_sent: AtomicU64,
    /// Chunks resent after redirects (failure/straggler recovery).
    pub chunks_resent: AtomicU64,
    /// Redirect messages received.
    pub redirects: AtomicU64,
    /// Broadcast messages received off the wire (counted before the
    /// bounded delivery mailbox applies its drop policy, so tests can wait
    /// for arrival independently of eviction).
    pub broadcasts_received: AtomicU64,
}

/// Pre-resolved `shim.worker.*` metric handles.
struct WorkerObs {
    chunks_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    chunks_resent: Arc<Counter>,
    redirects_applied: Arc<Counter>,
    tracer: Arc<TraceRecorder>,
    /// Component label for recorded spans, e.g. `worker-0-2`.
    component: String,
}

impl WorkerObs {
    fn new(registry: &MetricsRegistry, app: AppId, worker: u32) -> Self {
        Self {
            chunks_sent: registry.counter(names::SHIM_WORKER_CHUNKS_SENT),
            bytes_sent: registry.counter(names::SHIM_WORKER_BYTES_SENT),
            chunks_resent: registry.counter(names::SHIM_WORKER_CHUNKS_RESENT),
            redirects_applied: registry.counter(names::SHIM_WORKER_REDIRECTS_APPLIED),
            tracer: registry.tracer(),
            component: format!("worker-{}-{}", app.0, worker),
        }
    }
}

/// Replay entries kept for straggler/failure resends.
#[derive(Clone)]
struct SentChunk {
    tree: TreeId,
    seq: u32,
    last: bool,
    payload: Bytes,
}

struct Inner {
    app: AppId,
    worker: u32,
    selection: TreeSelection,
    num_trees: u32,
    /// Destination per tree: the worker's first on-path box, or the master.
    assignments: OrderedRwLock<HashMap<TreeId, NodeId>>,
    /// Data connections, one per destination.
    conns: ConnCache,
    seqs: OrderedMutex<HashMap<RequestId, u32>>,
    replay: OrderedMutex<ReplayBuffer>,
    /// Broadcasts received down the tree, delivered to the application
    /// through a bounded `DropOldest` mailbox (a non-consuming application
    /// keeps the newest [`BROADCAST_DEPTH`] payloads).
    broadcasts: Mailbox<(u64, Bytes)>,
    stats: WorkerStats,
    obs: Option<WorkerObs>,
    cancel: CancelToken,
}

struct ReplayBuffer {
    per_request: HashMap<RequestId, Vec<SentChunk>>,
    order: VecDeque<RequestId>,
    capacity: usize,
}

impl ReplayBuffer {
    fn record(&mut self, request: RequestId, chunk: SentChunk) {
        if !self.per_request.contains_key(&request) {
            self.order.push_back(request);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.per_request.remove(&old);
                }
            }
        }
        self.per_request.entry(request).or_default().push(chunk);
    }
}

/// The worker-side shim: intercepts outgoing partial results and redirects
/// them to the assigned agg box.
pub struct WorkerShim {
    inner: Arc<Inner>,
    scope: JoinScope,
}

impl WorkerShim {
    /// Start a worker shim: binds the worker's address (to receive
    /// redirects), derives tree assignments from the specs, and publishes
    /// `shim.worker.*` metrics to `obs` when given.
    pub fn start_with_obs(
        transport: Arc<dyn Transport>,
        app: AppId,
        worker: u32,
        specs: &[TreeSpec],
        selection: TreeSelection,
        obs: Option<MetricsRegistry>,
    ) -> Result<Arc<Self>, NetError> {
        let addr = worker_addr(app, worker);
        let mut assignments = HashMap::new();
        for spec in specs {
            let dest = match spec.worker_assignment.get(&worker) {
                Some(b) => box_addr(*b),
                None => master_addr(app),
            };
            assignments.insert(spec.tree, dest);
        }
        let mut listener = transport.bind(addr)?;
        let cancel = CancelToken::new();
        let scope = JoinScope::with_obs(
            format!("worker-shim-{}-{}", app.0, worker),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            obs.as_ref(),
        );
        let mailbox_name = format!("worker{}-{}.broadcast", app.0, worker);
        let broadcasts = match &obs {
            Some(reg) => Mailbox::with_obs(
                mailbox_name,
                BROADCAST_DEPTH,
                OverflowPolicy::DropOldest,
                cancel.clone(),
                reg,
            ),
            None => Mailbox::new(
                mailbox_name,
                BROADCAST_DEPTH,
                OverflowPolicy::DropOldest,
                cancel.clone(),
            ),
        };
        let inner = Arc::new(Inner {
            app,
            worker,
            selection,
            num_trees: specs.len() as u32,
            assignments: OrderedRwLock::new(lock_order::WORKER_ASSIGNMENTS, assignments),
            conns: ConnCache::new(transport, addr),
            seqs: OrderedMutex::new(lock_order::WORKER_SEQS, HashMap::new()),
            replay: OrderedMutex::new(
                lock_order::WORKER_REPLAY,
                ReplayBuffer {
                    per_request: HashMap::new(),
                    order: VecDeque::new(),
                    capacity: 64,
                },
            ),
            broadcasts,
            stats: WorkerStats::default(),
            obs: obs.as_ref().map(|reg| WorkerObs::new(reg, app, worker)),
            cancel,
        });
        let shim = Arc::new(Self {
            inner: inner.clone(),
            scope,
        });
        {
            // Accept control connections (redirects, broadcasts) and spawn
            // a named reader per connection into the scope.
            let shim2 = Arc::downgrade(&shim);
            let inner = inner.clone();
            shim.scope
                .spawn(format!("worker-shim-{}-{}", app.0, worker), move || loop {
                    match listener.accept_cancellable(&inner.cancel) {
                        Ok(conn) => {
                            if let Some(s) = shim2.upgrade() {
                                let inner = inner.clone();
                                s.scope
                                    .spawn(
                                        format!(
                                            "worker-shim-{}-{}-ctrl",
                                            inner.app.0, inner.worker
                                        ),
                                        move || control_loop(&inner, conn),
                                    )
                                    .expect("spawn worker shim control reader");
                            }
                        }
                        Err(NetError::Timeout) => continue,
                        Err(_) => return, // cancelled or listener torn down
                    }
                })
                .map_err(|e| NetError::Io(e.to_string()))?;
        }
        Ok(shim)
    }

    /// The worker this shim serves.
    pub fn worker_id(&self) -> u32 {
        self.inner.worker
    }

    /// Counters exposed for the harness and tests.
    pub fn stats(&self) -> &WorkerStats {
        &self.inner.stats
    }

    /// Send a complete partial result for a request (single chunk).
    pub fn send_partial(&self, request: u64, payload: Bytes) -> Result<(), AggError> {
        self.send_chunk(request, payload, true)
    }

    /// Send a large partial result split into `chunk_bytes`-sized chunks
    /// (the payload must be splittable at byte granularity only if the
    /// application's deserialiser can handle it — for record-oriented data
    /// prefer chunking at record boundaries and calling `send_chunk`).
    pub fn send_partial_chunked(
        &self,
        request: u64,
        payload: Bytes,
        chunk_bytes: usize,
    ) -> Result<(), AggError> {
        assert!(chunk_bytes > 0);
        if payload.len() <= chunk_bytes {
            return self.send_chunk(request, payload, true);
        }
        let mut offset = 0;
        while offset < payload.len() {
            let end = (offset + chunk_bytes).min(payload.len());
            let last = end == payload.len();
            self.send_chunk(request, payload.slice(offset..end), last)?;
            offset = end;
        }
        Ok(())
    }

    /// Send one chunk; `last` closes this worker's contribution on the
    /// request's tree. Only valid under [`TreeSelection::PerRequest`].
    pub fn send_chunk(&self, request: u64, payload: Bytes, last: bool) -> Result<(), AggError> {
        assert_eq!(
            self.inner.selection,
            TreeSelection::PerRequest,
            "use send_chunk_keyed / finish_request under Keyed selection"
        );
        let request = RequestId(request);
        let tree = per_request_tree(request, self.inner.num_trees);
        self.inner.send_on_tree(request, tree, payload, last)
    }

    /// Send one chunk on the tree selected by `key_hash` (Keyed mode).
    pub fn send_chunk_keyed(
        &self,
        request: u64,
        key_hash: u64,
        payload: Bytes,
    ) -> Result<(), AggError> {
        assert_eq!(self.inner.selection, TreeSelection::Keyed);
        let request = RequestId(request);
        let tree = TreeId((key_hash % self.inner.num_trees as u64) as u32);
        self.inner.send_on_tree(request, tree, payload, false)
    }

    /// Close this worker's contribution on every tree (Keyed mode).
    pub fn finish_request(&self, request: u64) -> Result<(), AggError> {
        assert_eq!(self.inner.selection, TreeSelection::Keyed);
        let request = RequestId(request);
        for t in 0..self.inner.num_trees {
            self.inner
                .send_on_tree(request, TreeId(t), Bytes::new(), true)?;
        }
        Ok(())
    }

    /// Drop replay state for a completed request.
    pub fn complete_request(&self, request: u64) {
        let request = RequestId(request);
        let mut replay = self.inner.replay.lock();
        replay.per_request.remove(&request);
        replay.order.retain(|r| *r != request);
        self.inner.seqs.lock().remove(&request);
    }

    /// Current destination for a tree (exposed for tests).
    pub fn assignment(&self, tree: TreeId) -> Option<NodeId> {
        self.inner.assignments.read().get(&tree).copied()
    }

    /// Re-send a request's buffered chunks to the current assignments with
    /// their original sequence numbers. This is what a speculative backup
    /// task's duplicate output looks like on the wire: the agg box's
    /// per-source duplicate suppression drops the copies (Section 3.1,
    /// "Handling stragglers"/Hadoop speculative execution).
    pub fn resend_request(&self, request: u64) {
        let request = RequestId(request);
        let trees: Vec<(TreeId, NodeId)> = self
            .inner
            .assignments
            .read()
            .iter()
            .map(|(t, d)| (*t, *d))
            .collect();
        for (tree, dest) in trees {
            self.inner.resend(Some(request), tree, dest);
        }
    }

    /// Receive the next broadcast distributed down the tree (the paper's
    /// one-to-many extension): returns `(request id, payload)`.
    pub fn recv_broadcast(&self, timeout: Duration) -> Result<(u64, Bytes), AggError> {
        match self.inner.broadcasts.recv_timeout(timeout) {
            Ok(v) => Ok(v),
            Err(MailboxRecvTimeoutError::Timeout) => Err(AggError::Timeout),
            Err(_) => Err(AggError::Shutdown), // cancelled or closed
        }
    }

    /// Stop the shim's threads: cancel the token (waking blocked accepts,
    /// control reads and broadcast receivers immediately) and join the
    /// scope under its deadline. Idempotent.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        self.scope.finish();
    }
}

impl Drop for WorkerShim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Tree used by a whole request under per-request selection. Master and
/// workers must agree, so this tiny hash is shared.
pub(crate) fn per_request_tree(request: RequestId, num_trees: u32) -> TreeId {
    TreeId((crate::protocol_hash(request.0) % num_trees.max(1) as u64) as u32)
}

impl Inner {
    fn send_on_tree(
        &self,
        request: RequestId,
        tree: TreeId,
        payload: Bytes,
        last: bool,
    ) -> Result<(), AggError> {
        let dest = self
            .assignments
            .read()
            .get(&tree)
            .copied()
            .ok_or_else(|| AggError::Net(format!("no assignment for tree {}", tree.0)))?;
        let seq = {
            let mut seqs = self.seqs.lock();
            let s = seqs.entry(request).or_insert(0);
            *s += 1;
            *s
        };
        let chunk = SentChunk {
            tree,
            seq,
            last,
            payload: payload.clone(),
        };
        self.replay.lock().record(request, chunk);
        self.stats
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.stats.chunks_sent.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.bytes_sent.add(payload.len() as u64);
            o.chunks_sent.inc();
        }
        self.send_data(
            dest,
            request,
            tree,
            seq,
            last,
            payload,
            names::spans::WORKER_SEND,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn send_data(
        &self,
        dest: NodeId,
        request: RequestId,
        tree: TreeId,
        seq: u32,
        last: bool,
        payload: Bytes,
        span_name: &'static str,
    ) -> Result<(), AggError> {
        // Per-chunk trace context: the worker is the leaf of the causal
        // tree, so the chunk's parent on the wire is this send span and the
        // send span's own parent is the request root (trace id).
        let span = self.obs.as_ref().and_then(|o| {
            o.tracer.sampled(request.0).then(|| {
                let tid = trace::trace_id(self.app.0, request.0);
                (tid, o.tracer.next_span_id(), trace::now_ns())
            })
        });
        let (ctx, sent_ns) = match span {
            Some((tid, span_id, start_ns)) => (
                TraceCtx {
                    trace_id: tid,
                    parent_span_id: span_id,
                },
                start_ns,
            ),
            None => (TraceCtx::NONE, 0),
        };
        let msg = Message::Data {
            app: self.app,
            request,
            tree,
            source: SourceId::Worker(self.worker),
            seq,
            last,
            ctx,
            sent_ns,
            payload,
        };
        let result = self.conns.send(dest, msg.encode()).map_err(AggError::from);
        if let (Some((tid, span_id, start_ns)), Some(o)) = (span, &self.obs) {
            o.tracer.record_span(
                span_name,
                &o.component,
                tid,
                span_id,
                tid,
                request.0,
                start_ns,
                trace::now_ns(),
            );
        }
        result
    }

    /// Resend the replay buffer for one request (or all) to a new parent.
    fn resend(&self, request: Option<RequestId>, tree: TreeId, dest: NodeId) {
        let replay = self.replay.lock();
        let targets: Vec<(RequestId, Vec<SentChunk>)> = replay
            .per_request
            .iter()
            .filter(|(r, _)| request.map(|want| **r == want).unwrap_or(true))
            .map(|(r, cs)| (*r, cs.clone()))
            .collect();
        drop(replay);
        for (req, chunks) in targets {
            for c in chunks.into_iter().filter(|c| c.tree == tree) {
                self.stats.chunks_resent.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &self.obs {
                    o.chunks_resent.inc();
                }
                let _ = self.send_data(
                    dest,
                    req,
                    c.tree,
                    c.seq,
                    c.last,
                    c.payload,
                    names::spans::WORKER_RESEND,
                );
            }
        }
    }
}

fn control_loop(inner: &Arc<Inner>, mut conn: Box<dyn Connection>) {
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
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } => {
                if app != inner.app {
                    continue;
                }
                inner.stats.redirects.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &inner.obs {
                    o.redirects_applied.inc();
                }
                if permanent {
                    inner.assignments.write().insert(tree, new_parent);
                    // Resend everything still buffered on that tree so
                    // requests in flight at the failed box recover.
                    inner.resend(None, tree, new_parent);
                } else {
                    inner.resend(Some(request), tree, new_parent);
                }
            }
            Message::Heartbeat { nonce, .. } => {
                let _ = conn.send(
                    Message::HeartbeatAck {
                        from: inner.worker,
                        nonce,
                    }
                    .encode(),
                );
            }
            Message::Broadcast {
                app,
                request,
                payload,
                ..
            } if app == inner.app => {
                inner
                    .stats
                    .broadcasts_received
                    .fetch_add(1, Ordering::Relaxed);
                // DropOldest: never blocks; a non-consuming application
                // keeps only the newest BROADCAST_DEPTH payloads.
                let _ = inner.broadcasts.send((request.0, payload));
            }
            _ => {}
        }
    }
}
