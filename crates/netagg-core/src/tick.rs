//! The per-node timer thread. Each agg box and each master shim runs at
//! most one `tick` thread in its own scope: it sleeps on the node's
//! cancel token until the earliest due time of the node's periodic jobs
//! (stream flush, straggler scan) and probe rounds, and runs whichever
//! are due (DESIGN.md §9).

use crate::conn_cache::ConnCache;
use crate::failure::{DetectorConfig, Prober};
use crate::lifecycle::CancelToken;
use crate::protocol::{AppId, Message, RequestId, TreeId};
use crate::tree::box_addr;
use netagg_net::{Connection, NetError, NodeId, Transport};
use netagg_obs::{names, MetricsRegistry};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The node a tick serves: an agg box or a master shim.
pub(crate) trait Node {
    /// The probe side of failure detection, once it is armed.
    fn probes(&self) -> Option<Probes>;
    /// The child boxes of every route the node holds.
    fn watched(&self) -> HashSet<u32>;
    /// Child box `box_id` was declared failed: re-point every route that
    /// holds it, and only then send the permanent redirects to its
    /// children (§8: accounting first, data movement second).
    fn fail_child_box(&self, box_id: u32);
}

/// A periodic job of a node's tick.
pub(crate) struct Job<'a> {
    period: Duration,
    next: Instant,
    run: Box<dyn FnMut() + 'a>,
}

impl<'a> Job<'a> {
    /// Run `run` every `period`, first one period from now.
    pub(crate) fn every(period: Duration, run: impl FnMut() + 'a) -> Self {
        Self {
            period,
            next: Instant::now() + period,
            run: Box::new(run),
        }
    }
}

/// Run `node`'s tick until `cancel` fires: each job when it is due, and
/// probe rounds once the node's detector is armed.
pub(crate) fn run(node: &impl Node, cancel: &CancelToken, mut jobs: Vec<Job<'_>>) {
    let mut probes: Option<Probes> = None;
    loop {
        if probes.is_none() {
            probes = node.probes();
        }
        let probe_due = probes.as_ref().map(Probes::next_due);
        // A tick starts only with a job or a detector armed.
        let wait = jobs
            .iter()
            .map(|j| j.next)
            .chain(probe_due)
            .min()
            .map_or(Duration::from_secs(1), |t| {
                t.saturating_duration_since(Instant::now())
            });
        if cancel.wait_timeout(wait) {
            return;
        }
        let now = Instant::now();
        for job in jobs.iter_mut().filter(|j| j.next <= now) {
            job.next = now + job.period;
            (job.run)();
        }
        if let Some(p) = probes
            .as_mut()
            .filter(|_| probe_due.is_some_and(|t| t <= now))
        {
            p.round(now, |b| node.fail_child_box(b), || node.watched());
        }
    }
}

/// A permanent re-point owed after a child box failed: tell `children`
/// to send tree `tree` of `app` to this node from now on.
pub(crate) type Redirect = (AppId, TreeId, Vec<NodeId>);

/// Send `redirects` over `conns`, re-pointing each child at `new_parent`
/// for good. Publishes `failure.repoints` per redirect sent.
pub(crate) fn redirect(
    conns: &ConnCache,
    new_parent: NodeId,
    redirects: impl IntoIterator<Item = Redirect>,
    obs: Option<&MetricsRegistry>,
) {
    for (app, tree, children) in redirects {
        let msg = Message::Redirect {
            app,
            permanent: true,
            request: RequestId(0),
            tree,
            new_parent,
        }
        .encode();
        for child in children {
            if conns.send(child, msg.clone()).is_ok() {
                if let Some(o) = obs {
                    o.counter(names::FAILURE_REPOINTS).inc();
                }
            }
        }
    }
}

/// The probe side of a node's tick: the pure [`Prober`] and the probe
/// connections it sends on, one per watched child box.
pub(crate) struct Probes {
    prober: Prober,
    interval: Duration,
    /// The next round, due every `interval` even when no probe is, so a
    /// change to the watched set is picked up.
    next_round: Instant,
    conns: HashMap<u32, Box<dyn Connection>>,
    transport: Arc<dyn Transport>,
    local: NodeId,
    obs: Option<MetricsRegistry>,
}

impl Probes {
    /// Probes sent from `local`, publishing `failure.*` into `obs`. The
    /// first round is due at once.
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        local: NodeId,
        cfg: &DetectorConfig,
        obs: Option<MetricsRegistry>,
    ) -> Self {
        Self {
            prober: Prober::new(cfg.clone()),
            interval: cfg.interval,
            next_round: Instant::now(),
            conns: HashMap::new(),
            transport,
            local,
            obs,
        }
    }

    /// When the next round is due.
    fn next_due(&self) -> Instant {
        self.prober
            .next_due()
            .map_or(self.next_round, |t| t.min(self.next_round))
    }

    /// One probe round at `now`. Read every ack that already arrived,
    /// then expire overdue probes, and hand each box declared failed to
    /// `fail`. Then send the probes due to the child boxes `watched`
    /// returns, read after the failures so that adopted grandchildren are
    /// probed in this round.
    fn round(
        &mut self,
        now: Instant,
        mut fail: impl FnMut(u32),
        watched: impl FnOnce() -> HashSet<u32>,
    ) {
        self.next_round = now + self.interval;
        self.read_acks(now);
        for box_id in self.prober.expire(now) {
            self.conns.remove(&box_id);
            if let Some(o) = &self.obs {
                o.counter(names::FAILURE_DETECTIONS).inc();
                o.emit(
                    names::EVENT_FAILURE,
                    format!(
                        "detector at {} declared box {box_id} (addr {}) failed",
                        self.local,
                        box_addr(box_id)
                    ),
                );
            }
            fail(box_id);
        }
        for (box_id, nonce) in self.prober.due(&watched(), now) {
            let hb = Message::Heartbeat {
                from: self.local,
                nonce,
            };
            if self.send(box_id, hb).is_err() {
                self.conns.remove(&box_id);
                self.prober.lost(box_id, now);
            }
        }
    }

    /// Hand every ack already queued on a probe connection to the prober,
    /// without blocking. A connection that errors is dropped, and its
    /// outstanding probe is lost.
    fn read_acks(&mut self, now: Instant) {
        let prober = &mut self.prober;
        self.conns.retain(|&box_id, conn| loop {
            match conn.recv_timeout(Duration::ZERO) {
                Ok(frame) => {
                    if let Ok(Message::HeartbeatAck { nonce, .. }) = Message::decode(frame) {
                        prober.ack(box_id, nonce);
                    }
                }
                Err(NetError::Timeout) => break true,
                Err(_) => {
                    prober.lost(box_id, now);
                    break false;
                }
            }
        });
    }

    /// Send `msg` on the probe connection to `box_id`, dialling on a miss.
    fn send(&mut self, box_id: u32, msg: Message) -> Result<(), NetError> {
        let conn = match self.conns.entry(box_id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(self.transport.connect(self.local, box_addr(box_id))?),
        };
        conn.send(msg.encode())
    }
}
