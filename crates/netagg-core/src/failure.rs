//! Failure detection (Section 3.1, "Handling failures").
//!
//! Every node that is the *parent* of agg boxes in a tree (other boxes
//! and the master shim) heartbeats its child boxes; after `misses`
//! consecutive unanswered probes a child is declared failed, the node
//! re-points its fan-in routes (see [`crate::fanin`]) and tells the
//! failed box's children to send to it instead. Duplicate suppression at
//! the new parent (sequence numbers per source) keeps resent results
//! from being double-counted.
//!
//! This module holds the detector's decisions as a pure state machine,
//! [`Prober`]: no locks, no sends, no clock reads. The node's tick thread
//! owns the probe connections, feeds the prober the time, the acks it
//! read and the child boxes its routes hold, and sends what it is told to
//! (DESIGN.md §8).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::{Duration, Instant};

/// Detector timing parameters.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Probe interval.
    pub interval: Duration,
    /// How long to wait for a heartbeat ack.
    pub timeout: Duration,
    /// Consecutive misses before declaring failure.
    pub misses: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(100),
            timeout: Duration::from_millis(100),
            misses: 3,
        }
    }
}

/// Probe state of one watched child box.
#[derive(Debug, Clone, Copy)]
struct Watch {
    /// The outstanding probe: its nonce and ack deadline.
    outstanding: Option<(u64, Instant)>,
    /// Consecutive probes that went unanswered.
    misses: u32,
    /// When the next probe may be sent.
    next_send: Instant,
}

/// The failure detector of one parent node, over the child boxes it is
/// told to watch. At most one probe per child is outstanding at a time.
#[derive(Debug, Clone)]
pub struct Prober {
    cfg: DetectorConfig,
    watches: BTreeMap<u32, Watch>,
    /// Boxes declared failed: never probed again.
    failed: BTreeSet<u32>,
    nonce: u64,
}

impl Prober {
    /// A prober watching nothing yet.
    pub fn new(cfg: DetectorConfig) -> Self {
        Self {
            cfg,
            watches: BTreeMap::new(),
            failed: BTreeSet::new(),
            nonce: 0,
        }
    }

    /// The probes to send at `now`, as `(box id, nonce)`, to the child
    /// boxes in `watched` (the union of the node's routes' child boxes).
    /// A box new to `watched` is due at once; a box that left it is
    /// forgotten; a box declared failed is never probed again. Each probe
    /// sent must be answered by `now + timeout`; the next one to the same
    /// box goes no earlier than `now + interval`, and not while this one
    /// is outstanding.
    pub fn due(&mut self, watched: &HashSet<u32>, now: Instant) -> Vec<(u32, u64)> {
        self.watches.retain(|b, _| watched.contains(b));
        for &b in watched {
            if !self.failed.contains(&b) {
                self.watches.entry(b).or_insert(Watch {
                    outstanding: None,
                    misses: 0,
                    next_send: now,
                });
            }
        }
        let mut probes = Vec::new();
        for (&b, w) in &mut self.watches {
            if w.outstanding.is_none() && w.next_send <= now {
                self.nonce += 1;
                w.outstanding = Some((self.nonce, now + self.cfg.timeout));
                w.next_send = now + self.cfg.interval;
                probes.push((b, self.nonce));
            }
        }
        probes
    }

    /// The probe to `box_id` is lost: it could not be dialled or sent, or
    /// its connection broke before the ack came. It counts as a miss at
    /// the next [`Prober::expire`] instead of waiting out the timeout.
    pub fn lost(&mut self, box_id: u32, now: Instant) {
        if let Some((_, deadline)) = self
            .watches
            .get_mut(&box_id)
            .and_then(|w| w.outstanding.as_mut())
        {
            *deadline = now;
        }
    }

    /// An ack from `box_id`. It answers the outstanding probe only if the
    /// nonce matches; that resets the box's misses. Acks are read before
    /// deadlines expire, so an ack that arrived in time counts even when
    /// it is read late.
    pub fn ack(&mut self, box_id: u32, nonce: u64) {
        if let Some(w) = self.watches.get_mut(&box_id) {
            if w.outstanding.map(|(n, _)| n) == Some(nonce) {
                w.outstanding = None;
                w.misses = 0;
            }
        }
    }

    /// Expire the probes whose deadline is at or before `now`, each a
    /// miss. Returns the boxes whose consecutive misses reached the limit
    /// on this call: each box is declared failed exactly once.
    pub fn expire(&mut self, now: Instant) -> Vec<u32> {
        let mut failed = Vec::new();
        for (&b, w) in &mut self.watches {
            if w.outstanding.is_some_and(|(_, deadline)| deadline <= now) {
                w.outstanding = None;
                w.misses += 1;
                if w.misses >= self.cfg.misses {
                    failed.push(b);
                }
            }
        }
        for b in &failed {
            self.watches.remove(b);
            self.failed.insert(*b);
        }
        failed
    }

    /// The earliest instant at which [`Prober::expire`] or
    /// [`Prober::due`] has work: an outstanding probe's deadline, or an
    /// idle box's next send. `None` when nothing is watched.
    pub fn next_due(&self) -> Option<Instant> {
        self.watches
            .values()
            .map(|w| w.outstanding.map_or(w.next_send, |(_, d)| d))
            .min()
    }
}
