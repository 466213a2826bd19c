//! The fan-in recovery policy, defined once for every fan-in point.
//!
//! The master shim and each agg box are both parents of child boxes, and
//! the paper's failure and straggler handling (Section 3.1) is the same
//! at both: the children of a dead or slow child box are re-pointed to
//! the parent, which from then on owes them directly and suppresses
//! their duplicates. This module holds each of those decisions once, as
//! pure functions over a [`FanInRoute`] and a [`FanInLedger`]: no locks,
//! no sends, no metrics. The box runtime and the master shim keep only
//! their locking, tracing, metrics and sends (DESIGN.md §8).

use crate::ledger::{FanInLedger, RepointOutcome};
use crate::protocol::{AppId, SourceId};
use crate::tree::{Parent, TreeSpec};
use netagg_net::NodeId;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Information about one child box of a fan-in point within a tree, used
/// by the straggler and failure machinery. The structure is recursive:
/// when a child box fails, its parent *adopts* the grandchild box infos so
/// a later failure of one of those can be re-pointed too (chained
/// failures).
#[derive(Debug, Clone, Default)]
pub struct ChildBoxInfo {
    /// The logical sources feeding that child (its direct children:
    /// workers and boxes). On failure these move into the parent's owed
    /// set (see [`FanInLedger::repoint`]).
    pub behind_sources: Vec<SourceId>,
    /// Transport addresses of its children (workers and boxes).
    pub children_addrs: Vec<NodeId>,
    /// The child's own child boxes, adopted on its failure.
    pub child_boxes: HashMap<u32, ChildBoxInfo>,
}

impl ChildBoxInfo {
    /// Build the recursive info for `box_id` within `spec`, resolving
    /// worker addresses for one application.
    pub fn from_spec(spec: &TreeSpec, app: AppId, box_id: u32) -> Self {
        let child_boxes = spec
            .tree_box(box_id)
            .map(|tb| child_infos(spec, app, &tb.box_children))
            .unwrap_or_default();
        Self {
            behind_sources: spec.children_sources(box_id),
            children_addrs: spec.children_addrs(app, box_id),
            child_boxes,
        }
    }
}

fn child_infos(spec: &TreeSpec, app: AppId, boxes: &[u32]) -> HashMap<u32, ChildBoxInfo> {
    boxes
        .iter()
        .map(|b| (*b, ChildBoxInfo::from_spec(spec, app, *b)))
        .collect()
}

/// The steady-state fan-in routing of one tree at one fan-in point: the
/// contributors a new request owes, and the child boxes that can fail or
/// straggle. The box's per-tree route and the master's per-tree route
/// both embed it.
#[derive(Debug, Clone, Default)]
pub struct FanInRoute {
    /// The distinct contributors new requests seed their ledger from
    /// (workers and child boxes).
    pub owed: HashSet<SourceId>,
    /// Child boxes by global box id.
    pub child_boxes: HashMap<u32, ChildBoxInfo>,
}

impl FanInRoute {
    /// The route of agg box `box_id` within `spec`: its direct children.
    pub fn for_box(spec: &TreeSpec, app: AppId, box_id: u32) -> Self {
        let box_children = spec
            .tree_box(box_id)
            .map(|tb| tb.box_children.as_slice())
            .unwrap_or_default();
        Self {
            owed: spec.children_sources(box_id).into_iter().collect(),
            child_boxes: child_infos(spec, app, box_children),
        }
    }

    /// The master's route within `spec`: the root boxes that have
    /// sources, plus the workers that send to the master directly.
    pub fn for_master(spec: &TreeSpec, app: AppId) -> Self {
        let roots: Vec<u32> = spec
            .boxes
            .iter()
            .filter(|b| b.parent == Parent::Master && b.expected_sources() > 0)
            .map(|b| b.box_id)
            .collect();
        Self {
            owed: spec.master_sources().into_iter().collect(),
            child_boxes: child_infos(spec, app, &roots),
        }
    }

    /// The route-level failure transition for child box `box_id`: drop
    /// its entry, owe its behind-sources in its place, and adopt its own
    /// child boxes so a chained failure below it re-points too. A
    /// grandchild already present keeps its existing entry.
    ///
    /// Returns the failed box's behind-sources, or `None` when the box is
    /// not (or no longer) a child here: a repeated detector firing, or a
    /// straggler escalation that raced the detector.
    pub fn fail_child(&mut self, box_id: u32) -> Option<Vec<SourceId>> {
        let info = self.child_boxes.remove(&box_id)?;
        self.owed.remove(&SourceId::Box(box_id));
        self.owed.extend(info.behind_sources.iter().copied());
        for (id, grandchild) in info.child_boxes {
            self.child_boxes.entry(id).or_insert(grandchild);
        }
        Some(info.behind_sources)
    }
}

/// What [`repoint_in_flight`] did to one request's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightRepoint {
    /// The box's obligations moved onto its behind-sources, or its
    /// behind-sources were suppressed because it had already delivered.
    /// Either way the request's trace gets a re-point mark.
    pub moved: bool,
    /// Every owed contributor has now ended: the caller closes the
    /// request's input.
    pub complete: bool,
}

/// The in-flight failure step for one open request: re-point `box_key`
/// onto `behind` in its ledger and report whether that completed it.
/// Idempotent, like [`FanInLedger::repoint`].
pub fn repoint_in_flight<K: Eq + Hash + Copy>(
    ledger: &mut FanInLedger<K>,
    box_key: K,
    behind: &[K],
) -> InFlightRepoint {
    let moved = matches!(
        ledger.repoint(box_key, behind),
        RepointOutcome::Moved { .. } | RepointOutcome::DuplicateSuppressed
    );
    InFlightRepoint {
        moved,
        complete: ledger.is_complete(),
    }
}

/// Per-request straggler selection: every child box in `child_boxes`
/// that the request has neither seen data from nor already re-pointed is
/// re-pointed onto its behind-sources for this request only. Returns
/// `(box id, children addresses)` for each box whose obligations actually
/// moved; the caller redirects those children. A box the ledger does not
/// owe (a subset request it takes no part in) is recorded but not
/// returned. `key` maps a source to the ledger's key type (`SourceId` at
/// a box, `(TreeId, SourceId)` at the master).
pub fn select_stragglers<K: Eq + Hash + Copy>(
    ledger: &mut FanInLedger<K>,
    child_boxes: &HashMap<u32, ChildBoxInfo>,
    key: impl Fn(SourceId) -> K,
) -> Vec<(u32, Vec<NodeId>)> {
    let mut bypassed = Vec::new();
    for (box_id, info) in child_boxes {
        let box_key = key(SourceId::Box(*box_id));
        if ledger.has_seen(&box_key) || ledger.was_repointed(&box_key) {
            continue; // it has delivered something, or is already bypassed
        }
        let behind: Vec<K> = info.behind_sources.iter().map(|s| key(*s)).collect();
        if let RepointOutcome::Moved { .. } = ledger.repoint(box_key, &behind) {
            bypassed.push((*box_id, info.children_addrs.clone()));
        }
    }
    bypassed
}
