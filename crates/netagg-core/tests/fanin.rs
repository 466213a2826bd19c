//! Table-driven tests of the fan-in recovery policy (`netagg_core::fanin`).
//!
//! Every ledger-level case runs with both ledger key types: `SourceId`,
//! as at an agg box, and `(TreeId, SourceId)`, as at the master shim.

use netagg_core::fanin::{repoint_in_flight, select_stragglers, ChildBoxInfo, FanInRoute};
use netagg_core::ledger::FanInLedger;
use netagg_core::protocol::{SourceId, TreeId};
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

use SourceId::{Box as B, Worker as W};

/// A ledger key type, built from the source it stands for.
trait Key: Eq + Hash + Copy + Debug {
    fn of(s: SourceId) -> Self;
}

impl Key for SourceId {
    fn of(s: SourceId) -> Self {
        s
    }
}

impl Key for (TreeId, SourceId) {
    fn of(s: SourceId) -> Self {
        (TreeId(3), s)
    }
}

fn keys<K: Key>(sources: &[SourceId]) -> Vec<K> {
    sources.iter().map(|s| K::of(*s)).collect()
}

fn info(behind: &[SourceId], child_boxes: Vec<(u32, ChildBoxInfo)>) -> ChildBoxInfo {
    ChildBoxInfo {
        behind_sources: behind.to_vec(),
        children_addrs: behind.iter().map(|s| 1000 + addr_of(*s)).collect(),
        child_boxes: child_boxes.into_iter().collect(),
    }
}

fn addr_of(s: SourceId) -> u32 {
    match s {
        W(w) => w,
        B(b) => 500 + b,
    }
}

// --- route transition -------------------------------------------------------

struct FailCase {
    name: &'static str,
    /// Child boxes already in the route next to box 1.
    present: Vec<(u32, ChildBoxInfo)>,
    fails: &'static [u32],
    /// What each `fail_child` call returns.
    returns: Vec<Option<Vec<SourceId>>>,
    owed_after: Vec<SourceId>,
    /// `(child box, its behind-sources)` left in the route.
    children_after: Vec<(u32, Vec<SourceId>)>,
}

/// The route under test owes worker 0 and box 1; box 1 is fed by worker 1
/// and box 2, and box 2 by workers 2 and 3.
fn base_route(present: Vec<(u32, ChildBoxInfo)>) -> FanInRoute {
    let mut child_boxes: HashMap<u32, ChildBoxInfo> = present.into_iter().collect();
    child_boxes.insert(
        1,
        info(&[W(1), B(2)], vec![(2, info(&[W(2), W(3)], vec![]))]),
    );
    FanInRoute {
        owed: [W(0), B(1)].into_iter().collect(),
        child_boxes,
    }
}

fn fail_cases() -> Vec<FailCase> {
    vec![
        FailCase {
            name: "failing a box twice is a no-op the second time",
            present: vec![],
            fails: &[1, 1],
            returns: vec![Some(vec![W(1), B(2)]), None],
            owed_after: vec![W(0), W(1), B(2)],
            children_after: vec![(2, vec![W(2), W(3)])],
        },
        FailCase {
            name: "adopting a grandchild already present keeps the existing entry",
            present: vec![(2, info(&[W(7)], vec![]))],
            fails: &[1],
            returns: vec![Some(vec![W(1), B(2)])],
            owed_after: vec![W(0), W(1), B(2)],
            children_after: vec![(2, vec![W(7)])],
        },
        FailCase {
            name: "a chained failure re-points one level down",
            present: vec![],
            fails: &[1, 2],
            returns: vec![Some(vec![W(1), B(2)]), Some(vec![W(2), W(3)])],
            owed_after: vec![W(0), W(1), W(2), W(3)],
            children_after: vec![],
        },
        FailCase {
            name: "a box that is not a child is a no-op",
            present: vec![],
            fails: &[9],
            returns: vec![None],
            owed_after: vec![W(0), B(1)],
            children_after: vec![(1, vec![W(1), B(2)])],
        },
    ]
}

/// Drive one case through the route, then replay the route's answers
/// into an in-flight ledger keyed by `K`: the ledger must end up owing
/// exactly what the route owes, and every transition must be idempotent.
fn run_fail_case<K: Key>(case: &FailCase) {
    let mut route = base_route(case.present.clone());
    let mut ledger = FanInLedger::new(keys::<K>(&[W(0), B(1)]));
    for (box_id, want) in case.fails.iter().zip(&case.returns) {
        let got = route.fail_child(*box_id);
        assert_eq!(&got, want, "{}: fail_child({box_id})", case.name);
        let Some(behind) = got else { continue };
        let behind = keys::<K>(&behind);
        let first = repoint_in_flight(&mut ledger, K::of(B(*box_id)), &behind);
        assert!(first.moved, "{}: first in-flight re-point", case.name);
        assert!(!first.complete, "{}: nothing has ended yet", case.name);
        let again = repoint_in_flight(&mut ledger, K::of(B(*box_id)), &behind);
        assert!(!again.moved, "{}: repeated in-flight re-point", case.name);
    }

    let owed: HashSet<SourceId> = case.owed_after.iter().copied().collect();
    assert_eq!(route.owed, owed, "{}: route owed set", case.name);
    let mut children: Vec<(u32, Vec<SourceId>)> = route
        .child_boxes
        .iter()
        .map(|(id, i)| (*id, i.behind_sources.clone()))
        .collect();
    children.sort();
    assert_eq!(
        children, case.children_after,
        "{}: route child boxes",
        case.name
    );

    assert_eq!(ledger.owed_len(), owed.len(), "{}: ledger owed", case.name);
    for s in &case.owed_after {
        assert!(
            ledger.is_owed(&K::of(*s)),
            "{}: ledger owes {s:?}",
            case.name
        );
        ledger.note_end(K::of(*s));
    }
    assert!(
        ledger.is_complete(),
        "{}: ends complete the request",
        case.name
    );
}

#[test]
fn fail_child_table() {
    for case in fail_cases() {
        run_fail_case::<SourceId>(&case);
        run_fail_case::<(TreeId, SourceId)>(&case);
    }
}

// --- in-flight re-point-and-complete step ----------------------------------

struct InFlightCase {
    name: &'static str,
    owed: &'static [SourceId],
    ended: &'static [SourceId],
    behind: &'static [SourceId],
    moved: bool,
    complete: bool,
}

const IN_FLIGHT: &[InFlightCase] = &[
    InFlightCase {
        name: "a replay before the re-point completes on the re-point",
        owed: &[B(1)],
        ended: &[W(1)],
        behind: &[W(1)],
        moved: true,
        complete: true,
    },
    InFlightCase {
        name: "a box that already delivered suppresses its sources",
        owed: &[B(1)],
        ended: &[B(1)],
        behind: &[W(1), W(2)],
        moved: true,
        complete: true,
    },
    InFlightCase {
        name: "moved obligations keep the request open",
        owed: &[W(0), B(1)],
        ended: &[W(0)],
        behind: &[W(1)],
        moved: true,
        complete: false,
    },
    InFlightCase {
        name: "a box the request does not owe is a recorded no-op",
        owed: &[W(0)],
        ended: &[],
        behind: &[W(1)],
        moved: false,
        complete: false,
    },
];

fn run_in_flight_case<K: Key>(case: &InFlightCase) {
    let mut ledger = FanInLedger::new(keys::<K>(case.owed));
    for s in case.ended {
        ledger.accept_chunk(K::of(*s), 1);
        ledger.note_end(K::of(*s));
    }
    let step = repoint_in_flight(&mut ledger, K::of(B(1)), &keys::<K>(case.behind));
    assert_eq!(step.moved, case.moved, "{}: moved", case.name);
    assert_eq!(step.complete, case.complete, "{}: complete", case.name);
    let again = repoint_in_flight(&mut ledger, K::of(B(1)), &keys::<K>(case.behind));
    assert!(!again.moved, "{}: the step is idempotent", case.name);
    assert_eq!(
        again.complete, case.complete,
        "{}: completion is stable",
        case.name
    );
}

#[test]
fn repoint_in_flight_table() {
    for case in IN_FLIGHT {
        run_in_flight_case::<SourceId>(case);
        run_in_flight_case::<(TreeId, SourceId)>(case);
    }
}

// --- straggler selection ----------------------------------------------------

struct StragglerCase {
    name: &'static str,
    owed: &'static [SourceId],
    /// Child boxes a chunk has already arrived from.
    seen: &'static [u32],
    /// Child boxes re-pointed before the scan.
    repointed: &'static [u32],
    /// Child boxes the scan bypasses.
    bypassed: &'static [u32],
}

const STRAGGLERS: &[StragglerCase] = &[
    StragglerCase {
        name: "every silent owed box is bypassed",
        owed: &[B(1), B(2)],
        seen: &[],
        repointed: &[],
        bypassed: &[1, 2],
    },
    StragglerCase {
        name: "a box that was seen is skipped",
        owed: &[B(1), B(2)],
        seen: &[1],
        repointed: &[],
        bypassed: &[2],
    },
    StragglerCase {
        name: "a box already re-pointed is skipped",
        owed: &[B(1), B(2)],
        seen: &[],
        repointed: &[2],
        bypassed: &[1],
    },
    StragglerCase {
        name: "a box a subset request does not owe is skipped",
        owed: &[B(1), W(0)],
        seen: &[],
        repointed: &[],
        bypassed: &[1],
    },
    StragglerCase {
        name: "nothing to bypass",
        owed: &[B(1), B(2), W(0)],
        seen: &[1],
        repointed: &[2],
        bypassed: &[],
    },
];

/// Child boxes 1–3; box `b` is fed by workers `10b` and `10b + 1`.
fn straggler_children() -> HashMap<u32, ChildBoxInfo> {
    (1..=3)
        .map(|b| (b, info(&[W(10 * b), W(10 * b + 1)], vec![])))
        .collect()
}

fn run_straggler_case<K: Key>(case: &StragglerCase) {
    let children = straggler_children();
    let mut ledger = FanInLedger::new(keys::<K>(case.owed));
    for b in case.seen {
        ledger.accept_chunk(K::of(B(*b)), 1);
    }
    for b in case.repointed {
        let behind = keys::<K>(&children[b].behind_sources);
        ledger.repoint(K::of(B(*b)), &behind);
    }
    let mut got = select_stragglers(&mut ledger, &children, K::of);
    got.sort();
    let ids: Vec<u32> = got.iter().map(|(b, _)| *b).collect();
    assert_eq!(ids, case.bypassed, "{}: bypassed boxes", case.name);
    for (b, addrs) in &got {
        assert_eq!(
            addrs, &children[b].children_addrs,
            "{}: redirect targets",
            case.name
        );
        assert!(
            ledger.is_ignored(&K::of(B(*b))),
            "{}: box {b} ignored",
            case.name
        );
        for s in &children[b].behind_sources {
            assert!(ledger.is_owed(&K::of(*s)), "{}: {s:?} owed", case.name);
        }
    }
    let rescan = select_stragglers(&mut ledger, &children, K::of);
    assert!(
        rescan.is_empty(),
        "{}: a second scan bypasses nothing",
        case.name
    );
}

#[test]
fn select_stragglers_table() {
    for case in STRAGGLERS {
        run_straggler_case::<SourceId>(case);
        run_straggler_case::<(TreeId, SourceId)>(case);
    }
}
