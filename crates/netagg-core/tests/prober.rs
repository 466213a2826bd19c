//! Table-driven tests of the failure detector's decisions
//! (`netagg_core::failure::Prober`), driven over synthetic instants: no
//! sleeps and no transport. End-to-end detection is covered by
//! `tests/recovery.rs` and `tests/platform.rs`.

use netagg_core::failure::{DetectorConfig, Prober};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// One input to the prober, at a time in milliseconds after the start.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// At `ms`, with child boxes `watched`, probes go to exactly `probed`.
    Due {
        ms: u64,
        watched: &'static [u32],
        probed: &'static [u32],
    },
    /// An ack from box `b` for its latest probe, or with `stale` for the
    /// probe before it.
    Ack { b: u32, stale: bool },
    /// The probe to box `b` was lost at `ms`: its dial or send failed, or
    /// its connection broke.
    Lost { ms: u64, b: u32 },
    /// At `ms`, expiry declares exactly `failed`.
    Expire { ms: u64, failed: &'static [u32] },
    /// The prober's next due instant.
    NextDue { ms: Option<u64> },
}

use Step::*;

struct Case {
    name: &'static str,
    interval_ms: u64,
    timeout_ms: u64,
    misses: u32,
    steps: Vec<Step>,
}

fn due(ms: u64, watched: &'static [u32], probed: &'static [u32]) -> Step {
    Due {
        ms,
        watched,
        probed,
    }
}

fn ack(b: u32) -> Step {
    Ack { b, stale: false }
}

fn lost(ms: u64, b: u32) -> Step {
    Lost { ms, b }
}

fn expire(ms: u64, failed: &'static [u32]) -> Step {
    Expire { ms, failed }
}

fn next_due(ms: Option<u64>) -> Step {
    NextDue { ms }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "an ack just inside the timeout resets the misses",
            interval_ms: 30,
            timeout_ms: 60,
            misses: 2,
            steps: vec![
                due(0, &[1], &[1]),
                expire(60, &[]), // miss 1
                due(60, &[1], &[1]),
                ack(1), // read at 119 ms, deadline 120 ms
                expire(120, &[]),
                due(120, &[1], &[1]),
                // A miss again, but only the first in a row.
                expire(180, &[]),
            ],
        },
        Case {
            name: "an ack read after its deadline but before expiry counts",
            interval_ms: 30,
            timeout_ms: 60,
            misses: 1,
            steps: vec![due(0, &[1], &[1]), ack(1), expire(200, &[])],
        },
        Case {
            name: "a stale ack answers nothing",
            interval_ms: 30,
            timeout_ms: 60,
            misses: 2,
            steps: vec![
                due(0, &[1], &[1]),
                expire(60, &[]),
                due(60, &[1], &[1]),
                Ack { b: 1, stale: true },
                expire(120, &[1]),
            ],
        },
        Case {
            name: "consecutive misses declare the box failed exactly once",
            interval_ms: 30,
            timeout_ms: 60,
            misses: 3,
            steps: vec![
                due(0, &[1, 2], &[1, 2]),
                ack(2),
                expire(60, &[]),
                due(60, &[1, 2], &[1, 2]),
                ack(2),
                expire(120, &[]),
                due(120, &[1, 2], &[1, 2]),
                ack(2),
                expire(180, &[1]),
                due(180, &[1, 2], &[2]),
                expire(240, &[]),
                expire(10_000, &[]),
            ],
        },
        Case {
            name: "a lost probe (failed dial or send, broken connection) is a miss with no wait",
            interval_ms: 30,
            timeout_ms: 60,
            misses: 2,
            steps: vec![
                due(0, &[1], &[1]),
                lost(0, 1),
                next_due(Some(0)),
                expire(0, &[]), // miss 1, not at 60 ms
                due(0, &[1], &[]),
                next_due(Some(30)),
                due(30, &[1], &[1]),
                lost(30, 1),
                expire(30, &[1]),
            ],
        },
        Case {
            name: "at most one probe is outstanding per child",
            interval_ms: 30,
            timeout_ms: 100,
            misses: 3,
            steps: vec![
                due(0, &[1], &[1]),
                due(30, &[1], &[]),
                due(60, &[1], &[]),
                next_due(Some(100)),
                expire(100, &[]),
                due(100, &[1], &[1]),
                ack(1),
                // Answered, but the interval has not passed.
                due(100, &[1], &[]),
                next_due(Some(130)),
                due(130, &[1], &[1]),
            ],
        },
        Case {
            name: "an adopted child is probed on the next round, a failed one never again",
            interval_ms: 30,
            timeout_ms: 60,
            misses: 1,
            steps: vec![
                next_due(None),
                due(0, &[1], &[1]),
                expire(60, &[1]),
                // The failure adopted boxes 2 and 3 into the route; box 1
                // is still listed by a route that has not caught up.
                due(60, &[1, 2, 3], &[2, 3]),
                ack(2),
                ack(3),
                due(90, &[1, 2, 3], &[2, 3]),
                expire(10_000, &[2, 3]),
                due(10_000, &[1, 2, 3], &[]),
                next_due(None),
            ],
        },
        Case {
            name: "a box that leaves the routes is forgotten",
            interval_ms: 30,
            timeout_ms: 60,
            misses: 1,
            steps: vec![
                due(0, &[1, 2], &[1, 2]),
                ack(2),
                // Box 1 was escalated by the straggler scan.
                due(10, &[2], &[]),
                expire(60, &[]),
                // Back in a route, it is watched afresh.
                due(60, &[1, 2], &[1, 2]),
            ],
        },
    ]
}

fn run(case: &Case) {
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    let mut prober = Prober::new(DetectorConfig {
        interval: Duration::from_millis(case.interval_ms),
        timeout: Duration::from_millis(case.timeout_ms),
        misses: case.misses,
    });
    let mut nonces: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for (i, step) in case.steps.iter().enumerate() {
        let ctx = format!("{} (step {i}: {step:?})", case.name);
        match *step {
            Due {
                ms,
                watched,
                probed,
            } => {
                let watched: HashSet<u32> = watched.iter().copied().collect();
                let sent = prober.due(&watched, at(ms));
                let mut boxes: Vec<u32> = sent.iter().map(|&(b, _)| b).collect();
                boxes.sort_unstable();
                assert_eq!(boxes, probed, "{ctx}: probed boxes");
                for (b, nonce) in sent {
                    assert!(seen.insert(nonce), "{ctx}: nonce {nonce} reused");
                    nonces.entry(b).or_default().push(nonce);
                }
            }
            Ack { b, stale } => {
                let sent = &nonces[&b];
                let back = if stale { 2 } else { 1 };
                prober.ack(b, sent[sent.len() - back]);
            }
            Lost { ms, b } => prober.lost(b, at(ms)),
            Expire { ms, failed } => {
                let mut got = prober.expire(at(ms));
                got.sort_unstable();
                assert_eq!(got, failed, "{ctx}: declared failed");
            }
            NextDue { ms } => {
                assert_eq!(prober.next_due(), ms.map(at), "{ctx}: next due");
            }
        }
    }
}

#[test]
fn prober_table() {
    for case in cases() {
        run(&case);
    }
}
