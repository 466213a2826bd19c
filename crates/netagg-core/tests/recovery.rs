//! Deterministic fault-injection tests for the failure-recovery path.
//!
//! These fence the fan-in ledger (DESIGN.md "Fan-in ledgers"): whatever the
//! kill timing — mid-request, during replay, double failures, duplicate
//! detector firings, replay racing the re-point command — a request must
//! complete with the *exact* total, each logical contributor counted once.
//!
//! Kill timings come from seeded [`FaultStep`] schedules so a failing
//! timing is reproducible: set `NETAGG_FAULT_SEED` to replay a run.

use bytes::Bytes;
use netagg_core::failure::DetectorConfig;
use netagg_core::prelude::*;
use netagg_core::protocol::{Message, RequestId, SourceId, TreeId};
use netagg_net::{
    ChannelTransport, Connection, DetRng, FaultController, FaultStep, FaultTransport, Transport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sum-of-integers aggregation over a trivial text encoding.
struct Sum;
impl AggregationFunction for Sum {
    type Item = i64;
    fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
        std::str::from_utf8(b)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| AggError::Corrupt("not an int".into()))
    }
    fn serialize(&self, v: &i64) -> Bytes {
        Bytes::from(v.to_string())
    }
    fn aggregate(&self, items: Vec<i64>) -> i64 {
        items.into_iter().sum()
    }
    fn empty(&self) -> i64 {
        0
    }
}

fn sum_agg() -> Arc<dyn DynAggregator> {
    Arc::new(AggWrapper::new(Sum))
}

fn parse(b: &Bytes) -> i64 {
    std::str::from_utf8(b).unwrap().parse().unwrap()
}

fn fast_detector() -> DetectorConfig {
    DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    }
}

/// Seed for the fault schedules. Override with `NETAGG_FAULT_SEED=<u64>` to
/// reproduce a specific run; CI pins it so failures are replayable.
fn fault_seed() -> u64 {
    std::env::var("NETAGG_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xAE57_11E5)
}

/// Block until every worker's tree-0 assignment is `dest`, or panic after
/// `timeout`. Recovery re-points workers asynchronously (detector rounds),
/// so tests poll rather than assume a fixed delay.
fn wait_assignments(
    workers: &[Arc<netagg_core::shim::WorkerShim>],
    dest: netagg_net::NodeId,
    timeout: Duration,
) {
    let deadline = Instant::now() + timeout;
    loop {
        if workers
            .iter()
            .all(|w| w.assignment(TreeId(0)) == Some(dest))
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "workers not re-pointed at {dest} within {timeout:?}: {:?}",
            workers
                .iter()
                .map(|w| w.assignment(TreeId(0)))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Kill the rack box after the Nth frame delivered to it, for several
/// seeded N. The request total must be exactly 5+7+11=23 for *every* kill
/// timing: before the meta, between worker chunks, after the combine, or
/// not at all (schedule never fires).
#[test]
fn seeded_kill_at_nth_frame_always_totals_exactly() {
    let seed = fault_seed();
    let mut rng = DetRng::new(seed);
    for round in 0..6u64 {
        let n = rng.gen_range(1, 12);
        let ctl = FaultController::new();
        let transport: Arc<dyn Transport> =
            Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
        let cluster = ClusterSpec::single_rack(3, 1);
        let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
        let app = dep.register_app("sum", sum_agg(), 1.0);
        let master = dep.master_shim(app);
        let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
        dep.enable_failure_detection(fast_detector());
        let box_addr = dep.boxes()[0].addr();

        // Arm relative to frames already delivered (route installs and
        // heartbeats count too — the sweep deliberately lands kills at
        // arbitrary protocol moments, not just between data chunks).
        ctl.schedule(FaultStep {
            watch: box_addr,
            after_frames: ctl.frames_delivered(box_addr) + n,
            kill_target: box_addr,
        });

        let req = round + 1;
        let p = master.register_request(req, 3);
        // Sends may fail if the box is already dead; the replay buffer
        // recovers them once the detector re-points the worker.
        let _ = workers[0].send_partial(req, Bytes::from("5"));
        let _ = workers[1].send_partial(req, Bytes::from("7"));
        std::thread::sleep(Duration::from_millis(400));
        let _ = workers[2].send_partial(req, Bytes::from("11"));
        let result = p.wait(Duration::from_secs(10)).unwrap_or_else(|e| {
            panic!("seed {seed:#x} round {round} (kill after {n} frames): {e:?}")
        });
        assert_eq!(
            parse(&result.combined),
            23,
            "seed {seed:#x} round {round}: kill after {n} frames must still total 23"
        );
        ctl.clear_schedule();
        ctl.revive(box_addr);
        dep.shutdown();
    }
}

/// Kill the leaf box mid-request, then kill the root box while the leaf's
/// workers are replaying into it. Recovery must chain down to the master
/// with the exact total.
#[test]
fn kill_during_replay_chains_to_master() {
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    dep.enable_failure_detection(fast_detector());
    let root = dep.boxes()[0].addr();
    let leaf = dep.boxes()[1].addr();

    // Healthy request through both boxes.
    let p = master.register_request(1, 4);
    for w in &workers {
        w.send_partial(1, Bytes::from("1")).unwrap();
    }
    assert_eq!(parse(&p.wait(Duration::from_secs(5)).unwrap().combined), 4);

    // Rack 1's workers contribute, then their box dies.
    let p = master.register_request(2, 4);
    workers[2].send_partial(2, Bytes::from("5")).unwrap();
    workers[3].send_partial(2, Bytes::from("7")).unwrap();
    ctl.kill(leaf);
    // The moment the root's detector re-points rack 1's workers (replay to
    // the root is now in flight), kill the root too.
    wait_assignments(&workers[2..4], root, Duration::from_secs(5));
    ctl.kill(root);

    // The master's detector fires on the root, adopts the (dead) leaf as
    // its own watched child, detects it too, and re-points everyone here.
    wait_assignments(&workers, master.addr(), Duration::from_secs(8));
    workers[0].send_partial(2, Bytes::from("11")).unwrap();
    workers[1].send_partial(2, Bytes::from("13")).unwrap();
    let result = p.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 5 + 7 + 11 + 13);
    assert_eq!(result.master_inputs, 4, "all four workers direct");

    ctl.revive(leaf);
    ctl.revive(root);
    dep.shutdown();
}

/// Both boxes die before any data moves. The master must adopt the whole
/// orphaned subtree (root, then the root's child box) and serve requests
/// directly — and the recovery metrics must reflect it.
#[test]
fn double_kill_recovers_and_surfaces_metrics() {
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    dep.enable_failure_detection(fast_detector());
    let root = dep.boxes()[0].addr();
    let leaf = dep.boxes()[1].addr();

    let p = master.register_request(1, 4);
    for w in &workers {
        w.send_partial(1, Bytes::from("2")).unwrap();
    }
    assert_eq!(parse(&p.wait(Duration::from_secs(5)).unwrap().combined), 8);

    ctl.kill(root);
    ctl.kill(leaf);
    // Chained adoption: detect root → adopt leaf → detect leaf.
    wait_assignments(&workers, master.addr(), Duration::from_secs(8));

    let p = master.register_request(2, 4);
    for w in &workers {
        w.send_partial(2, Bytes::from("3")).unwrap();
    }
    let result = p.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 12);
    assert_eq!(result.master_inputs, 4);

    let snap = dep.snapshot();
    assert!(
        snap.counter("shim.master.repoints").unwrap_or(0) >= 1,
        "re-points must be counted"
    );
    assert_eq!(
        snap.gauge("shim.master.sources_outstanding"),
        Some(0.0),
        "nothing owed after completion"
    );
    assert!(
        dep.obs().events().iter().any(|e| e.kind == "repoint"),
        "re-points must be audited as events"
    );

    ctl.revive(root);
    ctl.revive(leaf);
    dep.shutdown();
}

/// The detector (or an operator) declaring the same box failed repeatedly
/// must not change the outcome: the re-point is set-based and idempotent.
#[test]
fn detector_firing_twice_for_same_box_is_idempotent() {
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::single_rack(3, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    dep.enable_failure_detection(fast_detector());

    let p = master.register_request(1, 3);
    workers[0].send_partial(1, Bytes::from("5")).unwrap();
    workers[1].send_partial(1, Bytes::from("7")).unwrap();
    // Spurious firing BEFORE the box actually dies (it re-points the
    // workers itself; the box has left the route, so the detector no
    // longer watches it)…
    master.on_child_box_failed(TreeId(0), 0);
    ctl.kill(dep.boxes()[0].addr());
    wait_assignments(&workers, master.addr(), Duration::from_secs(8));
    // …and a second, late firing after recovery already happened.
    master.on_child_box_failed(TreeId(0), 0);
    workers[2].send_partial(1, Bytes::from("11")).unwrap();
    let result = p.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 23);
    assert_eq!(result.master_inputs, 3);

    // Subsequent requests are unaffected by the duplicate firings.
    let p = master.register_request(2, 3);
    for w in &workers {
        w.send_partial(2, Bytes::from("1")).unwrap();
    }
    assert_eq!(parse(&p.wait(Duration::from_secs(5)).unwrap().combined), 3);

    ctl.revive(dep.boxes()[0].addr());
    dep.shutdown();
}

/// Open a raw wire connection to the master and return it together with
/// a closure-friendly sender. Tests drive the protocol directly to force
/// orderings the in-process shims cannot produce.
fn raw_conn(dep: &NetAggDeployment, local: u32, master: netagg_net::NodeId) -> Box<dyn Connection> {
    dep.transport().connect(local, master).unwrap()
}

fn data_frame(
    app: netagg_core::protocol::AppId,
    request: u64,
    source: SourceId,
    seq: u32,
    last: bool,
    payload: &str,
) -> Bytes {
    Message::Data {
        app,
        request: RequestId(request),
        tree: TreeId(0),
        source,
        seq,
        last,
        ctx: netagg_obs::trace::TraceCtx::NONE,
        sent_ns: 0,
        payload: Bytes::from(payload.to_string()),
    }
    .encode()
}

/// Worker replays land at the master BEFORE the re-point command does.
/// Under counter-based accounting the two replays would satisfy the old
/// "expect 1 input" and complete the request with a partial total. The
/// ledger keys entries by contributor, so worker chunks cannot satisfy a
/// box entry: the request must stay open until the re-point moves it.
#[test]
fn replay_arriving_before_repoint_holds_until_repoint() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);

    let p = master.register_request(7, 2);
    let mut conn = raw_conn(&dep, 9_001, master.addr());
    // Replayed worker chunks arrive first (no redirect was issued yet).
    conn.send(data_frame(app, 7, SourceId::Worker(0), 1, true, "5"))
        .unwrap();
    conn.send(data_frame(app, 7, SourceId::Worker(1), 1, true, "7"))
        .unwrap();
    // The master still owes the box's subtree: must NOT complete.
    assert!(
        p.wait(Duration::from_millis(300)).is_err(),
        "request completed from replays alone while the box was still owed"
    );
    // The re-point arrives; the already-buffered replays satisfy it.
    master.on_child_box_failed(TreeId(0), 0);
    let result = p.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), 12);
    assert_eq!(result.master_inputs, 2);
    dep.shutdown();
}

/// A box streams a partial covering worker 0's data, then dies; the
/// workers replay everything. The box's orphaned partial must be excluded
/// from the final aggregate or worker 0 would be counted twice.
#[test]
fn box_partial_then_death_is_not_double_counted() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);

    let p = master.register_request(9, 2);
    let mut conn = raw_conn(&dep, 9_002, master.addr());
    // Box streams a non-final partial (worker 0's "5"), then dies.
    conn.send(data_frame(app, 9, SourceId::Box(0), 1, false, "5"))
        .unwrap();
    master.on_child_box_failed(TreeId(0), 0);
    // Workers replay their originals directly.
    conn.send(data_frame(app, 9, SourceId::Worker(0), 1, true, "5"))
        .unwrap();
    conn.send(data_frame(app, 9, SourceId::Worker(1), 1, true, "7"))
        .unwrap();
    let result = p.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(
        parse(&result.combined),
        12,
        "the dead box's partial must be dropped, not added to the replays"
    );
    assert_eq!(result.master_inputs, 2, "only the two replays count");
    dep.shutdown();
}

/// The box delivers its combined result, completes the request — and THEN
/// is declared failed. Late worker replays for the already-complete
/// request must be suppressed, not re-aggregated.
#[test]
fn box_failure_after_delivery_suppresses_replays() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);

    let p = master.register_request(11, 2);
    let mut conn = raw_conn(&dep, 9_003, master.addr());
    conn.send(data_frame(app, 11, SourceId::Box(0), 1, true, "12"))
        .unwrap();
    // Give the reader a moment to mark the request complete, then fail the
    // box and replay the workers' raw chunks.
    std::thread::sleep(Duration::from_millis(100));
    master.on_child_box_failed(TreeId(0), 0);
    conn.send(data_frame(app, 11, SourceId::Worker(0), 1, true, "5"))
        .unwrap();
    conn.send(data_frame(app, 11, SourceId::Worker(1), 1, true, "7"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let result = p.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(
        parse(&result.combined),
        12,
        "replays after completion must not alter the result"
    );
    assert_eq!(result.master_inputs, 1, "only the box's combined counted");
    dep.shutdown();
}
