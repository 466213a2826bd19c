//! Lifecycle integration tests for the unified cancellation/join runtime.
//!
//! These fence the DESIGN.md "Lifecycle & backpressure model" invariants at
//! system scope: tearing down a full [`NetAggDeployment`] mid-request — even
//! with a seeded agg-box kill in flight — must join every scoped thread
//! within the join deadline, lose no worker panic (a harvested panic makes
//! `JoinScope::finish` panic, failing the test), and leave the
//! `runtime.threads_active` gauge at exactly zero.
//!
//! Kill timings come from seeded [`FaultStep`] schedules so a failing
//! timing is reproducible: set `NETAGG_FAULT_SEED` to replay a run.

use bytes::Bytes;
use netagg_core::failure::DetectorConfig;
use netagg_core::lifecycle::{CancelToken, JoinScope, DEFAULT_JOIN_DEADLINE};
use netagg_core::prelude::*;
use netagg_core::runtime::DeploymentConfig;
use netagg_core::straggler::StragglerPolicy;
use netagg_net::{ChannelTransport, DetRng, FaultController, FaultStep, FaultTransport, Transport};
use netagg_obs::{names, MetricsRegistry};
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

/// The deployments the teardown test drops: one with only the failure
/// detector armed, and one with every timer armed (straggler policy and
/// stream flush as well), so each node's tick runs all of its jobs.
fn teardown_configs() -> [(&'static str, DeploymentConfig); 2] {
    let every_timer = DeploymentConfig {
        straggler: Some(StragglerPolicy::new(Duration::from_millis(20))),
        flush_bytes: Some(1),
        ..DeploymentConfig::default()
    };
    [
        ("detector only", DeploymentConfig::default()),
        ("every timer", every_timer),
    ]
}

/// Drop an entire deployment mid-request while a seeded fault schedule
/// kills the rack box at an arbitrary protocol moment. Every scoped thread
/// (box listeners/readers/egress/tick, scheduler pool, shim
/// listeners/readers/tick) must join inside the scope deadline; a hung
/// thread panics `finish()`, a harvested worker panic re-panics, and the
/// shared `runtime.threads_active` gauge must read exactly zero
/// afterwards — so a clean return proves all three.
#[test]
fn dropping_a_deployment_mid_request_joins_every_thread() {
    let seed = fault_seed();
    let mut rng = DetRng::new(seed);
    for (label, cfg) in teardown_configs() {
        for round in 0..4u64 {
            teardown_round(seed, &mut rng, label, cfg.clone(), round);
        }
    }
}

fn teardown_round(seed: u64, rng: &mut DetRng, label: &str, cfg: DeploymentConfig, round: u64) {
    let n = rng.gen_range(1, 10);
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::single_rack(3, 1);
    let mut dep = NetAggDeployment::launch_with(transport, &cluster, cfg).unwrap();
    // Clone the registry out *before* teardown: gauges are shared, so
    // it keeps reporting after the deployment itself is gone.
    let obs = dep.obs().clone();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    dep.enable_failure_detection(fast_detector());
    let box_addr = dep.boxes()[0].addr();

    let live = obs.gauge("runtime.threads_active").get();
    assert!(
        live > 0.0,
        "seed {seed:#x} {label} round {round}: expected live scoped threads before teardown"
    );

    // Kill the box after a seeded number of further frames, so teardown
    // races an in-flight failure at arbitrary protocol moments.
    ctl.schedule(FaultStep {
        watch: box_addr,
        after_frames: ctl.frames_delivered(box_addr) + n,
        kill_target: box_addr,
    });

    let req = round + 1;
    let pending = master.register_request(req, 3);
    for (i, w) in workers.iter().enumerate() {
        // Sends may fail once the box dies; teardown must cope anyway.
        let _ = w.send_partial(req, Bytes::from((i as i64 + 1).to_string()));
    }
    // Deliberately do NOT wait for the request: the whole point is to
    // tear down with the aggregation (and possibly a replay) in flight.
    drop(pending);

    let t0 = Instant::now();
    drop(workers);
    drop(master);
    drop(dep);
    let elapsed = t0.elapsed();

    // Cancellation wakes blocked threads instead of being polled, so
    // teardown should be nowhere near the join deadline; allow slack
    // for one detector round plus scheduling noise on a loaded CI box.
    assert!(
        elapsed < DEFAULT_JOIN_DEADLINE + Duration::from_secs(3),
        "seed {seed:#x} {label} round {round} (kill after {n} frames): \
         teardown took {elapsed:?}"
    );
    let remaining = obs.gauge("runtime.threads_active").get();
    assert_eq!(
        remaining, 0.0,
        "seed {seed:#x} {label} round {round} (kill after {n} frames): \
         {remaining} scoped threads still alive after full teardown"
    );
}

/// Fault-free variant fencing the wakeup path itself: with nothing dead and
/// a request in flight, full teardown must complete far under the join
/// deadline (blocked receivers are woken by cancellation, not discovered by
/// a poll tick) and still zero the thread gauge.
#[test]
fn clean_teardown_mid_request_is_prompt() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(3, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let obs = dep.obs().clone();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    dep.enable_failure_detection(fast_detector());

    let pending = master.register_request(1, 3);
    let _ = workers[0].send_partial(1, Bytes::from("5"));
    let _ = workers[1].send_partial(1, Bytes::from("7"));
    // Third partial withheld: the request stays open across teardown.
    drop(pending);

    let t0 = Instant::now();
    drop(workers);
    drop(master);
    drop(dep);
    let elapsed = t0.elapsed();

    assert!(
        elapsed < Duration::from_secs(2),
        "clean teardown should be wakeup-bounded, took {elapsed:?}"
    );
    assert_eq!(
        obs.gauge("runtime.threads_active").get(),
        0.0,
        "scoped threads survived a clean teardown"
    );
}

/// A scope thread that keeps spawning siblings while `finish` runs (a
/// listener accepting connections during teardown) must never leave a
/// thread behind: each spawn either lands in the slots `finish` joins or
/// sees the cancellation and does nothing.
#[test]
fn spawn_racing_finish_never_leaks_a_thread() {
    let obs = MetricsRegistry::new();
    let active = obs.gauge(names::RUNTIME_THREADS_ACTIVE);
    for i in 0..300u64 {
        let cancel = CancelToken::new();
        let scope = Arc::new(JoinScope::with_obs(
            "spawn-race",
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(&obs),
        ));
        let weak = Arc::downgrade(&scope);
        scope
            .spawn("spawn-race-listen", move || {
                while !cancel.is_cancelled() {
                    let Some(scope) = weak.upgrade() else { return };
                    let token = cancel.clone();
                    scope
                        .spawn("spawn-race-reader", move || {
                            while !token.wait_timeout(Duration::from_secs(1)) {}
                        })
                        .unwrap();
                }
            })
            .unwrap();
        std::thread::sleep(Duration::from_micros(50 * (i % 8)));
        scope.finish();
        assert!(
            scope.is_empty(),
            "iteration {i}: a slot was pushed after the join"
        );
        assert_eq!(
            active.get(),
            0.0,
            "iteration {i}: threads_active after finish"
        );
    }
}
