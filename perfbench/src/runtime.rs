//! The three runtime workloads. Each builds its deployment through
//! `netagg-scenarios`' `ScenarioHarness`, drives it from one issuing and
//! one collecting thread, checks every aggregate exactly, and ends with
//! the harness's §7/§9 teardown contract.

use crate::layers;
use crate::measure::{calm, mix, process_cpu, supported_pct, Samples, Spans, StealLog};
use crate::Outcome;
use bytes::Bytes;
use minisearch::corpus::CorpusConfig;
use netagg_core::prelude::*;
use netagg_core::shim::PendingRequest;
use netagg_core::tree::{master_addr, worker_addr};
use netagg_net::{DetRng, FaultStep, NodeId};
use netagg_obs::{names, MetricsRegistry, MetricsSnapshot};
use netagg_scenarios::{
    contract, ChannelProvider, ScenarioHarness, ScenarioSpec, SyntheticKind, TcpProvider,
    TopologySpec,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// What one run of a workload is asked to do.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered load of the open-loop phase, requests per second.
    pub rate: f64,
    /// Corrupt the aggregator's n-th output (self-test only).
    pub corrupt_at: Option<u64>,
}

impl RunCfg {
    fn share(&self, frac: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * frac)
    }
}

/// Deployments built and torn down per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// In-flight requests of the closed-loop saturation phase.
const SATURATION_WINDOW: usize = 4;
/// Deadline of one request before it counts as failed.
const WAIT: Duration = Duration::from_secs(20);
/// Completions between two samples of the `mailbox.depth.*` gauges.
const DEPTH_SAMPLE_EVERY: u64 = 4096;

// ---------------------------------------------------------------------------
// Aggregation functions of the two TCP workloads
// ---------------------------------------------------------------------------

/// Max over 8-byte little-endian partials.
struct MaxU64;

impl AggregationFunction for MaxU64 {
    type Item = u64;

    fn deserialize(&self, payload: &Bytes) -> Result<u64, AggError> {
        let raw: [u8; 8] = payload[..]
            .try_into()
            .map_err(|_| AggError::Corrupt("max partial is not 8 bytes".into()))?;
        Ok(u64::from_le_bytes(raw))
    }

    fn serialize(&self, item: &u64) -> Bytes {
        Bytes::copy_from_slice(&item.to_le_bytes())
    }

    fn aggregate(&self, items: Vec<u64>) -> u64 {
        items.into_iter().max().unwrap_or(0)
    }

    fn empty(&self) -> u64 {
        0
    }
}

/// Element-wise wrapping sum of little-endian u64 vectors.
pub struct SumVec;

impl AggregationFunction for SumVec {
    type Item = Vec<u64>;

    fn deserialize(&self, payload: &Bytes) -> Result<Vec<u64>, AggError> {
        if !payload.len().is_multiple_of(8) {
            return Err(AggError::Corrupt("vector partial is not whole u64s".into()));
        }
        Ok(payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    fn serialize(&self, item: &Vec<u64>) -> Bytes {
        let mut out = Vec::with_capacity(item.len() * 8);
        for v in item {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Bytes::from(out)
    }

    fn aggregate(&self, items: Vec<Vec<u64>>) -> Vec<u64> {
        let mut items = items.into_iter();
        let mut acc = items.next().unwrap_or_default();
        for v in items {
            if v.len() > acc.len() {
                acc.resize(v.len(), 0);
            }
            for (a, b) in acc.iter_mut().zip(v) {
                *a = a.wrapping_add(b);
            }
        }
        acc
    }

    fn empty(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// Overwrites the wrapped aggregator's `at`-th output. The self-test uses
/// it to prove that the exactness check catches a wrong aggregate.
struct Corrupting {
    inner: Arc<dyn DynAggregator>,
    calls: AtomicU64,
    at: u64,
}

impl DynAggregator for Corrupting {
    fn aggregate_serialized(&self, inputs: Vec<Bytes>) -> Result<Bytes, AggError> {
        let out = self.inner.aggregate_serialized(inputs)?;
        if self.calls.fetch_add(1, Ordering::Relaxed) != self.at || out.is_empty() {
            return Ok(out);
        }
        // All ones: the largest u64, so it survives every later max, and
        // a changed addend, so it survives every later sum.
        Ok(Bytes::from(vec![0xFF; out.len()]))
    }

    fn empty_serialized(&self) -> Bytes {
        self.inner.empty_serialized()
    }
}

// ---------------------------------------------------------------------------
// fanin-small-tcp and bulk-vector-tcp
// ---------------------------------------------------------------------------

/// The two TCP workloads: one app, every worker sends one partial per
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 16 workers in two racks, 8-byte max partials.
    FaninSmall,
    /// 8 workers in one rack, 64 KiB element-wise-sum partials.
    BulkVector,
}

/// u64 elements in one bulk partial (64 KiB).
const BULK_ELEMS: usize = 8192;
/// Distinct bulk input sets; request `r` uses set `r % BULK_POOL`, so the
/// issuer never generates data while it is timing.
const BULK_POOL: u64 = 17;

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::FaninSmall => "fanin-small-tcp",
            Shape::BulkVector => "bulk-vector-tcp",
        }
    }

    fn topology(self) -> TopologySpec {
        match self {
            Shape::FaninSmall => TopologySpec::multi_rack(2, 8, 1),
            Shape::BulkVector => TopologySpec::single_rack(8, 1),
        }
    }

    /// Boxes on a partial's path to the master.
    fn boxes_on_path(self) -> f64 {
        match self {
            Shape::FaninSmall => 2.0,
            Shape::BulkVector => 1.0,
        }
    }

    pub fn aggregator(self) -> Arc<dyn DynAggregator> {
        match self {
            Shape::FaninSmall => Arc::new(AggWrapper::new(MaxU64)),
            Shape::BulkVector => Arc::new(AggWrapper::new(SumVec)),
        }
    }
}

/// Every input of a TCP workload, derived from the seed before timing.
pub struct Inputs {
    shape: Shape,
    seed: u64,
    workers: u32,
    pool: Vec<Vec<Bytes>>,
    sums: Vec<Bytes>,
}

impl Inputs {
    pub fn new(shape: Shape, seed: u64) -> Self {
        let workers = shape.topology().total_workers();
        let (mut pool, mut sums) = (Vec::new(), Vec::new());
        if shape == Shape::BulkVector {
            for set in 0..BULK_POOL {
                let vectors: Vec<Vec<u64>> = (0..workers)
                    .map(|w| {
                        (0..BULK_ELEMS)
                            .map(|i| mix(seed, set, (w as u64) << 32 | i as u64))
                            .collect()
                    })
                    .collect();
                sums.push(SumVec.serialize(&SumVec.aggregate(vectors.clone())));
                pool.push(vectors.iter().map(|v| SumVec.serialize(v)).collect());
            }
        }
        Self {
            shape,
            seed,
            workers,
            pool,
            sums,
        }
    }

    pub fn partial(&self, rid: u64, w: u32) -> Bytes {
        match self.shape {
            Shape::FaninSmall => MaxU64.serialize(&mix(self.seed, rid, w as u64)),
            Shape::BulkVector => self.pool[(rid % BULK_POOL) as usize][w as usize].clone(),
        }
    }

    fn expected(&self, rid: u64) -> Bytes {
        match self.shape {
            Shape::FaninSmall => {
                let best = (0..self.workers)
                    .map(|w| mix(self.seed, rid, w as u64))
                    .max()
                    .unwrap_or(0);
                MaxU64.serialize(&best)
            }
            Shape::BulkVector => self.sums[(rid % BULK_POOL) as usize].clone(),
        }
    }

    pub fn partial_len(&self) -> usize {
        match self.shape {
            Shape::FaninSmall => 8,
            Shape::BulkVector => 8 * BULK_ELEMS,
        }
    }

    pub fn workers(&self) -> u32 {
        self.workers
    }
}

/// A TCP deployment with one registered app and its shims.
struct Rig {
    harness: ScenarioHarness,
    obs: MetricsRegistry,
    master: Arc<MasterShim>,
    workers: Vec<Arc<WorkerShim>>,
}

fn build_rig(shape: Shape, seed: u64, corrupt_at: Option<u64>) -> Rig {
    let obs = MetricsRegistry::new();
    let spec = ScenarioSpec::new(shape.name(), shape.topology()).with_seed(seed);
    let mut harness =
        ScenarioHarness::build_with_obs(&spec, &TcpProvider, obs.clone()).expect("deploy");
    let mut agg = shape.aggregator();
    if let Some(at) = corrupt_at {
        agg = Arc::new(Corrupting {
            inner: agg,
            calls: AtomicU64::new(0),
            at,
        });
    }
    let dep = harness.deployment_mut();
    let app = dep.register_app(shape.name(), agg, 1.0);
    let master = dep.master_shim(app);
    let workers = (0..shape.topology().total_workers())
        .map(|w| dep.worker_shim(app, w))
        .collect();
    Rig {
        harness,
        obs,
        master,
        workers,
    }
}

/// Shut the app's shims down and tear the deployment down through the
/// harness; returns every §7/§9 contract violation.
fn finish_rig(rig: Rig, depths: &HashMap<String, f64>) -> Vec<String> {
    rig.workers.iter().for_each(|w| w.shutdown());
    drop(rig.workers);
    drop(rig.master);
    let mut violations = rig.harness.finish().violations;
    violations.extend(contract::depth_violations(depths));
    violations
}

/// Build `reps` deployments with `build`, keep the last, tear the others
/// down. Returns the kept one, every set-up time (s) and any violations.
fn set_up<T>(
    reps: usize,
    mut build: impl FnMut() -> T,
    mut finish: impl FnMut(T) -> Vec<String>,
) -> (T, Samples, Vec<String>) {
    let mut times = Samples::default();
    let mut violations = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= reps {
            return (built, times, violations);
        }
        violations.extend(finish(built));
    }
}

/// One phase of a TCP workload; `spans` is given only in a traced phase.
fn tcp_phase(
    rig: &Rig,
    inputs: &Inputs,
    next_rid: &mut u64,
    mut spans: Option<&mut Spans>,
    pace: Pace,
    dur: Duration,
    depths: &mut HashMap<String, f64>,
) -> Phase {
    let mut issue = |_: u64, sched: Instant| {
        let rid = *next_rid;
        *next_rid += 1;
        let n = rig.workers.len();
        let pending = match spans.as_deref_mut() {
            Some(s) => s.time("core.master.register_us", || {
                rig.master.register_request(rid, n)
            }),
            None => rig.master.register_request(rid, n),
        };
        for (w, shim) in rig.workers.iter().enumerate() {
            let payload = inputs.partial(rid, w as u32);
            // A failed send leaves the request incomplete, and the
            // collector counts it failed at its deadline.
            let _ = match spans.as_deref_mut() {
                Some(s) => s.time("core.worker.send_partial_us", || {
                    shim.send_partial(rid, payload)
                }),
                None => shim.send_partial(rid, payload),
            };
        }
        Ticket::Pending {
            pending,
            expected: inputs.expected(rid),
            workers: &rig.workers,
            app: 0,
            sched,
        }
    };
    drive(&rig.obs, pace, dur, depths, &mut issue)
}

pub fn run_tcp(shape: Shape, cfg: &RunCfg) -> Outcome {
    let inputs = Inputs::new(shape, cfg.seed);
    let (rig, mut setup, mut violations) = set_up(
        SETUP_REPS,
        || build_rig(shape, cfg.seed, cfg.corrupt_at),
        |r| finish_rig(r, &HashMap::new()),
    );
    let mut out = Outcome::default();
    let mut depths = HashMap::new();
    let mut rid = 1u64;
    let open = Pace::Open {
        rate: cfg.rate,
        seed: cfg.seed,
    };
    let closed = Pace::Closed {
        window: SATURATION_WINDOW,
    };
    let mut phase = |pace, frac, spans: Option<&mut Spans>, depths: &mut HashMap<_, _>| {
        tcp_phase(
            &rig,
            &inputs,
            &mut rid,
            spans,
            pace,
            cfg.share(frac),
            depths,
        )
    };
    let warm = phase(closed, 0.05, None, &mut depths);
    out.add_phase(&warm);
    let useful =
        |completed: u64| (completed * inputs.workers() as u64 * inputs.partial_len() as u64) as f64;

    if !cfg.trace {
        let before = rig.obs.snapshot();
        let sat = phase(closed, 0.4, None, &mut depths);
        let frames = counter_delta(&before, &rig.obs.snapshot(), names::NET_FRAMES_SENT);
        out.add_phase(&sat);
        let mut open_phase = phase(open, 0.55, None, &mut depths);
        out.add_phase(&open_phase);
        let lat = open_phase.latency();
        let rps = sat.rate();
        out.notes.push(format!(
            "saturation: window {SATURATION_WINDOW}, {} requests in {:.2} s; open loop: \
             {} req/s offered, {} completed, generator lag p99 {:.1} us",
            sat.completed,
            sat.elapsed.as_secs_f64(),
            cfg.rate,
            open_phase.completed,
            open_phase.lag.quantile(0.99)
        ));
        out.note_latency(&lat, &open_phase);
        out.set("throughput_rps", rps);
        out.set("goodput_MBps", useful(1) * rps / 1e6);
        out.set(
            "events_per_s",
            frames as f64 / sat.completed.max(1) as f64 * rps,
        );
        out.set("latency_p50_us", lat.p50);
        out.set("latency_p99_us", lat.p99);
        out.set(
            "cpu_us_per_req",
            open_phase.cpu.as_secs_f64() * 1e6 / open_phase.completed.max(1) as f64,
        );
        out.set("setup_s", setup.median());
    } else {
        let mut spans = Spans::default();
        let plain = phase(open, 0.3, None, &mut depths);
        out.add_phase(&plain);
        let tracer = rig.obs.tracer();
        tracer.enable(1);
        let before = rig.obs.snapshot();
        let mut traced = phase(open, 0.3, Some(&mut spans), &mut depths);
        let after = rig.obs.snapshot();
        tracer.disable();
        out.add_phase(&traced);
        let (p50_plain, p50_traced) = (plain.latency().p50, traced.latency().p50);
        out.notes.push(format!(
            "traced run: untraced p50 {p50_plain:.1} us, traced p50 {p50_traced:.1} us, \
             {} spans recorded by the program",
            tracer.len()
        ));
        out.set(
            "obs.trace.overhead_pct",
            overhead_pct(p50_plain, p50_traced),
        );
        out.set("bench.gen.lag_p99_us", traced.lag.quantile(0.99));
        out.set_counters(&before, &after, traced.completed, &depths);
        out.set(
            "net.wire_bytes_per_useful_byte",
            counter_delta(&before, &after, names::NET_BYTES_SENT) as f64
                / useful(traced.completed).max(1.0),
        );
        out.set(
            "core.worker.send_partial_us",
            spans.median("core.worker.send_partial_us"),
        );
        out.set(
            "core.master.register_us",
            spans.median("core.master.register_us"),
        );
        out.set("scenarios.build_ms", setup.median() * 1e3);
        let partials: Vec<Bytes> = (0..inputs.workers())
            .map(|w| inputs.partial(1, w))
            .collect();
        layers::probe_runtime(
            &mut out,
            &TcpProvider,
            shape.topology(),
            &partials,
            shape.aggregator(),
            &[1.0],
        );
        layer_sum(&mut out, shape, inputs.workers() as f64, p50_plain);
    }
    violations.extend(finish_rig(rig, &depths));
    out.violations.extend(violations);
    out
}

/// Sum the medians of the layers on a request's critical path and print
/// the part of the untraced p50 they leave unexplained.
fn layer_sum(out: &mut Outcome, shape: Shape, workers: f64, p50: f64) {
    let g = |n: &str| out.get(n);
    // Partials leave the issuer one after another, cross one more network
    // hop than there are boxes, and are combined once at each box.
    let hops = shape.boxes_on_path() + 1.0;
    let parts = [
        ("register", g("core.master.register_us")),
        ("sends", workers * g("core.worker.send_partial_us")),
        ("wire", hops * g("net.tcp.rtt_us") / 2.0),
        ("combine", shape.boxes_on_path() * g("core.tree.combine_us")),
        ("ledger", workers * g("core.ledger.accept_ns") / 1e3),
    ];
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    let detail: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
    out.notes.push(format!(
        "layer sum {sum:.1} us ({}) vs untraced p50 {p50:.1} us: remainder {:.1} us, \
         {:.0}% explained",
        detail.join(", "),
        p50 - sum,
        100.0 * sum / p50.max(1e-9)
    ));
    out.set("bench.layer_sum_us", sum);
}

fn overhead_pct(plain: f64, traced: f64) -> f64 {
    100.0 * (traced - plain) / plain.max(1e-9)
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

fn counter_sum_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, prefix: &str) -> u64 {
    let sum = |s: &MetricsSnapshot| -> u64 {
        s.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    sum(after).saturating_sub(sum(before))
}

impl Outcome {
    fn add_phase(&mut self, p: &Phase) {
        self.attempted += p.completed + p.failed;
        self.failed += p.failed;
    }

    fn note_latency(&mut self, lat: &Windowed, phase: &Phase) {
        let per = lat.samples / lat.windows.max(1);
        self.notes.push(format!(
            "latency: {} samples in {} windows of {per}, {} calm; median window p50 {:.1} us, \
             median window p99 {:.1} us; highest percentile with at least 10 samples beyond \
             it in each window: p{}; host steal over the phase {:.1}%",
            lat.samples,
            lat.windows,
            lat.calm,
            lat.p50,
            lat.p99,
            supported_pct(per),
            100.0 * phase.steal.overall()
        ));
    }

    /// Per-request counters of the program's own registry over one phase.
    fn set_counters(
        &mut self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        requests: u64,
        depths: &HashMap<String, f64>,
    ) {
        let per_req = |n: u64| n as f64 / requests.max(1) as f64;
        let d = |name| counter_delta(before, after, name);
        self.set("net.frames_per_req", per_req(d(names::NET_FRAMES_SENT)));
        self.set(
            "core.worker.resends_per_req",
            per_req(d(names::SHIM_WORKER_CHUNKS_RESENT)),
        );
        self.set(
            "core.master.emulated_empties_per_req",
            per_req(d(names::SHIM_MASTER_EMULATED_EMPTIES)),
        );
        self.set(
            "core.master.duplicates_dropped",
            (d(names::SHIM_MASTER_DUPLICATES_DROPPED) + d(names::AGGBOX_DUPLICATES_DROPPED)) as f64,
        );
        self.set(
            "core.aggbox.tasks_per_req",
            per_req(d(names::AGGBOX_TASKS_EXECUTED)),
        );
        self.set(
            "core.aggbox.max_mailbox_depth",
            depths.values().copied().fold(0.0, f64::max),
        );
        self.set(
            "core.aggbox.mailbox_dropped",
            counter_sum_delta(before, after, "mailbox.dropped.") as f64,
        );
    }
}

// ---------------------------------------------------------------------------
// The shared load generator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Pace {
    /// At most `window` requests in flight; the next is issued when one
    /// completes.
    Closed { window: usize },
    /// Poisson arrivals at `rate` per second regardless of completions.
    Open { rate: f64, seed: u64 },
}

/// One issued request on its way to the collector.
enum Ticket<'a> {
    /// Asynchronous: the collector waits for the result, checks it, and
    /// then tells the request's worker shims it completed, as an
    /// application must for their per-request state to be freed.
    Pending {
        pending: PendingRequest,
        expected: Bytes,
        workers: &'a [Arc<WorkerShim>],
        app: usize,
        sched: Instant,
    },
    /// Completed synchronously by the issuer (search queries and
    /// map-reduce jobs), already checked.
    Done {
        app: usize,
        ok: bool,
        sched: Instant,
        done: Instant,
    },
}

/// What one driven phase measured.
struct Phase {
    completed: u64,
    failed: u64,
    /// Each completed request: its app, when it completed, and its latency
    /// (us) from the scheduled (open loop) or actual (closed loop) send
    /// time.
    done: Vec<(usize, Instant, f64)>,
    /// How late the open-loop generator issued (us).
    lag: Samples,
    start: Instant,
    /// Start of the phase to its last completion.
    elapsed: Duration,
    /// Process CPU time over the phase.
    cpu: Duration,
    steal: StealLog,
    /// Deepest `mailbox.depth.*` gauges sampled during the phase.
    depths: HashMap<String, f64>,
}

/// Throughput is taken over windows of this length, and latency
/// percentiles over windows of `LAT_WINDOW` consecutive completions (so
/// each window's p99 has ten samples beyond it). Each figure is the median
/// over the windows that [`calm`] keeps.
const WINDOW: Duration = Duration::from_millis(500);
const LAT_WINDOW: usize = 1000;

/// Window medians of one phase's latencies.
struct Windowed {
    windows: usize,
    calm: usize,
    samples: usize,
    p50: f64,
    p99: f64,
}

impl Phase {
    fn new(start: Instant) -> Self {
        Self {
            completed: 0,
            failed: 0,
            done: Vec::new(),
            lag: Samples::default(),
            start,
            elapsed: Duration::ZERO,
            cpu: Duration::ZERO,
            steal: StealLog::default(),
            depths: HashMap::new(),
        }
    }

    /// Median completions per second over the phase's calm `WINDOW`s.
    fn rate(&self) -> f64 {
        let n = (self.elapsed.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if n == 0 {
            return self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9);
        }
        let mut counts = vec![0u64; n];
        for d in &self.done {
            let k = d.1.saturating_duration_since(self.start).as_secs_f64() / WINDOW.as_secs_f64();
            if let Some(c) = counts.get_mut(k as usize) {
                *c += 1;
            }
        }
        let windows = counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let from = self.start + WINDOW * k as u32;
                (
                    self.steal.frac(from, from + WINDOW),
                    c as f64 / WINDOW.as_secs_f64(),
                )
            })
            .collect();
        calm(windows).median()
    }

    /// Medians of the p50 and p99 of each calm window of `LAT_WINDOW`
    /// consecutive completions (one window of all of them when fewer).
    fn latency(&self) -> Windowed {
        let chunks: Vec<&[(usize, Instant, f64)]> = if self.done.len() < LAT_WINDOW {
            vec![&self.done[..]]
        } else {
            self.done.chunks_exact(LAT_WINDOW).collect()
        };
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for c in &chunks {
            let (Some(first), Some(last)) = (c.first(), c.last()) else {
                continue;
            };
            let stolen = self.steal.frac(first.1, last.1);
            let mut w = Samples::default();
            c.iter().for_each(|d| w.push(d.2));
            p50.push((stolen, w.quantile(0.5)));
            p99.push((stolen, w.quantile(0.99)));
        }
        let (mut p50, mut p99) = (calm(p50), calm(p99));
        Windowed {
            windows: chunks.len(),
            calm: p50.len(),
            samples: chunks.iter().map(|c| c.len()).sum(),
            p50: p50.median(),
            p99: p99.median(),
        }
    }
}

/// Run one phase: the calling thread issues through `issue`, a second
/// thread collects and checks results in issue order. A result that
/// arrives before an older one is charged until the older one is
/// collected, so latencies are never under-stated.
fn drive<'a>(
    obs: &MetricsRegistry,
    pace: Pace,
    dur: Duration,
    depths: &mut HashMap<String, f64>,
    issue: &mut dyn FnMut(u64, Instant) -> Ticket<'a>,
) -> Phase {
    let (tx, rx) = mpsc::channel::<Ticket<'a>>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let closed = matches!(pace, Pace::Closed { .. });
    if let Pace::Closed { window } = pace {
        for _ in 0..window {
            credit_tx.send(()).expect("credit receiver is alive");
        }
    }
    let mut rng = DetRng::new(match pace {
        Pace::Open { seed, .. } => seed ^ 0x09E4_100F,
        Pace::Closed { .. } => 0,
    });
    let mut lag = Samples::default();
    tight_timer_slack();
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let end = t0 + dur;
    let mut phase = thread::scope(|s| {
        let collector = s.spawn(move || collect(rx, closed.then_some(credit_tx), obs, t0));
        let mut next = t0;
        let mut i = 0;
        loop {
            let sched = match pace {
                Pace::Closed { .. } => {
                    if credit_rx.recv().is_err() {
                        break;
                    }
                    Instant::now()
                }
                Pace::Open { rate, .. } => {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    next += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                    wait_until(next);
                    lag.push_us(Instant::now().saturating_duration_since(next));
                    next
                }
            };
            if sched >= end {
                break;
            }
            tx.send(issue(i, sched)).expect("collector is alive");
            i += 1;
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    phase.cpu = process_cpu().saturating_sub(cpu0);
    phase.elapsed = phase
        .done
        .last()
        .map_or(dur, |d| d.1.saturating_duration_since(t0));
    phase.lag = lag;
    contract::sample_depths(&obs.snapshot(), &mut phase.depths);
    for (name, v) in &phase.depths {
        let e = depths.entry(name.clone()).or_insert(0.0);
        *e = e.max(*v);
    }
    phase
}

fn collect(
    rx: mpsc::Receiver<Ticket<'_>>,
    credits: Option<mpsc::Sender<()>>,
    obs: &MetricsRegistry,
    start: Instant,
) -> Phase {
    let mut p = Phase::new(start);
    p.steal.record();
    for ticket in rx {
        let (app, ok, sched, done) = match ticket {
            Ticket::Pending {
                pending,
                expected,
                workers,
                app,
                sched,
            } => {
                let ok = matches!(pending.wait(WAIT), Ok(r) if r.combined == expected);
                let done = Instant::now();
                workers
                    .iter()
                    .for_each(|w| w.complete_request(pending.request_id()));
                (app, ok, sched, done)
            }
            Ticket::Done {
                app,
                ok,
                sched,
                done,
            } => (app, ok, sched, done),
        };
        if ok {
            p.completed += 1;
            let lat = done.saturating_duration_since(sched).as_secs_f64() * 1e6;
            p.done.push((app, done, lat));
        } else {
            p.failed += 1;
        }
        if (p.completed + p.failed).is_multiple_of(DEPTH_SAMPLE_EVERY) {
            contract::sample_depths(&obs.snapshot(), &mut p.depths);
        }
        p.steal.tick();
        if let Some(c) = &credits {
            let _ = c.send(());
        }
    }
    p.steal.record();
    p
}

/// Sleep until `t`. The issuing thread's timer slack is cut to 1 us
/// first (see [`tight_timer_slack`]), so sleeps end on schedule without
/// burning a CPU the system under test needs.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// Cut the calling thread's timer slack from the default 50 us to 1 us.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument by value
    // and only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000 as std::ffi::c_ulong);
    }
}

// ---------------------------------------------------------------------------
// recovery-mix-channel
// ---------------------------------------------------------------------------

/// Window of in-flight requests, as in the soak.
const MIX_WINDOW: usize = 8;
/// Every `SEARCH_EVERY`-th request is a search query, every `MR_EVERY`-th
/// a word-count job (roughly the soak's proportions).
const SEARCH_EVERY: u64 = 160;
const MR_EVERY: u64 = 1200;
/// The impairment schedule spans this many requests of the impaired
/// phase, at the soak's fractions of it: the first third to half of a
/// 20-second run on a 2-vCPU host, so that traced and untraced runs both
/// see all of it and then run on, failed over.
const SCHEDULE: u64 = 120_000;
/// Requests the straggler storm lasts. Delayed sends block the issuer,
/// so the soak's eighth of the schedule would take most of a run; this
/// keeps the storm under 1% of a run's requests, away from the p99.
const STORM: u64 = 160;
/// Synthetic apps of the mix, in spec order.
const SYNTHETIC: [SyntheticKind; 3] = [
    SyntheticKind::Sum,
    SyntheticKind::Max,
    SyntheticKind::TopK { k: 8 },
];
const SEARCH_APP: usize = 3;
const MR_APP: usize = 4;

/// The soak's mix and topology. Request counts are zero because the
/// benchmark issues every request itself; the harness only builds.
fn mix_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::new("recovery-mix", TopologySpec::multi_rack(2, 3, 1))
        .synthetic("soak-sum", SYNTHETIC[0], 0, 2.0)
        .synthetic("soak-max", SYNTHETIC[1], 0, 1.0)
        .synthetic("soak-topk", SYNTHETIC[2], 0, 1.0)
        .search(
            0,
            CorpusConfig {
                num_docs: 400,
                ..CorpusConfig::default()
            },
            10,
            2.0,
        )
        .mapreduce(0, 1.0)
        .with_fast_detector()
        .with_seed(seed)
}

/// The wire payload of worker `w` in synthetic app `kind`, in the
/// scenario apps' formats (decimal integers, `score|label` lines).
fn mix_payload(kind: SyntheticKind, seed: u64, rid: u64, w: u32, workers: u32) -> String {
    match kind {
        SyntheticKind::Sum | SyntheticKind::Max => (mix(seed, rid, w as u64) % 1000).to_string(),
        SyntheticKind::TopK { .. } => format!("{}|w{w}\n", mix_score(seed, rid, w, workers)),
    }
}

/// Unique per worker: the low digits encode the worker id.
fn mix_score(seed: u64, rid: u64, w: u32, workers: u32) -> u64 {
    (mix(seed, rid, w as u64) % 100_000) * workers as u64 + w as u64
}

/// The closed-form aggregate of synthetic request `rid`.
fn mix_expected(kind: SyntheticKind, seed: u64, rid: u64, workers: u32) -> String {
    let values = (0..workers).map(|w| mix(seed, rid, w as u64) % 1000);
    match kind {
        SyntheticKind::Sum => values.sum::<u64>().to_string(),
        SyntheticKind::Max => values.max().unwrap_or(0).to_string(),
        SyntheticKind::TopK { k } => {
            let mut scored: Vec<(u64, u32)> = (0..workers)
                .map(|w| (mix_score(seed, rid, w, workers), w))
                .collect();
            scored.sort_by_key(|s| std::cmp::Reverse(s.0));
            scored
                .iter()
                .take(k)
                .map(|(s, w)| format!("{s}|w{w}\n"))
                .collect()
        }
    }
}

/// A request-indexed fault action of the impairment schedule.
enum Fault {
    Kill(Vec<NodeId>),
    Revive(Vec<NodeId>),
    Delay(Vec<NodeId>),
    ClearDelay(Vec<NodeId>),
}

pub fn run_recovery(cfg: &RunCfg) -> Outcome {
    let spec = mix_spec(cfg.seed);
    let workers = spec.topology.total_workers();
    let build = || {
        let obs = MetricsRegistry::new();
        let h = ScenarioHarness::build_with_obs(&spec, &ChannelProvider, obs.clone())
            .expect("deploy recovery mix");
        (h, obs)
    };
    let (built, mut setup, mut violations) =
        set_up(SETUP_REPS, build, |(h, _)| h.finish().violations);
    let (harness, obs) = built;
    let shims: Vec<(&Arc<MasterShim>, &[Arc<WorkerShim>])> = (0..SYNTHETIC.len())
        .map(|i| harness.synthetic_shims(i).expect("synthetic app"))
        .collect();
    let search = harness.search(SEARCH_APP).expect("search app");
    let mr = harness.mapreduce(MR_APP).expect("map-reduce app");

    // Every app's workers, for the straggler storm; an app's id is read
    // back from its master's address.
    let app_ids: Vec<AppId> = shims
        .iter()
        .map(|(m, _)| {
            (0..64)
                .map(AppId)
                .find(|a| master_addr(*a) == m.addr())
                .expect("master address maps to an app")
        })
        .chain([search.app, mr.app])
        .collect();
    let storm: Vec<NodeId> = app_ids
        .iter()
        .flat_map(|&a| [1, 4].map(|w| worker_addr(a, w)))
        .collect();
    let boxes: Vec<NodeId> = harness
        .deployment()
        .boxes()
        .iter()
        .map(|b| b.addr())
        .collect();
    let schedule = [
        (SCHEDULE / 4, "straggler storm", Fault::Delay(storm.clone())),
        (
            SCHEDULE / 4 + STORM,
            "storm clears",
            Fault::ClearDelay(storm),
        ),
        (SCHEDULE / 2, "kill box 1", Fault::Kill(vec![boxes[1]])),
        (
            3 * SCHEDULE / 4,
            "partition boxes 0,1",
            Fault::Kill(boxes.clone()),
        ),
        (
            7 * SCHEDULE / 8,
            "heal partition",
            Fault::Revive(boxes.clone()),
        ),
    ];

    let mut out = Outcome::default();
    let mut depths = HashMap::new();
    let mut spans = Spans::default();
    let mut next_rid = 1u64;
    let fault = harness.fault();
    // Issue request `i` of a phase; `impaired` phases fire the schedule.
    let mut phase = |pace: Pace,
                     dur: Duration,
                     impaired: bool,
                     spans: &mut Spans,
                     depths: &mut HashMap<String, f64>|
     -> (Phase, Vec<(&'static str, Instant)>) {
        let mut fired = Vec::new();
        let mut pending_faults = schedule.iter().peekable();
        if impaired {
            // The soak's seeded loss: box 0 dies after a seeded number of
            // delivered frames, with its in-flight frames.
            let mut rng = DetRng::new(cfg.seed ^ 0x5EED_FA17);
            fault.schedule(FaultStep {
                watch: boxes[0],
                after_frames: fault.frames_delivered(boxes[0]) + rng.gen_range(200, 2_000),
                kill_target: boxes[0],
            });
            fired.push(("seeded kill of box 0 armed", Instant::now()));
        }
        let traced = obs.tracer().enabled();
        let mut issue_one = |i: u64, sched: Instant| {
            while impaired && pending_faults.peek().is_some_and(|f| f.0 <= i) {
                let (_, label, f) = pending_faults.next().expect("peeked");
                match f {
                    Fault::Kill(n) => n.iter().for_each(|&x| fault.kill(x)),
                    Fault::Revive(n) => n.iter().for_each(|&x| fault.revive(x)),
                    Fault::Delay(n) => n
                        .iter()
                        .for_each(|&x| fault.delay(x, Duration::from_millis(2))),
                    Fault::ClearDelay(n) => n.iter().for_each(|&x| fault.clear_delay(x)),
                }
                fired.push((*label, Instant::now()));
            }
            let rid = next_rid;
            next_rid += 1;
            if i % SEARCH_EVERY == SEARCH_EVERY - 1 {
                let term = minisearch::corpus::word(
                    (mix(cfg.seed, rid, 0x5EA7) % search.corpus_vocabulary as u64) as usize,
                );
                let t = Instant::now();
                let ok = search.frontend.query(&[term]).is_ok();
                if traced {
                    spans.record("app.search.query_us", t.elapsed().as_secs_f64() * 1e6);
                }
                return Ticket::Done {
                    app: SEARCH_APP,
                    ok,
                    sched,
                    done: Instant::now(),
                };
            }
            if i % MR_EVERY == MR_EVERY - 1 {
                let t = Instant::now();
                let ok = word_count_job(mr, rid);
                if traced {
                    spans.record("app.mr.job_ms", t.elapsed().as_secs_f64() * 1e3);
                }
                return Ticket::Done {
                    app: MR_APP,
                    ok,
                    sched,
                    done: Instant::now(),
                };
            }
            let app = (i % SYNTHETIC.len() as u64) as usize;
            let (kind, (master, shims)) = (SYNTHETIC[app], shims[app]);
            let pending = if traced {
                spans.time("core.master.register_us", || {
                    master.register_request(rid, shims.len())
                })
            } else {
                master.register_request(rid, shims.len())
            };
            for (w, shim) in shims.iter().enumerate() {
                let payload = Bytes::from(mix_payload(kind, cfg.seed, rid, w as u32, workers));
                // Sends into a killed box fail; the detector re-points and
                // the shim replays.
                if traced {
                    let _ = spans.time("core.worker.send_partial_us", || {
                        shim.send_partial(rid, payload)
                    });
                } else {
                    let _ = shim.send_partial(rid, payload);
                }
            }
            Ticket::Pending {
                pending,
                expected: Bytes::from(mix_expected(kind, cfg.seed, rid, workers)),
                workers: shims,
                app,
                sched,
            }
        };
        let p = drive(&obs, pace, dur, depths, &mut issue_one);
        (p, fired)
    };
    let pace = Pace::Closed { window: MIX_WINDOW };
    let (warm, _) = phase(pace, cfg.share(0.05), false, &mut spans, &mut depths);
    out.add_phase(&warm);

    if !cfg.trace {
        let before = obs.snapshot();
        let (p, fired) = phase(pace, cfg.share(0.95), true, &mut spans, &mut depths);
        let frames = counter_delta(&before, &obs.snapshot(), names::NET_FRAMES_SENT);
        out.add_phase(&p);
        let lat = p.latency();
        let rps = p.rate();
        let per_req = |total: f64| total / p.completed.max(1) as f64;
        out.notes.push(format!(
            "mix: {} requests in {:.2} s; fired: {}; longest completion gap {:.1} ms",
            p.completed,
            p.elapsed.as_secs_f64(),
            fired_note(&fired, p.start),
            recovery_gap_ms(&p.done, &fired)
        ));
        out.note_latency(&lat, &p);
        out.set("throughput_rps", rps);
        out.set(
            "goodput_MBps",
            rps * per_req(mix_useful_bytes(&p, cfg.seed, workers)) / 1e6,
        );
        out.set("events_per_s", rps * per_req(frames as f64));
        out.set("latency_p50_us", lat.p50);
        out.set("latency_p99_us", lat.p99);
        out.set(
            "cpu_us_per_req",
            p.cpu.as_secs_f64() * 1e6 / p.completed.max(1) as f64,
        );
        out.set("setup_s", setup.median());
    } else {
        let (plain, _) = phase(pace, cfg.share(0.15), false, &mut spans, &mut depths);
        out.add_phase(&plain);
        let tracer = obs.tracer();
        tracer.enable(1);
        let (clean, _) = phase(pace, cfg.share(0.15), false, &mut spans, &mut depths);
        out.add_phase(&clean);
        out.set(
            "obs.trace.overhead_pct",
            overhead_pct(plain.latency().p50, clean.latency().p50),
        );
        let before = obs.snapshot();
        let (p, fired) = phase(pace, cfg.share(0.65), true, &mut spans, &mut depths);
        let after = obs.snapshot();
        tracer.disable();
        out.add_phase(&p);
        out.notes.push(format!(
            "impaired phase: {} requests; fired: {}",
            p.completed,
            fired_note(&fired, p.start)
        ));
        out.set_counters(&before, &after, p.completed, &depths);
        out.set(
            "net.wire_bytes_per_useful_byte",
            counter_delta(&before, &after, names::NET_BYTES_SENT) as f64
                / mix_useful_bytes(&p, cfg.seed, workers).max(1.0),
        );
        out.set(
            "core.failure.recovery_gap_ms",
            recovery_gap_ms(&p.done, &fired),
        );
        out.set(
            "core.failure.repoints",
            counter_delta(&before, &after, names::FAILURE_REPOINTS) as f64,
        );
        out.set(
            "core.worker.send_partial_us",
            spans.median("core.worker.send_partial_us"),
        );
        out.set(
            "core.master.register_us",
            spans.median("core.master.register_us"),
        );
        out.set("app.search.query_us", spans.median("app.search.query_us"));
        out.set("app.mr.job_ms", spans.median("app.mr.job_ms"));
        out.set("scenarios.build_ms", setup.median() * 1e3);
        // The probes take the mix's `sum` app: its partials, its
        // aggregator, and every app's share for the scheduler.
        let partials: Vec<Bytes> = (0..workers)
            .map(|w| Bytes::from(mix_payload(SYNTHETIC[0], cfg.seed, 1, w, workers)))
            .collect();
        let shares: Vec<f64> = spec.apps.iter().map(|a| a.share).collect();
        layers::probe_runtime(
            &mut out,
            &ChannelProvider,
            spec.topology,
            &partials,
            Arc::new(AggWrapper::new(layers::DecimalSum)),
            &shares,
        );
    }
    drop(shims);
    violations.extend(harness.finish().violations);
    violations.extend(contract::depth_violations(&depths));
    out.violations.extend(violations);
    out
}

/// One word-count job over fixed inputs whose counts are known: every
/// mapper's split holds `common w<m> w<m>`.
fn word_count_job(mr: &minimr::cluster::MRCluster, rid: u64) -> bool {
    let mappers = mr.num_mappers();
    let inputs: Vec<Vec<Bytes>> = (0..mappers)
        .map(|m| vec![Bytes::from(format!("common w{m} w{m}"))])
        .collect();
    let cfg = minimr::cluster::JobConfig {
        request_id: rid,
        ..Default::default()
    };
    let Ok(result) = mr.run(inputs, &cfg) else {
        return false;
    };
    let count = |key: &[u8]| {
        result
            .output
            .iter()
            .find(|p| p.key.as_ref() == key)
            .and_then(|p| minimr::types::parse_u64(&p.value))
    };
    count(b"common") == Some(mappers as u64)
        && (0..mappers).all(|m| count(format!("w{m}").as_bytes()) == Some(2))
        && result.output.len() == mappers + 1
}

/// Synthetic partial-payload bytes of the phase's completed requests.
fn mix_useful_bytes(p: &Phase, seed: u64, workers: u32) -> f64 {
    // Payload sizes vary a little per request; the mean over a sample of
    // ids is exact enough for a rate and keeps the issuer untimed.
    let mean: f64 = SYNTHETIC
        .iter()
        .map(|&k| {
            (0..64u64)
                .flat_map(|r| (0..workers).map(move |w| mix_payload(k, seed, r, w, workers).len()))
                .sum::<usize>() as f64
                / 64.0
        })
        .sum::<f64>()
        / SYNTHETIC.len() as f64;
    let synthetic = p.done.iter().filter(|d| d.0 < SYNTHETIC.len()).count();
    synthetic as f64 * mean
}

/// Each fired impairment with its time into the phase.
fn fired_note(fired: &[(&str, Instant)], start: Instant) -> String {
    let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let each: Vec<String> = fired
        .iter()
        .map(|(l, t)| format!("{l} at {:.2} s", at(*t)))
        .collect();
    each.join(", ")
}

/// The longest time any synthetic app went without a completion after an
/// impairment fired, up to the next one.
fn recovery_gap_ms(done: &[(usize, Instant, f64)], fired: &[(&str, Instant)]) -> f64 {
    let mut worst = Duration::ZERO;
    for (k, &(_, start)) in fired.iter().enumerate() {
        let stop = fired.get(k + 1).map(|f| f.1);
        for app in 0..SYNTHETIC.len() {
            let mut last = start;
            for &(_, t, _) in done
                .iter()
                .filter(|(a, t, _)| *a == app && *t >= start && stop.is_none_or(|s| *t < s))
            {
                worst = worst.max(t - last);
                last = t;
            }
        }
    }
    worst.as_secs_f64() * 1e3
}
