//! `sim-scale10x`: the incremental fluid engine alone, on the
//! 10 240-server fabric under the NetAgg strategy.

use crate::measure::{calm, mix, process_cpu, supported_pct, Samples, StealLog};
use crate::runtime::RunCfg;
use crate::Outcome;
use netagg_sim::{
    aggregation, run_experiment, BoxPlacement, EngineKind, EngineStats, ExperimentConfig,
    IncrementalEngine, SimResult, Strategy, Topology, TopologyConfig, Workload, WorkloadConfig,
};
use std::time::Instant;

/// Edge load of the timed run (`WorkloadConfig::for_edge_load` units),
/// sized so that one engine run takes seconds on a 2-vCPU host.
const EDGE_LOAD: f64 = 0.25;
/// Aggregation output ratio.
const ALPHA: f64 = 0.1;
/// Flows of the instance checked against the reference engine; the
/// reference solver is quadratic, so the check is flow-capped.
const PARITY_FLOWS: usize = 1_000;
/// Relative tolerance of the parity check, as in the simulator's own
/// parity suite.
const PARITY_TOL: f64 = 1e-6;

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    cfg.topology = TopologyConfig::scale10x();
    cfg.strategy = Strategy::NetAgg;
    cfg.workload = WorkloadConfig::for_edge_load(&cfg.topology, EDGE_LOAD);
    cfg.workload.alpha = ALPHA;
    cfg.workload.seed = seed;
    cfg
}

/// What one set-up and engine run of the run measured.
struct Rep {
    setup_s: f64,
    topo_ms: f64,
    gen_ms: f64,
    expand_ms: f64,
    run_s: f64,
    /// Share of CPU time the hypervisor stole during the engine run.
    stolen: f64,
    events: f64,
    requests: f64,
    bytes: f64,
    cpu_s: f64,
    fct_p50_us: f64,
    fct_p99_us: f64,
    fct_n: usize,
    stats: EngineStats,
}

/// Set up one workload drawn from `seed` and run the engine on it.
fn rep(seed: u64) -> Rep {
    let ecfg = config(seed);
    let t0 = Instant::now();
    let topo = Topology::build(&ecfg.topology);
    let placement = BoxPlacement::new(&topo, &ecfg.deployment);
    let t1 = Instant::now();
    let workload = Workload::generate(&topo, &ecfg.workload);
    let t2 = Instant::now();
    let flows = aggregation::expand(&topo, &placement, &workload, &ecfg);
    let t3 = Instant::now();
    let mut engine = IncrementalEngine::new(&topo, &placement, &ecfg);
    let mut steal = StealLog::default();
    steal.record();
    let cpu0 = process_cpu();
    let t = Instant::now();
    let (result, stats) = engine.run_stats(flows);
    let run_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu().saturating_sub(cpu0).as_secs_f64();
    steal.record();
    let mut fct = Samples::default();
    result.records.iter().for_each(|r| fct.push(r.fct() * 1e6));
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    Rep {
        setup_s: (t3 - t0).as_secs_f64(),
        topo_ms: ms(t1 - t0),
        gen_ms: ms(t2 - t1),
        expand_ms: ms(t3 - t2),
        run_s,
        stolen: steal.overall(),
        events: stats.events() as f64,
        requests: result.request_completion_times().len() as f64,
        bytes: result.records.iter().map(|r| r.size).sum(),
        cpu_s,
        fct_p50_us: fct.median(),
        fct_p99_us: fct.quantile(0.99),
        fct_n: fct.len(),
        stats,
    }
}

pub fn run_sim(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    // One workload per repetition, each drawn from the run's seed: a
    // figure is then a median over several workloads, not one draw of
    // the heavy-tailed flow sizes.
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        reps.push(rep(mix(cfg.seed, reps.len() as u64, 0x51A)));
        out.attempted += 1;
    }
    let median = |f: &dyn Fn(&Rep) -> f64| {
        let mut s = Samples::default();
        reps.iter().for_each(|r| s.push(f(r)));
        s.median()
    };
    let calm_median =
        |f: &dyn Fn(&Rep) -> f64| calm(reps.iter().map(|r| (r.stolen, f(r))).collect()).median();
    let fewest = reps.iter().map(|r| r.fct_n).min().unwrap_or(0);
    out.notes.push(format!(
        "{} engine runs, median {} flows, {:.3} s, {} simulated requests and {} events per run; \
         host steal per run {:?}%",
        reps.len(),
        median(&|r| r.fct_n as f64),
        median(&|r| r.run_s),
        median(&|r| r.requests),
        median(&|r| r.events),
        reps.iter()
            .map(|r| (r.stolen * 1000.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "simulated FCT: median over runs of each run's p50 {:.1} us and p99 {:.1} us; the \
         smallest run has {} samples, so p{} is the highest percentile with 10 beyond it",
        median(&|r| r.fct_p50_us),
        median(&|r| r.fct_p99_us),
        fewest,
        supported_pct(fewest)
    ));

    // Parity with the reference engine on a flow-capped instance.
    let mut capped = config(cfg.seed);
    capped.workload.num_flows = PARITY_FLOWS;
    capped.engine = EngineKind::Incremental;
    let inc = run_experiment(&capped);
    capped.engine = EngineKind::Reference;
    let reference = run_experiment(&capped);
    out.attempted += 1;
    if let Some(err) = parity_error(&inc, &reference) {
        out.failed += 1;
        out.violations.push(format!("reference parity: {err}"));
    }

    if !cfg.trace {
        out.set("setup_s", median(&|r| r.setup_s));
        out.set("throughput_rps", calm_median(&|r| r.requests / r.run_s));
        out.set("goodput_MBps", calm_median(&|r| r.bytes / r.run_s / 1e6));
        out.set("events_per_s", calm_median(&|r| r.events / r.run_s));
        out.set("latency_p50_us", median(&|r| r.fct_p50_us));
        out.set("latency_p99_us", median(&|r| r.fct_p99_us));
        out.set(
            "cpu_us_per_req",
            median(&|r| r.cpu_s * 1e6 / r.requests.max(1.0)),
        );
    } else {
        let frac = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        out.set("sim.topology.build_ms", median(&|r| r.topo_ms));
        out.set("sim.workload.generate_ms", median(&|r| r.gen_ms));
        out.set("sim.aggregation.expand_ms", median(&|r| r.expand_ms));
        out.set("sim.engine.run_s", median(&|r| r.run_s));
        out.set("sim.events", median(&|r| r.events));
        out.set(
            "sim.stale_discard_frac",
            median(&|r| {
                frac(
                    r.stats.stale_discards,
                    r.stats.stale_discards + r.stats.completions,
                )
            }),
        );
        out.set(
            "sim.avg_scope",
            median(&|r| frac(r.stats.resolved_flows, r.stats.resolves)),
        );
        out.set(
            "sim.expansion_frac",
            median(&|r| frac(r.stats.expansions, r.stats.resolves)),
        );
        out.set("sim.fallbacks", median(&|r| r.stats.fallbacks as f64));
        out.set(
            "sim.spurious_wakeups",
            median(&|r| r.stats.spurious_wakeups as f64),
        );
    }
    out
}

/// The first divergence between the two engines beyond the tolerance.
fn parity_error(inc: &SimResult, reference: &SimResult) -> Option<String> {
    if inc.records.len() != reference.records.len() {
        return Some(format!(
            "{} flows vs {}",
            inc.records.len(),
            reference.records.len()
        ));
    }
    let scale = reference.makespan.max(1e-9);
    for (i, (a, b)) in inc.records.iter().zip(&reference.records).enumerate() {
        if a.size != b.size || a.start != b.start {
            return Some(format!("flow {i} differs in size or start"));
        }
        if (a.finish - b.finish).abs() > PARITY_TOL * scale.max(b.finish.abs()) {
            return Some(format!(
                "flow {i} finishes at {} vs reference {}",
                a.finish, b.finish
            ));
        }
    }
    if (inc.makespan - reference.makespan).abs() > PARITY_TOL * scale {
        return Some(format!(
            "makespan {} vs reference {}",
            inc.makespan, reference.makespan
        ));
    }
    None
}
