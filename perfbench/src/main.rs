//! The NetAgg benchmark: four workloads against the public APIs of the
//! runtime crates and the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fanin-small-tcp --seed 1 --seconds 20 --trace 0 \
//!     --rate fanin-small-tcp=1000 --rate bulk-vector-tcp=400
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; lines before it start
//! with `#` and give the host fingerprint and the run's notes. The
//! command exits non-zero when any aggregate is wrong or any teardown
//! contract is violated.

mod layers;
mod measure;
mod runtime;
mod sim;

use runtime::{RunCfg, Shape};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One benchmark workload and the reason it is in the set.
struct Workload {
    name: &'static str,
    /// What the workload exercises, what it bypasses, and which layer
    /// metrics should move which end-to-end metric on it.
    why: &'static str,
    run: fn(&RunCfg) -> Outcome,
    /// Whether the run takes an open-loop rate (`--rate name=rps`).
    open_loop: bool,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fanin-small-tcp",
        why: "multi_rack(2, 8, 1) over TcpProvider, one app taking the max of 8-byte \
              partials from 16 workers through two boxes (a box-to-box hop). Per-frame cost \
              dominates: worker-shim send, framing, the TCP reactor, mailbox hand-offs, box \
              reader and egress, the master's ledger; combine work is trivial. Exercises \
              transport and hop changes, bypasses combine changes. net.framing.*, \
              core.worker.send_partial_us should move throughput_rps; net.tcp.rtt_us, \
              net.mailbox.handoff_ns, core.master.register_us should move latency_p50_us; \
              net.frames_per_req should move cpu_us_per_req; core.aggbox.* should move \
              latency_p99_us.",
        run: |c| runtime::run_tcp(Shape::FaninSmall, c),
        open_loop: true,
    },
    Workload {
        name: "bulk-vector-tcp",
        why: "single_rack(8, 1) over TcpProvider, one app summing 8 192 little-endian u64 \
              element-wise, so each worker sends one unchunked 64 KiB partial (512 KiB per \
              request). Copy- and combine-bound with few frames: large frames, flow windows, \
              decoder reassembly across chunks. A transport change that helps small frames \
              but costs large ones shows here; exercises combine changes. \
              net.framing.decode_split_ns, net.tcp.stream_MBps, \
              net.wire_bytes_per_useful_byte, core.tree.combine_us and \
              core.agg.aggregate_ns_per_KiB should move goodput_MBps. Runs on request but is \
              not one of BENCHMARK.json's gated workloads: on a 2-vCPU virtual machine its \
              figures moved by a quarter between runs of the same code.",
        run: |c| runtime::run_tcp(Shape::BulkVector, c),
        open_loop: true,
    },
    Workload {
        name: "recovery-mix-channel",
        why: "The soak mix on multi_rack(2, 3, 1) over ChannelProvider: sum, max and top-k \
              apps at WFQ shares 2:1:1 plus minisearch queries and minimr word-count jobs, \
              closed loop with 8 in flight. A seeded box kill, a failover kill, a straggler \
              storm and a partition with heal fire at fixed request indices. The only \
              workload that exercises recovery (ledger re-points, OutReplay, the failure \
              detector), WFQ across tenants and the real applications; the channel \
              transport keeps TCP cost out. core.failure.*, core.ledger.repoint_ns and \
              core.scheduler.* should move latency_p99_us; net.channel.rtt_us and \
              net.mailbox.handoff_ns should move latency_p50_us; app.* should move \
              throughput_rps.",
        run: runtime::run_recovery,
        open_loop: false,
    },
    Workload {
        name: "sim-scale10x",
        why: "The incremental fluid engine on TopologyConfig::scale10x() (10 240 servers), \
              NetAgg strategy, alpha 0.1, edge load 0.25. Runs the simulator alone: calendar \
              queue, scoped max-min and certificates; bypasses every runtime layer, which the \
              other three workloads exercise. sim.avg_scope, sim.expansion_frac, \
              sim.fallbacks and sim.stale_discard_frac should move events_per_s; sim.topology.*, \
              sim.workload.* and sim.aggregation.* should move setup_s.",
        run: sim::run_sim,
        open_loop: false,
    },
];

/// Every end-to-end metric, with its unit. A `--trace 0` run of any
/// workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("goodput_MBps", "MB/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_MB", "MB"),
    ("events_per_s", "events/s"),
];

/// Every per-layer metric, with its unit. A `--trace 1` run reports all of
/// them; a layer the workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.framing.encode_ns", "ns"),
    ("net.framing.decode_ns", "ns"),
    ("net.framing.decode_split_ns", "ns"),
    ("net.mailbox.handoff_ns", "ns"),
    ("net.tcp.rtt_us", "us"),
    ("net.tcp.stream_MBps", "MB/s"),
    ("net.channel.rtt_us", "us"),
    ("net.frames_per_req", "count"),
    ("net.wire_bytes_per_useful_byte", "ratio"),
    ("core.worker.send_partial_us", "us"),
    ("core.worker.resends_per_req", "count"),
    ("core.master.register_us", "us"),
    ("core.master.emulated_empties_per_req", "count"),
    ("core.master.duplicates_dropped", "count"),
    ("core.tree.combine_us", "us"),
    ("core.agg.aggregate_ns_per_KiB", "ns"),
    ("core.scheduler.dispatch_us", "us"),
    ("core.scheduler.share_error", "ratio"),
    ("core.aggbox.tasks_per_req", "count"),
    ("core.aggbox.max_mailbox_depth", "count"),
    ("core.aggbox.mailbox_dropped", "count"),
    ("core.ledger.accept_ns", "ns"),
    ("core.ledger.repoint_ns", "ns"),
    ("core.failure.recovery_gap_ms", "ms"),
    ("core.failure.repoints", "count"),
    ("core.runtime.launch_ms", "ms"),
    ("scenarios.build_ms", "ms"),
    ("app.search.query_us", "us"),
    ("app.mr.job_ms", "ms"),
    ("obs.trace.record_span_ns", "ns"),
    ("obs.trace.overhead_pct", "%"),
    ("sim.topology.build_ms", "ms"),
    ("sim.workload.generate_ms", "ms"),
    ("sim.aggregation.expand_ms", "ms"),
    ("sim.engine.run_s", "s"),
    ("sim.events", "count"),
    ("sim.stale_discard_frac", "ratio"),
    ("sim.avg_scope", "count"),
    ("sim.expansion_frac", "ratio"),
    ("sim.fallbacks", "count"),
    ("sim.spurious_wakeups", "count"),
    ("bench.gen.lag_p99_us", "us"),
    ("bench.layer_sum_us", "us"),
    ("bench.host_steal_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Requests that failed, timed out or returned a wrong aggregate.
    pub failed: u64,
    /// Broken teardown contracts and failed checks other than requests.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The result line: every metric of `table`, bypassed layers as 0.
    /// Errs on an end-to-end metric the workload did not measure.
    fn result_json(&self, table: &[(&str, &str)], fill_zero: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is {v}")),
                None if fill_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: BTreeMap<String, f64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rates = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--rate" => {
                let (name, rps) = value
                    .split_once('=')
                    .ok_or_else(|| bad("expected name=rps"))?;
                let rps: f64 = rps.parse().map_err(|_| bad("rate is not a number"))?;
                if !(rps > 0.0 && rps.is_finite()) {
                    return Err(bad("rate must be positive"));
                }
                rates.insert(name.to_string(), rps);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rates,
    })
}

/// Run one workload and return its notes and result line.
fn run(args: &Args, corrupt_at: Option<u64>) -> Result<(Outcome, String), String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {} (one of {names:?})", args.workload)
        })?;
    let rate = match args.rates.get(w.name) {
        Some(r) => *r,
        None if w.open_loop => return Err(format!("{} needs --rate {}=<rps>", w.name, w.name)),
        None => 0.0,
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rate,
        corrupt_at,
    };
    let mut steal = measure::StealLog::default();
    steal.record();
    let mut out = (w.run)(&cfg);
    steal.record();
    let stolen = 100.0 * steal.overall();
    out.notes.insert(0, format!("why: {}", w.why));
    out.notes.push(format!(
        "host steal over the run: {stolen:.1}% of CPU time went to other tenants"
    ));
    let line = if args.trace {
        out.set("bench.host_steal_pct", stolen);
        out.result_json(PER_LAYER, true)?
    } else {
        out.set("peak_rss_MB", measure::peak_rss_mb());
        out.result_json(END_TO_END, false)?
    };
    Ok((out, line))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--rate <workload>=<req/s>]..."
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# {}",
        measure::host_fingerprint(&args.workload, args.seed, args.trace)
    );
    let (out, line) = match run(&args, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for n in &out.notes {
        println!("# {n}");
    }
    for (name, unit) in if args.trace { PER_LAYER } else { END_TO_END } {
        println!("# {name:<40} {:>16.4} {unit}", out.get(name));
    }
    for v in &out.violations {
        eprintln!("violation: {v}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} requests failed", out.failed, out.attempted);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one array of BENCHMARK.json.
    fn declared(array: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let from = text.find(&format!("\"{array}\"")).expect("array present");
        let body = &text[from..];
        let body = &body[body.find('[').expect("[")..body.find(']').expect("]")];
        let field = |obj: &str, key: &str| {
            obj.split(&format!("\"{key}\": \""))
                .nth(1)
                .and_then(|v| v.split('"').next())
                .unwrap_or("")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        for (name, _) in declared("workloads") {
            assert!(WORKLOADS.iter().any(|w| w.name == name), "{name}");
        }
    }

    fn tiny(workload: &str, trace: bool, corrupt_at: Option<u64>) -> (Outcome, String) {
        let args = Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.6,
            trace,
            rates: [("fanin-small-tcp", 400.0), ("bulk-vector-tcp", 200.0)]
                .map(|(w, r)| (w.to_string(), r))
                .into(),
        };
        run(&args, corrupt_at).expect("workload runs")
    }

    /// At tiny size, every workload emits every metric of its mode with
    /// its unit, measures every end-to-end metric (a missing one is an
    /// error, not a 0) and checks out correct.
    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        for w in WORKLOADS {
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let (out, line) = tiny(w.name, trace, None);
                assert!(out.correct(), "{} trace={trace}: {out:?}", w.name);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                for (name, unit) in table {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    let at = line
                        .find(&entry)
                        .unwrap_or_else(|| panic!("{name} in {line}"));
                    let rest = &line[at..];
                    let unit_field = format!("\"unit\": \"{unit}\"}}");
                    assert!(rest.contains(&unit_field), "{name} unit {unit}");
                }
                if !trace {
                    assert!(END_TO_END.iter().all(|(n, _)| out.get(n) > 0.0), "{out:?}");
                }
            }
        }
    }

    /// An aggregator that corrupts one result is caught as a failed
    /// request, so the exactness check demonstrably fires.
    #[test]
    fn a_corrupted_aggregate_is_counted_as_failed() {
        for shape in ["fanin-small-tcp", "bulk-vector-tcp"] {
            let (out, line) = tiny(shape, false, Some(3));
            assert!(out.failed >= 1, "{shape}: {out:?}");
            assert!(line.starts_with("{\"correct\": false"), "{line}");
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |a: &str| parse_args(a.split_whitespace().map(String::from));
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 0").is_ok());
        assert!(parse("--workload x --seed 1 --seconds 1").is_err());
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--rate fanin-small-tcp --seed 1").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
