//! Measurement helpers shared by every workload: raw-sample percentiles,
//! process CPU time and peak memory, bench-side layer spans, and the host
//! fingerprint printed with each result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Raw samples, kept whole so that percentiles are exact order statistics
/// of what was measured rather than the edges of histogram buckets.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Record a duration in microseconds.
    pub fn push_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `q` in `[0, 1]`; 0 for an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_by(f64::total_cmp);
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// The highest of p50/p90/p99/p99.9/p99.99 that leaves at least ten of
/// `n` samples beyond it (0 when even p50 does not).
pub fn supported_pct(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(0.0)
}

/// Durations of bench-side spans around calls into one layer, by metric
/// name. Only traced runs record them.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Samples>);

impl Spans {
    /// Run `f`, recording its wall time in microseconds under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.entry(name).or_default().push_us(t.elapsed());
        out
    }

    pub fn record(&mut self, name: &'static str, us: f64) {
        self.0.entry(name).or_default().push(us);
    }

    /// Median of `name`, 0 when nothing was recorded.
    pub fn median(&mut self, name: &str) -> f64 {
        self.0.get_mut(name).map_or(0.0, Samples::median)
    }
}

/// Median of `n` calls of `f`, each returning its own measured value.
pub fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut s = Samples::default();
    for _ in 0..n {
        s.push(f());
    }
    s.median()
}

/// Median per-call time in nanoseconds of `op`, over `rounds` batches of
/// `batch` calls each. Batching keeps the clock's own cost out of
/// operations far shorter than a clock read.
pub fn ns_per_op(rounds: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    median_of(rounds, || {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        t.elapsed().as_secs_f64() * 1e9 / batch as f64
    })
}

/// User plus system CPU time of the whole process, all threads, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu() -> Duration {
    const TICKS_PER_SEC: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    let ticks: u64 = fields.iter().sum();
    Duration::from_millis(ticks * 1000 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reading of the machine's CPU tick counters from `/proc/stat`.
#[derive(Debug, Clone, Copy)]
struct HostTicks {
    at: Instant,
    /// Ticks in which a vCPU of this machine was ready to run but the
    /// hypervisor ran another tenant instead.
    steal: u64,
    total: u64,
}

impl HostTicks {
    fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            at: Instant::now(),
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }
}

/// Readings of the host's CPU counters over a phase, at most one per
/// 100 ms: how much of any stretch of the phase the hypervisor gave this
/// machine's vCPUs to another tenant.
#[derive(Debug, Default)]
pub struct StealLog(Vec<HostTicks>);

impl StealLog {
    /// Take a reading unless the last one is under 100 ms old.
    pub fn tick(&mut self) {
        if self
            .0
            .last()
            .is_none_or(|r| r.at.elapsed() >= Duration::from_millis(100))
        {
            self.record();
        }
    }

    pub fn record(&mut self) {
        self.0.push(HostTicks::now());
    }

    /// Share of CPU time stolen from `from` to `to`, between the readings
    /// just outside that span.
    pub fn frac(&self, from: Instant, to: Instant) -> f64 {
        let a = self
            .0
            .iter()
            .rev()
            .find(|r| r.at <= from)
            .or(self.0.first());
        let b = self.0.iter().find(|r| r.at >= to).or(self.0.last());
        match (a, b) {
            (Some(a), Some(b)) if b.total > a.total => {
                b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
            }
            _ => 0.0,
        }
    }

    /// Share of CPU time stolen over the whole log.
    pub fn overall(&self) -> f64 {
        match (self.0.first(), self.0.last()) {
            (Some(a), Some(b)) => self.frac(a.at, b.at),
            _ => 0.0,
        }
    }
}

/// Share of a window's CPU time the hypervisor may steal before the
/// window measures the host rather than the program.
const CALM: f64 = 0.01;

/// The values of the windows a figure is taken from, given each window's
/// stolen share: every window with at most [`CALM`] stolen, or, when
/// fewer are that calm, the least-stolen quarter (at least three). When
/// another tenant takes the host's CPUs, every latency and rate of this
/// machine moves several-fold; such windows say nothing about the code.
pub fn calm(mut windows: Vec<(f64, f64)>) -> Samples {
    let floor = windows.len().div_ceil(4).max(3).min(windows.len());
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = windows.iter().filter(|w| w.0 <= CALM).count().max(floor);
    let mut s = Samples::default();
    windows.iter().take(keep).for_each(|w| s.push(w.1));
    s
}

/// Deterministic 64-bit mix (splitmix finaliser) from which every
/// workload derives its inputs, so one seed gives one input set.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The facts that make a number from one host incomparable with a number
/// from another, as one JSON object.
pub fn host_fingerprint(workload: &str, seed: u64, trace: bool) -> String {
    let vcpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let shards = std::env::var("NETAGG_TCP_SHARDS").unwrap_or_else(|_| "unset".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"host\": {{\"vcpus\": {vcpus}, \"cpu_model\": \"{}\", \"netagg_tcp_shards\": \"{}\", \
         \"profile\": \"{profile}\", \"git_commit\": \"{}\", \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"trace\": {trace}}}}}",
        json_escape(&cpu),
        json_escape(&shards),
        git_commit()
    )
}

/// The commit of the checkout, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_report_support() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        // 1000 samples leave exactly ten beyond p99.
        assert_eq!(supported_pct(1000), 99.0);
        assert_eq!(supported_pct(999), 90.0);
        assert_eq!(supported_pct(5), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > Duration::ZERO);
    }
}
