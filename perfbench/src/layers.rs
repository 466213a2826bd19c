//! Layer probes of the traced run. Each times calls into one layer's
//! public functions from outside, with the inputs of the workload being
//! traced: its partials, its aggregator, its fan-in and its app shares.

use crate::measure::{median_of, ns_per_op, Samples};
use crate::Outcome;
use bytes::{Bytes, BytesMut};
use netagg_core::aggbox::tree::LocalAggTree;
use netagg_core::ledger::FanInLedger;
use netagg_core::prelude::*;
use netagg_core::runtime::DeploymentConfig;
use netagg_net::{
    encode_frame, CancelToken, FrameDecoder, Mailbox, NetError, OverflowPolicy, Transport,
};
use netagg_obs::trace::TraceRecorder;
use netagg_obs::MetricsRegistry;
use netagg_scenarios::{TopologySpec, TransportProvider};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Run every runtime-layer probe. `partials` are one request's partials,
/// `agg` the workload's aggregator and `shares` its apps' WFQ shares.
pub fn probe_runtime(
    out: &mut Outcome,
    provider: &dyn TransportProvider,
    topology: TopologySpec,
    partials: &[Bytes],
    agg: Arc<dyn DynAggregator>,
    shares: &[f64],
) {
    if provider.label() == "tcp" {
        framing(out, &partials[0]);
        let rtt = echo_rtt_us(provider.build(), &partials[0]);
        out.set("net.tcp.rtt_us", rtt);
        out.set("net.tcp.stream_MBps", stream_mbps(provider.build()));
    } else {
        out.set(
            "net.channel.rtt_us",
            echo_rtt_us(provider.build(), &partials[0]),
        );
    }
    out.set("net.mailbox.handoff_ns", mailbox_handoff_ns());
    tree_combine(out, partials, agg.clone());
    let bytes: usize = partials.iter().map(Bytes::len).sum();
    let batch = (1 << 18) / bytes.max(1) + 1;
    out.set(
        "core.agg.aggregate_ns_per_KiB",
        ns_per_op(9, batch, || {
            black_box(
                agg.aggregate_serialized(partials.to_vec())
                    .expect("aggregate"),
            );
        }) * 1024.0
            / bytes as f64,
    );
    scheduler(out, shares);
    ledger(out, partials.len());
    out.set("obs.trace.record_span_ns", record_span_ns());
    out.set(
        "core.runtime.launch_ms",
        median_of(3, || {
            let t = Instant::now();
            let dep = NetAggDeployment::launch_with_obs(
                provider.build(),
                &topology.cluster(),
                DeploymentConfig::default(),
                MetricsRegistry::new(),
            )
            .expect("launch deployment");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(dep);
            ms
        }),
    );
}

/// Calls per timed batch for an operation over `len` bytes.
fn batch_for(len: usize) -> usize {
    ((1 << 20) / (len + 64)).clamp(1, 20_000)
}

/// Frame encode and decode at the workload's partial size: decode of the
/// frame in one chunk and split across four chunks.
fn framing(out: &mut Outcome, payload: &Bytes) {
    let batch = batch_for(payload.len());
    let mut buf = BytesMut::with_capacity(payload.len() + 4);
    out.set(
        "net.framing.encode_ns",
        ns_per_op(15, batch, || {
            buf.clear();
            encode_frame(payload, &mut buf).expect("encode");
            black_box(&buf);
        }),
    );
    let mut enc = BytesMut::new();
    encode_frame(payload, &mut enc).expect("encode");
    let frame = enc.freeze();
    let quarter = frame.len().div_ceil(4);
    let pieces: Vec<Bytes> = (0..frame.len())
        .step_by(quarter)
        .map(|s| frame.slice(s..(s + quarter).min(frame.len())))
        .collect();
    let decode = |parts: &[Bytes]| {
        let mut d = FrameDecoder::new();
        for p in parts {
            d.feed_bytes(p.clone());
        }
        let got = d.next_frame().expect("decode").expect("whole frame");
        assert_eq!(got.len(), payload.len(), "decoded frame length");
        black_box(got);
    };
    out.set(
        "net.framing.decode_ns",
        ns_per_op(15, batch, || decode(std::slice::from_ref(&frame))),
    );
    out.set(
        "net.framing.decode_split_ns",
        ns_per_op(15, batch, || decode(&pieces)),
    );
}

/// Addresses of the probe's echo server and client on a fresh transport.
const ECHO_SERVER: u32 = 7;
const ECHO_CLIENT: u32 = 8;

/// Serve `conn` until `stop`, answering each message with `reply`
/// (or echoing it when `reply` is `None`).
fn serve(mut conn: Box<dyn netagg_net::Connection>, stop: &AtomicBool, reply: Option<Bytes>) {
    while !stop.load(Ordering::Relaxed) {
        match conn.recv_timeout(Duration::from_millis(20)) {
            Ok(b) => {
                if let Some(r) = &reply {
                    if b.is_empty() && conn.send(r.clone()).is_err() {
                        return;
                    }
                } else if conn.send(b).is_err() {
                    return;
                }
            }
            Err(NetError::Timeout) => {}
            Err(_) => return,
        }
    }
}

/// Run `client` against a server on a fresh `transport`, then stop the
/// server and wait for it.
fn with_server<T>(
    transport: Arc<dyn Transport>,
    reply: Option<Bytes>,
    client: impl FnOnce(&mut dyn netagg_net::Connection) -> T,
) -> T {
    let mut listener = transport.bind(ECHO_SERVER).expect("bind probe server");
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let server = s.spawn(|| {
            if let Ok(conn) = listener.accept_timeout(Duration::from_secs(10)) {
                serve(conn, &stop, reply);
            }
        });
        let mut conn = transport
            .connect(ECHO_CLIENT, ECHO_SERVER)
            .expect("connect probe client");
        let out = client(conn.as_mut());
        stop.store(true, Ordering::Relaxed);
        drop(conn);
        server.join().expect("probe server panicked");
        out
    })
}

/// Median round trip of `payload` to an echo server, in microseconds.
fn echo_rtt_us(transport: Arc<dyn Transport>, payload: &Bytes) -> f64 {
    let rounds = (batch_for(payload.len()) / 4).clamp(200, 2_000);
    with_server(transport, None, |c| {
        let mut s = Samples::default();
        for i in 0..rounds + 50 {
            let t = Instant::now();
            c.send(payload.clone()).expect("probe send");
            c.recv().expect("probe echo");
            if i >= 50 {
                s.push_us(t.elapsed());
            }
        }
        s.median()
    })
}

/// One-way throughput of 64 KiB frames, acknowledged once at the end.
fn stream_mbps(transport: Arc<dyn Transport>) -> f64 {
    const FRAMES: usize = 1_000;
    let frame = Bytes::from(vec![0x5A; 64 * 1024]);
    with_server(transport, Some(Bytes::from_static(b"k")), |c| {
        let t = Instant::now();
        for _ in 0..FRAMES {
            c.send(frame.clone()).expect("stream send");
        }
        // An empty frame asks for the acknowledgement; it arrives after
        // every data frame has been read.
        c.send(Bytes::new()).expect("stream end");
        c.recv().expect("stream ack");
        (FRAMES * frame.len()) as f64 / t.elapsed().as_secs_f64() / 1e6
    })
}

/// Cross-thread `Mailbox` send→recv, from a ping-pong over two mailboxes.
fn mailbox_handoff_ns() -> f64 {
    const ROUNDS: u64 = 20_000;
    let cancel = CancelToken::new();
    let ping = Mailbox::new("bench.ping", 16, OverflowPolicy::Block, cancel.clone());
    let pong = Mailbox::new("bench.pong", 16, OverflowPolicy::Block, cancel.clone());
    thread::scope(|s| {
        s.spawn(|| {
            while let Ok(v) = ping.recv() {
                if pong.send(v).is_err() || v == u64::MAX {
                    return;
                }
            }
        });
        let ns = median_of(5, || {
            let t = Instant::now();
            for i in 0..ROUNDS {
                ping.send(i).expect("ping");
                pong.recv().expect("pong");
            }
            t.elapsed().as_secs_f64() * 1e9 / (2 * ROUNDS) as f64
        });
        ping.send(u64::MAX).expect("stop");
        ns
    })
}

/// A `LocalAggTree` over one request's partials on a standalone
/// scheduler: push × fan-in, then `end_input` → `wait_complete`.
fn tree_combine(out: &mut Outcome, partials: &[Bytes], agg: Arc<dyn DynAggregator>) {
    let sched = Arc::new(TaskScheduler::new(SchedulerConfig::default()));
    let app = AppId(1);
    sched.register_app(app, 1.0);
    let fanin = DeploymentConfig::default().fanin;
    let expected = agg
        .aggregate_serialized(partials.to_vec())
        .expect("aggregate");
    let mut wrong = 0;
    let us = median_of(201, || {
        let t = Instant::now();
        let tree = LocalAggTree::new(agg.clone(), fanin);
        for p in partials {
            tree.push(&sched, app, p.clone());
        }
        tree.end_input(&sched, app);
        let got = tree.wait_complete(Duration::from_secs(5));
        let us = t.elapsed().as_secs_f64() * 1e6;
        if got.as_ref().ok() != Some(&expected) {
            wrong += 1;
        }
        us
    });
    if wrong > 0 {
        out.violations.push(format!(
            "LocalAggTree probe: {wrong} combines differ from the aggregator"
        ));
    }
    out.set("core.tree.combine_us", us);
}

/// WFQ dispatch latency (submit → task start) with the workload's apps,
/// and how far each app's CPU share strays from its target while every
/// queue is backlogged.
fn scheduler(out: &mut Outcome, shares: &[f64]) {
    let sched = TaskScheduler::new(SchedulerConfig::default());
    let apps: Vec<AppId> = (0..shares.len()).map(|i| AppId(i as u16 + 1)).collect();
    for (a, s) in apps.iter().zip(shares) {
        sched.register_app(*a, *s);
    }
    let (tx, rx) = mpsc::channel::<Duration>();
    let mut dispatch = Samples::default();
    for i in 0..2_000 {
        let tx = tx.clone();
        let submitted = Instant::now();
        sched.submit(
            apps[i % apps.len()],
            Box::new(move || {
                let _ = tx.send(submitted.elapsed());
            }),
        );
        dispatch.push_us(rx.recv().expect("dispatched task reports"));
    }
    out.set("core.scheduler.dispatch_us", dispatch.median());

    // Equal backlogs of 100 us tasks; sample the shares half-way, while
    // every queue still holds work.
    const TASKS: usize = 120;
    for _ in 0..TASKS {
        for a in &apps {
            sched.submit(*a, Box::new(|| spin(Duration::from_micros(100))));
        }
    }
    while sched.queued() > TASKS * apps.len() / 2 {
        thread::sleep(Duration::from_millis(1));
    }
    let cpu = sched.cpu_times();
    sched.wait_idle(Duration::from_secs(10));
    let total_cpu: f64 = cpu.iter().map(|c| c.cpu_seconds).sum();
    let total_share: f64 = shares.iter().sum();
    let error = apps
        .iter()
        .zip(shares)
        .map(|(a, s)| {
            let used = cpu
                .iter()
                .find(|c| c.app == *a)
                .map_or(0.0, |c| c.cpu_seconds);
            (used / total_cpu.max(1e-12) - s / total_share).abs()
        })
        .fold(0.0, f64::max);
    out.set("core.scheduler.share_error", error);
}

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// `FanInLedger` accept per source at the workload's fan-in, and a box
/// re-point onto the sources behind it.
fn ledger(out: &mut Outcome, fanin: usize) {
    const LEDGERS: usize = 2_000;
    let sources: Vec<u32> = (0..fanin as u32).collect();
    let accept = median_of(9, || {
        let mut ls: Vec<FanInLedger<u32>> = (0..LEDGERS)
            .map(|_| FanInLedger::new(sources.clone()))
            .collect();
        let t = Instant::now();
        for l in &mut ls {
            for &s in &sources {
                black_box(l.accept_chunk(s, 0));
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / (LEDGERS * fanin) as f64
    });
    out.set("core.ledger.accept_ns", accept);
    const BOX: u32 = u32::MAX;
    let repoint = median_of(9, || {
        let mut ls: Vec<FanInLedger<u32>> = (0..LEDGERS).map(|_| FanInLedger::new([BOX])).collect();
        let t = Instant::now();
        for l in &mut ls {
            black_box(l.repoint(BOX, &sources));
        }
        t.elapsed().as_secs_f64() * 1e9 / LEDGERS as f64
    });
    out.set("core.ledger.repoint_ns", repoint);
}

fn record_span_ns() -> f64 {
    const SPANS: usize = 20_000;
    median_of(9, || {
        let rec = TraceRecorder::with_capacity(SPANS);
        rec.enable(1);
        let t = Instant::now();
        for i in 0..SPANS as u64 {
            rec.record_span("bench.span", "bench", 1, i + 2, 1, 1, i, i + 1);
        }
        t.elapsed().as_secs_f64() * 1e9 / SPANS as f64
    })
}

/// Sum of decimal integers: the wire format of the mix's `sum` app, for
/// the probes of the mix workload.
pub struct DecimalSum;

impl AggregationFunction for DecimalSum {
    type Item = u64;

    fn deserialize(&self, payload: &Bytes) -> Result<u64, AggError> {
        std::str::from_utf8(payload)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| AggError::Corrupt("not a decimal integer".into()))
    }

    fn serialize(&self, item: &u64) -> Bytes {
        Bytes::from(item.to_string())
    }

    fn aggregate(&self, items: Vec<u64>) -> u64 {
        items.into_iter().sum()
    }

    fn empty(&self) -> u64 {
        0
    }
}
