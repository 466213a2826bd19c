//! The single source of truth for the workspace lock-rank registry
//! (DESIGN.md §15).
//!
//! Every hot lock in the runtime is an
//! [`OrderedMutex`](crate::lifecycle::OrderedMutex) /
//! [`OrderedRwLock`](crate::lifecycle::OrderedRwLock) constructed from one
//! of the [`LockRank`] constants below. The rank encodes the only legal
//! acquisition order: a thread may acquire a lock only while every lock it
//! already holds has a *strictly smaller* rank. Outermost locks therefore
//! carry the lowest ranks; the transport layer — always acquired last, at
//! the bottom of every call chain — carries the highest.
//!
//! `netagg-lint`'s `lock-order` rule parses this file, diffs the constants
//! bidirectionally against the §15 "Lock ranks" table (the same pattern as
//! the §7 metrics contract), infers the static acquisition graph from the
//! construction and acquisition sites, and fails CI on any edge that
//! violates rank monotonicity. The debug-only runtime witness
//! (`lifecycle::witness`) enforces the identical invariant at runtime and
//! records every observed edge so the soak test can prove containment in
//! the static graph.
//!
//! Rank bands (gaps left for future locks):
//!
//! * 10–19 scenario engine (`netagg-scenarios/src/runner.rs`)
//! * 20–29 master shim (`netagg-core/src/shim/master.rs`)
//! * 30–39 worker shim (`netagg-core/src/shim/worker.rs`)
//! * 40–59 agg-box runtime (`netagg-core/src/aggbox/runtime.rs`)
//! * 60–64 agg-box scheduler (`netagg-core/src/aggbox/scheduler.rs`)
//! * 65–69 connection cache (`netagg-core/src/conn_cache.rs`)
//! * 70–89 TCP reactor (`netagg-net/src/tcp.rs`)

/// A static lock rank: the position of one named lock in the global
/// acquisition order (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    /// Position in the global order; strictly increasing along every
    /// legal acquisition chain.
    pub rank: u16,
    /// Registry name, `<band>.<lock>`; the key used by the static graph,
    /// the runtime witness and the §15 table.
    pub name: &'static str,
}

impl LockRank {
    /// Declare a rank (used by the registry constants below and by tests
    /// that need ad-hoc locks outside the global order).
    pub const fn new(rank: u16, name: &'static str) -> Self {
        Self { rank, name }
    }
}

// --- scenario engine (10–19) -----------------------------------------------

/// Armed impairments not yet due; held while applying due actions.
pub const SCN_PENDING: LockRank = LockRank::new(10, "scn.pending");
/// Labels of impairments already applied (taken under `scn.pending`).
pub const SCN_APPLIED: LockRank = LockRank::new(12, "scn.applied");
/// High-water mailbox depths sampled from registry snapshots.
pub const SCN_DEPTHS: LockRank = LockRank::new(14, "scn.depths");
/// Per-application issued/completed/failure counters.
pub const SCN_APP_STATS: LockRank = LockRank::new(16, "scn.app_stats");

// --- master shim (20–29) ---------------------------------------------------

/// Per-request pending table; the master's outermost lock.
pub const MASTER_PENDING: LockRank = LockRank::new(20, "master.pending");
/// Routing table (taken under `master.pending` by ledger seeding).
pub const MASTER_ROUTES: LockRank = LockRank::new(22, "master.routes");
/// Delivered-request ring (taken under `master.pending` by the reaper).
pub const MASTER_DELIVERED: LockRank = LockRank::new(24, "master.delivered");

// --- worker shim (30–39) ---------------------------------------------------

/// Tree-to-parent assignment map.
pub const WORKER_ASSIGNMENTS: LockRank = LockRank::new(30, "worker.assignments");
/// Replay buffer of sent chunks (held while clearing sequence state).
pub const WORKER_REPLAY: LockRank = LockRank::new(32, "worker.replay");
/// Per-request next-sequence counters.
pub const WORKER_SEQS: LockRank = LockRank::new(34, "worker.seqs");

// --- agg-box runtime (40–59) -----------------------------------------------

/// Per-request aggregation states; the box's outermost lock.
pub const AGG_STATES: LockRank = LockRank::new(40, "agg.states");
/// Registered application combiners (read under `agg.states`).
pub const AGG_APPS: LockRank = LockRank::new(42, "agg.apps");
/// Per-tree routing entries (read/written under `agg.states`).
pub const AGG_ROUTES: LockRank = LockRank::new(44, "agg.routes");
/// Per-request upstream redirect overrides.
pub const AGG_OUT_REDIRECTS: LockRank = LockRank::new(46, "agg.out_redirects");
/// Upward replay buffer (taken under `agg.states` on completion).
pub const AGG_OUT_REPLAY: LockRank = LockRank::new(48, "agg.out_replay");

// --- agg-box scheduler (60–69) ---------------------------------------------

/// WFQ scheduler state (taken under `agg.states` by combine submission).
pub const SCHED_STATE: LockRank = LockRank::new(60, "sched.state");

// --- connection cache (65–69) ----------------------------------------------

/// Cached per-destination connections of one sender (box egress, master
/// control plane, worker data plane); held across a dial and a send.
pub const CONN_CACHE: LockRank = LockRank::new(66, "conn.cache");

// --- TCP reactor (70–89) ---------------------------------------------------

/// Reactor join scope; held only at startup, before shard threads exist.
pub const NET_SCOPE: LockRank = LockRank::new(70, "net.scope");
/// Attached metrics registry (read under `net.scope` at startup).
pub const NET_OBS: LockRank = LockRank::new(71, "net.obs");
/// NodeId → socket address registry.
pub const NET_REGISTRY: LockRank = LockRank::new(72, "net.registry");
/// Address → physical link map; held while dialling a new link.
pub const NET_LINKS: LockRank = LockRank::new(73, "net.links");
/// A link's read half (decoder + channel routing); pumping the read half
/// flushes the write half, so `net.rin` orders before `net.out`.
pub const NET_RIN: LockRank = LockRank::new(74, "net.rin");
/// A link's write half (encoder + wire queue).
pub const NET_OUT: LockRank = LockRank::new(76, "net.out");
/// A link's direct-delivery inject queue (fed under the *twin's*
/// `net.out` by the flush path).
pub const NET_INJ: LockRank = LockRank::new(78, "net.inj");
/// The process-wide read-hint directory (§12); the innermost lock.
pub const NET_LINK_DIR: LockRank = LockRank::new(79, "net.link_dir");
