//! The four workloads, and what one repetition of each measures.
//!
//! A repetition builds and loads its store(s), drives them, checks the
//! simulated outcome and digests it. With `traced` set, every driver run
//! goes through the [`Timed`] adapter and the repetition also tallies the
//! per-layer counts and times of [`Tally`].

use std::fmt::Debug;
use std::time::Instant;

use audit::{check_key, check_sessions, key_ops, staleness, PhaseWindow, Verdict};
use bench_core::audit_experiment::{AuditCell, AuditExperimentConfig, PhaseAudit};
use bench_core::consistency::PAPER_LEVELS;
use bench_core::failure::HSTORE_CL;
use bench_core::setup::{
    build_cstore, build_cstore_with, build_hstore, build_hstore_with, Scale, StoreKind,
};
use bench_core::{driver, BasePool, DriverConfig, RunOutcome, SimStore, Sweep};
use cstore::Consistency;
use faults::{FaultPlan, FaultTarget};
use simkit::NodeId;
use storage::{LsmTree, OpKind};
use ycsb::WorkloadSpec;

use crate::alloc;
use crate::digest::Digest;
use crate::tally::Tally;
use crate::timed::{Profile, Timed};

/// The seed whose digests are pinned in [`Workload::pinned_digest`].
pub const DEFAULT_SEED: u64 = 42;

/// Sweep workers of `failover-audit` (the 2-core reference host's `nproc`).
pub const AUDIT_WORKERS: usize = 2;

/// The version timestamp `driver::load` gives every record: the register's
/// initial state for the linearizability checker.
const PRELOAD_TS: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// cstore RF 3 QUORUM, YCSB-A at stress scale: event-core bound.
    PointQuorum,
    /// hstore RF 3, 100 % inserts onto the loaded stress-scale store: the
    /// storage write path (WAL groups, flushes, compactions, dfs).
    HstoreLoad,
    /// cstore RF 3 QUORUM, YCSB-E at micro scale: storage-read bound.
    ScanCold,
    /// The fig8 grid under the crash plan: faults, hint replay, failover,
    /// audit recording and checkers, the sweep engine with base pooling.
    FailoverAudit,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::PointQuorum,
        Workload::HstoreLoad,
        Workload::ScanCold,
        Workload::FailoverAudit,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointQuorum => "cstore-point-quorum",
            Workload::HstoreLoad => "hstore-load",
            Workload::ScanCold => "cstore-scan-cold",
            Workload::FailoverAudit => "failover-audit",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digest hash of this workload's outcome at [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::PointQuorum => 0x8a26_20d7_2d84_2f15,
            Workload::HstoreLoad => 0x8e4d_d33e_97f0_2a60,
            Workload::ScanCold => 0xbade_4138_2f9a_1223,
            Workload::FailoverAudit => 0x7721_787f_1409_f124,
        }
    }

    /// Run one repetition at `seed`.
    pub fn run(self, seed: u64, traced: bool) -> Rep {
        match self {
            Workload::PointQuorum => single(
                Scale::stress(),
                cstore_rf3_quorum,
                closed_loop(
                    WorkloadSpec::ycsb_a(),
                    &Scale::stress(),
                    4_000,
                    146_000,
                    seed,
                ),
                traced,
            ),
            Workload::HstoreLoad => single(
                Scale::stress(),
                |s| build_hstore(s, 3),
                closed_loop(
                    WorkloadSpec::micro(OpKind::Insert),
                    &Scale::stress(),
                    4_000,
                    292_000,
                    seed,
                ),
                traced,
            ),
            Workload::ScanCold => single(
                Scale::micro(),
                cstore_rf3_quorum,
                closed_loop(WorkloadSpec::ycsb_e(), &Scale::micro(), 1_000, 29_000, seed),
                traced,
            ),
            Workload::FailoverAudit => {
                let cfg = AuditExperimentConfig {
                    seed,
                    ..AuditExperimentConfig::default()
                };
                compose_audit(&cfg, &Sweep::new().with_threads(AUDIT_WORKERS), traced).1
            }
        }
    }
}

fn cstore_rf3_quorum(scale: &Scale) -> cstore::Cluster {
    build_cstore(scale, 3, Consistency::Quorum, Consistency::Quorum)
}

/// A closed-loop, unthrottled run with 32 clients.
fn closed_loop(
    workload: WorkloadSpec,
    scale: &Scale,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> DriverConfig {
    DriverConfig {
        threads: 32,
        value_len: scale.value_len,
        warmup_ops,
        measure_ops,
        seed,
        ..DriverConfig::new(workload, scale.records)
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall nanoseconds building, loading, flushing and warming stores.
    pub setup_ns: u64,
    /// Wall nanoseconds inside `driver::run`, summed over runs.
    pub run_ns: u64,
    /// Simulated client operations requested (warm-up included).
    pub attempted: u64,
    /// Of those, operations that settled as a client error.
    pub failed: u64,
    /// The simulated outcome.
    pub digest: Digest,
    /// Failed invariant checks; empty when the repetition is correct.
    pub problems: Vec<String>,
    /// Per-layer raw counts and times (traced repetitions only).
    pub tally: Tally,
}

impl Rep {
    /// Fold another repetition part (a sweep cell) into this one.
    fn merge(&mut self, other: Rep) {
        self.setup_ns += other.setup_ns;
        self.run_ns += other.run_ns;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.digest.extend(&other.digest);
        self.problems.extend(other.problems);
        self.tally.merge(&other.tally);
    }

    /// Drive `store` once under `cfg`, check the run's invariants, digest
    /// its outcome under `label`, and tally its layers.
    fn drive<S>(&mut self, label: &str, store: S, cfg: &DriverConfig, traced: bool) -> RunOutcome
    where
        S: SimStore + FaultTarget<Event = <S as SimStore>::Event> + Inspect,
        <S as SimStore>::Event: Debug,
    {
        let store_name = store.name();
        let before = store.storage();
        let counters_before = store.counters();
        let (out, after, profile, run_ns, allocs) = if traced {
            let mut timed = Timed::new(store);
            let a0 = alloc::thread_counts();
            let t = Instant::now();
            let out = driver::run(&mut timed, cfg);
            let run_ns = elapsed_ns(t);
            let a1 = alloc::thread_counts();
            let after = timed.inner().storage();
            let profile = timed.profile().clone();
            (out, after, profile, run_ns, (a1.0 - a0.0, a1.1 - a0.1))
        } else {
            let mut store = store;
            let t = Instant::now();
            let out = driver::run(&mut store, cfg);
            let run_ns = elapsed_ns(t);
            (out, store.storage(), Profile::default(), run_ns, (0, 0))
        };

        let requested = cfg.warmup_ops + cfg.measure_ops;
        let m = &out.metrics;
        let settled = cfg.warmup_ops + m.ops() + m.errors();
        if out.unsettled_ops != 0 {
            self.problems
                .push(format!("{label}: {} ops unsettled", out.unsettled_ops));
        }
        if settled != requested {
            self.problems.push(format!(
                "{label}: {settled} ops settled, {requested} requested"
            ));
        }
        let r = m.resilience();
        let ok = r.first_try_ok + r.retried_ok;
        let failed = requested.saturating_sub(ok);
        self.attempted += requested;
        self.failed += failed;
        self.run_ns += run_ns;

        digest_run(&mut self.digest, label, &out);

        if traced {
            let delta = |name: &str| counter(&out.counters, name) - counter(&counters_before, name);
            let records = cfg.records + (cfg.workload.mix.insert * requested as f64).round() as u64;
            let record_bytes = (ycsb::encode_key(0).len() + cfg.value_len) as u64;
            let t = &mut self.tally;
            t.ops += requested;
            t.events += out.events_dispatched;
            t.run_ns += run_ns;
            t.store_mut(store_name).absorb(requested, &profile);
            t.cache_hits += after.hits - before.hits;
            t.cache_misses += after.misses - before.misses;
            t.evictions += after.evictions - before.evictions;
            t.flushes += delta("flushes");
            t.compactions += delta("compactions");
            t.sstables += after.sstables;
            t.table_bytes += after.table_bytes;
            t.dfs_bytes += after.dfs_bytes;
            t.user_bytes += records * record_bytes;
            if after.dfs_bytes > 0 {
                t.dfs_user_bytes += records * record_bytes;
            }
            t.wal_groups += delta("wal_groups");
            t.wal_entries += delta("wal_entries");
            t.hints_replayed += delta("hints_replayed");
            t.faults += out.faults_injected;
            t.allocs += allocs.0;
            t.alloc_bytes += allocs.1;
        }
        out
    }
}

fn counter(pairs: &[(&'static str, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| *v)
}

/// Digest one run's simulated outcome under `label`.
pub fn digest_run(d: &mut Digest, label: &str, out: &RunOutcome) {
    let m = &out.metrics;
    let r = m.resilience();
    d.line(format!("{label}events"), out.events_dispatched);
    d.line(format!("{label}ok"), r.first_try_ok + r.retried_ok);
    d.line(format!("{label}errors"), m.errors());
    d.line(format!("{label}unsettled"), out.unsettled_ops);
    d.line(format!("{label}sim_duration_us"), out.sim_duration_us);
    d.line(
        format!("{label}sim_throughput"),
        format!("{:.3}", out.throughput),
    );
    for (kind, h) in m.per_op() {
        d.line(
            format!("{label}{kind:?}"),
            format!("n={} p50={} p99={}", h.count(), h.p50(), h.p99()),
        );
    }
    let (stale, checked) = m.staleness();
    d.line(format!("{label}stale"), format!("{stale}/{checked}"));
    d.line(format!("{label}missing"), m.missing_reads());
    d.line(format!("{label}faults"), out.faults_injected);
    for (k, v) in &out.counters {
        d.line(format!("{label}{k}"), v);
    }
}

/// Storage-engine state read from outside a store.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageStats {
    /// Block-cache hits, summed over storage engines.
    pub hits: u64,
    /// Block-cache misses.
    pub misses: u64,
    /// Block-cache evictions.
    pub evictions: u64,
    /// Sorted runs on disk.
    pub sstables: u64,
    /// Bytes in sorted runs.
    pub table_bytes: u64,
    /// Bytes held by the distributed file system's data nodes (hstore).
    pub dfs_bytes: u64,
}

impl StorageStats {
    fn of<'a>(trees: impl Iterator<Item = &'a LsmTree>) -> Self {
        trees.fold(Self::default(), |mut s, lsm| {
            let c = lsm.cache_stats();
            s.hits += c.hits;
            s.misses += c.misses;
            s.evictions += c.evictions;
            s.sstables += lsm.table_count() as u64;
            s.table_bytes += lsm.table_bytes();
            s
        })
    }
}

/// Read a store's storage state from outside: `CNode::lsm`,
/// `Region::lsm` and `DfsCluster::node_used_bytes`.
pub trait Inspect {
    /// The store's storage state now.
    fn storage(&self) -> StorageStats;
}

impl Inspect for cstore::Cluster {
    fn storage(&self) -> StorageStats {
        StorageStats::of((0..self.len()).map(|i| &self.node(NodeId(i as u32)).lsm))
    }
}

impl Inspect for hstore::Cluster {
    fn storage(&self) -> StorageStats {
        StorageStats {
            dfs_bytes: self.fs().node_used_bytes().iter().sum(),
            ..StorageStats::of(self.regions().iter().map(|r| &r.lsm))
        }
    }
}

/// One store, one run: build and load (timed as setup), then drive.
fn single<S>(scale: Scale, build: impl FnOnce(&Scale) -> S, cfg: DriverConfig, traced: bool) -> Rep
where
    S: SimStore + FaultTarget<Event = <S as SimStore>::Event> + Inspect,
    <S as SimStore>::Event: Debug,
{
    let mut rep = Rep::default();
    let t = Instant::now();
    let mut store = build(&scale);
    driver::load(&mut store, scale.records, scale.value_len, cfg.seed);
    rep.setup_ns = elapsed_ns(t);
    rep.drive("", store, &cfg, traced);
    rep
}

/// The fig8 grid, composed from the public calls fig8's cell makes —
/// the builders, `driver::load`, [`BasePool`], `driver::run` and the
/// `audit` checkers — so that base loads, driver runs and audit checks are
/// each timed. Returns the cells, sorted as fig8 sorts them, and the
/// repetition they add up to.
pub fn compose_audit(
    cfg: &AuditExperimentConfig,
    sweep: &Sweep,
    traced: bool,
) -> (Vec<AuditCell>, Rep) {
    let specs: Vec<(StoreKind, u32, usize)> = cfg
        .rfs
        .iter()
        .flat_map(|&rf| {
            std::iter::once((StoreKind::HStore, rf, 0))
                .chain((0..PAPER_LEVELS.len()).map(move |l| (StoreKind::CStore, rf, l)))
        })
        .collect();
    let hpool: BasePool<u32, hstore::Cluster> = BasePool::new(cfg.rfs.iter().copied());
    let cpool: BasePool<(u32, usize), cstore::Cluster> = BasePool::new(
        cfg.rfs
            .iter()
            .flat_map(|&rf| (0..PAPER_LEVELS.len()).map(move |l| (rf, l))),
    );
    let phases = cfg.phases();

    let outcome = sweep.run(cfg.seed, &specs, |ctx, &(store, rf, l)| {
        let dcfg = DriverConfig {
            workload: cfg.workload.clone(),
            threads: cfg.threads,
            target_ops_per_sec: cfg.target_ops_per_sec,
            records: cfg.scale.records,
            value_len: cfg.scale.value_len,
            warmup_ops: cfg.warmup_ops,
            measure_ops: cfg.measure_ops,
            seed: ctx.seed,
            faults: FaultPlan::new().crash_window(cfg.victim, cfg.crash_at_us, cfg.recover_at_us),
            timeline_window_us: 0,
            retry: bench_core::RetryPolicy::none(),
            trace: obs::TraceConfig::off(),
            audit: audit::AuditConfig::all(),
            arrival: bench_core::ArrivalMode::ClosedLoop,
        };
        let mut rep = Rep::default();
        let mut setup_ns = 0;
        let cl = if store == StoreKind::HStore {
            HSTORE_CL
        } else {
            PAPER_LEVELS[l].name
        };
        let label = format!("{}/{rf}/{cl}.", store.short());
        let out = match store {
            StoreKind::HStore => {
                let base = hpool.get_or_load(&rf, || {
                    let t = Instant::now();
                    let mut base = build_hstore_with(&cfg.scale, rf, |c| {
                        c.rpc_timeout_us = cfg.rpc_timeout_us;
                        c.failover_delay_us = cfg.failover_delay_us;
                    });
                    driver::load(&mut base, cfg.scale.records, cfg.scale.value_len, cfg.seed);
                    setup_ns = elapsed_ns(t);
                    base
                });
                rep.drive(&label, base.snapshot(), &dcfg, traced)
            }
            StoreKind::CStore => {
                let level = PAPER_LEVELS[l];
                let base = cpool.get_or_load(&(rf, l), || {
                    let t = Instant::now();
                    let mut base =
                        build_cstore_with(&cfg.scale, rf, level.read, level.write, |c| {
                            c.rpc_timeout_us = cfg.rpc_timeout_us;
                        });
                    driver::load(&mut base, cfg.scale.records, cfg.scale.value_len, cfg.seed);
                    setup_ns = elapsed_ns(t);
                    base
                });
                rep.drive(&label, base.snapshot(), &dcfg, traced)
            }
        };
        rep.setup_ns = setup_ns;
        rep.tally.load_ns = setup_ns;

        let t = Instant::now();
        let history = out.audit.clone().unwrap_or_default();
        // Replaying the recorded history must reproduce the live tracker's
        // accounting exactly.
        let replay = history.stale_counts();
        let (tracker_stale, tracker_checked) = out.metrics.staleness();
        let tracker_missing = out.metrics.missing_reads();
        if (replay.stale, replay.checked, replay.missing)
            != (tracker_stale, tracker_checked, tracker_missing)
        {
            rep.problems.push(format!(
                "{label} history replay disagrees with the staleness tracker"
            ));
        }
        let (audits, linearizable, lin_keys_checked) = audit_history(
            &history,
            &phases,
            &cfg.deltas_us,
            cfg.lin_keys,
            cfg.lin_budget,
        );
        rep.tally.audit_check_ns += elapsed_ns(t);
        rep.tally.audit_records += history.len() as u64;
        for p in &audits {
            rep.digest
                .line(format!("{label}{}", p.phase), format!("{p:?}"));
        }
        rep.digest
            .line(format!("{label}linearizable"), linearizable.label());
        rep.digest
            .line(format!("{label}lin_keys_checked"), lin_keys_checked);
        let cell = AuditCell {
            store,
            rf,
            cl,
            phases: audits,
            linearizable,
            lin_keys_checked,
            tracker_stale,
            tracker_checked,
            tracker_missing,
            faults_injected: out.faults_injected,
        };
        (cell, rep)
    });

    let mut telemetry = outcome.telemetry;
    telemetry.record_pool(&hpool);
    telemetry.record_pool(&cpool);
    let mut parts = outcome.results;
    parts.sort_by(|(a, _), (b, _)| {
        (a.store.short(), a.rf, a.cl).cmp(&(b.store.short(), b.rf, b.cl))
    });
    let mut rep = Rep::default();
    let mut cells = Vec::with_capacity(parts.len());
    for (cell, part) in parts {
        cells.push(cell);
        rep.merge(part);
    }
    rep.tally.sweep = Some(telemetry);
    (cells, rep)
}

/// Audit one run's recorded history into per-phase summaries plus the
/// linearizability verdict over its hottest keys.
fn audit_history(
    history: &audit::History,
    phases: &[PhaseWindow],
    deltas_us: &[u64],
    lin_keys: usize,
    lin_budget: u64,
) -> (Vec<PhaseAudit>, Verdict, usize) {
    let counts = check_sessions(history, phases);
    let margins = staleness::margins(history, phases);
    let audits = phases
        .iter()
        .zip(counts)
        .zip(&margins)
        .map(|((w, counts), m)| PhaseAudit {
            phase: w.label,
            counts,
            margin_p50_us: staleness::quantile(m, 0.50),
            margin_p95_us: staleness::quantile(m, 0.95),
            margin_p99_us: staleness::quantile(m, 0.99),
            margin_max_us: m.iter().copied().max().unwrap_or(0),
            curve: staleness::curve(m, deltas_us),
        })
        .collect();
    let keys: Vec<_> = history
        .keys_by_activity()
        .into_iter()
        .take(lin_keys)
        .collect();
    let mut verdict = Verdict::Linearizable;
    for key in &keys {
        let v = match key_ops(history, key) {
            Some(ops) => check_key(&ops, Some(PRELOAD_TS), lin_budget),
            None => Verdict::Inconclusive,
        };
        match v {
            Verdict::Violation => {
                verdict = Verdict::Violation;
                break;
            }
            Verdict::Inconclusive => verdict = Verdict::Inconclusive,
            Verdict::Linearizable => {}
        }
    }
    (audits, verdict, keys.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::check_pinned;
    use crate::tally::{CSTORE_KINDS, HSTORE_KINDS};
    use bench_core::audit_experiment::run_audit_with;

    /// A tiny closed-loop run of YCSB-A under the crash plan.
    fn crash_cfg(scale: &Scale) -> DriverConfig {
        DriverConfig {
            threads: 8,
            warmup_ops: 200,
            measure_ops: 3_000,
            value_len: scale.value_len,
            faults: FaultPlan::new().crash_window(NodeId(0), 50_000, 150_000),
            ..DriverConfig::new(WorkloadSpec::ycsb_a(), scale.records)
        }
    }

    fn bare_and_timed<S>(store: S, kinds: &[&str])
    where
        S: SimStore + FaultTarget<Event = <S as SimStore>::Event> + Inspect,
        <S as SimStore>::Event: Debug,
    {
        let cfg = crash_cfg(&Scale::tiny());
        let mut bare = Rep::default();
        let mut timed = Rep::default();
        let a = bare.drive("", store.snapshot(), &cfg, false);
        let b = timed.drive("", store, &cfg, true);
        assert_eq!(a.faults_injected, 2, "the crash plan ran");
        assert!(bare.problems.is_empty(), "{:?}", bare.problems);
        assert_eq!(bare.digest, timed.digest, "the adapter changed the outcome");
        assert_eq!(a.events_dispatched, b.events_dispatched);
        // Every dispatched store event went through the adapter, under a
        // kind the per-layer metrics name.
        let t = &timed.tally;
        let layer = if t.hstore.ops > 0 {
            &t.hstore
        } else {
            &t.cstore
        };
        assert_eq!(layer.ops, cfg.warmup_ops + cfg.measure_ops);
        assert!(layer.profile.handled() > 0);
        for (name, _) in &layer.profile.kinds {
            assert!(kinds.contains(&name.as_str()), "unnamed event kind {name}");
        }
        assert!(t.store_ns() <= t.run_ns, "store calls exceed the run");
    }

    #[test]
    fn timed_adapter_is_transparent_for_cstore_under_a_crash_plan() {
        let scale = Scale::tiny();
        let mut store = build_cstore(&scale, 3, Consistency::Quorum, Consistency::Quorum);
        driver::load(&mut store, scale.records, scale.value_len, 1);
        bare_and_timed(store, &CSTORE_KINDS);
    }

    #[test]
    fn timed_adapter_is_transparent_for_hstore_under_a_crash_plan() {
        let scale = Scale::tiny();
        let mut store = build_hstore(&scale, 3);
        driver::load(&mut store, scale.records, scale.value_len, 1);
        bare_and_timed(store, &HSTORE_KINDS);
    }

    #[test]
    fn a_perturbed_outcome_fails_the_digest_check() {
        let scale = Scale::tiny();
        let mut store = build_cstore(&scale, 3, Consistency::One, Consistency::One);
        driver::load(&mut store, scale.records, scale.value_len, 1);
        let out = driver::run(&mut store.snapshot(), &crash_cfg(&scale));
        let digest = |out: &RunOutcome| {
            let mut d = Digest::default();
            digest_run(&mut d, "", out);
            d
        };
        let reference = digest(&out);
        assert_eq!(
            reference,
            digest(&driver::run(&mut store, &crash_cfg(&scale)))
        );

        let mut perturbed = vec![out.clone(), out.clone(), out.clone()];
        perturbed[0].events_dispatched += 1;
        perturbed[1].counters[0].1 += 1;
        perturbed[2].metrics.record(OpKind::Read, 1);
        for p in &perturbed {
            assert_ne!(digest(p), reference);
        }

        // The pinned check: only the pinned hash passes, at the default
        // seed only.
        let w = Workload::PointQuorum;
        assert!(check_pinned(w, DEFAULT_SEED, &reference).is_some());
        assert!(check_pinned(w, DEFAULT_SEED + 1, &reference).is_none());
    }

    #[test]
    fn composed_audit_cells_equal_fig8() {
        let cfg = AuditExperimentConfig::quick();
        let sweep = Sweep::new().with_threads(AUDIT_WORKERS);
        let fig8 = format!("{:?}", run_audit_with(&cfg, &sweep).cells);
        for traced in [false, true] {
            let (cells, rep) = compose_audit(&cfg, &sweep, traced);
            assert!(rep.problems.is_empty(), "{:?}", rep.problems);
            assert_eq!(format!("{cells:?}"), fig8, "traced={traced}");
            assert_eq!(rep.tally.sweep.as_ref().map(|t| t.base_loads), Some(12));
        }
    }
}
