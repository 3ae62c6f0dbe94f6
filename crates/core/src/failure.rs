//! Figure 4: the failure-timeline experiment — crash/recover under load.
//!
//! The paper benchmarks replication and consistency strategies under
//! steady state; this experiment extends the methodology to the failure
//! case those strategies exist for. A constant-rate workload runs while a
//! declarative [`FaultPlan`] crashes one node at a virtual time and brings
//! it back later. Per-window timeline metrics expose the three phases the
//! availability literature (Pokluda et al., and the paper's §6 future
//! work) cares about: throughput before the fault, the dip and error
//! spike while the node is down, and how fully throughput recovers after
//! the node returns.
//!
//! Both stores run the identical plan: the HBase analog pays a detection
//! window (ZooKeeper-style failover delay) during which requests to the
//! victim's regions fail fast, then region movement plus WAL replay; the
//! Cassandra analog degrades per consistency level — CL=ONE mostly rides
//! through, write-ALL refuses writes on every range replicated on the
//! victim until it returns.
//!
//! Fig. 8 audits the same crash grid: [`run_crash_grid_with`] runs every
//! cell once with both the timeline and the audit history recording (both
//! probes are pure bookkeeping, so neither perturbs the run), and
//! [`FailureResult`] and [`AuditResult`] are its two projections.

use faults::FaultPlan;
use simkit::NodeId;
use ycsb::{TimelineWindow, WorkloadSpec};

use crate::audit_experiment::{audit_cell, AuditResult};
use crate::driver::{DriverConfig, RunOutcome};
use crate::report::{fmt_ops, Table};
use crate::runner::{paper_grid, Point, Runner, Store};
use crate::setup::{Scale, StoreKind};
use crate::sweep::{Sweep, Telemetry};

/// The consistency label used for the HBase analog, which has no
/// consistency knob (HBase is always strongly consistent).
pub const HSTORE_CL: &str = "strong";

/// Configuration of the crash grid behind Fig. 4 and Fig. 8: both stores
/// over RF × consistency level, a constant-rate workload, and one node
/// crashing and recovering mid-run.
#[derive(Debug, Clone)]
pub struct CrashGridConfig {
    /// Record/cache scale.
    pub scale: Scale,
    /// Replication factors to sweep.
    pub rfs: Vec<u32>,
    /// Client threads.
    pub threads: usize,
    /// Cluster-wide target throughput; constant-rate so the timeline dip
    /// measures the store, not the load generator.
    pub target_ops_per_sec: f64,
    /// Warm-up completions.
    pub warmup_ops: u64,
    /// Measured completions.
    pub measure_ops: u64,
    /// Virtual time at which the victim crashes, µs from sim start.
    pub crash_at_us: u64,
    /// Virtual time at which the victim comes back, µs from sim start.
    pub recover_at_us: u64,
    /// Timeline bucket width, µs.
    pub window_us: u64,
    /// Client RPC timeout applied to both stores; short enough that an
    /// in-flight request stranded on the victim resolves within a couple
    /// of timeline windows.
    pub rpc_timeout_us: u64,
    /// HBase-analog failure-detection window (ZooKeeper session expiry +
    /// master reaction) between the crash and the region failover.
    pub failover_delay_us: u64,
    /// The node that crashes.
    pub victim: NodeId,
    /// The workload under which the failure happens.
    pub workload: WorkloadSpec,
    /// Seed.
    pub seed: u64,
    /// The Δ grid (µs) for Fig. 8's (Δ,p)-staleness columns.
    pub deltas_us: Vec<u64>,
    /// How many of the hottest keys get the linearizability check.
    pub lin_keys: usize,
    /// Search-node budget per checked key.
    pub lin_budget: u64,
}

/// Configuration of the Fig. 4 experiment: the crash grid.
pub type FailureConfig = CrashGridConfig;

impl Default for CrashGridConfig {
    fn default() -> Self {
        Self {
            scale: Scale::stress(),
            rfs: vec![1, 3, 5],
            threads: 48,
            target_ops_per_sec: 3_000.0,
            warmup_ops: 2_000,
            measure_ops: 40_000,
            crash_at_us: 4_000_000,
            recover_at_us: 9_000_000,
            window_us: 250_000,
            rpc_timeout_us: 250_000,
            failover_delay_us: 2_000_000,
            victim: NodeId(0),
            workload: WorkloadSpec::read_update(),
            seed: 42,
            deltas_us: vec![0, 1_000, 10_000, 100_000, 1_000_000],
            lin_keys: 8,
            lin_budget: 500_000,
        }
    }
}

impl CrashGridConfig {
    /// A fast variant for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            threads: 8,
            target_ops_per_sec: 2_000.0,
            warmup_ops: 400,
            measure_ops: 5_600,
            crash_at_us: 900_000,
            recover_at_us: 1_800_000,
            window_us: 150_000,
            rpc_timeout_us: 120_000,
            failover_delay_us: 300_000,
            lin_keys: 4,
            lin_budget: 200_000,
            ..Self::default()
        }
    }
}

/// One (store, RF, consistency) failure timeline with its phase summary.
#[derive(Debug, Clone)]
pub struct FailureCell {
    /// Which store.
    pub store: StoreKind,
    /// Replication factor.
    pub rf: u32,
    /// Consistency strategy name ([`HSTORE_CL`] for the HBase analog).
    pub cl: &'static str,
    /// Mean throughput over full windows before the crash, ops/s.
    pub pre_tput: f64,
    /// Mean throughput over windows inside the crash window, ops/s.
    pub fault_tput: f64,
    /// Worst single-window throughput inside the crash window, ops/s.
    pub fault_min_tput: f64,
    /// Errors accumulated inside the crash window.
    pub fault_errors: u64,
    /// Mean throughput after recovery settles, ops/s.
    pub post_tput: f64,
    /// Fault events the injector applied (crash + recover = 2).
    pub faults_injected: u64,
    /// The full per-window timeline.
    pub windows: Vec<TimelineWindow>,
}

/// The full Fig. 4 result.
#[derive(Debug, Clone)]
pub struct FailureResult {
    /// All measured cells.
    pub cells: Vec<FailureCell>,
    /// Crash time, µs (for rendering).
    pub crash_at_us: u64,
    /// Recovery time, µs (for rendering).
    pub recover_at_us: u64,
    /// Workload name (for rendering).
    pub workload: String,
    /// What the sweep cost (wall time, utilization, base loads).
    pub telemetry: Telemetry,
}

/// Split a timeline into the `[pre, fault, post]` phases of one crash
/// window:
///
/// * *pre* — full windows ending at or before the crash, skipping the
///   first window (thread-stagger ramp) when more than one qualifies;
/// * *fault* — windows starting inside `[crash_at, recover_at)`;
/// * *post* — windows starting at least one full window after recovery
///   (the recovery transient — hint replay, cache refill — belongs to
///   neither phase), excluding the final window, which the end of the
///   run truncates.
pub(crate) fn split_phases(
    windows: &[TimelineWindow],
    crash_at: u64,
    recover_at: u64,
    window_us: u64,
) -> [Vec<&TimelineWindow>; 3] {
    let mut pre: Vec<&TimelineWindow> = windows.iter().filter(|w| w.end_us <= crash_at).collect();
    if pre.len() > 1 {
        pre.remove(0);
    }
    let fault = windows
        .iter()
        .filter(|w| w.start_us >= crash_at && w.start_us < recover_at)
        .collect();
    let last_start = windows.last().map_or(0, |w| w.start_us);
    let post = windows
        .iter()
        .filter(|w| w.start_us >= recover_at + window_us && w.start_us < last_start)
        .collect();
    [pre, fault, post]
}

/// Mean of `f` over a phase's windows (0 for an empty phase).
pub(crate) fn phase_mean(ws: &[&TimelineWindow], f: impl Fn(&TimelineWindow) -> f64) -> f64 {
    if ws.is_empty() {
        0.0
    } else {
        ws.iter().map(|w| f(w)).sum::<f64>() / ws.len() as f64
    }
}

impl FailureResult {
    /// The cell for a specific point.
    pub fn cell(&self, store: StoreKind, rf: u32, cl: &str) -> Option<&FailureCell> {
        self.cells
            .iter()
            .find(|c| c.store == store && c.rf == rf && c.cl == cl)
    }

    /// Render the phase-summary table — one row per (store, RF, CL) with
    /// pre/fault/post throughput, the worst fault window, the error
    /// spike, and how fully throughput recovered.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            &format!(
                "Fig. 4 — failure timeline: crash t={:.1}s, recover t={:.1}s ({})",
                self.crash_at_us as f64 / 1e6,
                self.recover_at_us as f64 / 1e6,
                self.workload,
            ),
            &[
                "store",
                "rf",
                "cl",
                "pre tput",
                "fault tput",
                "fault min",
                "fault errors",
                "post tput",
                "recovery",
            ],
        );
        for c in &self.cells {
            let recovery = if c.pre_tput > 0.0 {
                format!("{:.0}%", c.post_tput / c.pre_tput * 100.0)
            } else {
                "-".to_owned()
            };
            t.row(vec![
                c.store.short().into(),
                c.rf.to_string(),
                c.cl.into(),
                fmt_ops(c.pre_tput),
                fmt_ops(c.fault_tput),
                fmt_ops(c.fault_min_tput),
                c.fault_errors.to_string(),
                fmt_ops(c.post_tput),
                recovery,
            ]);
        }
        t.render()
    }

    /// CSV table: one row per timeline window per cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "fig4_failure",
            &[
                "store",
                "rf",
                "cl",
                "window_start_us",
                "ops",
                "ops_per_sec",
                "mean_us",
                "p95_us",
                "p99_us",
                "errors",
            ],
        );
        for c in &self.cells {
            for w in &c.windows {
                t.row(vec![
                    c.store.short().into(),
                    c.rf.to_string(),
                    c.cl.into(),
                    w.start_us.to_string(),
                    w.ops.to_string(),
                    format!("{:.1}", w.ops_per_sec),
                    format!("{:.1}", w.mean_us),
                    w.p95_us.to_string(),
                    w.p99_us.to_string(),
                    w.errors.to_string(),
                ]);
            }
        }
        t
    }
}

/// Build `p` with the crash plan's client RPC timeout (both stores) and
/// failure-detection window (HBase analog).
pub(crate) fn build_crashable(
    p: Point,
    scale: &Scale,
    rpc_timeout_us: u64,
    failover_delay_us: u64,
) -> Store {
    Store::build_with(
        p,
        scale,
        |h| {
            h.rpc_timeout_us = rpc_timeout_us;
            h.failover_delay_us = failover_delay_us;
        },
        |c| c.rpc_timeout_us = rpc_timeout_us,
    )
}

/// Reduce one crash-grid run to its Fig. 4 timeline and phase summary.
fn failure_cell(cfg: &CrashGridConfig, p: Point, out: &RunOutcome) -> FailureCell {
    let windows = out
        .metrics
        .timeline()
        .map(|t| t.windows())
        .unwrap_or_default();
    let [pre, fault, post] =
        split_phases(&windows, cfg.crash_at_us, cfg.recover_at_us, cfg.window_us);
    let ops_per_sec = |w: &TimelineWindow| w.ops_per_sec;
    FailureCell {
        store: p.store,
        rf: p.rf,
        cl: p.cl(),
        pre_tput: phase_mean(&pre, ops_per_sec),
        fault_tput: phase_mean(&fault, ops_per_sec),
        fault_min_tput: if fault.is_empty() {
            0.0
        } else {
            fault
                .iter()
                .map(|w| w.ops_per_sec)
                .fold(f64::INFINITY, f64::min)
        },
        fault_errors: fault.iter().map(|w| w.errors).sum(),
        post_tput: phase_mean(&post, ops_per_sec),
        faults_injected: out.faults_injected,
        windows,
    }
}

/// Run the crash grid once per (store, RF, consistency level) cell, with
/// the timeline and the audit history both recording, and project it into
/// the Fig. 4 and Fig. 8 results.
pub fn run_crash_grid_with(cfg: &CrashGridConfig, sweep: &Sweep) -> (FailureResult, AuditResult) {
    // The HBase analog has a single implicit level; the Cassandra analog
    // sweeps the paper's three. Consistency is baked into the cstore
    // config, so each cell gets its own loaded base.
    let specs = paper_grid(&cfg.rfs);
    let runner = Runner::new(&cfg.scale, cfg.seed, specs.iter().copied());
    let phases = cfg.phases();

    let outcome = runner.sweep(sweep, &specs, |ctx, &p| {
        let dcfg = DriverConfig {
            threads: cfg.threads,
            target_ops_per_sec: cfg.target_ops_per_sec,
            value_len: cfg.scale.value_len,
            warmup_ops: cfg.warmup_ops,
            measure_ops: cfg.measure_ops,
            seed: ctx.seed,
            faults: FaultPlan::new().crash_window(cfg.victim, cfg.crash_at_us, cfg.recover_at_us),
            timeline_window_us: cfg.window_us,
            // The paper's fair-weather client (no retries): what the client
            // sees without resilience machinery in the way. Fig. 5 reruns
            // this plan under real retry policies.
            audit: audit::AuditConfig::all(),
            ..DriverConfig::new(cfg.workload.clone(), cfg.scale.records)
        };
        let build = || build_crashable(p, &cfg.scale, cfg.rpc_timeout_us, cfg.failover_delay_us);
        let (out, _) = runner.run(&p, build, &dcfg);
        (
            failure_cell(cfg, p, &out),
            audit_cell(cfg, p, &out, &phases),
        )
    });

    let mut cells = outcome.results;
    cells.sort_by(|(a, _), (b, _)| {
        (a.store.short(), a.rf, a.cl).cmp(&(b.store.short(), b.rf, b.cl))
    });
    let (failure, audit): (Vec<FailureCell>, _) = cells.into_iter().unzip();
    (
        FailureResult {
            cells: failure,
            crash_at_us: cfg.crash_at_us,
            recover_at_us: cfg.recover_at_us,
            workload: cfg.workload.name.clone(),
            telemetry: outcome.telemetry.clone(),
        },
        AuditResult {
            cells: audit,
            crash_at_us: cfg.crash_at_us,
            recover_at_us: cfg.recover_at_us,
            deltas_us: cfg.deltas_us.clone(),
            workload: cfg.workload.name.clone(),
            telemetry: outcome.telemetry,
        },
    )
}

/// Run the full Fig. 4 experiment through the sweep engine.
pub fn run_failure(cfg: &FailureConfig) -> FailureResult {
    run_failure_with(cfg, &Sweep::from_env())
}

/// [`run_failure`] on a caller-configured engine: the Fig. 4 projection of
/// [`run_crash_grid_with`].
pub fn run_failure_with(cfg: &FailureConfig, sweep: &Sweep) -> FailureResult {
    run_crash_grid_with(cfg, sweep).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_failure_produces_all_cells() {
        let cfg = FailureConfig::quick();
        let res = run_failure(&cfg);
        // 3 RFs × (1 hstore level + 3 cstore levels).
        assert_eq!(res.cells.len(), 12);
        for c in &res.cells {
            assert_eq!(c.faults_injected, 2, "{}/{}/{}", c.store, c.rf, c.cl);
            assert!(!c.windows.is_empty());
            assert!(c.pre_tput > 0.0, "{}/{}/{}", c.store, c.rf, c.cl);
        }
        let rendered = res.render();
        assert!(rendered.contains("Fig. 4"));
        assert!(rendered.contains("strong"));
        // The CSV has one row per window per cell.
        let total_windows: usize = res.cells.iter().map(|c| c.windows.len()).sum();
        assert_eq!(res.table().rows.len(), total_windows);
    }

    #[test]
    fn rf3_dips_and_recovers_for_both_stores() {
        let cfg = FailureConfig::quick();
        let res = run_failure(&cfg);
        // The acceptance shape: at RF=3 both stores show a throughput dip
        // and an error spike inside the crash window, then recover to
        // within 10% of the pre-fault throughput.
        for (store, cl) in [
            (StoreKind::HStore, HSTORE_CL),
            (StoreKind::CStore, "write ALL"),
        ] {
            let c = res.cell(store, 3, cl).expect("cell exists");
            assert!(c.fault_errors > 0, "no error spike: {c:?}");
            assert!(
                c.fault_min_tput < 0.9 * c.pre_tput,
                "no dip: min {} vs pre {} ({}/{})",
                c.fault_min_tput,
                c.pre_tput,
                c.store,
                c.cl
            );
            let dev = (c.post_tput - c.pre_tput).abs() / c.pre_tput;
            assert!(
                dev < 0.10,
                "poor recovery: post {} vs pre {} ({}/{})",
                c.post_tput,
                c.pre_tput,
                c.store,
                c.cl
            );
        }
    }

    #[test]
    fn cl_one_rides_through_better_than_write_all() {
        let cfg = FailureConfig::quick();
        let res = run_failure(&cfg);
        // CL=ONE skips the dead replica (1 ack suffices, hints queue for
        // the victim), so its fault-phase throughput beats write-ALL's,
        // which refuses every write replicated on the victim.
        let one = res.cell(StoreKind::CStore, 3, "ONE").unwrap();
        let all = res.cell(StoreKind::CStore, 3, "write ALL").unwrap();
        assert!(
            one.fault_tput > all.fault_tput,
            "ONE {} should out-serve write-ALL {} during the outage",
            one.fault_tput,
            all.fault_tput
        );
        assert!(one.fault_errors <= all.fault_errors);
        // One ack suffices with a replica down: CL=ONE serves every op of
        // the outage without a client-visible error.
        assert_eq!(one.fault_errors, 0, "CL=ONE should ride through: {one:?}");
    }
}
