//! Figure 5: availability under failure — the resilience-layer experiment.
//!
//! Fig. 4 traces how each store degrades around a crash when the client is
//! fair-weather: one attempt, every failure surfaced. Real clients are not:
//! they retry transient errors with backoff, bound each operation with a
//! deadline budget, and hedge tail reads. This experiment reruns the Fig. 4
//! crash/recover plan under three client policies — `none`, `retry`, and
//! `retry+hedge` — and reports what the *application* actually experiences:
//! per-window goodput split into first-try and retried successes, the
//! client-visible error rate, and the attempts-per-op cost the resilience
//! layer pays for that availability.
//!
//! The expected shape (the paper's §6 future-work question, answered): a
//! Cassandra-analog client at CL=ONE with retries sees essentially *no*
//! outage — the coordinator skips the dead replica, stragglers retry onto
//! live nodes, and errors stay at zero through the crash window. The
//! HBase analog cannot be saved by retries alone: requests to the victim's
//! regions have nowhere else to go until failover, so its visible dip is
//! bounded below by the detection window plus the backoff ladder.

use faults::FaultPlan;
use simkit::NodeId;
use ycsb::{ResilienceCounters, TimelineWindow, WorkloadSpec};

use crate::driver::DriverConfig;
use crate::failure::{build_crashable, phase_mean, split_phases};
use crate::report::{fmt_ops, Table};
use crate::resilience::RetryPolicy;
use crate::runner::{paper_grid, Point, Runner};
use crate::setup::{Scale, StoreKind};
use crate::sweep::{Sweep, Telemetry};

/// The three client policies every (store, CL) pair runs under.
pub const POLICY_NAMES: [&str; 3] = ["none", "retry", "retry+hedge"];

/// Configuration of the Fig. 5 experiment. The cluster and fault knobs
/// mirror [`crate::failure::FailureConfig`] at a single replication
/// factor; the new axis is the retry policy.
#[derive(Debug, Clone)]
pub struct AvailabilityConfig {
    /// Record/cache scale.
    pub scale: Scale,
    /// Replication factor (one value: the policy axis replaces the RF
    /// sweep).
    pub rf: u32,
    /// Client threads.
    pub threads: usize,
    /// Cluster-wide target throughput, constant-rate.
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
    /// Client RPC timeout applied to both stores.
    pub rpc_timeout_us: u64,
    /// HBase-analog failure-detection window before region failover.
    pub failover_delay_us: u64,
    /// The node that crashes.
    pub victim: NodeId,
    /// The workload under which the failure happens.
    pub workload: WorkloadSpec,
    /// The retrying policy (the `retry` cells); its backoff ladder should
    /// outlast the outage so a patient client rides through.
    pub retry: RetryPolicy,
    /// Hedge delay added for the `retry+hedge` cells, µs — a p99-ish value
    /// so hedges fire on stragglers, not the common case.
    pub hedge_after_us: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        Self {
            scale: Scale::stress(),
            rf: 3,
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
            // Eight attempts from a 50 ms base: the cumulative backoff
            // (50+100+...+800, capped at 16x) outlasts the 2 s failover
            // detection window, under a 5 s per-op budget.
            retry: RetryPolicy::retrying(8, 50_000, 5_000_000),
            // Just past the healthy read p99 (~2 ms), so hedges fire on
            // the straggler tail rather than on every read.
            hedge_after_us: 2_500,
            seed: 42,
        }
    }
}

impl AvailabilityConfig {
    /// A fast variant for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            threads: 16,
            // Higher rate than the Fig. 4 smoke so several operations are
            // in flight at the crash instant — the transient the resilience
            // layer exists to absorb.
            target_ops_per_sec: 5_000.0,
            warmup_ops: 800,
            measure_ops: 14_000,
            crash_at_us: 900_000,
            recover_at_us: 1_800_000,
            window_us: 150_000,
            // Tighter than the Fig. 4 smoke (120 ms): the four survivors
            // brown out under the redirected load, and a client timeout
            // inside the fault-phase queueing tail is exactly the
            // transient a resilient client should absorb.
            rpc_timeout_us: 60_000,
            failover_delay_us: 300_000,
            // 15 ms base: cumulative backoff crosses the 300 ms failover
            // window after five retries, within a 1.5 s budget.
            retry: RetryPolicy::retrying(8, 15_000, 1_500_000),
            hedge_after_us: 5_000,
            ..Self::default()
        }
    }

    /// The three policy cells: fair-weather, retrying, retrying + hedged.
    pub fn policies(&self) -> [(&'static str, RetryPolicy); 3] {
        [
            (POLICY_NAMES[0], RetryPolicy::none()),
            (POLICY_NAMES[1], self.retry),
            (POLICY_NAMES[2], self.retry.with_hedge(self.hedge_after_us)),
        ]
    }
}

/// One (store, CL, policy) availability timeline with its phase summary.
#[derive(Debug, Clone)]
pub struct AvailabilityCell {
    /// Which store.
    pub store: StoreKind,
    /// Consistency strategy name ([`crate::failure::HSTORE_CL`] for the
    /// HBase analog).
    pub cl: &'static str,
    /// Retry-policy name (one of [`POLICY_NAMES`]).
    pub policy: &'static str,
    /// Mean throughput over full windows before the crash, ops/s.
    pub pre_tput: f64,
    /// Mean goodput (successful ops/s) inside the crash window.
    pub fault_goodput: f64,
    /// Of the fault-phase goodput, the first-try share, ops/s: what the
    /// client got without the resilience layer's help.
    pub fault_first_try: f64,
    /// Client-visible errors inside the crash window.
    pub fault_errors: u64,
    /// Mean store attempts per settled op inside the crash window (1.0 =
    /// no retry/hedge traffic).
    pub fault_attempts_per_op: f64,
    /// Worst per-window p99 latency inside the crash window, µs.
    pub fault_p99_us: u64,
    /// Mean throughput after recovery settles, ops/s.
    pub post_tput: f64,
    /// Whole-run resilience accounting.
    pub resilience: ResilienceCounters,
    /// Operations still unsettled at run end (must be 0: no token leaks).
    pub unsettled_ops: u64,
    /// The full per-window timeline.
    pub windows: Vec<TimelineWindow>,
}

/// The full Fig. 5 result.
#[derive(Debug, Clone)]
pub struct AvailabilityResult {
    /// All measured cells.
    pub cells: Vec<AvailabilityCell>,
    /// Crash time, µs (for rendering).
    pub crash_at_us: u64,
    /// Recovery time, µs (for rendering).
    pub recover_at_us: u64,
    /// Workload name (for rendering).
    pub workload: String,
    /// What the sweep cost.
    pub telemetry: Telemetry,
}

impl AvailabilityResult {
    /// The cell for a specific point.
    pub fn cell(&self, store: StoreKind, cl: &str, policy: &str) -> Option<&AvailabilityCell> {
        self.cells
            .iter()
            .find(|c| c.store == store && c.cl == cl && c.policy == policy)
    }

    /// Render the phase-summary table — one row per (store, CL, policy)
    /// with pre-fault throughput, fault-phase goodput split into first-try
    /// and total, the error count, the attempts-per-op cost, the worst
    /// fault-window p99, and post-recovery throughput.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            &format!(
                "Fig. 5 — availability under failure: crash t={:.1}s, recover t={:.1}s ({})",
                self.crash_at_us as f64 / 1e6,
                self.recover_at_us as f64 / 1e6,
                self.workload,
            ),
            &[
                "store",
                "cl",
                "policy",
                "pre tput",
                "fault goodput",
                "first-try",
                "fault errors",
                "att/op",
                "fault p99",
                "post tput",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.store.short().into(),
                c.cl.into(),
                c.policy.into(),
                fmt_ops(c.pre_tput),
                fmt_ops(c.fault_goodput),
                fmt_ops(c.fault_first_try),
                c.fault_errors.to_string(),
                format!("{:.2}", c.fault_attempts_per_op),
                format!("{}us", c.fault_p99_us),
                fmt_ops(c.post_tput),
            ]);
        }
        t.render()
    }

    /// CSV table: one row per timeline window per cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "fig5_availability",
            &[
                "store",
                "cl",
                "policy",
                "window_start_us",
                "ops",
                "first_try_ops",
                "retried_ops",
                "ops_per_sec",
                "errors",
                "attempts",
                "attempts_per_op",
                "p99_us",
            ],
        );
        for c in &self.cells {
            for w in &c.windows {
                t.row(vec![
                    c.store.short().into(),
                    c.cl.into(),
                    c.policy.into(),
                    w.start_us.to_string(),
                    w.ops.to_string(),
                    w.first_try_ops().to_string(),
                    w.retried_ops.to_string(),
                    format!("{:.1}", w.ops_per_sec),
                    w.errors.to_string(),
                    w.attempts.to_string(),
                    format!("{:.2}", w.attempts_per_op()),
                    w.p99_us.to_string(),
                ]);
            }
        }
        t
    }
}

/// Run the full Fig. 5 experiment through the sweep engine.
pub fn run_availability(cfg: &AvailabilityConfig) -> AvailabilityResult {
    run_availability_with(cfg, &Sweep::from_env())
}

/// [`run_availability`] on a caller-configured engine.
pub fn run_availability_with(cfg: &AvailabilityConfig, sweep: &Sweep) -> AvailabilityResult {
    // One cell per (store, consistency level, policy). The HBase analog
    // has its single implicit level; the Cassandra analog sweeps the
    // paper's three. Policies share the loaded base per (store, level).
    let specs: Vec<(Point, usize)> = (0..POLICY_NAMES.len())
        .flat_map(|p| paper_grid(&[cfg.rf]).into_iter().map(move |pt| (pt, p)))
        .collect();
    let runner = Runner::new(&cfg.scale, cfg.seed, specs.iter().map(|&(pt, _)| pt));
    let policies = cfg.policies();

    let outcome = runner.sweep(sweep, &specs, |ctx, &(pt, p)| {
        let (policy, retry) = policies[p];
        let dcfg = DriverConfig {
            threads: cfg.threads,
            target_ops_per_sec: cfg.target_ops_per_sec,
            value_len: cfg.scale.value_len,
            warmup_ops: cfg.warmup_ops,
            measure_ops: cfg.measure_ops,
            seed: ctx.seed,
            faults: FaultPlan::new().crash_window(cfg.victim, cfg.crash_at_us, cfg.recover_at_us),
            timeline_window_us: cfg.window_us,
            retry,
            ..DriverConfig::new(cfg.workload.clone(), cfg.scale.records)
        };
        let build = || build_crashable(pt, &cfg.scale, cfg.rpc_timeout_us, cfg.failover_delay_us);
        let (out, _) = runner.run(&pt, build, &dcfg);
        let windows = out
            .metrics
            .timeline()
            .map(|t| t.windows())
            .unwrap_or_default();
        // Fig. 4's phases, plus the goodput split and the attempt cost.
        let [pre, fault, post] =
            split_phases(&windows, cfg.crash_at_us, cfg.recover_at_us, cfg.window_us);
        let secs_per_window = cfg.window_us as f64 / 1_000_000.0;
        let fault_settled: u64 = fault.iter().map(|w| w.ops + w.errors).sum();
        let fault_attempts: u64 = fault.iter().map(|w| w.attempts).sum();
        AvailabilityCell {
            store: pt.store,
            cl: pt.cl(),
            policy,
            pre_tput: phase_mean(&pre, |w| w.ops_per_sec),
            fault_goodput: phase_mean(&fault, |w| w.ops_per_sec),
            fault_first_try: phase_mean(&fault, |w| w.first_try_ops() as f64 / secs_per_window),
            fault_errors: fault.iter().map(|w| w.errors).sum(),
            fault_attempts_per_op: if fault_settled == 0 {
                0.0
            } else {
                fault_attempts as f64 / fault_settled as f64
            },
            fault_p99_us: fault.iter().map(|w| w.p99_us).max().unwrap_or(0),
            post_tput: phase_mean(&post, |w| w.ops_per_sec),
            resilience: *out.metrics.resilience(),
            unsettled_ops: out.unsettled_ops,
            windows,
        }
    });

    let mut cells = outcome.results;
    cells.sort_by(|a, b| (a.store.short(), a.cl, a.policy).cmp(&(b.store.short(), b.cl, b.policy)));
    AvailabilityResult {
        cells,
        crash_at_us: cfg.crash_at_us,
        recover_at_us: cfg.recover_at_us,
        workload: cfg.workload.name.clone(),
        telemetry: outcome.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_availability_produces_all_cells_and_leaks_nothing() {
        let cfg = AvailabilityConfig::quick();
        let res = run_availability(&cfg);
        // (1 hstore level + 3 cstore levels) × 3 policies.
        assert_eq!(res.cells.len(), 12);
        for c in &res.cells {
            assert!(!c.windows.is_empty());
            assert!(c.pre_tput > 0.0, "{}/{}/{}", c.store, c.cl, c.policy);
            assert_eq!(
                c.unsettled_ops, 0,
                "token leak: {}/{}/{}",
                c.store, c.cl, c.policy
            );
            match c.policy {
                "none" => {
                    assert_eq!(c.resilience.retries, 0);
                    assert_eq!(c.resilience.hedges, 0);
                    assert_eq!(c.resilience.retried_ok, 0);
                }
                "retry" => assert_eq!(c.resilience.hedges, 0),
                _ => {}
            }
        }
        let rendered = res.render();
        assert!(rendered.contains("Fig. 5"));
        assert!(rendered.contains("retry+hedge"));
        let total_windows: usize = res.cells.iter().map(|c| c.windows.len()).sum();
        assert_eq!(res.table().rows.len(), total_windows);
    }

    #[test]
    fn retries_mask_the_outage_at_cl_one() {
        let cfg = AvailabilityConfig::quick();
        let res = run_availability(&cfg);
        // The headline claim: a CL=ONE client that retries sees no outage
        // — the coordinator skips the dead replica and stragglers land on
        // live nodes — while the fair-weather client eats an error spike.
        let naive = res.cell(StoreKind::CStore, "ONE", "none").expect("cell");
        let patient = res.cell(StoreKind::CStore, "ONE", "retry").expect("cell");
        assert!(
            naive.fault_errors > 0,
            "the no-retry client should see the crash: {naive:?}"
        );
        assert_eq!(
            patient.fault_errors, 0,
            "retries should absorb every transient error at CL=ONE"
        );
        assert!(
            patient.resilience.retries > 0,
            "the crash must actually exercise the retry path"
        );
        // The retry cells pay for availability with extra attempts.
        assert!(patient.fault_attempts_per_op >= 1.0);
    }

    #[test]
    fn hedging_adds_speculative_attempts_without_losing_ops() {
        let cfg = AvailabilityConfig::quick();
        let res = run_availability(&cfg);
        let hedged = res
            .cell(StoreKind::CStore, "QUORUM", "retry+hedge")
            .expect("cell");
        assert!(
            hedged.resilience.hedges > 0,
            "a crash window plus a p99-ish hedge delay must trigger hedges"
        );
        // A hedged op settles off one attempt and drains the other as a
        // cancellation — a *winning* hedge therefore produces both a win
        // and a cancelled primary. Each count is bounded by hedges issued.
        assert!(hedged.resilience.hedge_wins <= hedged.resilience.hedges);
        assert!(hedged.resilience.hedge_cancelled <= hedged.resilience.hedges);
        assert_eq!(hedged.unsettled_ops, 0);
    }
}
