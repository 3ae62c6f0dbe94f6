//! Figure 8: client-centric consistency auditing under the crash plan.
//!
//! The paper measures consistency server-side (stale fractions against
//! acked-write watermarks); this experiment asks the client's version of
//! the question. Every operation of every client is recorded as an
//! invocation/response interval ([`audit::History`]), the Fig. 4
//! crash/recover plan runs underneath, and the recorded histories are
//! replayed through the pure checkers in `crates/audit`:
//!
//! * session guarantees (read-your-writes, monotonic reads, monotonic
//!   writes, writes-follow-reads) per fault phase — healthy before the
//!   crash, crash while the victim is down, recovery after it returns
//!   (hinted handoff replays while CL=ONE reads already hit the stale
//!   returnee, which is where the violations concentrate);
//! * PBS-style (Δ,p)-staleness — the empirical probability that a read
//!   issued Δ after a write's ack returns it, with margin quantiles;
//! * a budget-capped Wing&Gong linearizability check on the hottest keys.
//!
//! The driver's own staleness tracker runs concurrently over the same
//! ops, and every cell cross-checks the two views: replaying the history
//! must reproduce `RunMetrics::staleness()` exactly — the recorded
//! history provably carries the information the live tracker saw.
//!
//! The runs themselves are Fig. 4's: [`run_audit_with`] is the audit
//! projection of [`crate::failure::run_crash_grid_with`].

use audit::{check_key, check_sessions, key_ops, staleness, PhaseWindow, SessionCounts, Verdict};

use crate::driver::RunOutcome;
use crate::failure::{run_crash_grid_with, CrashGridConfig};
use crate::report::Table;
use crate::runner::Point;
use crate::setup::StoreKind;
use crate::sweep::{Sweep, Telemetry};

/// The version timestamp the driver's preload assigns every record —
/// the register's initial state for the linearizability checker.
const PRELOAD_TS: u64 = 1;

/// Configuration of the Fig. 8 experiment: the Fig. 4 crash grid.
pub type AuditExperimentConfig = CrashGridConfig;

impl CrashGridConfig {
    /// The three fault-phase windows of the plan, in run order.
    pub fn phases(&self) -> Vec<PhaseWindow> {
        vec![
            PhaseWindow {
                label: "healthy",
                start_us: 0,
                end_us: self.crash_at_us,
            },
            PhaseWindow {
                label: "crash",
                start_us: self.crash_at_us,
                end_us: self.recover_at_us,
            },
            PhaseWindow {
                label: "recovery",
                start_us: self.recover_at_us,
                end_us: u64::MAX,
            },
        ]
    }
}

/// One fault phase of one cell: session-guarantee counts plus the
/// (Δ,p)-staleness summary of the phase's reads.
#[derive(Debug, Clone)]
pub struct PhaseAudit {
    /// Phase label ("healthy", "crash", "recovery").
    pub phase: &'static str,
    /// Session-guarantee accounting for the phase.
    pub counts: SessionCounts,
    /// Staleness-margin quantiles (µs): p50, p95, p99, max.
    pub margin_p50_us: u64,
    /// 95th-percentile staleness margin, µs.
    pub margin_p95_us: u64,
    /// 99th-percentile staleness margin, µs.
    pub margin_p99_us: u64,
    /// Worst staleness margin, µs.
    pub margin_max_us: u64,
    /// The (Δ, p) curve on the configured grid: fraction of the phase's
    /// reads with staleness margin ≤ Δ. Monotone non-decreasing in Δ.
    pub curve: Vec<(u64, f64)>,
}

/// One (store, RF, consistency) audit cell.
#[derive(Debug, Clone)]
pub struct AuditCell {
    /// Which store.
    pub store: StoreKind,
    /// Replication factor.
    pub rf: u32,
    /// Consistency strategy name ([`crate::failure::HSTORE_CL`] for the
    /// HBase analog).
    pub cl: &'static str,
    /// Per-phase audits, in plan order (healthy, crash, recovery).
    pub phases: Vec<PhaseAudit>,
    /// Linearizability verdict over the checked keys: `yes` only when
    /// every key linearizes; `violation` as soon as one key cannot.
    pub linearizable: Verdict,
    /// Hot keys the linearizability checker examined.
    pub lin_keys_checked: usize,
    /// The live tracker's `(stale, checked)` over the measured window.
    pub tracker_stale: u64,
    /// Reads the live tracker checked in the measured window.
    pub tracker_checked: u64,
    /// The live tracker's missing-read count (lost writes).
    pub tracker_missing: u64,
    /// Fault events the injector applied (crash + recover = 2).
    pub faults_injected: u64,
}

impl AuditCell {
    /// The phase audit with the given label, if present.
    pub fn phase(&self, label: &str) -> Option<&PhaseAudit> {
        self.phases.iter().find(|p| p.phase == label)
    }
}

/// The full Fig. 8 result.
#[derive(Debug, Clone)]
pub struct AuditResult {
    /// All measured cells.
    pub cells: Vec<AuditCell>,
    /// Crash time, µs (for rendering).
    pub crash_at_us: u64,
    /// Recovery time, µs (for rendering).
    pub recover_at_us: u64,
    /// The Δ grid the curves were evaluated on.
    pub deltas_us: Vec<u64>,
    /// Workload name (for rendering).
    pub workload: String,
    /// What the sweep cost (wall time, utilization, base loads).
    pub telemetry: Telemetry,
}

impl AuditResult {
    /// The cell for a specific point.
    pub fn cell(&self, store: StoreKind, rf: u32, cl: &str) -> Option<&AuditCell> {
        self.cells
            .iter()
            .find(|c| c.store == store && c.rf == rf && c.cl == cl)
    }

    /// Render the summary table: one row per cell with the crash- and
    /// recovery-phase session-violation rates and the linearizability
    /// verdict.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            &format!(
                "Fig. 8 — consistency audit: crash t={:.1}s, recover t={:.1}s ({})",
                self.crash_at_us as f64 / 1e6,
                self.recover_at_us as f64 / 1e6,
                self.workload,
            ),
            &[
                "store",
                "rf",
                "cl",
                "stale%",
                "ryw viol (h/c/r)",
                "mr viol (h/c/r)",
                "margin p99 (r)",
                "linearizable",
            ],
        );
        for c in &self.cells {
            let reads: u64 = c.phases.iter().map(|p| p.counts.reads).sum();
            let stale: u64 = c.phases.iter().map(|p| p.counts.stale).sum();
            let tri = |f: &dyn Fn(&PhaseAudit) -> u64| {
                c.phases
                    .iter()
                    .map(|p| f(p).to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            };
            t.row(vec![
                c.store.short().into(),
                c.rf.to_string(),
                c.cl.into(),
                if reads == 0 {
                    "-".into()
                } else {
                    format!("{:.2}%", stale as f64 / reads as f64 * 100.0)
                },
                tri(&|p| p.counts.ryw_violations),
                tri(&|p| p.counts.mr_violations),
                c.phases
                    .last()
                    .map_or("-".into(), |p| format!("{}µs", p.margin_p99_us)),
                c.linearizable.label().into(),
            ]);
        }
        t.render()
    }

    /// CSV table: one row per (cell, phase).
    pub fn table(&self) -> Table {
        let mut headers = vec![
            "store",
            "rf",
            "cl",
            "phase",
            "reads",
            "writes",
            "stale",
            "missing",
            "stale_rate",
            "ryw_checked",
            "ryw_violations",
            "ryw_rate",
            "mr_checked",
            "mr_violations",
            "mr_rate",
            "mw_violations",
            "wfr_violations",
            "margin_p50_us",
            "margin_p95_us",
            "margin_p99_us",
            "margin_max_us",
        ];
        let deltas: Vec<String> = self
            .deltas_us
            .iter()
            .map(|d| format!("p_le_{d}us"))
            .collect();
        headers.extend(deltas.iter().map(String::as_str));
        headers.push("linearizable");
        let mut t = Table::new("fig8_audit", &headers);
        for c in &self.cells {
            for p in &c.phases {
                let mut row = vec![
                    c.store.short().to_owned(),
                    c.rf.to_string(),
                    c.cl.into(),
                    p.phase.into(),
                    p.counts.reads.to_string(),
                    p.counts.writes.to_string(),
                    p.counts.stale.to_string(),
                    p.counts.missing.to_string(),
                    format!("{:.5}", p.counts.stale_rate()),
                    p.counts.ryw_checked.to_string(),
                    p.counts.ryw_violations.to_string(),
                    format!("{:.5}", p.counts.ryw_rate()),
                    p.counts.mr_checked.to_string(),
                    p.counts.mr_violations.to_string(),
                    format!("{:.5}", p.counts.mr_rate()),
                    p.counts.mw_violations.to_string(),
                    p.counts.wfr_violations.to_string(),
                    p.margin_p50_us.to_string(),
                    p.margin_p95_us.to_string(),
                    p.margin_p99_us.to_string(),
                    p.margin_max_us.to_string(),
                ];
                row.extend(p.curve.iter().map(|&(_, pr)| format!("{pr:.5}")));
                row.push(c.linearizable.label().into());
                t.row(row);
            }
        }
        t
    }
}

/// Reduce one crash-grid run's recorded history to its Fig. 8 cell: the
/// per-phase session and staleness audits plus the linearizability verdict
/// over the hottest keys.
///
/// # Panics
/// If replaying the history does not reproduce the live staleness
/// tracker's accounting exactly — the history would be missing operations
/// the tracker saw.
pub(crate) fn audit_cell(
    cfg: &CrashGridConfig,
    p: Point,
    out: &RunOutcome,
    phases: &[PhaseWindow],
) -> AuditCell {
    let history = out.audit.clone().unwrap_or_default();
    let replay = history.stale_counts();
    let (tracker_stale, tracker_checked) = out.metrics.staleness();
    assert_eq!(
        (replay.stale, replay.checked, replay.missing),
        (tracker_stale, tracker_checked, out.metrics.missing_reads()),
        "audit history disagrees with the staleness tracker: {}/{}/{}",
        p.store.short(),
        p.rf,
        p.cl()
    );
    let counts = check_sessions(&history, phases);
    let margins = staleness::margins(&history, phases);
    let audits: Vec<PhaseAudit> = phases
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
            curve: staleness::curve(m, &cfg.deltas_us),
        })
        .collect();
    let keys: Vec<_> = history
        .keys_by_activity()
        .into_iter()
        .take(cfg.lin_keys)
        .collect();
    let mut linearizable = Verdict::Linearizable;
    for key in &keys {
        let v = match key_ops(&history, key) {
            Some(ops) => check_key(&ops, Some(PRELOAD_TS), cfg.lin_budget),
            None => Verdict::Inconclusive,
        };
        match v {
            Verdict::Violation => {
                linearizable = Verdict::Violation;
                break;
            }
            Verdict::Inconclusive => linearizable = Verdict::Inconclusive,
            Verdict::Linearizable => {}
        }
    }
    AuditCell {
        store: p.store,
        rf: p.rf,
        cl: p.cl(),
        phases: audits,
        linearizable,
        lin_keys_checked: keys.len(),
        tracker_stale,
        tracker_checked,
        tracker_missing: out.metrics.missing_reads(),
        faults_injected: out.faults_injected,
    }
}

/// Run the full Fig. 8 experiment through the sweep engine.
pub fn run_audit(cfg: &AuditExperimentConfig) -> AuditResult {
    run_audit_with(cfg, &Sweep::from_env())
}

/// [`run_audit`] on a caller-configured engine: the Fig. 8 projection of
/// [`run_crash_grid_with`].
pub fn run_audit_with(cfg: &AuditExperimentConfig, sweep: &Sweep) -> AuditResult {
    run_crash_grid_with(cfg, sweep).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::HSTORE_CL;

    #[test]
    fn quick_audit_matches_the_acceptance_shape() {
        let cfg = AuditExperimentConfig::quick();
        let res = run_audit(&cfg);
        // 3 RFs × (1 hstore level + 3 cstore levels).
        assert_eq!(res.cells.len(), 12);
        for c in &res.cells {
            assert_eq!(
                c.faults_injected,
                2,
                "{}/{}/{}",
                c.store.short(),
                c.rf,
                c.cl
            );
            assert_eq!(c.phases.len(), 3);
            // The (Δ,p) curve is monotone non-decreasing in Δ, everywhere.
            for p in &c.phases {
                for w in p.curve.windows(2) {
                    assert!(
                        w[1].1 >= w[0].1,
                        "curve not monotone: {}/{}/{} {}",
                        c.store.short(),
                        c.rf,
                        c.cl,
                        p.phase
                    );
                }
            }
            // Quorum overlap and the HBase analog's single-master reads
            // never violate a session guarantee, in any phase.
            if c.cl == "QUORUM" || c.cl == HSTORE_CL {
                assert_eq!(c.tracker_stale, 0, "{}/{}/{}", c.store.short(), c.rf, c.cl);
                for p in &c.phases {
                    assert_eq!(
                        p.counts.total_violations(),
                        0,
                        "{}/{}/{} {}",
                        c.store.short(),
                        c.rf,
                        c.cl,
                        p.phase
                    );
                }
            }
        }
        // The client-visible cost of CL=ONE: session guarantees break
        // around the crash. RF=3 rides through the outage on live
        // replicas, then reads the stale returnee before hints replay.
        let one = res.cell(StoreKind::CStore, 3, "ONE").expect("cell exists");
        let crash_ryw: u64 = one
            .phases
            .iter()
            .filter(|p| p.phase != "healthy")
            .map(|p| p.counts.ryw_violations)
            .sum();
        let crash_mr: u64 = one
            .phases
            .iter()
            .filter(|p| p.phase != "healthy")
            .map(|p| p.counts.mr_violations)
            .sum();
        assert!(crash_ryw > 0, "ONE must break read-your-writes: {one:?}");
        assert!(crash_mr > 0, "ONE must break monotonic reads: {one:?}");
        // Strong (HBase analog) runs linearize; some ONE-under-crash run
        // does not.
        for rf in [1, 3, 5] {
            let h = res.cell(StoreKind::HStore, rf, HSTORE_CL).expect("hstore");
            assert_eq!(h.linearizable, Verdict::Linearizable, "rf={rf}");
            assert!(h.lin_keys_checked > 0);
        }
        assert!(
            res.cells
                .iter()
                .any(|c| c.cl == "ONE" && c.linearizable == Verdict::Violation),
            "some CL=ONE cell must catch a linearizability violation"
        );
        // Rendering smoke.
        assert!(res.render().contains("Fig. 8"));
        let rows = res.table().rows.len();
        assert_eq!(rows, 12 * 3);
    }
}
