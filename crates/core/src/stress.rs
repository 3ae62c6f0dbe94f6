//! Figure 2: the stress benchmark for replication.
//!
//! "In this benchmark, we use a constant number of test threads and a
//! variety of target throughputs to detect the peak runtime throughput and
//! the corresponding latency of databases. We conduct six rounds of testing
//! [RF 1..6], and the read latest / scan short ranges / read mostly /
//! read-modify-write / read & update test is run one after another."

use ycsb::WorkloadSpec;

use crate::driver::{DriverConfig, RunOutcome};
use crate::report::{fmt_ops, fmt_us, Table};
use crate::runner::{Point, Runner, Store};
use crate::setup::{Scale, StoreKind};
use crate::sweep::{Sweep, Telemetry};

/// Configuration of the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Record/cache scale.
    pub scale: Scale,
    /// Replication factors to sweep.
    pub rfs: Vec<u32>,
    /// The workloads (default: the paper's five, in its order).
    pub workloads: Vec<WorkloadSpec>,
    /// Constant client thread count.
    pub threads: usize,
    /// Target throughputs probed per cell; `0.0` = unthrottled (probes the
    /// closed-loop peak directly).
    pub targets: Vec<f64>,
    /// Warm-up completions per run.
    pub warmup_ops: u64,
    /// Measured completions per run.
    pub measure_ops: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        Self {
            scale: Scale::stress(),
            rfs: (1..=6).collect(),
            workloads: WorkloadSpec::paper_stress_workloads(),
            threads: 64,
            targets: vec![0.0],
            warmup_ops: 2_000,
            measure_ops: 20_000,
            seed: 42,
        }
    }
}

impl StressConfig {
    /// A fast variant for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            rfs: vec![1, 3],
            workloads: vec![WorkloadSpec::read_mostly(), WorkloadSpec::read_latest()],
            threads: 16,
            targets: vec![0.0],
            warmup_ops: 200,
            measure_ops: 1_500,
            seed: 42,
        }
    }
}

/// The peak point for one (store, RF, workload).
#[derive(Debug, Clone)]
pub struct StressCell {
    /// Which store.
    pub store: StoreKind,
    /// Replication factor.
    pub rf: u32,
    /// Workload name.
    pub workload: String,
    /// Peak runtime throughput across the probed targets, ops/s.
    pub peak_throughput: f64,
    /// Mean latency at the peak, µs.
    pub mean_us: f64,
    /// 95th-percentile latency at the peak, µs.
    pub p95_us: u64,
    /// Stale-read fraction observed at the peak.
    pub stale_fraction: f64,
    /// Errors at the peak.
    pub errors: u64,
}

/// The full Fig. 2 result.
#[derive(Debug, Clone)]
pub struct StressResult {
    /// All peak cells.
    pub cells: Vec<StressCell>,
    /// What the sweep cost (wall time, utilization, base loads).
    pub telemetry: Telemetry,
}

impl StressResult {
    /// The cell for a point.
    pub fn cell(&self, store: StoreKind, rf: u32, workload: &str) -> Option<&StressCell> {
        self.cells
            .iter()
            .find(|c| c.store == store && c.rf == rf && c.workload == workload)
    }

    /// Throughput series for `(store, workload)` ordered by RF.
    pub fn throughput_series(&self, store: StoreKind, workload: &str) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .cells
            .iter()
            .filter(|c| c.store == store && c.workload == workload)
            .map(|c| (c.rf, c.peak_throughput))
            .collect();
        v.sort_by_key(|&(rf, _)| rf);
        v
    }

    /// Latency series for `(store, workload)` ordered by RF.
    pub fn latency_series(&self, store: StoreKind, workload: &str) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .cells
            .iter()
            .filter(|c| c.store == store && c.workload == workload)
            .map(|c| (c.rf, c.mean_us))
            .collect();
        v.sort_by_key(|&(rf, _)| rf);
        v
    }

    /// Render one table per (store, workload): RF rows with throughput and
    /// latency — the two panels of each Fig. 2 sub-plot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut keys: Vec<(StoreKind, String)> = self
            .cells
            .iter()
            .map(|c| (c.store, c.workload.clone()))
            .collect();
        keys.sort_by(|a, b| (a.0.short(), &a.1).cmp(&(b.0.short(), &b.1)));
        keys.dedup();
        for (store, workload) in keys {
            let mut t = Table::new(
                &format!("Fig. 2 — stress: {workload} on {}", store.label()),
                &[
                    "rf",
                    "peak throughput",
                    "mean latency",
                    "p95 latency",
                    "stale%",
                ],
            );
            let mut rows: Vec<&StressCell> = self
                .cells
                .iter()
                .filter(|c| c.store == store && c.workload == workload)
                .collect();
            rows.sort_by_key(|c| c.rf);
            for c in rows {
                t.row(vec![
                    c.rf.to_string(),
                    fmt_ops(c.peak_throughput),
                    fmt_us(c.mean_us),
                    fmt_us(c.p95_us as f64),
                    format!("{:.3}%", c.stale_fraction * 100.0),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// CSV table of every cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "fig2_stress_replication",
            &[
                "store",
                "rf",
                "workload",
                "peak_throughput",
                "mean_us",
                "p95_us",
                "stale_fraction",
                "errors",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.store.short().into(),
                c.rf.to_string(),
                c.workload.clone(),
                format!("{:.1}", c.peak_throughput),
                format!("{:.1}", c.mean_us),
                c.p95_us.to_string(),
                format!("{:.5}", c.stale_fraction),
                c.errors.to_string(),
            ]);
        }
        t
    }
}

/// Run the full Fig. 2 experiment through the sweep engine.
pub fn run_stress(cfg: &StressConfig) -> StressResult {
    run_stress_with(cfg, &Sweep::from_env())
}

/// [`run_stress`] on a caller-configured engine.
pub fn run_stress_with(cfg: &StressConfig, sweep: &Sweep) -> StressResult {
    // One cell per (store, RF, workload); the target probes within a cell
    // stay sequential (they share the cell's peak detection).
    let specs: Vec<(Point, usize)> = cfg
        .rfs
        .iter()
        .flat_map(|&rf| {
            [StoreKind::HStore, StoreKind::CStore]
                .into_iter()
                .flat_map(move |store| {
                    (0..cfg.workloads.len()).map(move |w| (Point::new(store, rf), w))
                })
        })
        .collect();
    let runner = Runner::new(&cfg.scale, cfg.seed, specs.iter().map(|&(p, _)| p));

    let outcome = runner.sweep(sweep, &specs, |ctx, &(p, w)| {
        let workload = &cfg.workloads[w];
        // Probe every target against a snapshot of the base; keep the peak.
        let mut best: Option<RunOutcome> = None;
        for &target in &cfg.targets {
            let dcfg = DriverConfig {
                threads: cfg.threads,
                target_ops_per_sec: target,
                value_len: cfg.scale.value_len,
                warmup_ops: cfg.warmup_ops,
                measure_ops: cfg.measure_ops,
                seed: ctx.seed,
                ..DriverConfig::new(workload.clone(), cfg.scale.records)
            };
            let (out, _) = runner.run(&p, || Store::build(p, &cfg.scale), &dcfg);
            if best.as_ref().is_none_or(|b| out.throughput > b.throughput) {
                best = Some(out);
            }
        }
        let out = best.expect("at least one target probed");
        StressCell {
            store: p.store,
            rf: p.rf,
            workload: workload.name.clone(),
            peak_throughput: out.throughput,
            mean_us: out.mean_latency_us,
            p95_us: out.metrics.overall().p95(),
            stale_fraction: out.stale_fraction,
            errors: out.errors,
        }
    });

    let mut cells = outcome.results;
    cells.sort_by(|a, b| {
        (a.store.short(), a.rf, &a.workload).cmp(&(b.store.short(), b.rf, &b.workload))
    });
    StressResult {
        cells,
        telemetry: outcome.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_stress_produces_all_cells() {
        let cfg = StressConfig::quick();
        let res = run_stress(&cfg);
        // 2 stores × 2 RFs × 2 workloads.
        assert_eq!(res.cells.len(), 8);
        for c in &res.cells {
            assert!(c.peak_throughput > 0.0, "{c:?}");
            assert!(c.mean_us > 0.0);
        }
        assert!(res.render().contains("Fig. 2"));
        let series = res.throughput_series(StoreKind::HStore, "read mostly");
        assert_eq!(series.len(), 2);
        // 2 stores × 2 RFs base states, each loaded once.
        assert_eq!(res.telemetry.base_loads, 4);
    }
}
