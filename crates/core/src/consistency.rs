//! Figure 3: the stress benchmark for consistency.
//!
//! "In this benchmark, we use a replication factor of 3, a constant number
//! of test threads and a variety of target throughputs to detect the
//! runtime throughput of Cassandra. ... We conduct three rounds of testing,
//! the consistency levels of which are respectively ONE, write ALL and
//! QUORUM." (HBase has no consistency knob, so only the Cassandra analog
//! participates — same as the paper.)

use cstore::Consistency;
use ycsb::WorkloadSpec;

use crate::driver::DriverConfig;
use crate::report::{fmt_ops, Table};
use crate::runner::{Point, Runner, Store};
use crate::setup::{Scale, StoreKind};
use crate::sweep::{Sweep, Telemetry};

/// One consistency strategy of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Level {
    /// Display name ("ONE", "QUORUM", "write ALL").
    pub name: &'static str,
    /// Read consistency.
    pub read: Consistency,
    /// Write consistency.
    pub write: Consistency,
}

/// The paper's three strategies (§2): ONE, QUORUM, and "Write ALL" (write
/// to all replicas, read from one).
pub const PAPER_LEVELS: [Level; 3] = [
    Level {
        name: "ONE",
        read: Consistency::One,
        write: Consistency::One,
    },
    Level {
        name: "QUORUM",
        read: Consistency::Quorum,
        write: Consistency::Quorum,
    },
    Level {
        name: "write ALL",
        read: Consistency::One,
        write: Consistency::All,
    },
];

/// Configuration of the Fig. 3 experiment.
#[derive(Debug, Clone)]
pub struct ConsistencyConfig {
    /// Record/cache scale.
    pub scale: Scale,
    /// Replication factor (the paper: 3).
    pub rf: u32,
    /// Consistency strategies to compare.
    pub levels: Vec<Level>,
    /// The workloads (default: the paper's five).
    pub workloads: Vec<WorkloadSpec>,
    /// Constant client thread count.
    pub threads: usize,
    /// Target throughputs swept (the x-axis of Fig. 3); `0.0` probes the
    /// unthrottled peak.
    pub targets: Vec<f64>,
    /// Warm-up completions per run.
    pub warmup_ops: u64,
    /// Measured completions per run.
    pub measure_ops: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        Self {
            scale: Scale::stress(),
            rf: 3,
            levels: PAPER_LEVELS.to_vec(),
            workloads: WorkloadSpec::paper_stress_workloads(),
            threads: 64,
            targets: vec![5_000.0, 10_000.0, 20_000.0, 40_000.0, 0.0],
            warmup_ops: 2_000,
            measure_ops: 30_000,
            seed: 42,
        }
    }
}

impl ConsistencyConfig {
    /// A fast variant for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            rf: 3,
            levels: PAPER_LEVELS.to_vec(),
            workloads: vec![WorkloadSpec::read_update()],
            threads: 8,
            targets: vec![500.0, 0.0],
            warmup_ops: 100,
            measure_ops: 800,
            seed: 42,
        }
    }
}

/// One point of Fig. 3: runtime throughput at one target under one level.
#[derive(Debug, Clone)]
pub struct ConsistencyCell {
    /// Consistency strategy name.
    pub level: &'static str,
    /// Workload name.
    pub workload: String,
    /// Target throughput (0 = unthrottled probe).
    pub target: f64,
    /// Achieved runtime throughput, ops/s.
    pub runtime: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Stale-read fraction.
    pub stale_fraction: f64,
    /// Fraction of checked reads that found *no* value after an
    /// acknowledged write — lost writes, split out of the stale fraction
    /// (missing ⊂ stale).
    pub missing_fraction: f64,
    /// Background repair mutations the level generated (cumulative counter
    /// at run end; compare across levels, not across workloads).
    pub repair_writes: u64,
}

/// The full Fig. 3 result.
#[derive(Debug, Clone)]
pub struct ConsistencyResult {
    /// Every (level, workload, target) point.
    pub cells: Vec<ConsistencyCell>,
    /// What the sweep cost (wall time, utilization, base loads).
    pub telemetry: Telemetry,
}

impl ConsistencyResult {
    /// Runtime-vs-target series for `(level, workload)`, target order;
    /// the unthrottled probe (target 0) sorts last.
    pub fn series(&self, level: &str, workload: &str) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = self
            .cells
            .iter()
            .filter(|c| c.level == level && c.workload == workload)
            .map(|c| (c.target, c.runtime))
            .collect();
        v.sort_by(|a, b| {
            let ka = if a.0 == 0.0 { f64::MAX } else { a.0 };
            let kb = if b.0 == 0.0 { f64::MAX } else { b.0 };
            ka.partial_cmp(&kb).expect("no NaN targets")
        });
        v
    }

    /// Peak runtime throughput for `(level, workload)` across all targets.
    pub fn peak(&self, level: &str, workload: &str) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.level == level && c.workload == workload)
            .map(|c| c.runtime)
            .fold(0.0, f64::max)
    }

    /// Render one table per workload: target rows × level columns
    /// (runtime throughput) — the shape of each Fig. 3 sub-plot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut workloads: Vec<String> = self.cells.iter().map(|c| c.workload.clone()).collect();
        workloads.sort();
        workloads.dedup();
        let mut levels: Vec<&'static str> = self.cells.iter().map(|c| c.level).collect();
        levels.dedup();
        let mut level_names: Vec<&'static str> = Vec::new();
        for l in levels {
            if !level_names.contains(&l) {
                level_names.push(l);
            }
        }
        for workload in &workloads {
            let mut headers: Vec<String> = vec!["target".into()];
            headers.extend(level_names.iter().map(|l| format!("{l} runtime")));
            let mut t = Table::new(
                &format!("Fig. 3 — consistency stress: {workload} (Cassandra analog, RF=3)"),
                &headers.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            let mut targets: Vec<f64> = self
                .cells
                .iter()
                .filter(|c| &c.workload == workload)
                .map(|c| c.target)
                .collect();
            targets.sort_by(|a, b| {
                let ka = if *a == 0.0 { f64::MAX } else { *a };
                let kb = if *b == 0.0 { f64::MAX } else { *b };
                ka.partial_cmp(&kb).expect("no NaN")
            });
            targets.dedup();
            for target in targets {
                let mut row = vec![if target == 0.0 {
                    "unthrottled".to_owned()
                } else {
                    fmt_ops(target)
                }];
                for level in &level_names {
                    let cell = self
                        .cells
                        .iter()
                        .find(|c| {
                            c.level == *level && &c.workload == workload && c.target == target
                        })
                        .map_or("-".to_owned(), |c| fmt_ops(c.runtime));
                    row.push(cell);
                }
                t.row(row);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// CSV table of every cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "fig3_stress_consistency",
            &[
                "level",
                "workload",
                "target",
                "runtime",
                "mean_us",
                "stale_fraction",
                "missing_fraction",
                "repair_writes",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.level.into(),
                c.workload.clone(),
                format!("{:.0}", c.target),
                format!("{:.1}", c.runtime),
                format!("{:.1}", c.mean_us),
                format!("{:.5}", c.stale_fraction),
                format!("{:.5}", c.missing_fraction),
                c.repair_writes.to_string(),
            ]);
        }
        t
    }
}

/// Run the full Fig. 3 experiment through the sweep engine.
pub fn run_consistency(cfg: &ConsistencyConfig) -> ConsistencyResult {
    run_consistency_with(cfg, &Sweep::from_env())
}

/// [`run_consistency`] on a caller-configured engine.
pub fn run_consistency_with(cfg: &ConsistencyConfig, sweep: &Sweep) -> ConsistencyResult {
    // One cell per (level, workload, target), in that nested order — the
    // cell order of the result (no final sort, matching the original
    // per-level serial loops). Each level's base state loads once.
    let specs: Vec<(Point, usize, f64)> = cfg
        .levels
        .iter()
        .flat_map(|&level| {
            let p = Point {
                store: StoreKind::CStore,
                rf: cfg.rf,
                level,
            };
            (0..cfg.workloads.len())
                .flat_map(move |w| cfg.targets.iter().map(move |&target| (p, w, target)))
        })
        .collect();
    let runner = Runner::new(&cfg.scale, cfg.seed, specs.iter().map(|&(p, ..)| p));

    let outcome = runner.sweep(sweep, &specs, |ctx, &(p, w, target)| {
        let workload = &cfg.workloads[w];
        let dcfg = DriverConfig {
            threads: cfg.threads,
            target_ops_per_sec: target,
            value_len: cfg.scale.value_len,
            warmup_ops: cfg.warmup_ops,
            measure_ops: cfg.measure_ops,
            seed: ctx.seed,
            ..DriverConfig::new(workload.clone(), cfg.scale.records)
        };
        let (run, _) = runner.run(&p, || Store::build(p, &cfg.scale), &dcfg);
        let repair_writes = run
            .counters
            .iter()
            .find(|(k, _)| *k == "repair_writes")
            .map_or(0, |(_, v)| *v);
        let (_, checked) = run.metrics.staleness();
        ConsistencyCell {
            level: p.level.name,
            workload: workload.name.clone(),
            target,
            runtime: run.throughput,
            mean_us: run.mean_latency_us,
            stale_fraction: run.stale_fraction,
            missing_fraction: if checked == 0 {
                0.0
            } else {
                run.metrics.missing_reads() as f64 / checked as f64
            },
            repair_writes,
        }
    });

    ConsistencyResult {
        cells: outcome.results,
        telemetry: outcome.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_consistency_produces_all_cells() {
        let cfg = ConsistencyConfig::quick();
        let res = run_consistency(&cfg);
        // 3 levels × 1 workload × 2 targets.
        assert_eq!(res.cells.len(), 6);
        for c in &res.cells {
            assert!(c.runtime > 0.0, "{c:?}");
        }
        assert!(res.render().contains("Fig. 3"));
        let series = res.series("ONE", "read & update");
        assert_eq!(series.len(), 2);
        assert!(res.peak("ONE", "read & update") > 0.0);
        // One base state per level, each loaded exactly once.
        assert_eq!(res.telemetry.base_loads, 3);
    }
}
