//! Beyond-paper ablations and extension experiments.
//!
//! The paper's §6 lists what its single-rack testbed could not do; these
//! experiments cover the design-choice ablations DESIGN.md calls out:
//!
//! * **read repair on/off** — isolates the mechanism the paper blames for
//!   Cassandra's read-latency growth at RF > 3;
//! * **commit-log durability** — periodic (the paper's deployment) vs
//!   per-write sync, isolating the mechanism behind flat write latency;
//! * **partitioner** — order-preserving vs hashing placement.
//!
//! Failover (throughput and errors before, during, and after a node
//! failure) is Fig. 4's pre/fault/post phase table.

use cstore::{CStoreConfig, CommitlogSync, Consistency};
use ycsb::WorkloadSpec;

use crate::driver::{self, DriverConfig};
use crate::report::{fmt_ops, fmt_us, Table};
use crate::setup::{build_cstore_with, Scale};
use crate::sweep::Sweep;

/// Shared knobs for the ablation runs.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Record/cache scale.
    pub scale: Scale,
    /// Client threads.
    pub threads: usize,
    /// Warm-up completions per run.
    pub warmup_ops: u64,
    /// Measured completions per run.
    pub measure_ops: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            scale: Scale::stress(),
            threads: 64,
            warmup_ops: 2_000,
            measure_ops: 15_000,
            seed: 42,
        }
    }
}

impl AblationConfig {
    /// A fast variant for tests.
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            threads: 8,
            warmup_ops: 100,
            measure_ops: 800,
            seed: 42,
        }
    }

    /// Build a CL=ONE cstore with `tweak` applied, load it, and drive
    /// `workload` on it.
    fn run_cstore(
        &self,
        rf: u32,
        workload: WorkloadSpec,
        tweak: impl FnOnce(&mut CStoreConfig),
    ) -> (driver::RunOutcome, cstore::Cluster) {
        let scale = &self.scale;
        let mut store = build_cstore_with(scale, rf, Consistency::One, Consistency::One, tweak);
        driver::load(&mut store, scale.records, scale.value_len, self.seed);
        let dcfg = DriverConfig {
            threads: self.threads,
            value_len: scale.value_len,
            warmup_ops: self.warmup_ops,
            measure_ops: self.measure_ops,
            seed: self.seed,
            ..DriverConfig::new(workload, scale.records)
        };
        (driver::run(&mut store, &dcfg), store)
    }
}

/// One labelled measurement row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Runtime throughput, ops/s.
    pub throughput: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Stale-read fraction.
    pub stale_fraction: f64,
    /// Errors in the measured window.
    pub errors: u64,
}

fn to_row(variant: &str, out: &driver::RunOutcome) -> AblationRow {
    AblationRow {
        variant: variant.to_owned(),
        throughput: out.throughput,
        mean_us: out.mean_latency_us,
        stale_fraction: out.stale_fraction,
        errors: out.errors,
    }
}

fn rows_table(title: &str, rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        title,
        &["variant", "throughput", "mean latency", "stale%", "errors"],
    );
    for r in rows {
        t.row(vec![
            r.variant.clone(),
            fmt_ops(r.throughput),
            fmt_us(r.mean_us),
            format!("{:.3}%", r.stale_fraction * 100.0),
            r.errors.to_string(),
        ]);
    }
    t
}

/// Ablation A — read repair chance 0 / 0.1 / 1.0 at a high RF, CL=ONE,
/// read-mostly: the mechanism behind the Fig. 1 Cassandra read knee.
/// Variants are independent, so each is one sweep cell.
pub fn ablate_read_repair(cfg: &AblationConfig, rf: u32) -> Table {
    let chances = [0.0, 0.1, 1.0];
    let rows = Sweep::from_env()
        .run(cfg.seed, &chances, |_, &chance| {
            let (out, _) = cfg.run_cstore(rf, WorkloadSpec::read_mostly(), |c| {
                c.read_repair_chance = chance
            });
            to_row(&format!("read_repair_chance={chance}"), &out)
        })
        .results;
    rows_table(
        &format!("Ablation — read repair chance (cstore, RF={rf}, CL=ONE, read mostly)"),
        &rows,
    )
}

/// Ablation B — commit-log durability: periodic (deployed default) vs
/// per-write sync on a write-heavy workload.
pub fn ablate_commitlog(cfg: &AblationConfig) -> Table {
    let modes = [
        ("periodic (default)", CommitlogSync::Periodic),
        ("per-write sync", CommitlogSync::PerWrite),
    ];
    let rows = Sweep::from_env()
        .run(cfg.seed, &modes, |_, &(label, mode)| {
            let (out, _) =
                cfg.run_cstore(3, WorkloadSpec::read_update(), |c| c.commitlog_sync = mode);
            to_row(label, &out)
        })
        .results;
    rows_table(
        "Ablation — commit-log durability (cstore, RF=3, read & update)",
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_repair_ablation_runs() {
        let t = ablate_read_repair(&AblationConfig::quick(), 3);
        assert_eq!(t.rows.len(), 3);
        assert!(t.render().contains("read_repair_chance=0"));
    }

    #[test]
    fn commitlog_ablation_shows_per_write_cost() {
        let t = ablate_commitlog(&AblationConfig::quick());
        assert_eq!(t.rows.len(), 2);
        // Column 2 is mean latency like "3.20ms"; parse back loosely by
        // comparing throughput (col 1): periodic must beat per-write sync.
        let parse = |s: &str| -> f64 {
            if let Some(k) = s.strip_suffix('k') {
                k.parse::<f64>().unwrap_or(0.0) * 1_000.0
            } else {
                s.parse::<f64>().unwrap_or(0.0)
            }
        };
        let periodic = parse(&t.rows[0][1]);
        let perwrite = parse(&t.rows[1][1]);
        assert!(
            periodic > perwrite,
            "periodic {periodic} should out-run per-write {perwrite}"
        );
    }
}

/// Ablation — partitioner choice: the order-preserving partitioner the scan
/// workloads require vs the hashing (Murmur-style) partitioner Cassandra
/// defaults to. Measures point-op throughput and the per-node primary-load
/// balance; range scans are only meaningful under the ordered partitioner.
pub fn ablate_partitioner(cfg: &AblationConfig) -> Table {
    let mut t = Table::new(
        "Ablation — partitioner (cstore, RF=3, read & update)",
        &[
            "partitioner",
            "throughput",
            "mean latency",
            "primary-load skew (max/min)",
        ],
    );
    let variants = [true, false];
    let rows = Sweep::from_env()
        .run(cfg.seed, &variants, |_, &ordered| {
            let nodes = cfg.scale.nodes;
            let tokens = cfg.scale.tokens();
            let (out, store) = cfg.run_cstore(3, WorkloadSpec::read_update(), |c| {
                c.partitioner = if ordered {
                    cstore::Partitioner::order_preserving(tokens)
                } else {
                    cstore::Partitioner::murmur()
                };
            });
            // Primary-load balance: how evenly the preloaded keys spread.
            let mut counts = vec![0u64; nodes];
            for i in 0..cfg.scale.records.min(20_000) {
                counts[store.ring().primary(&ycsb::encode_key(i))] += 1;
            }
            let min = *counts.iter().min().unwrap() as f64;
            let max = *counts.iter().max().unwrap() as f64;
            vec![
                if ordered {
                    "order-preserving".into()
                } else {
                    "murmur (hashing)".into()
                },
                fmt_ops(out.throughput),
                fmt_us(out.mean_latency_us),
                format!("{:.2}", max / min.max(1.0)),
            ]
        })
        .results;
    for row in rows {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod partitioner_tests {
    use super::*;

    #[test]
    fn both_partitioners_balance_hashed_keys() {
        let t = ablate_partitioner(&AblationConfig::quick());
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let skew: f64 = row[3].parse().unwrap();
            assert!(skew < 1.6, "{} skew {skew} too high", row[0]);
        }
    }
}
