//! Figure 6: latency decomposition — where does the time go?
//!
//! The paper reports *end-to-end* latencies and argues from architecture
//! why they differ: HBase acknowledges writes once the WAL append is in
//! the memory of every pipeline datanode, so write latency is flat in the
//! replication factor; Cassandra's coordinator waits for a consistency
//! quota of replica acks, so write latency grows with RF and CL. This
//! experiment *measures* that argument. Every operation is traced through
//! the span tracer ([`obs`]), its critical path extracted, and virtual
//! time attributed to pipeline stages — so each cell shows not just how
//! long an op took but exactly which stage the time went to.
//!
//! Because the simulation is deterministic and the critical path tiles
//! `[issued, settled)` by construction, the per-op stage sums equal the
//! measured client latency *exactly*, in virtual µs — checked for every
//! traced op and surfaced as [`DecompositionCell::exact`].

use obs::{critical_path, OpTrace, Stage, StageAgg, TraceConfig};
use storage::OpKind;
use ycsb::WorkloadSpec;

use crate::driver::DriverConfig;
use crate::report::{fmt_us, Table};
use crate::runner::{paper_grid, Runner, Store};
use crate::setup::{Scale, StoreKind};
use crate::sweep::{Sweep, Telemetry};

/// Configuration of the Fig. 6 experiment.
#[derive(Debug, Clone)]
pub struct DecompositionConfig {
    /// Record/cache scale.
    pub scale: Scale,
    /// Replication factors to sweep.
    pub rfs: Vec<u32>,
    /// Client threads.
    pub threads: usize,
    /// Warm-up completions (excluded from the aggregation).
    pub warmup_ops: u64,
    /// Measured completions.
    pub measure_ops: u64,
    /// Trace every Nth issued op (1 = every op).
    pub sample_every: u64,
    /// Full span trees kept per cell for the JSONL exporter (the stage
    /// aggregation always covers every traced op).
    pub keep_traces: usize,
    /// The workload to decompose.
    pub workload: WorkloadSpec,
    /// Seed.
    pub seed: u64,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        Self {
            scale: Scale::stress(),
            rfs: vec![1, 3, 5],
            threads: 32,
            warmup_ops: 2_000,
            measure_ops: 20_000,
            sample_every: 1,
            keep_traces: 8,
            workload: WorkloadSpec::read_update(),
            seed: 42,
        }
    }
}

impl DecompositionConfig {
    /// A fast variant for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            rfs: vec![1, 3, 5],
            threads: 8,
            warmup_ops: 200,
            measure_ops: 2_000,
            sample_every: 1,
            keep_traces: 4,
            workload: WorkloadSpec::read_update(),
            seed: 42,
        }
    }
}

/// One (store, RF, consistency) cell: per-stage time attribution over
/// every traced op's critical path.
#[derive(Debug, Clone)]
pub struct DecompositionCell {
    /// Which store.
    pub store: StoreKind,
    /// Replication factor.
    pub rf: u32,
    /// Consistency strategy name ([`crate::failure::HSTORE_CL`] for the
    /// HBase analog).
    pub cl: &'static str,
    /// Per-(op kind, stage) critical-path time.
    pub agg: StageAgg,
    /// Ops whose critical path was extracted and aggregated.
    pub ops_traced: u64,
    /// Whether every traced op's critical-path stage sum equalled its
    /// measured client latency exactly (the tracing soundness invariant).
    pub exact: bool,
    /// The first [`DecompositionConfig::keep_traces`] successful op
    /// traces, kept for the JSONL exporter.
    pub sample: Vec<OpTrace>,
}

impl DecompositionCell {
    /// Mean critical-path time in `stage` for ops of `kind`, µs.
    pub fn stage_mean_us(&self, kind: OpKind, stage: Stage) -> f64 {
        self.agg.mean_us(kind, stage)
    }

    /// The stage with the largest total time for ops of `kind`.
    pub fn top_stage(&self, kind: OpKind) -> Option<(Stage, f64)> {
        Stage::ALL
            .iter()
            .filter_map(|&s| {
                let share = self.agg.share(kind, s);
                (share > 0.0).then_some((s, share))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// The full Fig. 6 result.
#[derive(Debug, Clone)]
pub struct DecompositionResult {
    /// All measured cells.
    pub cells: Vec<DecompositionCell>,
    /// Workload name (for rendering).
    pub workload: String,
    /// What the sweep cost (wall time, utilization, base loads).
    pub telemetry: Telemetry,
}

impl DecompositionResult {
    /// The cell for a specific point.
    pub fn cell(&self, store: StoreKind, rf: u32, cl: &str) -> Option<&DecompositionCell> {
        self.cells
            .iter()
            .find(|c| c.store == store && c.rf == rf && c.cl == cl)
    }

    /// Render the summary table — one row per (store, RF, CL, op kind)
    /// with the mean latency and the two dominant critical-path stages.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            &format!("Fig. 6 — latency decomposition ({})", self.workload),
            &[
                "store",
                "rf",
                "cl",
                "op",
                "ops",
                "mean",
                "top stage",
                "share",
                "2nd stage",
                "share",
            ],
        );
        for c in &self.cells {
            for kind in c.agg.kinds() {
                let ops = c.agg.ops(kind);
                if ops == 0 {
                    continue;
                }
                let mean = c.agg.total_us(kind) as f64 / ops as f64;
                let mut stages: Vec<(Stage, f64)> = Stage::ALL
                    .iter()
                    .filter_map(|&s| {
                        let share = c.agg.share(kind, s);
                        (share > 0.0).then_some((s, share))
                    })
                    .collect();
                stages.sort_by(|a, b| b.1.total_cmp(&a.1));
                let fmt = |i: usize| -> (String, String) {
                    stages.get(i).map_or(("-".into(), "-".into()), |(s, sh)| {
                        (s.label().into(), format!("{:.0}%", sh * 100.0))
                    })
                };
                let (top, top_share) = fmt(0);
                let (second, second_share) = fmt(1);
                t.row(vec![
                    c.store.short().into(),
                    c.rf.to_string(),
                    c.cl.into(),
                    kind.label().into(),
                    ops.to_string(),
                    fmt_us(mean),
                    top,
                    top_share,
                    second,
                    second_share,
                ]);
            }
        }
        t.render()
    }

    /// CSV table: one row per (store, RF, CL, op kind, stage).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "fig6_decomposition",
            &[
                "store", "rf", "cl", "op", "stage", "ops", "total_us", "mean_us", "share",
            ],
        );
        for c in &self.cells {
            for (kind, stage, cell) in c.agg.iter() {
                t.row(vec![
                    c.store.short().into(),
                    c.rf.to_string(),
                    c.cl.into(),
                    kind.label().into(),
                    stage.label().into(),
                    c.agg.ops(kind).to_string(),
                    cell.total_us.to_string(),
                    format!("{:.1}", c.agg.mean_us(kind, stage)),
                    format!("{:.4}", c.agg.share(kind, stage)),
                ]);
            }
        }
        t
    }

    /// The kept sample traces of one cell, assembled for JSONL export.
    pub fn sample_trace(&self, store: StoreKind, rf: u32, cl: &str) -> Option<obs::RunTrace> {
        self.cell(store, rf, cl).map(|c| obs::RunTrace {
            ops: c.sample.clone(),
            background: Vec::new(),
        })
    }
}

/// Run the full Fig. 6 experiment through the sweep engine.
pub fn run_decomposition(cfg: &DecompositionConfig) -> DecompositionResult {
    run_decomposition_with(cfg, &Sweep::from_env())
}

/// [`run_decomposition`] on a caller-configured engine.
pub fn run_decomposition_with(cfg: &DecompositionConfig, sweep: &Sweep) -> DecompositionResult {
    // One cell per (store, RF, consistency level), exactly the Fig. 4
    // grid: the HBase analog's single implicit strong level plus the
    // Cassandra analog's three paper levels.
    let specs = paper_grid(&cfg.rfs);
    let runner = Runner::new(&cfg.scale, cfg.seed, specs.iter().copied());

    let outcome = runner.sweep(sweep, &specs, |ctx, &p| {
        let dcfg = DriverConfig {
            threads: cfg.threads,
            value_len: cfg.scale.value_len,
            warmup_ops: cfg.warmup_ops,
            measure_ops: cfg.measure_ops,
            seed: ctx.seed,
            trace: TraceConfig::every(cfg.sample_every),
            ..DriverConfig::new(cfg.workload.clone(), cfg.scale.records)
        };
        let (out, _) = runner.run(&p, || Store::build(p, &cfg.scale), &dcfg);
        let trace = out.trace.unwrap_or_default();
        let mut agg = StageAgg::new();
        let mut exact = true;
        let mut ops_traced = 0u64;
        let mut sample = Vec::new();
        for op in &trace.ops {
            if !op.ok {
                continue;
            }
            let path = critical_path(op.issued, op.settled, &op.spans);
            let path_sum: u64 = path.iter().map(|seg| seg.len()).sum();
            exact &= path_sum == op.latency_us();
            agg.record_path(op.kind, &path);
            ops_traced += 1;
            if sample.len() < cfg.keep_traces {
                sample.push(op.clone());
            }
        }
        DecompositionCell {
            store: p.store,
            rf: p.rf,
            cl: p.cl(),
            agg,
            ops_traced,
            exact,
            sample,
        }
    });

    let mut cells = outcome.results;
    cells.sort_by(|a, b| (a.store.short(), a.rf, a.cl).cmp(&(b.store.short(), b.rf, b.cl)));
    DecompositionResult {
        cells,
        workload: cfg.workload.name.clone(),
        telemetry: outcome.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::HSTORE_CL;

    fn res() -> DecompositionResult {
        run_decomposition(&DecompositionConfig::quick())
    }

    #[test]
    fn quick_decomposition_produces_all_cells_exactly() {
        let res = res();
        // 3 RFs × (1 hstore level + 3 cstore levels).
        assert_eq!(res.cells.len(), 12);
        for c in &res.cells {
            assert!(c.ops_traced > 0, "{}/{}/{}", c.store, c.rf, c.cl);
            // The soundness invariant: every traced op's critical-path
            // stage sum equals its measured latency, exactly.
            assert!(
                c.exact,
                "inexact decomposition: {}/{}/{}",
                c.store, c.rf, c.cl
            );
            assert!(!c.sample.is_empty());
        }
        let rendered = res.render();
        assert!(rendered.contains("Fig. 6"));
        assert!(rendered.contains("strong"));
        // Every aggregated (kind, stage) pair becomes one CSV row.
        let entries: usize = res.cells.iter().map(|c| c.agg.iter().count()).sum();
        assert_eq!(res.table().rows.len(), entries);
    }

    #[test]
    fn hstore_write_path_is_in_memory_wal_ack_at_every_rf() {
        let res = res();
        let mut wal_commit_means = Vec::new();
        for &rf in &[1u32, 3, 5] {
            let c = res.cell(StoreKind::HStore, rf, HSTORE_CL).expect("cell");
            // The write ack is in-memory end to end: the WAL pipeline acks
            // from datanode memory, so no disk stage ever appears on the
            // write critical path, at any replication factor.
            assert_eq!(
                c.agg.share(OpKind::Update, Stage::DiskIo),
                0.0,
                "rf={rf}: disk on the write critical path"
            );
            // The WAL ack stages are always present on that path.
            let wal = c.agg.share(OpKind::Update, Stage::WalQueue)
                + c.agg.share(OpKind::Update, Stage::WalCommit);
            assert!(wal > 0.0, "rf={rf}: no WAL time on the write path");
            wal_commit_means.push(c.stage_mean_us(OpKind::Update, Stage::WalCommit));
        }
        // What does grow with RF is exactly the pipeline commit (one more
        // serial in-memory hop per extra replica) — nothing else.
        assert!(wal_commit_means[0] < wal_commit_means[1]);
        assert!(wal_commit_means[1] < wal_commit_means[2]);
    }

    #[test]
    fn hstore_writes_flatter_in_rf_than_cstore_write_all() {
        let res = res();
        // The paper's architectural contrast, measured: replication makes
        // the HBase analog's writes only mildly slower (serial in-memory
        // pipeline hops), while the Cassandra analog's write-ALL quorum
        // wait — waiting on the slowest of RF replica round trips — grows
        // much faster.
        let mean = |store, cl: &str, rf| {
            let c = res.cell(store, rf, cl).expect("cell");
            c.agg.total_us(OpKind::Update) as f64 / c.agg.ops(OpKind::Update) as f64
        };
        let h_growth =
            mean(StoreKind::HStore, HSTORE_CL, 5) / mean(StoreKind::HStore, HSTORE_CL, 1);
        let qw = |rf| {
            res.cell(StoreKind::CStore, rf, "write ALL")
                .expect("cell")
                .stage_mean_us(OpKind::Update, Stage::QuorumWait)
        };
        let c_growth = qw(5) / qw(1);
        assert!(
            h_growth < c_growth,
            "hstore write growth {h_growth:.2}x should undercut write-ALL quorum growth {c_growth:.2}x"
        );
    }

    #[test]
    fn cstore_quorum_wait_grows_with_rf_and_cl() {
        let res = res();
        let qw = |rf: u32, cl: &str| -> f64 {
            res.cell(StoreKind::CStore, rf, cl)
                .expect("cell")
                .stage_mean_us(OpKind::Update, Stage::QuorumWait)
        };
        // More required acks at fixed RF: ONE ≤ QUORUM ≤ ALL (strict at
        // the endpoints).
        assert!(qw(3, "ONE") < qw(3, "write ALL"));
        assert!(qw(3, "ONE") <= qw(3, "QUORUM"));
        assert!(qw(3, "QUORUM") <= qw(3, "write ALL"));
        // Waiting for all of more replicas takes longer: RF 1 < 3 ≤ 5.
        assert!(qw(1, "write ALL") < qw(3, "write ALL"));
        assert!(qw(3, "write ALL") <= qw(5, "write ALL"));
    }

    #[test]
    fn sample_traces_export_deterministically() {
        let res = res();
        let trace = res
            .sample_trace(StoreKind::CStore, 3, "QUORUM")
            .expect("cell");
        let jsonl = trace.to_jsonl();
        assert!(jsonl.contains("\"spans\""));
        assert!(jsonl.contains("quorum_wait"));
        let again = run_decomposition(&DecompositionConfig::quick());
        let jsonl2 = again
            .sample_trace(StoreKind::CStore, 3, "QUORUM")
            .expect("cell")
            .to_jsonl();
        assert_eq!(jsonl, jsonl2, "same seed must export identical traces");
    }
}
