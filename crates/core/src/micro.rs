//! Figure 1: the micro benchmark for replication.
//!
//! "In this benchmark, we keep the load of the testbed in unsaturated state
//! by limiting the number of concurrence requests, and conduct six rounds of
//! testing. In each round, the replication factor is increased by one, and
//! the update/read/insert/scan test is run one after another."

use storage::OpKind;
use ycsb::WorkloadSpec;

use crate::driver::DriverConfig;
use crate::report::{fmt_us, Table};
use crate::runner::{Point, Runner, Store};
use crate::setup::{Scale, StoreKind};
use crate::sweep::{Sweep, Telemetry};

/// The micro-test round order used by the paper.
pub const MICRO_OPS: [OpKind; 4] = [OpKind::Update, OpKind::Read, OpKind::Insert, OpKind::Scan];

/// Configuration of the Fig. 1 experiment.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Record/cache scale.
    pub scale: Scale,
    /// Replication factors to sweep.
    pub rfs: Vec<u32>,
    /// Client threads (kept modest: the paper limits concurrency).
    pub threads: usize,
    /// Cluster-wide target throughput keeping the testbed unsaturated.
    pub target_ops_per_sec: f64,
    /// Warm-up completions per round.
    pub warmup_ops: u64,
    /// Measured completions per round.
    pub measure_ops: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        Self {
            scale: Scale::micro(),
            rfs: (1..=6).collect(),
            threads: 48,
            target_ops_per_sec: 1_500.0,
            warmup_ops: 1_000,
            measure_ops: 8_000,
            seed: 42,
        }
    }
}

impl MicroConfig {
    /// A fast variant for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            rfs: vec![1, 3],
            threads: 4,
            target_ops_per_sec: 400.0,
            warmup_ops: 100,
            measure_ops: 500,
            seed: 42,
        }
    }
}

/// One measured point of Fig. 1.
#[derive(Debug, Clone)]
pub struct MicroCell {
    /// Which store.
    pub store: StoreKind,
    /// Replication factor.
    pub rf: u32,
    /// The atomic operation of the round.
    pub op: OpKind,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: u64,
    /// Runtime throughput, ops/s.
    pub throughput: f64,
}

/// The full Fig. 1 result.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// All measured cells.
    pub cells: Vec<MicroCell>,
    /// What the sweep cost (wall time, utilization, base loads).
    pub telemetry: Telemetry,
}

impl MicroResult {
    /// The cell for a specific point.
    pub fn cell(&self, store: StoreKind, rf: u32, op: OpKind) -> Option<&MicroCell> {
        self.cells
            .iter()
            .find(|c| c.store == store && c.rf == rf && c.op == op)
    }

    /// Mean-latency series for `(store, op)` ordered by RF.
    pub fn series(&self, store: StoreKind, op: OpKind) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .cells
            .iter()
            .filter(|c| c.store == store && c.op == op)
            .map(|c| (c.rf, c.mean_us))
            .collect();
        v.sort_by_key(|&(rf, _)| rf);
        v
    }

    /// Render one table per store: RF rows × operation columns (mean
    /// latency), the shape of the paper's Fig. 1.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for store in [StoreKind::HStore, StoreKind::CStore] {
            let mut t = Table::new(
                &format!(
                    "Fig. 1 — micro benchmark for replication: {}",
                    store.label()
                ),
                &["rf", "UPDATE mean", "READ mean", "INSERT mean", "SCAN mean"],
            );
            let mut rfs: Vec<u32> = self
                .cells
                .iter()
                .filter(|c| c.store == store)
                .map(|c| c.rf)
                .collect();
            rfs.sort_unstable();
            rfs.dedup();
            for rf in rfs {
                let cell = |op| {
                    self.cell(store, rf, op)
                        .map_or("-".to_owned(), |c| fmt_us(c.mean_us))
                };
                t.row(vec![
                    rf.to_string(),
                    cell(OpKind::Update),
                    cell(OpKind::Read),
                    cell(OpKind::Insert),
                    cell(OpKind::Scan),
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
            "fig1_micro_replication",
            &["store", "rf", "op", "mean_us", "p95_us", "throughput"],
        );
        for c in &self.cells {
            t.row(vec![
                c.store.short().into(),
                c.rf.to_string(),
                c.op.label().into(),
                format!("{:.1}", c.mean_us),
                c.p95_us.to_string(),
                format!("{:.1}", c.throughput),
            ]);
        }
        t
    }
}

/// Run the full Fig. 1 experiment through the sweep engine.
pub fn run_micro(cfg: &MicroConfig) -> MicroResult {
    run_micro_with(cfg, &Sweep::from_env())
}

/// [`run_micro`] on a caller-configured engine (the determinism tests run
/// the same grid serially and in parallel).
pub fn run_micro_with(cfg: &MicroConfig, sweep: &Sweep) -> MicroResult {
    // One cell per (store, RF, operation round); each (store, RF) base
    // state is bulk-loaded once and snapshot-cloned per round.
    let specs: Vec<(Point, OpKind)> = cfg
        .rfs
        .iter()
        .flat_map(|&rf| {
            [StoreKind::HStore, StoreKind::CStore]
                .into_iter()
                .flat_map(move |store| MICRO_OPS.iter().map(move |&op| (Point::new(store, rf), op)))
        })
        .collect();
    let runner = Runner::new(&cfg.scale, cfg.seed, specs.iter().map(|&(p, _)| p));

    let outcome = runner.sweep(sweep, &specs, |ctx, &(p, op)| {
        let dcfg = DriverConfig {
            threads: cfg.threads,
            target_ops_per_sec: cfg.target_ops_per_sec,
            value_len: cfg.scale.value_len,
            warmup_ops: cfg.warmup_ops,
            measure_ops: cfg.measure_ops,
            seed: ctx.seed,
            ..DriverConfig::new(WorkloadSpec::micro(op), cfg.scale.records)
        };
        let (out, _) = runner.run(&p, || Store::build(p, &cfg.scale), &dcfg);
        let hist = out.metrics.for_op(op).cloned().unwrap_or_default();
        MicroCell {
            store: p.store,
            rf: p.rf,
            op,
            mean_us: hist.mean(),
            p95_us: hist.p95(),
            throughput: out.throughput,
        }
    });

    let mut cells = outcome.results;
    cells.sort_by_key(|c| (c.store.short(), c.rf, c.op));
    MicroResult {
        cells,
        telemetry: outcome.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_micro_produces_all_cells() {
        let cfg = MicroConfig::quick();
        let res = run_micro(&cfg);
        // 2 stores × 2 RFs × 4 ops.
        assert_eq!(res.cells.len(), 16);
        for c in &res.cells {
            assert!(c.mean_us > 0.0, "{c:?} has zero latency");
            assert!(c.throughput > 0.0);
        }
        let rendered = res.render();
        assert!(rendered.contains("Fig. 1"));
        assert!(rendered.contains("hstore"));
        let series = res.series(StoreKind::CStore, OpKind::Read);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 1);
        // Each of the 4 base states (2 stores × 2 RFs) loaded exactly once.
        assert_eq!(res.telemetry.base_loads, 4);
        assert_eq!(res.telemetry.base_states, 4);
    }
}
