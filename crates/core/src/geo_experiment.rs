//! Figure 7: the geo-replication (PACELC) experiment.
//!
//! The paper's testbed is one datacenter; its §6 future work asks what the
//! replication/consistency trade looks like when replicas sit behind WAN
//! links. This experiment sweeps region count × consistency level over the
//! geo subsystem: the Cassandra analog places `rf_per_dc` replicas in every
//! datacenter with [`geo::Strategy::NetworkTopology`] and runs the
//! datacenter-aware levels (`LOCAL_QUORUM` settles inside the coordinator's
//! DC, `EACH_QUORUM` waits on the slowest DC's quorum), while the HBase
//! analog runs its async cluster-replication mode (the primary region
//! serves all traffic and ships committed WAL groups to follower regions).
//!
//! The output is the PACELC trade made measurable: as regions grow, weak
//! levels keep their latency but pay in staleness (Cassandra: stale-read
//! fraction; HBase: the follower replication window), strong levels pay
//! one or two WAN round trips per operation.

use cstore::{CStoreConfig, Consistency, Partitioner};
use faults::FaultPlan;
use hstore::HStoreConfig;
use ycsb::{balanced_tokens, WorkloadSpec};

use crate::consistency::Level;
use crate::driver::{self, DriverConfig};
use crate::report::{fmt_ops, Table};
use crate::runner::{Runner, Store};
use crate::setup::{Scale, StoreKind};
use crate::sweep::{Sweep, Telemetry};

/// The level label used for the HBase analog's async-replication rows
/// (HBase has no consistency knob; geo mode adds asynchrony, not a level).
pub const HSTORE_LEVEL: &str = "async-ship";

/// The five strategies of the geo sweep: the paper's three plus the two
/// datacenter-aware levels the geo subsystem adds.
pub const GEO_LEVELS: [Level; 5] = [
    Level {
        name: "ONE",
        read: Consistency::One,
        write: Consistency::One,
    },
    Level {
        name: "LOCAL_QUORUM",
        read: Consistency::LocalQuorum,
        write: Consistency::LocalQuorum,
    },
    Level {
        name: "QUORUM",
        read: Consistency::Quorum,
        write: Consistency::Quorum,
    },
    Level {
        name: "EACH_QUORUM",
        read: Consistency::EachQuorum,
        write: Consistency::EachQuorum,
    },
    Level {
        name: "write ALL",
        read: Consistency::One,
        write: Consistency::All,
    },
];

/// Configuration of the Fig. 7 experiment.
#[derive(Debug, Clone)]
pub struct GeoExperimentConfig {
    /// Record/cache scale (`scale.nodes` is ignored: the cluster is
    /// `nodes_per_region × regions`).
    pub scale: Scale,
    /// Servers per datacenter.
    pub nodes_per_region: usize,
    /// Replicas per datacenter (Cassandra analog: the NetworkTopology
    /// quota; HBase analog: the in-region HDFS replication factor).
    pub rf_per_dc: u32,
    /// Region counts swept (the x-axis; 1 = the paper's single-DC testbed).
    pub region_counts: Vec<u32>,
    /// One-way inter-region delay, microseconds.
    pub inter_region_us: u64,
    /// Relative WAN jitter applied per region pair at matrix build time
    /// (asymmetric links; still deterministic).
    pub wan_jitter: f64,
    /// Extra HBase-analog shipping lag before a committed group leaves the
    /// primary.
    pub ship_lag_us: u64,
    /// Consistency strategies swept (Cassandra analog only).
    pub levels: Vec<Level>,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Client threads.
    pub threads: usize,
    /// Target throughput (0 = unthrottled peak probe).
    pub target_ops_per_sec: f64,
    /// Warm-up completions per run.
    pub warmup_ops: u64,
    /// Measured completions per run.
    pub measure_ops: u64,
    /// Fault plan injected into every cell (empty by default; region-scoped
    /// kinds let a whole datacenter crash or partition mid-run).
    pub faults: FaultPlan,
    /// Seed. Cells with the same region count share their driver seed, so
    /// levels that take identical code paths (single-region LOCAL_QUORUM vs
    /// QUORUM) produce bit-identical rows.
    pub seed: u64,
}

impl Default for GeoExperimentConfig {
    fn default() -> Self {
        Self {
            scale: Scale::stress(),
            nodes_per_region: 5,
            rf_per_dc: 3,
            region_counts: vec![1, 2, 3],
            inter_region_us: geo::DEFAULT_INTER_REGION_US,
            wan_jitter: 0.2,
            ship_lag_us: 10_000,
            levels: GEO_LEVELS.to_vec(),
            workload: WorkloadSpec::read_update(),
            threads: 48,
            target_ops_per_sec: 0.0,
            warmup_ops: 2_000,
            measure_ops: 20_000,
            faults: FaultPlan::new(),
            seed: 42,
        }
    }
}

impl GeoExperimentConfig {
    /// A fast variant for tests and smoke runs (same grid, tiny scale).
    pub fn quick() -> Self {
        Self {
            scale: Scale::tiny(),
            threads: 8,
            warmup_ops: 100,
            measure_ops: 600,
            ..Self::default()
        }
    }
}

/// One Fig. 7 cell: one (store, region count, level) run.
#[derive(Debug, Clone)]
pub struct GeoCell {
    /// Which store.
    pub store: StoreKind,
    /// Datacenters in the cluster.
    pub regions: u32,
    /// Consistency strategy name ([`HSTORE_LEVEL`] for the HBase analog).
    pub level: &'static str,
    /// Total replicas per key across all datacenters.
    pub rf_total: u32,
    /// Runtime throughput, ops/s.
    pub runtime: f64,
    /// Successful (error-free) throughput, ops/s.
    pub goodput: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Failed operations in the measured window.
    pub errors: u64,
    /// Stale-read fraction the driver measured (Cassandra analog; the
    /// HBase primary is strongly consistent, so 0 there).
    pub stale_fraction: f64,
    /// Mean replication window, µs: commit-to-follower-apply gap (HBase
    /// analog async mode; 0 for the Cassandra analog and single region).
    pub repl_window_us: f64,
}

/// The full Fig. 7 result.
#[derive(Debug, Clone)]
pub struct GeoResult {
    /// Every (store, regions, level) cell.
    pub cells: Vec<GeoCell>,
    /// What the sweep cost.
    pub telemetry: Telemetry,
}

impl GeoResult {
    /// The cell for `(store, regions, level)`, if present.
    pub fn cell(&self, store: StoreKind, regions: u32, level: &str) -> Option<&GeoCell> {
        self.cells
            .iter()
            .find(|c| c.store == store && c.regions == regions && c.level == level)
    }

    /// Render one table per region count — the Fig. 7 panels.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut region_counts: Vec<u32> = self.cells.iter().map(|c| c.regions).collect();
        region_counts.sort_unstable();
        region_counts.dedup();
        for regions in region_counts {
            let mut t = Table::new(
                &format!("Fig. 7 — geo-replication PACELC: {regions} region(s)"),
                &[
                    "store",
                    "level",
                    "rf_total",
                    "runtime",
                    "goodput",
                    "mean_us",
                    "p99_us",
                    "stale_frac",
                    "repl_window_us",
                ],
            );
            for c in self.cells.iter().filter(|c| c.regions == regions) {
                t.row(vec![
                    c.store.short().to_owned(),
                    c.level.to_owned(),
                    c.rf_total.to_string(),
                    fmt_ops(c.runtime),
                    fmt_ops(c.goodput),
                    format!("{:.1}", c.mean_us),
                    c.p99_us.to_string(),
                    format!("{:.5}", c.stale_fraction),
                    format!("{:.1}", c.repl_window_us),
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
            "fig7_geo",
            &[
                "store",
                "regions",
                "level",
                "rf_total",
                "runtime",
                "goodput",
                "mean_us",
                "p99_us",
                "errors",
                "stale_fraction",
                "repl_window_us",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.store.short().to_owned(),
                c.regions.to_string(),
                c.level.to_owned(),
                c.rf_total.to_string(),
                format!("{:.1}", c.runtime),
                format!("{:.1}", c.goodput),
                format!("{:.1}", c.mean_us),
                c.p99_us.to_string(),
                c.errors.to_string(),
                format!("{:.5}", c.stale_fraction),
                format!("{:.1}", c.repl_window_us),
            ]);
        }
        t
    }
}

/// The per-region-pair jitter seed is tied to the experiment seed so two
/// runs of the same config see the same asymmetric WAN matrix.
fn geo_config(cfg: &GeoExperimentConfig, regions: u32) -> geo::GeoConfig {
    geo::GeoConfig {
        regions,
        racks_per_region: 1,
        inter_region_us: cfg.inter_region_us,
        wan_jitter: cfg.wan_jitter,
        jitter_seed: cfg.seed,
    }
}

/// Build the Cassandra-analog geo cluster: `nodes_per_region` nodes per
/// datacenter, `rf_per_dc` replicas per datacenter via NetworkTopology.
fn build_geo_cstore(cfg: &GeoExperimentConfig, regions: u32, level: Level) -> cstore::Cluster {
    let npr = cfg.nodes_per_region;
    let nodes = npr * regions as usize;
    let rf_total = cfg.rf_per_dc * regions;
    let mut c = CStoreConfig::paper_testbed(
        rf_total,
        Partitioner::order_preserving(balanced_tokens(nodes)),
    );
    c.nodes = nodes;
    let prop = c.profile.nic.prop_us;
    c.topology = geo_config(cfg, regions).topology(npr, prop, prop);
    c.strategy = geo::Strategy::network_topology(regions, cfg.rf_per_dc);
    c.lsm = cfg.scale.lsm();
    c.read_cl = level.read;
    c.write_cl = level.write;
    cstore::Cluster::new(c)
}

/// Build the HBase-analog geo cluster: the primary region serves all
/// traffic, `regions - 1` follower regions receive shipped WAL groups.
fn build_geo_hstore(cfg: &GeoExperimentConfig, regions: u32) -> hstore::Cluster {
    let npr = cfg.nodes_per_region;
    let splits: Vec<_> = balanced_tokens(npr).into_iter().skip(1).collect();
    let mut h = HStoreConfig::paper_testbed(cfg.rf_per_dc.min(npr as u32), splits);
    h.nodes = npr;
    h.topology = simkit::Topology::single_rack(npr, h.profile.nic.prop_us);
    h.lsm = cfg.scale.lsm();
    h.follower_regions = regions - 1;
    h.ship_wan_us = cfg.inter_region_us;
    h.ship_lag_us = cfg.ship_lag_us;
    hstore::Cluster::new(h, 0xB0A7 ^ u64::from(regions))
}

fn driver_config(cfg: &GeoExperimentConfig, seed: u64) -> DriverConfig {
    DriverConfig {
        threads: cfg.threads,
        target_ops_per_sec: cfg.target_ops_per_sec,
        value_len: cfg.scale.value_len,
        warmup_ops: cfg.warmup_ops,
        measure_ops: cfg.measure_ops,
        seed,
        faults: cfg.faults.clone(),
        ..DriverConfig::new(cfg.workload.clone(), cfg.scale.records)
    }
}

fn goodput(run: &driver::RunOutcome, measure_ops: u64) -> f64 {
    if measure_ops == 0 {
        return 0.0;
    }
    run.throughput * (1.0 - run.errors as f64 / measure_ops as f64)
}

/// Run the full Fig. 7 experiment through the sweep engine.
pub fn run_geo(cfg: &GeoExperimentConfig) -> GeoResult {
    run_geo_with(cfg, &Sweep::from_env())
}

/// [`run_geo`] on a caller-configured engine.
pub fn run_geo_with(cfg: &GeoExperimentConfig, sweep: &Sweep) -> GeoResult {
    // One cell per (regions, level) for the Cassandra analog plus one
    // async-replication cell per region count for the HBase analog, in
    // region-count-major order. `None` marks the HBase cell.
    let specs: Vec<(u32, Option<usize>)> = cfg
        .region_counts
        .iter()
        .flat_map(|&r| {
            (0..cfg.levels.len())
                .map(move |l| (r, Some(l)))
                .chain(std::iter::once((r, None)))
        })
        .collect();
    let runner = Runner::new(&cfg.scale, cfg.seed, specs.iter().copied());

    let outcome = runner.sweep(sweep, &specs, |_ctx, &(regions, level_idx)| {
        // Cells with equal region counts share one driver seed so levels
        // that must coincide (single-region LOCAL_QUORUM vs QUORUM) stay
        // bit-identical; different region counts get distinct streams.
        let cell_seed = cfg.seed ^ (u64::from(regions) << 17);
        let build = || match level_idx {
            Some(l) => Store::C(build_geo_cstore(cfg, regions, cfg.levels[l])),
            None => Store::H(build_geo_hstore(cfg, regions)),
        };
        let (run, snapshot) =
            runner.run(&(regions, level_idx), build, &driver_config(cfg, cell_seed));
        let (store, level, rf_per_dc) = match level_idx {
            Some(l) => (StoreKind::CStore, cfg.levels[l].name, cfg.rf_per_dc),
            None => (
                StoreKind::HStore,
                HSTORE_LEVEL,
                cfg.rf_per_dc.min(cfg.nodes_per_region as u32),
            ),
        };
        GeoCell {
            store,
            regions,
            level,
            rf_total: rf_per_dc * regions,
            runtime: run.throughput,
            goodput: goodput(&run, cfg.measure_ops),
            mean_us: run.mean_latency_us,
            p99_us: run.metrics.overall().quantile(0.99),
            errors: run.errors,
            stale_fraction: run.stale_fraction,
            repl_window_us: match &snapshot {
                Store::H(h) => h.mean_replication_window_us(),
                Store::C(_) => 0.0,
            },
        }
    });

    GeoResult {
        cells: outcome.results,
        telemetry: outcome.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_geo_produces_the_full_grid() {
        let cfg = GeoExperimentConfig::quick();
        let res = run_geo(&cfg);
        // 3 region counts × (5 levels + 1 hstore row).
        assert_eq!(res.cells.len(), 18);
        for c in &res.cells {
            assert!(c.runtime > 0.0, "{c:?}");
        }
        assert!(res.render().contains("Fig. 7"));
        assert_eq!(res.telemetry.base_loads, 18);
    }

    #[test]
    fn single_region_dc_aware_levels_match_quorum_exactly() {
        let mut cfg = GeoExperimentConfig::quick();
        cfg.region_counts = vec![1];
        let res = run_geo(&cfg);
        let q = res.cell(StoreKind::CStore, 1, "QUORUM").expect("cell");
        for level in ["LOCAL_QUORUM", "EACH_QUORUM"] {
            let c = res.cell(StoreKind::CStore, 1, level).expect("cell");
            assert_eq!(c.runtime, q.runtime, "{level} runtime diverged");
            assert_eq!(c.mean_us, q.mean_us, "{level} latency diverged");
            assert_eq!(c.p99_us, q.p99_us, "{level} p99 diverged");
            assert_eq!(c.errors, q.errors);
        }
    }

    #[test]
    fn three_regions_reproduce_the_pacelc_trade() {
        let mut cfg = GeoExperimentConfig::quick();
        cfg.region_counts = vec![3];
        let res = run_geo(&cfg);
        let one = res.cell(StoreKind::CStore, 3, "ONE").expect("cell");
        let each = res.cell(StoreKind::CStore, 3, "EACH_QUORUM").expect("cell");
        // Latency: EACH_QUORUM pays at least one WAN round trip per op.
        assert!(
            each.mean_us > one.mean_us + 2.0 * cfg.inter_region_us as f64 * 0.5,
            "EACH_QUORUM {:.0}µs should dwarf ONE {:.0}µs",
            each.mean_us,
            one.mean_us
        );
        // Staleness: the strong level's R+W quotas overlap in every DC.
        assert!(each.stale_fraction <= one.stale_fraction);
        // The HBase analog keeps local latency but pays a replication
        // window of at least ship lag + WAN delay.
        let h = res.cell(StoreKind::HStore, 3, HSTORE_LEVEL).expect("cell");
        assert!(h.mean_us < each.mean_us);
        assert!(h.repl_window_us >= (cfg.ship_lag_us + cfg.inter_region_us) as f64);
    }

    #[test]
    fn single_region_nts_run_matches_simple_strategy_run() {
        // The whole-experiment equivalence behind the placement refactor: a
        // driver run over a 1-region NetworkTopology cluster is event-for-
        // event identical to the same run over classic SimpleStrategy
        // placement (same topology distances, same tokens, same RF).
        let cfg = GeoExperimentConfig::quick();
        let run = |strategy: geo::Strategy| {
            let level = GEO_LEVELS[0];
            let mut c = build_geo_cstore(&cfg, 1, level);
            assert_eq!(c.config().strategy, geo::Strategy::network_topology(1, 3));
            if strategy == geo::Strategy::Simple {
                let mut base = CStoreConfig::paper_testbed(
                    3,
                    Partitioner::order_preserving(balanced_tokens(cfg.nodes_per_region)),
                );
                base.nodes = cfg.nodes_per_region;
                let prop = base.profile.nic.prop_us;
                base.topology = geo_config(&cfg, 1).topology(cfg.nodes_per_region, prop, prop);
                base.lsm = cfg.scale.lsm();
                base.read_cl = level.read;
                base.write_cl = level.write;
                c = cstore::Cluster::new(base);
            }
            driver::load(&mut c, cfg.scale.records, cfg.scale.value_len, cfg.seed);
            let run = driver::run(&mut c, &driver_config(&cfg, cfg.seed));
            (
                run.throughput,
                run.mean_latency_us,
                run.events_dispatched,
                run.sim_duration_us,
            )
        };
        assert_eq!(
            run(geo::Strategy::Simple),
            run(geo::Strategy::network_topology(1, 3))
        );
    }

    #[test]
    fn region_crash_hurts_each_quorum_hardest() {
        // Satellite check: a whole-datacenter crash through the region-
        // scoped fault plan. EACH_QUORUM needs every DC's quorum, so it
        // errors on (nearly) every write while region 1 is down;
        // LOCAL_QUORUM only fails ops coordinated by the dead DC.
        let mut cfg = GeoExperimentConfig::quick();
        cfg.region_counts = vec![2];
        cfg.faults = FaultPlan::new().crash_region_at(1, 50_000);
        cfg.levels = vec![GEO_LEVELS[1], GEO_LEVELS[3]];
        let res = run_geo(&cfg);
        let local = res
            .cell(StoreKind::CStore, 2, "LOCAL_QUORUM")
            .expect("cell");
        let each = res.cell(StoreKind::CStore, 2, "EACH_QUORUM").expect("cell");
        assert!(each.errors > 0, "EACH_QUORUM must fail during a DC outage");
        assert!(
            each.errors > local.errors,
            "EACH_QUORUM ({}) should fail more than LOCAL_QUORUM ({})",
            each.errors,
            local.errors
        );
    }
}
