//! The cell runner: one pool of loaded base states and one run path shared
//! by every sweep-based experiment.
//!
//! Every figure is a grid of cells, and every cell is the same four steps:
//! build a cluster, bulk-load it at the experiment seed, take a
//! copy-on-write snapshot, and drive the snapshot through [`driver::run`].
//! A [`Runner`] owns the first two (once per distinct base key, whatever
//! key the experiment uses to tell its bases apart) and [`Runner::run`]
//! does the last two, so an experiment's cell closure keeps only what is
//! its own: how to build the cluster and what to read off the outcome.
//!
//! [`Store`] puts both analogs behind one type, so the runner has a single
//! pool and a single dispatch point. Store-specific reads after a run
//! (geo's replication window, the partitioner's ring) come from the run
//! snapshot [`Runner::run`] hands back.

use cstore::CStoreConfig;
use hstore::HStoreConfig;

use crate::consistency::{Level, PAPER_LEVELS};
use crate::driver::{self, DriverConfig, RunOutcome};
use crate::failure::HSTORE_CL;
use crate::setup::{build_cstore_with, build_hstore_with, Scale, StoreKind};
use crate::sweep::{BasePool, CellCtx, Sweep, SweepOutcome};

/// A cluster of either store analog.
#[derive(Clone)]
pub enum Store {
    /// The HBase analog.
    H(hstore::Cluster),
    /// The Cassandra analog.
    C(cstore::Cluster),
}

impl Store {
    /// Build the paper testbed for `point` at `scale`.
    pub fn build(point: Point, scale: &Scale) -> Self {
        Self::build_with(point, scale, |_| {}, |_| {})
    }

    /// [`Store::build`] with a configuration hook per store, applied before
    /// construction (RPC timeouts, failover delay, admission control…).
    pub fn build_with(
        point: Point,
        scale: &Scale,
        htweak: impl FnOnce(&mut HStoreConfig),
        ctweak: impl FnOnce(&mut CStoreConfig),
    ) -> Self {
        let Point { store, rf, level } = point;
        match store {
            StoreKind::HStore => Store::H(build_hstore_with(scale, rf, htweak)),
            StoreKind::CStore => Store::C(build_cstore_with(
                scale,
                rf,
                level.read,
                level.write,
                ctweak,
            )),
        }
    }

    /// A copy-on-write snapshot (see [`crate::store::SimStore::snapshot`]).
    fn snapshot(&self) -> Self {
        match self {
            Store::H(h) => Store::H(h.snapshot()),
            Store::C(c) => Store::C(c.snapshot()),
        }
    }

    /// Bulk-load through [`driver::load`].
    fn load(&mut self, records: u64, value_len: usize, seed: u64) {
        match self {
            Store::H(h) => driver::load(h, records, value_len, seed),
            Store::C(c) => driver::load(c, records, value_len, seed),
        }
    }

    /// Drive one run through [`driver::run`].
    fn run(&mut self, cfg: &DriverConfig) -> RunOutcome {
        match self {
            Store::H(h) => driver::run(h, cfg),
            Store::C(c) => driver::run(c, cfg),
        }
    }
}

/// One (store, RF, consistency level) point of the paper's grid. The HBase
/// analog has no consistency knob: its builder ignores `level`, and its
/// label is [`HSTORE_CL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Which store.
    pub store: StoreKind,
    /// Replication factor.
    pub rf: u32,
    /// Consistency strategy (Cassandra analog only).
    pub level: Level,
}

impl Point {
    /// The point at the default level (ONE; no level for the HBase analog).
    pub fn new(store: StoreKind, rf: u32) -> Self {
        Self {
            store,
            rf,
            level: PAPER_LEVELS[0],
        }
    }

    /// The consistency label: the level's name, or [`HSTORE_CL`].
    pub fn cl(&self) -> &'static str {
        match self.store {
            StoreKind::HStore => HSTORE_CL,
            StoreKind::CStore => self.level.name,
        }
    }
}

/// The (store, RF, consistency) grid of Figs. 4, 6 and 8: per RF, the HBase
/// analog once, then the Cassandra analog at each of the paper's levels.
pub fn paper_grid(rfs: &[u32]) -> Vec<Point> {
    rfs.iter()
        .flat_map(|&rf| {
            std::iter::once(Point::new(StoreKind::HStore, rf)).chain(PAPER_LEVELS.iter().map(
                move |&level| Point {
                    store: StoreKind::CStore,
                    rf,
                    level,
                },
            ))
        })
        .collect()
}

/// Loaded base states keyed by the experiment's own cell key, each built and
/// bulk-loaded once at the experiment seed, plus the run path every cell
/// takes through them.
pub struct Runner<K> {
    pool: BasePool<K, Store>,
    records: u64,
    value_len: usize,
    seed: u64,
}

impl<K: PartialEq + std::fmt::Debug + Send + Sync> Runner<K> {
    /// A runner over the distinct `keys` (repeats collapse), loading
    /// `scale.records` records with the experiment `seed`.
    pub fn new(scale: &Scale, seed: u64, keys: impl IntoIterator<Item = K>) -> Self {
        let mut distinct: Vec<K> = Vec::new();
        for k in keys {
            if !distinct.contains(&k) {
                distinct.push(k);
            }
        }
        Self {
            pool: BasePool::new(distinct),
            records: scale.records,
            value_len: scale.value_len,
            seed,
        }
    }

    /// Run `cfg` on a snapshot of the base for `key`, building it with
    /// `build` and loading it on first use. Returns the outcome and the
    /// snapshot the run left behind.
    pub fn run(
        &self,
        key: &K,
        build: impl FnOnce() -> Store,
        cfg: &DriverConfig,
    ) -> (RunOutcome, Store) {
        let mut store = self
            .pool
            .get_or_load(key, || {
                let mut base = build();
                base.load(self.records, self.value_len, self.seed);
                base
            })
            .snapshot();
        let out = store.run(cfg);
        (out, store)
    }

    /// [`Sweep::run`] over `cells` from the experiment seed, with the pool's
    /// load accounting folded into the telemetry.
    pub fn sweep<T, R, F>(&self, sweep: &Sweep, cells: &[T], f: F) -> SweepOutcome<R>
    where
        T: Sync,
        R: Send,
        F: Fn(CellCtx, &T) -> R + Sync,
    {
        let mut outcome = sweep.run(self.seed, cells, f);
        outcome.telemetry.record_pool(&self.pool);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_hstore_then_the_three_levels_per_rf() {
        let grid = paper_grid(&[1, 3]);
        let labels: Vec<(StoreKind, u32, &str)> =
            grid.iter().map(|p| (p.store, p.rf, p.cl())).collect();
        assert_eq!(
            labels,
            [
                (StoreKind::HStore, 1, HSTORE_CL),
                (StoreKind::CStore, 1, "ONE"),
                (StoreKind::CStore, 1, "QUORUM"),
                (StoreKind::CStore, 1, "write ALL"),
                (StoreKind::HStore, 3, HSTORE_CL),
                (StoreKind::CStore, 3, "ONE"),
                (StoreKind::CStore, 3, "QUORUM"),
                (StoreKind::CStore, 3, "write ALL"),
            ]
        );
    }
}
