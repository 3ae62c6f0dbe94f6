//! Per-layer raw counts and times, and the per-layer metrics derived from
//! them.
//!
//! A [`Tally`] holds sums only, so the tallies of a sweep's cells merge by
//! addition; every metric is a ratio computed once, at the end.

use bench_core::Telemetry;

use crate::timed::Profile;

/// `cstore::Event` kinds, in metric order.
pub const CSTORE_KINDS: [&str; 13] = [
    "Arrive",
    "ReplicaRead",
    "ReadReturn",
    "ReplicaWrite",
    "WriteApplied",
    "WriteAck",
    "ReplicaScan",
    "ScanReturn",
    "Deliver",
    "Timeout",
    "HintReplay",
    "BgIo",
    "GcPause",
];

/// `hstore::Event` kinds, in metric order.
pub const HSTORE_KINDS: [&str; 9] = [
    "Arrive",
    "WalFlushDone",
    "ScanExec",
    "Deliver",
    "Timeout",
    "BgIo",
    "GcPause",
    "FailOver",
    "WalShip",
];

/// One store's driver calls, with the ops its runs completed.
#[derive(Debug, Clone, Default)]
pub struct StoreLayer {
    /// Simulated ops the store's runs completed.
    pub ops: u64,
    /// The adapter's observations, merged over the runs.
    pub profile: Profile,
}

impl StoreLayer {
    /// Add one run.
    pub fn absorb(&mut self, ops: u64, profile: &Profile) {
        self.ops += ops;
        self.profile.merge(profile);
    }
}

/// Raw per-layer counts and times of a traced repetition.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulated ops completed, warm-up included.
    pub ops: u64,
    /// Simulation events dispatched.
    pub events: u64,
    /// Wall nanoseconds inside `driver::run`.
    pub run_ns: u64,
    /// cstore's driver calls.
    pub cstore: StoreLayer,
    /// hstore's driver calls.
    pub hstore: StoreLayer,
    /// Block-cache hits during the runs.
    pub cache_hits: u64,
    /// Block-cache misses during the runs.
    pub cache_misses: u64,
    /// Block-cache evictions during the runs.
    pub evictions: u64,
    /// Memtable flushes during the runs.
    pub flushes: u64,
    /// Compactions during the runs.
    pub compactions: u64,
    /// Sorted runs at the end of the runs.
    pub sstables: u64,
    /// Bytes in sorted runs at the end of the runs.
    pub table_bytes: u64,
    /// Bytes on the dfs data nodes at the end of the runs.
    pub dfs_bytes: u64,
    /// Bytes of the live records (key + value) the stores hold.
    pub user_bytes: u64,
    /// Of [`Tally::user_bytes`], those held by dfs-backed stores.
    pub dfs_user_bytes: u64,
    /// hstore WAL group commits.
    pub wal_groups: u64,
    /// hstore WAL entries.
    pub wal_entries: u64,
    /// cstore hints replayed.
    pub hints_replayed: u64,
    /// Fault events applied.
    pub faults: u64,
    /// Allocations inside `driver::run`.
    pub allocs: u64,
    /// Bytes allocated inside `driver::run`.
    pub alloc_bytes: u64,
    /// Operation records the audit checkers replayed.
    pub audit_records: u64,
    /// Wall nanoseconds in the audit checkers.
    pub audit_check_ns: u64,
    /// Wall nanoseconds loading sweep base states.
    pub load_ns: u64,
    /// Sweep telemetry (`failover-audit` only).
    pub sweep: Option<Telemetry>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `q`-quantile (nearest rank) of `values`, 0 when empty.
fn quantile(values: &[u64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1] as f64,
    }
}

impl Tally {
    /// The layer of the store with this [`bench_core::SimStore::name`].
    pub fn store_mut(&mut self, name: &str) -> &mut StoreLayer {
        if name == "hstore" {
            &mut self.hstore
        } else {
            &mut self.cstore
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, o: &Tally) {
        self.ops += o.ops;
        self.events += o.events;
        self.run_ns += o.run_ns;
        self.cstore.absorb(o.cstore.ops, &o.cstore.profile);
        self.hstore.absorb(o.hstore.ops, &o.hstore.profile);
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.evictions += o.evictions;
        self.flushes += o.flushes;
        self.compactions += o.compactions;
        self.sstables += o.sstables;
        self.table_bytes += o.table_bytes;
        self.dfs_bytes += o.dfs_bytes;
        self.user_bytes += o.user_bytes;
        self.dfs_user_bytes += o.dfs_user_bytes;
        self.wal_groups += o.wal_groups;
        self.wal_entries += o.wal_entries;
        self.hints_replayed += o.hints_replayed;
        self.faults += o.faults;
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.audit_records += o.audit_records;
        self.audit_check_ns += o.audit_check_ns;
        self.load_ns += o.load_ns;
        if self.sweep.is_none() {
            self.sweep.clone_from(&o.sweep);
        }
    }

    /// Wall nanoseconds inside store calls, both stores.
    pub fn store_ns(&self) -> u64 {
        self.cstore.profile.store_ns() + self.hstore.profile.store_ns()
    }

    /// Every per-layer metric, by name, in a fixed order. Layers a
    /// workload does not exercise read 0.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let ops = self.ops as f64;
        let self_ns = self.run_ns.saturating_sub(self.store_ns()) as f64;
        let handled = self.cstore.profile.handled() + self.hstore.profile.handled();
        let pending_sum = self.cstore.profile.pending_sum + self.hstore.profile.pending_sum;
        let pending_max = self
            .cstore
            .profile
            .pending_max
            .max(self.hstore.profile.pending_max);
        let mut kops = self.cstore.profile.kop_wall_ns.clone();
        kops.extend_from_slice(&self.hstore.profile.kop_wall_ns);

        let mut m: Vec<(String, f64)> = vec![
            (
                "driver.wall_ns_per_op".into(),
                ratio(self.run_ns as f64, ops),
            ),
            ("driver_queue.self_ns_per_op".into(), ratio(self_ns, ops)),
            (
                "driver_queue.share".into(),
                ratio(self_ns, self.run_ns as f64),
            ),
            (
                "simkit.events_per_op".into(),
                ratio(self.events as f64, ops),
            ),
            (
                "simkit.pending_mean".into(),
                ratio(pending_sum as f64, handled as f64),
            ),
            ("simkit.pending_max".into(), pending_max as f64),
            ("driver.kop_wall_ms_p50".into(), quantile(&kops, 0.50) / 1e6),
            ("driver.kop_wall_ms_p99".into(), quantile(&kops, 0.99) / 1e6),
        ];
        for (store, layer, kinds) in [
            ("cstore", &self.cstore, &CSTORE_KINDS[..]),
            ("hstore", &self.hstore, &HSTORE_KINDS[..]),
        ] {
            let p = &layer.profile;
            let store_ops = layer.ops as f64;
            for kind in kinds {
                let s = p.kind(kind);
                m.push((
                    format!("{store}.{kind}.calls_per_op"),
                    ratio(s.calls as f64, store_ops),
                ));
                m.push((
                    format!("{store}.{kind}.ns_per_call"),
                    ratio(s.ns as f64, s.calls as f64),
                ));
            }
            m.push((
                format!("{store}.submit.ns_per_call"),
                ratio(p.submit.ns as f64, p.submit.calls as f64),
            ));
            m.push((
                format!("{store}.drain.ns_per_call"),
                ratio(p.drain.ns as f64, p.drain.calls as f64),
            ));
            m.push((
                format!("{store}.timeout_useful_ratio"),
                ratio(p.timeout_failures as f64, p.kind("Timeout").calls as f64),
            ));
        }
        let sweep = self.sweep.as_ref();
        let base_loads = sweep.map_or(0, |t| t.base_loads);
        m.extend([
            (
                "hstore.wal_entries_per_group".into(),
                ratio(self.wal_entries as f64, self.wal_groups as f64),
            ),
            (
                "storage.cache_hit_rate".into(),
                ratio(
                    self.cache_hits as f64,
                    (self.cache_hits + self.cache_misses) as f64,
                ),
            ),
            (
                "storage.evictions_per_op".into(),
                ratio(self.evictions as f64, ops),
            ),
            ("storage.flushes".into(), self.flushes as f64),
            ("storage.compactions".into(), self.compactions as f64),
            ("storage.sstables".into(), self.sstables as f64),
            (
                "storage.bytes_per_user_byte".into(),
                ratio(self.table_bytes as f64, self.user_bytes as f64),
            ),
            (
                "dfs.bytes_per_user_byte".into(),
                ratio(self.dfs_bytes as f64, self.dfs_user_bytes as f64),
            ),
            ("alloc.count_per_op".into(), ratio(self.allocs as f64, ops)),
            (
                "alloc.bytes_per_op".into(),
                ratio(self.alloc_bytes as f64, ops),
            ),
            (
                "sweep.utilization".into(),
                sweep.map_or(0.0, Telemetry::utilization),
            ),
            ("sweep.base_loads".into(), base_loads as f64),
            (
                "sweep.load_s_per_base".into(),
                ratio(self.load_ns as f64 / 1e9, base_loads as f64),
            ),
            (
                "sweep.cell_s_max".into(),
                sweep.map_or(0.0, |t| {
                    t.cells.iter().map(|c| c.wall_us).max().unwrap_or(0) as f64 / 1e6
                }),
            ),
            ("driver.run_s".into(), self.run_ns as f64 / 1e9),
            ("audit.records".into(), self.audit_records as f64),
            ("audit.check_s".into(), self.audit_check_ns as f64 / 1e9),
            ("faults.injected".into(), self.faults as f64),
            ("cstore.hints_replayed".into(), self.hints_replayed as f64),
        ]);
        m
    }
}
