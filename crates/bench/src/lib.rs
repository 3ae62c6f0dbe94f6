//! # bench — harness regenerating every evaluation artifact
//!
//! Binaries (run with `--release`; each also writes CSV under `results/`):
//!
//! * `table1` — the paper's Table 1 (workload definitions).
//! * `fig1` — micro benchmark for replication (latency vs RF, both stores).
//! * `fig2` — stress benchmark for replication (peak throughput + latency
//!   vs RF, five workloads, both stores).
//! * `fig3` — stress benchmark for consistency (runtime vs target under
//!   ONE / QUORUM / write-ALL, Cassandra analog, RF=3).
//! * `fig4` — failure timeline (throughput dip, error spike, and recovery
//!   around a crash/recover fault, both stores × RF × consistency).
//! * `fig5` — availability under failure with a resilient client (the
//!   Fig. 4 crash under `none` / `retry` / `retry+hedge` policies:
//!   goodput split, client-visible errors, attempts-per-op cost).
//! * `fig6` — latency decomposition (every op span-traced, critical paths
//!   extracted, virtual time attributed to pipeline stages — where does
//!   the time go, both stores × RF × consistency).
//! * `fig7` — geo-replication PACELC sweep (region count × consistency
//!   level over multi-datacenter topologies: DC-aware quorums on the
//!   Cassandra analog, async WAL shipping on the HBase analog).
//! * `fig8` — client-centric consistency audit (per-client operation
//!   histories recorded through the Fig. 4 crash plan, replayed through
//!   session-guarantee checkers, (Δ,p)-staleness curves, and a bounded
//!   linearizability check, split by fault phase).
//! * `ablations` — beyond-paper ablations (read repair, commit-log
//!   durability, partitioner).
//!
//! Pass `--quick` to any figure binary for a fast smoke-scale run.
//! Criterion microbenches for the hot components live in `benches/`.

/// True when the CLI asked for the smoke-scale variant.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The directory figure CSVs are written into (`RESULTS_DIR` overrides).
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".to_owned()))
}
