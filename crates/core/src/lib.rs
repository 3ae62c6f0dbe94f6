//! # bench-core — the paper's benchmarking methodology as a library
//!
//! This crate is the reproduction of the paper's *contribution*: the
//! methodology of §3 ("Benchmarking Replication and Consistency") and the
//! experiments of §4, runnable against the simulated stores.
//!
//! * [`store`] — the [`store::SimStore`] abstraction over the two database
//!   analogs plus the driver-facing event wrapper.
//! * [`driver`] — the closed-loop YCSB client: thread pacing, target
//!   throughput, warm-up separation, RMW composition, latency histograms,
//!   and stale-read measurement.
//! * [`setup`] — calibrated cluster builders: the paper's testbed scaled
//!   down by a documented factor (record counts and cache sizes shrink
//!   together so cache-hit regimes are preserved).
//! * [`micro`] — Fig. 1: per-operation latency vs replication factor at an
//!   unsaturated load, both stores.
//! * [`stress`] — Fig. 2: peak runtime throughput and latency vs
//!   replication factor for the five Table 1 workloads, both stores.
//! * [`consistency`] — Fig. 3: runtime vs target throughput under ONE /
//!   QUORUM / write-ALL, Cassandra analog at RF=3.
//! * [`failure`] — Fig. 4: the failure timeline — a declarative fault
//!   plan crashes a node mid-run and per-window metrics trace the
//!   throughput dip, error spike, and recovery for every (store, RF,
//!   consistency) combination.
//! * [`resilience`] — the client-side resilience policy: bounded retries
//!   with jittered exponential backoff, per-operation deadline budgets, and
//!   hedged reads — pure decision logic the driver schedules through the
//!   simulation event queue, so resilient runs stay deterministic.
//! * [`geo_experiment`] — Fig. 7: the geo-replication PACELC sweep —
//!   region count × consistency level over multi-datacenter topologies;
//!   the Cassandra analog runs NetworkTopology placement with the
//!   DC-aware levels, the HBase analog runs async WAL shipping, and the
//!   output traces latency vs staleness as WAN links enter the quorum.
//! * [`availability`] — Fig. 5: availability under failure — the Fig. 4
//!   crash/recover plan rerun under each retry policy, tracing goodput
//!   (first-try vs retried successes), error rate, and attempts per op.
//! * [`decomposition`] — Fig. 6: latency decomposition — every op traced
//!   through the span tracer, its critical path extracted, and virtual
//!   time attributed to pipeline stages, so each (store, RF, CL) cell
//!   shows exactly where the time goes (HBase: in-memory WAL ack, flat in
//!   RF; Cassandra: quorum wait growing with RF and CL).
//! * [`overload`] — Fig. 10: graceful degradation under overload — an
//!   open-loop offered-load sweep across the capacity knee, with and
//!   without server-side admission control, tracing goodput, shed rate,
//!   per-tenant p99, and SLA attainment per load step.
//! * [`audit_experiment`] — Fig. 8: client-centric consistency auditing —
//!   every client's operation history recorded through the zero-cost audit
//!   hook, then replayed through the session-guarantee checkers, the
//!   (Δ,p)-staleness curves, and a bounded linearizability check, per
//!   fault phase of the Fig. 4 crash plan.
//! * [`ablation`] — beyond-paper experiments: read repair on/off,
//!   commit-log durability modes, node failure/failover.
//! * [`perf`] — engine-speed measurement (`BENCH_009.json`): queue-churn
//!   hold-model benchmarks of the calendar queue against the reference
//!   heap, LSM storage microbenches (hot/cold gets, flush cycles, the
//!   streaming compaction merge), timed whole-driver runs on either
//!   backend, and peak-RSS capture, feeding the CI events/sec and
//!   ops/sec regression gates.
//! * [`sla`] — the paper's §6 future work: SLA-based stress specification
//!   (bisection search for the highest throughput meeting a latency SLA).
//! * [`runner`] — the cell runner every sweep-based experiment runs its
//!   cells through: one pool of loaded base states keyed by the
//!   experiment's own cell key, and one build → load → snapshot → run path
//!   over either store analog.
//! * [`sweep`] — the shared experiment engine every module above runs on:
//!   deterministic per-cell seed derivation, a self-scheduling parallel
//!   executor, ordered result collection with wall-time telemetry, and
//!   load-once base-state pools handing out copy-on-write store snapshots.
//! * [`report`] — text tables, ASCII charts, and CSV emission.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod audit_experiment;
pub mod availability;
pub mod consistency;
pub mod decomposition;
pub mod driver;
pub mod failure;
pub mod geo_experiment;
pub mod micro;
pub mod overload;
pub mod perf;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod setup;
pub mod sla;
pub mod store;
pub mod stress;
pub mod sweep;

pub use audit_experiment::{AuditCell, AuditExperimentConfig, AuditResult, PhaseAudit};
pub use availability::{AvailabilityConfig, AvailabilityResult};
pub use decomposition::{DecompositionConfig, DecompositionResult};
pub use driver::{ArrivalMode, DriverConfig, RunOutcome};
pub use failure::{FailureConfig, FailureResult};
pub use geo_experiment::{GeoExperimentConfig, GeoResult};
pub use overload::{OverloadConfig, OverloadResult};
pub use report::{AsciiChart, Table};
pub use resilience::{GiveUpReason, RetryDecision, RetryPolicy};
pub use setup::{build_cstore, build_hstore, Scale, StoreKind};
pub use store::{DriverEvent, SimStore};
pub use sweep::{BasePool, Sweep, SweepOutcome, Telemetry};
