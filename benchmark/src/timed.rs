//! A transparent timing adapter around a store.
//!
//! [`Timed`] implements [`SimStore`] and [`FaultTarget`] by delegating every
//! call to the wrapped store, and times, from outside, the three calls the
//! driver makes per event: `handle` (split by event kind), `submit_tagged`
//! and `drain_completions`. Everything else the driver does — its own
//! bookkeeping and the event queue — is the run's wall time minus the
//! store-call time, so the two always sum to the run.
//!
//! The adapter performs no simulated work and draws no randomness, so a run
//! through it has exactly the outcome of a run on the bare store.

use std::mem::Discriminant;
use std::time::Instant;

use bench_core::{DriverEvent, SimStore};
use faults::FaultTarget;
use simkit::{NodeId, OpTag, Sim};
use storage::{Completion, Key, OpError, OpResult, StoreOp, Value};

/// Completions per wall-time window of [`Profile::kop_wall_ns`].
pub const KOP: u64 = 1_000;

/// Calls into one store entry point and the wall time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds spent inside them.
    pub ns: u64,
}

impl CallStat {
    fn add(&mut self, started: Instant) -> Instant {
        let now = Instant::now();
        self.calls += 1;
        self.ns += (now - started).as_nanos() as u64;
        now
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &CallStat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// What the adapter observed over one run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `handle` per event kind, named by the variant, in first-seen order.
    pub kinds: Vec<(String, CallStat)>,
    /// `submit_tagged` calls.
    pub submit: CallStat,
    /// `drain_completions` calls.
    pub drain: CallStat,
    /// `Sim::pending()` summed over every `handle` call.
    pub pending_sum: u64,
    /// Largest `Sim::pending()` seen at a `handle` call.
    pub pending_max: u64,
    /// Completions drained.
    pub completions: u64,
    /// Drained completions that carried [`OpError::Timeout`]: timeouts that
    /// failed an operation.
    pub timeout_failures: u64,
    /// Wall nanoseconds per [`KOP`] completions, in run order.
    pub kop_wall_ns: Vec<u64>,
}

impl Profile {
    /// Total wall nanoseconds spent inside store calls.
    pub fn store_ns(&self) -> u64 {
        self.kinds.iter().map(|(_, s)| s.ns).sum::<u64>() + self.submit.ns + self.drain.ns
    }

    /// `handle` calls of the named event kind (zero when never seen).
    pub fn kind(&self, name: &str) -> CallStat {
        self.kinds
            .iter()
            .find(|(k, _)| k == name)
            .map_or_else(CallStat::default, |(_, s)| *s)
    }

    /// Total `handle` calls.
    pub fn handled(&self) -> u64 {
        self.kinds.iter().map(|(_, s)| s.calls).sum()
    }

    /// Fold another run's profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (name, stat) in &other.kinds {
            match self.kinds.iter_mut().find(|(k, _)| k == name) {
                Some((_, s)) => s.merge(stat),
                None => self.kinds.push((name.clone(), *stat)),
            }
        }
        self.submit.merge(&other.submit);
        self.drain.merge(&other.drain);
        self.pending_sum += other.pending_sum;
        self.pending_max = self.pending_max.max(other.pending_max);
        self.completions += other.completions;
        self.timeout_failures += other.timeout_failures;
        self.kop_wall_ns.extend_from_slice(&other.kop_wall_ns);
    }
}

/// A store wrapped so that every driver call into it is timed.
pub struct Timed<S: SimStore> {
    inner: S,
    /// Discriminants of the event kinds seen, parallel to `profile.kinds`.
    seen: Vec<Discriminant<S::Event>>,
    profile: Profile,
    /// Start of the current [`KOP`]-completion window.
    window: Option<Instant>,
}

impl<S: SimStore> Timed<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            seen: Vec::new(),
            profile: Profile::default(),
            window: None,
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// What the adapter has observed so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn kind_slot(&mut self, ev: &S::Event) -> usize
    where
        S::Event: std::fmt::Debug,
    {
        let d = std::mem::discriminant(ev);
        if let Some(i) = self.seen.iter().position(|s| *s == d) {
            return i;
        }
        // First sighting of this kind: name it once from its Debug form.
        let name: String = format!("{ev:?}")
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        self.seen.push(d);
        self.profile.kinds.push((name, CallStat::default()));
        self.seen.len() - 1
    }
}

impl<S> SimStore for Timed<S>
where
    S: SimStore,
    S::Event: std::fmt::Debug,
{
    type Event = S::Event;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, sim: &mut Sim<DriverEvent<Self::Event>>, token: u64, op: StoreOp) {
        let t = Instant::now();
        self.window.get_or_insert(t);
        self.inner.submit(sim, token, op);
        self.profile.submit.add(t);
    }

    fn submit_tagged(
        &mut self,
        sim: &mut Sim<DriverEvent<Self::Event>>,
        token: u64,
        op: StoreOp,
        tag: OpTag,
    ) {
        let t = Instant::now();
        self.window.get_or_insert(t);
        self.inner.submit_tagged(sim, token, op, tag);
        self.profile.submit.add(t);
    }

    fn handle(&mut self, sim: &mut Sim<DriverEvent<Self::Event>>, ev: Self::Event) {
        let slot = self.kind_slot(&ev);
        let pending = sim.pending() as u64;
        self.profile.pending_sum += pending;
        self.profile.pending_max = self.profile.pending_max.max(pending);
        let t = Instant::now();
        self.inner.handle(sim, ev);
        self.profile.kinds[slot].1.add(t);
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        let t = Instant::now();
        let out = self.inner.drain_completions();
        let now = self.profile.drain.add(t);
        if out.is_empty() {
            return out;
        }
        let before = self.profile.completions;
        self.profile.completions += out.len() as u64;
        self.profile.timeout_failures += out
            .iter()
            .filter(|c| matches!(c.result, OpResult::Error(OpError::Timeout)))
            .count() as u64;
        if before / KOP != self.profile.completions / KOP {
            let start = self.window.replace(now).unwrap_or(now);
            self.profile
                .kop_wall_ns
                .push((now - start).as_nanos() as u64);
        }
        out
    }

    fn load_direct(&mut self, key: Key, value: Value, ts: u64) {
        self.inner.load_direct(key, value, ts);
    }

    fn flush_all(&mut self) {
        self.inner.flush_all();
    }

    fn warm_caches(&mut self) {
        self.inner.warm_caches();
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }

    fn tracer_mut(&mut self) -> &mut obs::Tracer {
        self.inner.tracer_mut()
    }

    fn snapshot(&self) -> Self {
        Self::new(self.inner.snapshot())
    }

    fn shares_storage_with(&self, other: &Self) -> bool {
        self.inner.shares_storage_with(&other.inner)
    }
}

impl<S> FaultTarget for Timed<S>
where
    S: SimStore + FaultTarget,
{
    type Event = <S as FaultTarget>::Event;

    fn fault_nodes(&self) -> usize {
        self.inner.fault_nodes()
    }

    fn region_nodes(&self, region: u32) -> Vec<NodeId> {
        self.inner.region_nodes(region)
    }

    fn apply_crash<W: From<Self::Event>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        self.inner.apply_crash(sim, node);
    }

    fn apply_recover<W: From<Self::Event>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        self.inner.apply_recover(sim, node);
    }

    fn apply_slow_disk(&mut self, node: NodeId, factor: u32) {
        self.inner.apply_slow_disk(node, factor);
    }

    fn apply_restore_disk(&mut self, node: NodeId) {
        self.inner.apply_restore_disk(node);
    }

    fn apply_net_delay(&mut self, node: NodeId, extra_us: u64) {
        self.inner.apply_net_delay(node, extra_us);
    }

    fn apply_restore_net(&mut self, node: NodeId) {
        self.inner.apply_restore_net(node);
    }
}
