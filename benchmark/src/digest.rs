//! The correctness digest: a canonical text of a run's simulated outcome
//! and its 64-bit FNV-1a hash.
//!
//! Everything in it is a model output — events, ops, simulated latency and
//! throughput, staleness, store counters, audit verdicts — so it depends on
//! the seed and the code, never on the host or the wall clock.

use std::fmt::Display;

/// A digest under construction: one `key=value` line per fact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    text: String,
}

impl Digest {
    /// Append one fact.
    pub fn line(&mut self, key: impl Display, value: impl Display) {
        self.text.push_str(&format!("{key}={value}\n"));
    }

    /// Append every fact of `other`.
    pub fn extend(&mut self, other: &Digest) {
        self.text.push_str(&other.text);
    }

    /// The canonical text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// FNV-1a over the canonical text.
    pub fn hash(&self) -> u64 {
        self.text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_changed_fact_changes_the_hash() {
        let mut a = Digest::default();
        a.line("events", 10);
        a.line("p99_us", 704);
        let mut b = a.clone();
        assert_eq!(a.hash(), b.hash());
        b.line("stale", 0);
        assert_ne!(a.hash(), b.hash());
        let mut c = Digest::default();
        c.line("events", 10);
        c.line("p99_us", 705);
        assert_ne!(a.hash(), c.hash());
    }
}
