//! Property-based tests for the storage engine's core invariants.

use bytes::Bytes;
use proptest::prelude::*;

use storage::compaction::SizeTieredPolicy;
use storage::merge::{merge_entries, merge_runs};
use storage::{Cell, Key, LsmConfig, LsmTree, Memtable, SsTable, TableId};

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}").into_bytes())
}

/// The pre-streaming merge implementation, preserved verbatim as the
/// differential oracle for [`merge_runs`]: pop the smallest `(key, source)`
/// pair off a heap of owned entries, reconcile duplicates with
/// [`Cell::reconcile`], collect the winners. Same tie-break contract the
/// streaming borrow-based merge must reproduce byte for byte.
mod legacy {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use storage::{Cell, Key};

    struct HeapItem {
        key: Key,
        cell: Cell,
        source: usize,
    }

    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.source == other.source
        }
    }
    impl Eq for HeapItem {}
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .key
                .cmp(&self.key)
                .then_with(|| other.source.cmp(&self.source))
        }
    }

    pub fn merge_collect(
        sources: Vec<Vec<(Key, Cell)>>,
        drop_tombstones: bool,
    ) -> Vec<(Key, Cell)> {
        let mut iters: Vec<_> = sources.into_iter().map(|v| v.into_iter()).collect();
        let mut heap = BinaryHeap::new();
        for (source, it) in iters.iter_mut().enumerate() {
            if let Some((key, cell)) = it.next() {
                heap.push(HeapItem { key, cell, source });
            }
        }
        let mut out = Vec::new();
        while let Some(first) = heap.pop() {
            if let Some((key, cell)) = iters[first.source].next() {
                heap.push(HeapItem {
                    key,
                    cell,
                    source: first.source,
                });
            }
            let mut key = first.key;
            let mut cell = first.cell;
            while let Some(top) = heap.peek() {
                if top.key != key {
                    break;
                }
                let dup = heap.pop().expect("peeked");
                if let Some((k, c)) = iters[dup.source].next() {
                    heap.push(HeapItem {
                        key: k,
                        cell: c,
                        source: dup.source,
                    });
                }
                cell = Cell::reconcile(cell, dup.cell);
                key = dup.key;
            }
            if !(drop_tombstones && cell.is_tombstone()) {
                out.push((key, cell));
            }
        }
        out
    }
}

/// Sorted/unique runs with duplicate keys across runs and a tombstone mix:
/// the full input space of a compaction merge.
fn arb_sorted_runs() -> impl Strategy<Value = Vec<Vec<(Key, Cell)>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                0u64..60,
                0u64..1_000,
                prop::bool::ANY,
                prop::collection::vec(any::<u8>(), 0..12),
            ),
            0..50,
        ),
        0..6,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .map(|mut run| {
                // Sorted + unique per key, as the merge contract requires.
                run.sort_by_key(|(id, ..)| *id);
                run.dedup_by_key(|(id, ..)| *id);
                run.into_iter()
                    .map(|(id, ts, dead, value)| {
                        let cell = if dead {
                            Cell::tombstone(ts)
                        } else {
                            Cell::live(Bytes::from(value), ts)
                        };
                        (key(id), cell)
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    })
}

fn arb_entries(max_keys: u64) -> impl Strategy<Value = Vec<(u64, Vec<u8>, u64)>> {
    // (key id, value, timestamp)
    prop::collection::vec(
        (
            0..max_keys,
            prop::collection::vec(any::<u8>(), 0..24),
            0u64..1_000,
        ),
        0..200,
    )
}

/// The per-record bulk load: `put` each record, flush when the memtable
/// is due, compact when a flush makes a bucket ripe, then a final flush
/// and a major compaction. The reference for [`LsmTree::ingest`].
fn load_per_record(config: LsmConfig, records: &[(Key, Cell)]) -> LsmTree {
    let mut tree = LsmTree::new(config);
    for (key, cell) in records {
        if tree.put(key.clone(), cell.clone()).flush_due {
            if let Some(receipt) = tree.flush() {
                if receipt.compaction_due {
                    tree.maybe_compact();
                }
            }
        }
    }
    tree.flush();
    tree.compact_all();
    tree
}

/// The staged bulk load: one `ingest` of the whole batch, then the same
/// closing flush and major compaction.
fn load_staged(config: LsmConfig, records: &[(Key, Cell)]) -> LsmTree {
    let mut tree = LsmTree::new(config);
    tree.ingest(records.to_vec());
    tree.flush();
    tree.compact_all();
    tree
}

/// Live records over a small key space with few distinct timestamps and
/// short values, so duplicate keys and equal-timestamp ties are common.
fn arb_load() -> impl Strategy<Value = Vec<(Key, Cell)>> {
    prop::collection::vec(
        (0u64..120, 0u64..4, prop::collection::vec(0u8..4, 0..40)),
        0..400,
    )
    .prop_map(|records| {
        records
            .into_iter()
            .map(|(id, ts, value)| (key(id), Cell::live(Bytes::from(value), ts)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: a staged ingest leaves a fresh tree in exactly the
    /// state the per-record load path does — the same run entries and
    /// block layout, the same bloom answers, the same WAL counters — and
    /// every read and scan returns the same rows with the same I/O.
    #[test]
    fn staged_ingest_equals_per_record_load(
        records in arb_load(),
        flush_bytes in 64u64..4_096,
        block_size in 32u64..1_024,
        min_threshold in 2usize..5,
        starts in prop::collection::vec((0u64..130, 1usize..40), 0..8),
    ) {
        let config = LsmConfig {
            block_size,
            memtable_flush_bytes: flush_bytes,
            cache_bytes: 4 * 1024,
            compaction: SizeTieredPolicy { min_threshold, ..Default::default() },
        };
        let mut reference = load_per_record(config, &records);
        let mut staged = load_staged(config, &records);

        prop_assert!(staged.runs().len() <= 1);
        prop_assert_eq!(staged.runs().len(), reference.runs().len());
        for (a, b) in staged.runs().iter().zip(reference.runs()) {
            prop_assert_eq!(a.entries(), b.entries());
            prop_assert_eq!(a.total_bytes(), b.total_bytes());
            prop_assert_eq!(a.block_count(), b.block_count());
            for block in 0..a.block_count() {
                prop_assert_eq!(a.block_len(block), b.block_len(block));
            }
            for id in 0..130u64 {
                prop_assert_eq!(a.may_contain(&key(id)), b.may_contain(&key(id)));
            }
        }
        prop_assert_eq!(staged.memtable_len(), 0);

        let (sw, rw) = (staged.wal(), reference.wal());
        prop_assert_eq!(sw.last_seq(), records.len() as u64);
        prop_assert_eq!(sw.last_seq(), rw.last_seq());
        prop_assert_eq!(sw.bytes(), rw.bytes());
        prop_assert_eq!(sw.unsynced_bytes(), rw.unsynced_bytes());
        prop_assert_eq!(sw.len(), rw.len());
        prop_assert_eq!(staged.sync_wal(), reference.sync_wal());

        for id in 0..130u64 {
            prop_assert_eq!(staged.get(&key(id)), reference.get(&key(id)), "key {}", id);
        }
        for (start, limit) in starts {
            prop_assert_eq!(staged.scan(&key(start), limit), reference.scan(&key(start), limit));
        }
    }

    /// The memtable agrees with a BTreeMap oracle under LWW reconciliation.
    #[test]
    fn memtable_matches_lww_oracle(entries in arb_entries(50)) {
        let mut mem = Memtable::new();
        let mut oracle: std::collections::BTreeMap<Key, Cell> = Default::default();
        for (id, value, ts) in entries {
            let cell = Cell::live(Bytes::from(value), ts);
            mem.insert(key(id), cell.clone());
            oracle
                .entry(key(id))
                .and_modify(|c| *c = Cell::reconcile(c.clone(), cell.clone()))
                .or_insert(cell);
        }
        prop_assert_eq!(mem.len(), oracle.len());
        for (k, expected) in &oracle {
            prop_assert_eq!(mem.get(k), Some(expected));
        }
        // Drained entries come out sorted and complete.
        let drained = mem.drain_sorted();
        prop_assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(drained.len(), oracle.len());
    }

    /// Cell reconciliation is commutative and associative.
    #[test]
    fn reconcile_is_commutative_associative(
        a in (0u64..50, prop::collection::vec(any::<u8>(), 0..8)),
        b in (0u64..50, prop::collection::vec(any::<u8>(), 0..8)),
        c in (0u64..50, prop::collection::vec(any::<u8>(), 0..8)),
    ) {
        let mk = |(ts, v): (u64, Vec<u8>)| Cell::live(Bytes::from(v), ts);
        let (a, b, c) = (mk(a), mk(b), mk(c));
        prop_assert_eq!(
            Cell::reconcile(a.clone(), b.clone()),
            Cell::reconcile(b.clone(), a.clone())
        );
        prop_assert_eq!(
            Cell::reconcile(Cell::reconcile(a.clone(), b.clone()), c.clone()),
            Cell::reconcile(a.clone(), Cell::reconcile(b.clone(), c.clone()))
        );
    }

    /// A k-way merge equals a BTreeMap oracle built from the same sources.
    #[test]
    fn merge_matches_oracle(
        sources in prop::collection::vec(arb_entries(40), 0..5)
    ) {
        // Make each source sorted/unique (as the merge contract requires).
        let mut oracle: std::collections::BTreeMap<Key, Cell> = Default::default();
        let mut merged_sources = Vec::new();
        for src in sources {
            let mut per: std::collections::BTreeMap<Key, Cell> = Default::default();
            for (id, value, ts) in src {
                let cell = Cell::live(Bytes::from(value), ts);
                per.entry(key(id))
                    .and_modify(|c| *c = Cell::reconcile(c.clone(), cell.clone()))
                    .or_insert(cell);
            }
            for (k, c) in &per {
                oracle
                    .entry(k.clone())
                    .and_modify(|o| *o = Cell::reconcile(o.clone(), c.clone()))
                    .or_insert_with(|| c.clone());
            }
            merged_sources.push(per.into_iter().collect::<Vec<_>>());
        }
        let merged = merge_entries(merged_sources, false);
        prop_assert_eq!(merged, oracle.into_iter().collect::<Vec<_>>());
    }

    /// Differential: the streaming borrow-based merge produces exactly what
    /// the old collect-then-merge implementation produced — same winners,
    /// same order, same tombstone handling — for both minor merges (keep
    /// tombstones) and major ones (drop them).
    #[test]
    fn streaming_merge_matches_legacy_collect_merge(
        runs in arb_sorted_runs(),
        drop_tombstones in prop::bool::ANY,
    ) {
        let views: Vec<&[(Key, Cell)]> = runs.iter().map(Vec::as_slice).collect();
        let streamed = merge_runs(&views, drop_tombstones);
        let legacy = legacy::merge_collect(runs.clone(), drop_tombstones);
        prop_assert_eq!(&streamed, &legacy);
        // The owned-entry wrapper keeps the same contract as the old entry
        // point.
        let wrapped = merge_entries(runs, drop_tombstones);
        prop_assert_eq!(wrapped, streamed);
    }

    /// Every key written into an SSTable is found; absent keys are not.
    #[test]
    fn sstable_point_lookups(ids in prop::collection::btree_set(0u64..10_000, 1..300)) {
        let entries: Vec<(Key, Cell)> = ids
            .iter()
            .map(|&i| (key(i), Cell::live(key(i), i)))
            .collect();
        let table = SsTable::build(TableId(1), entries, 256);
        for &i in &ids {
            let got = table.get(&key(i));
            prop_assert!(got.is_some(), "lost key {i}");
            prop_assert_eq!(got.unwrap().ts, i);
        }
        // A definitely-absent key (outside the id space).
        prop_assert!(table.get(b"zzzz").is_none());
        // Block structure partitions the byte count.
        let total: u64 = (0..table.block_count()).map(|b| table.block_len(b)).sum();
        prop_assert_eq!(total, table.total_bytes());
    }

    /// The LSM tree serves the newest acknowledged value for every key, no
    /// matter how writes interleave with flushes and compactions.
    #[test]
    fn lsm_read_your_writes_through_flushes(
        ops in prop::collection::vec((0u64..30, 0u64..1000u64, prop::bool::ANY), 1..150)
    ) {
        let mut tree = LsmTree::new(LsmConfig {
            block_size: 128,
            memtable_flush_bytes: 512,
            cache_bytes: 1024,
            compaction: SizeTieredPolicy { min_threshold: 2, ..Default::default() },
        });
        let mut oracle: std::collections::HashMap<u64, Cell> = Default::default();
        for (id, ts, flush) in ops {
            let cell = Cell::live(key(ts), ts);
            tree.put(key(id), cell.clone());
            oracle
                .entry(id)
                .and_modify(|c| *c = Cell::reconcile(c.clone(), cell.clone()))
                .or_insert(cell);
            if flush {
                tree.flush();
                tree.maybe_compact();
            }
        }
        for (id, expected) in &oracle {
            let got = tree.get(&key(*id)).cell;
            prop_assert_eq!(got.as_ref(), Some(expected), "key {}", id);
        }
    }

    /// WAL replay after a crash restores exactly the unflushed state.
    #[test]
    fn wal_replay_restores_memtable(
        ops in prop::collection::vec((0u64..20, 0u64..100), 1..60),
        flush_at in 0usize..60,
    ) {
        let mut tree = LsmTree::new(LsmConfig {
            memtable_flush_bytes: u64::MAX, // manual flushes only
            ..LsmConfig::default()
        });
        for (i, (id, ts)) in ops.iter().enumerate() {
            tree.put(key(*id), Cell::live(key(*ts), *ts));
            if i == flush_at {
                tree.flush();
            }
        }
        let before: Vec<_> = (0..20u64).map(|id| tree.get(&key(id)).cell).collect();
        tree.recover();
        let after: Vec<_> = (0..20u64).map(|id| tree.get(&key(id)).cell).collect();
        prop_assert_eq!(before, after);
    }

    /// Scans return sorted, deduplicated, live rows consistent with gets.
    #[test]
    fn scan_agrees_with_gets(
        ids in prop::collection::btree_set(0u64..200, 1..80),
        start in 0u64..200,
        limit in 1usize..40,
    ) {
        let mut tree = LsmTree::new(LsmConfig::default());
        for &i in &ids {
            tree.put(key(i), Cell::live(key(i), 1));
        }
        tree.flush();
        let rows = tree.scan(&key(start), limit).rows;
        prop_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
        prop_assert!(rows.len() <= limit);
        let expected: Vec<u64> = ids.iter().copied().filter(|&i| i >= start).take(limit).collect();
        let got: Vec<Key> = rows.iter().map(|(k, _)| k.clone()).collect();
        let want: Vec<Key> = expected.iter().map(|&i| key(i)).collect();
        prop_assert_eq!(got, want);
    }
}
