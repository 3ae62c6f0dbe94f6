//! The cstore bulk load: `load_direct` stages records per replica and
//! `flush_all` builds each node's records into one sorted run. The state it
//! leaves must be the one the per-record put → flush → compact path left.

use bytes::Bytes;
use cloudserve::bench_core::driver;
use cloudserve::bench_core::setup::{build_cstore, Scale};
use cloudserve::cstore::Consistency;
use cloudserve::simkit::NodeId;
use cloudserve::storage::{Cell, LsmTree};
use cloudserve::ycsb::encode_key;

#[test]
fn cstore_load_leaves_one_run_per_node_at_every_replication_factor() {
    let scale = Scale::tiny();
    for rf in [1, 3, 5] {
        let mut store = build_cstore(&scale, rf, Consistency::One, Consistency::One);
        driver::load(&mut store, scale.records, scale.value_len, 42);
        let mut held = vec![0usize; scale.nodes];
        for i in 0..scale.records {
            let key = encode_key(i);
            let replicas = store.ring().replicas(&key, rf);
            assert_eq!(replicas.len(), rf as usize);
            for r in replicas {
                held[r.index()] += 1;
                let cell = store.read_local(r, &key).expect("replica holds the record");
                assert_eq!(cell.ts, 1);
                assert_eq!(cell.value.map(|v| v.len()), Some(scale.value_len));
            }
        }
        for (n, &records) in held.iter().enumerate() {
            let lsm = &store.node(NodeId(n as u32)).lsm;
            assert_eq!(lsm.table_count(), 1, "rf {rf} node {n}");
            assert_eq!(lsm.runs()[0].len(), records, "rf {rf} node {n}");
            assert_eq!(lsm.memtable_len(), 0);
            assert_eq!(lsm.wal_unsynced_bytes(), 0);
        }
        let snap = store.snapshot();
        assert!(snap.shares_storage_with(&store), "rf {rf}");
    }
}

#[test]
fn cstore_load_equals_per_record_puts_flushes_and_compactions() {
    let scale = Scale::tiny();
    let rf = 3;
    let mut store = build_cstore(&scale, rf, Consistency::One, Consistency::One);
    let config = store.config().lsm;
    let mut reference: Vec<LsmTree> = (0..scale.nodes).map(|_| LsmTree::new(config)).collect();
    // Every key twice, the second version sometimes older and sometimes an
    // equal-timestamp tie, so the fold's last-write-wins is exercised.
    for round in 0..2u64 {
        for i in 0..scale.records {
            let key = encode_key(i);
            let ts = 1 + (i * round) % 3;
            let value = Bytes::from(format!("v{round}-{}", i % 7).into_bytes());
            for r in store.ring().replicas(&key, rf) {
                let tree = &mut reference[r.index()];
                if tree
                    .put(key.clone(), Cell::live(value.clone(), ts))
                    .flush_due
                {
                    if let Some(receipt) = tree.flush() {
                        if receipt.compaction_due {
                            tree.maybe_compact();
                        }
                    }
                }
            }
            store.load_direct(key, value, ts);
        }
    }
    store.flush_all();
    for (n, want) in reference.iter_mut().enumerate() {
        want.flush();
        want.compact_all();
        want.sync_wal();
        let got = &store.node(NodeId(n as u32)).lsm;
        assert_eq!(got.runs().len(), want.runs().len(), "node {n}");
        for (a, b) in got.runs().iter().zip(want.runs()) {
            assert_eq!(a.entries(), b.entries(), "node {n}");
            assert_eq!(a.total_bytes(), b.total_bytes(), "node {n}");
            let blocks = |t: &cloudserve::storage::SsTable| {
                (0..t.block_count())
                    .map(|b| t.block_len(b))
                    .collect::<Vec<_>>()
            };
            assert_eq!(blocks(a), blocks(b), "node {n}");
        }
        assert_eq!(got.wal().last_seq(), want.wal().last_seq(), "node {n}");
        assert_eq!(got.wal().bytes(), want.wal().bytes(), "node {n}");
        assert_eq!(got.wal().len(), want.wal().len(), "node {n}");
        assert_eq!(got.wal_unsynced_bytes(), 0);
    }
}
