//! Disk-backed vs in-memory equivalence: the segment store is an
//! implementation detail — every query, join, and export must give the
//! same answer whether the records live in hot shards, sealed segments,
//! merged segments, or a reopened directory.

use std::net::Ipv4Addr;
use std::path::PathBuf;

use vnet_tsdb::{
    write_json_lines, CompactRecord, Query, RecordBatch, StoreOptions, TraceDb, TRACE_ID_TAG,
};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vnt-disk-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic but irregular record stream: three measurements,
/// three nodes, skewed ports, every fourth record trace-flagged.
fn batches() -> Vec<RecordBatch> {
    let mut out = Vec::new();
    let mut i = 0u64;
    for b in 0..12u64 {
        let mut batch = RecordBatch::new();
        for _ in 0..(40 + (b % 5) * 7) {
            let m = ["tp_rx", "tp_tx", "tp_drop"][(i % 3) as usize];
            let node = ["vm1", "vm2", "vm3"][((i / 2) % 3) as usize];
            batch.push(
                m,
                node,
                CompactRecord {
                    timestamp_ns: i * 500 + (i % 7) * 13,
                    trace_id: (i.is_multiple_of(4)) as u32 * (0x1000 + i as u32),
                    pkt_len: 60 + (i % 1400) as u32,
                    saddr: u32::from(Ipv4Addr::new(10, 0, (b % 4) as u8, 1)),
                    daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
                    sport: 9_000 + (i % 16) as u16,
                    dport: 80,
                    cpu: (i % 8) as u16,
                    direction: (i % 2) as u8,
                    flags: (i.is_multiple_of(4)) as u8,
                },
            );
            i += 1;
        }
        out.push(batch);
    }
    out
}

fn export(db: &TraceDb) -> Vec<u8> {
    let mut buf = Vec::new();
    write_json_lines(db, &mut buf).expect("export");
    buf
}

/// Queries of every shape the scan path handles differently: no
/// filters, time-range only, node tag (dictionary pruning), direction,
/// trace-id, flow, impossible values, unknown keys, combinations.
fn query_shapes() -> Vec<Query> {
    vec![
        Query::new("tp_rx"),
        Query::new("tp_tx").time_range(5_000, 120_000),
        Query::new("tp_rx").tag_eq("node", "vm2"),
        Query::new("tp_rx").tag_eq("node", "mars"),
        Query::new("tp_tx").tag_eq("direction", "tx"),
        Query::new("tp_drop")
            .tag_eq("direction", "rx")
            .time_range(0, 80_000),
        Query::new("tp_rx").tag_eq(TRACE_ID_TAG, "00001004"),
        Query::new("tp_rx").tag_eq(TRACE_ID_TAG, "nonsense"),
        Query::new("tp_tx").tag_eq("flow", "10.0.1.1:9005->10.0.0.2:80"),
        Query::new("tp_rx").tag_eq("unknown_key", "x"),
        Query::new("tp_rx")
            .tag_eq("node", "vm1")
            .tag_eq("direction", "rx")
            .time_range(10_000, 200_000),
    ]
}

/// Materialize a query's results as comparable point JSON.
fn answers(q: &Query, db: &TraceDb) -> Vec<String> {
    let scan = q.scan(db).expect("scan");
    scan.entries()
        .iter()
        .map(|e| serde_json::to_string(&e.to_point()).unwrap())
        .collect()
}

#[test]
fn disk_and_memory_agree_on_every_query_shape() {
    let dir = test_dir("equivalence");
    let options = StoreOptions {
        seal_threshold: 100,
        fsync: false,
        compact_fanin: 3,
        compact_max_rows: 100_000,
        background_compaction: false,
    };

    let mut mem = TraceDb::new();
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    for batch in batches() {
        mem.insert_batch(&batch);
        disk.insert_batch(&batch);
    }

    assert_eq!(mem.len(), disk.len());
    let stats = disk.storage_stats().unwrap();
    assert!(stats.segments > 0, "the stream must have sealed");
    assert!(stats.compactions > 0, "fan-in 3 must have merged");

    for q in query_shapes() {
        assert_eq!(
            answers(&q, &mem),
            answers(&q, &disk),
            "disk and memory disagree"
        );
    }
    for m in ["tp_rx", "tp_tx", "tp_drop"] {
        assert_eq!(mem.count(m), disk.count(m), "footer count of {m}");
    }
    assert_eq!(
        mem.join_timestamps("tp_rx", "tp_tx"),
        disk.join_timestamps("tp_rx", "tp_tx")
    );
    assert_eq!(export(&mem), export(&disk));

    // ... and all of it still holds after a flush and a cold reopen.
    disk.flush().unwrap();
    drop(disk);
    let cold = TraceDb::open_with(&dir, options).unwrap();
    for q in query_shapes() {
        assert_eq!(answers(&q, &mem), answers(&q, &cold), "cold reopen drifted");
    }
    assert_eq!(
        mem.join_timestamps("tp_rx", "tp_tx"),
        cold.join_timestamps("tp_rx", "tp_tx")
    );
    assert_eq!(export(&mem), export(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_range_scans_prune_segments_on_footer_metadata() {
    let dir = test_dir("pruning");
    let options = StoreOptions {
        seal_threshold: 64,
        fsync: false,
        compact_fanin: 1_000, // keep seals separate so pruning is visible
        compact_max_rows: 100_000,
        background_compaction: false,
    };
    let mut db = TraceDb::open_with(&dir, options).unwrap();
    // One measurement, strictly advancing time: each sealed segment
    // covers a disjoint time slice.
    let mut batch = RecordBatch::new();
    for i in 0..512u64 {
        batch.clear();
        for j in 0..8u64 {
            let k = i * 8 + j;
            batch.push(
                "tp",
                "vm1",
                CompactRecord {
                    timestamp_ns: k * 1_000,
                    ..Default::default()
                },
            );
        }
        db.insert_batch(&batch);
    }
    db.flush().unwrap();
    let total = db.storage_stats().unwrap().segments;
    assert!(
        total >= 4,
        "expected several disjoint segments, got {total}"
    );

    // A narrow window in the middle must prune all but ~one segment.
    let scan = Query::new("tp")
        .time_range(2_000_000, 2_050_000)
        .scan(&db)
        .unwrap();
    let s = scan.stats();
    assert_eq!(s.segments_total, total);
    assert!(
        s.segments_pruned >= total - 2,
        "only the covering segment(s) may be touched: pruned {} of {}",
        s.segments_pruned,
        s.segments_total
    );
    assert_eq!(s.rows_matched, 51, "inclusive window, 1ms apart");
    // An impossible node value prunes everything via the dictionary.
    let scan = Query::new("tp").tag_eq("node", "absent").scan(&db).unwrap();
    assert_eq!(scan.stats().segments_scanned, 0);
    assert_eq!(scan.stats().bytes_read, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
