//! Every offline metric gives the same answer wherever its records live:
//! in memory, in a disk store's hot tail, in sealed and merged segments,
//! or in a store reopened cold. And a sealed segment that cannot be read
//! makes a metric fail loudly rather than answer from part of the data.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vnet_tsdb::{
    drop_reason_name, write_json_lines, CompactRecord, DataPoint, RecordBatch, Segment,
    StoreOptions, TraceDb, DROP_REASON_TAG, TRACE_ID_TAG,
};
use vnettracer::{analysis, metrics, SkewEstimate};

/// The tracepoint chain the records follow.
const CHAIN: [&str; 3] = ["tp0", "tp1", "tp2"];
/// The drop table packets lost between hops land in.
const DROPS: &str = "lab_drops";

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vnt-metric-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeded compact records in collection-sized batches: 600 packets of
/// eight flows along [`CHAIN`], from two nodes, with per-hop loss into
/// [`DROPS`] under typed reasons, a few retransmitted trace IDs and a
/// few records without one.
fn batches() -> Vec<RecordBatch> {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut out = Vec::new();
    let mut batch = RecordBatch::new();
    for i in 0..600u32 {
        let flow = rng.gen_range(0..8) as u32;
        let mut rec = CompactRecord {
            timestamp_ns: u64::from(i) * 10_000 + rng.gen_range(0..4_000),
            trace_id: 0x100 + i,
            pkt_len: 64 + rng.gen_range(0..1_400) as u32,
            saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1 + flow as u8)),
            daddr: u32::from(Ipv4Addr::new(10, 0, 1, 1)),
            sport: 5_000 + flow as u16,
            dport: [80, 443][flow as usize % 2],
            cpu: rng.gen_range(0..4) as u16,
            direction: 0,
            flags: u8::from(i % 50 != 0),
        };
        for (h, tp) in CHAIN.iter().enumerate() {
            let node = ["vm1", "vm2"][h % 2];
            batch.push(tp, node, rec);
            if i % 40 == 7 {
                // A retransmission: the same ID seen again later.
                batch.push(
                    tp,
                    node,
                    CompactRecord {
                        timestamp_ns: rec.timestamp_ns + 900,
                        ..rec
                    },
                );
            }
            if h + 1 < CHAIN.len() && rng.gen_bool(0.08) {
                let reason = 1 + rng.gen_range(0..5) as u8;
                let drop = CompactRecord {
                    flags: rec.flags | (reason << 1),
                    ..rec
                };
                batch.push(DROPS, ["vm1", "vm2"][(h + 1) % 2], drop);
                break;
            }
            rec.timestamp_ns += 2_000 + rng.gen_range(0..3_000);
            rec.direction ^= 1;
        }
        if i % 25 == 24 {
            out.push(std::mem::take(&mut batch));
        }
    }
    out.push(batch);
    out
}

/// Hand-built points beside the records: trace IDs in non-canonical
/// form, string flows, a points-only table and tagged drop points.
fn points() -> Vec<DataPoint> {
    let mut out = Vec::new();
    for k in 0..30u64 {
        let id = format!("pkt-{k}");
        let t = 7_000_000 + k * 5_000;
        for (h, tp) in CHAIN.iter().enumerate().take(2 + (k % 2) as usize) {
            out.push(
                DataPoint::new(*tp, t + h as u64 * 1_500)
                    .tag(TRACE_ID_TAG, &id)
                    .tag("node", "vm3")
                    .tag("flow", ["A", "B"][(k % 2) as usize])
                    .field("pkt_len", 200 + k),
            );
        }
        out.push(DataPoint::new("app", t).field("pkt_len", 100u64));
    }
    for (i, code) in [1u8, 3, 3, 0].into_iter().enumerate() {
        let mut p = DataPoint::new(DROPS, 8_000_000 + i as u64);
        if let Some(name) = drop_reason_name(code) {
            p = p.tag(DROP_REASON_TAG, name);
        }
        out.push(p);
    }
    out
}

/// Loads the records, then the points.
fn load(db: &mut TraceDb) {
    for batch in batches() {
        db.insert_batch(&batch);
    }
    db.insert_all(points());
}

fn small_segments() -> StoreOptions {
    StoreOptions {
        seal_threshold: 150,
        fsync: false,
        compact_fanin: 2,
        compact_max_rows: 1_000_000,
        background_compaction: false,
    }
}

type Metric = (&'static str, fn(&TraceDb) -> String);

/// Every public metric and analysis function, rendered for comparison.
fn all_metrics() -> Vec<Metric> {
    vec![
        ("latency_between", |db| {
            format!("{:?}", metrics::latency_between(db, "tp0", "tp2", None))
        }),
        ("jitter", |db| {
            let l = metrics::latency_between(db, "tp1", "tp2", None);
            format!(
                "{:?} {:?}",
                metrics::jitter_range(&l),
                metrics::jitter_series(&l)
            )
        }),
        ("decompose", |db| {
            format!("{:?}", metrics::decompose(db, &CHAIN))
        }),
        ("per_packet_segments", |db| {
            format!("{:?}", metrics::per_packet_segments(db, &CHAIN))
        }),
        ("packet_loss", |db| {
            format!("{:?}", metrics::packet_loss(db, "tp0", "tp2"))
        }),
        ("throughput_at", |db| {
            format!("{:?}", CHAIN.map(|tp| metrics::throughput_at(db, tp)))
        }),
        ("per_flow_throughput", |db| {
            format!("{:?}", metrics::per_flow_throughput(db, "tp1"))
        }),
        ("per_flow_loss", |db| {
            format!("{:?}", metrics::per_flow_loss(db, "tp0", "tp2"))
        }),
        ("interarrival_ns", |db| {
            format!("{:?}", metrics::interarrival_ns(db, "tp2"))
        }),
        ("arrival_rate", |db| {
            format!("{:?}", metrics::arrival_rate(db, "tp0", 250_000))
        }),
        ("drop_breakdown", |db| {
            format!("{:?}", metrics::drop_breakdown(db, DROPS))
        }),
        ("drop_breakdown_all", |db| {
            format!("{:?}", metrics::drop_breakdown_all(db))
        }),
        ("complete_ids", |db| {
            format!("{:?}", analysis::complete_ids(db, &CHAIN))
        }),
        ("incomplete_ids", |db| {
            format!("{:?}", analysis::incomplete_ids(db, &CHAIN))
        }),
        ("align_timestamps", |db| {
            let mut skews = HashMap::new();
            skews.insert(
                "vm2".to_owned(),
                SkewEstimate {
                    one_way_ns: 0,
                    offset_ns: 700,
                    skew_ns: 700,
                    samples: 10,
                },
            );
            let aligned = analysis::align_timestamps(db, &skews);
            let mut dump = Vec::new();
            write_json_lines(&aligned, &mut dump).unwrap();
            let segments = analysis::decompose_aligned(db, &CHAIN, &skews);
            format!("{} {segments:?}", String::from_utf8(dump).unwrap())
        }),
    ]
}

fn answers(db: &TraceDb) -> Vec<(&'static str, String)> {
    all_metrics()
        .into_iter()
        .map(|(name, f)| (name, f(db)))
        .collect()
}

fn assert_same(db: &TraceDb, expected: &[(&str, String)], place: &str) {
    for ((name, got), (_, want)) in answers(db).iter().zip(expected) {
        assert_eq!(got, want, "{name} differs: {place}");
    }
}

#[test]
fn every_metric_answers_the_same_wherever_records_live() {
    let mut memory = TraceDb::new();
    load(&mut memory);
    let expected = answers(&memory);
    // The data exercises every metric: loss, drops, incomplete packets.
    let loss = metrics::packet_loss(&memory, "tp0", "tp2");
    assert!(loss.upstream > 600 && loss.lost > 0, "{loss:?}");
    assert!(!metrics::drop_breakdown(&memory, DROPS).is_empty());
    assert!(!analysis::incomplete_ids(&memory, &CHAIN).is_empty());

    let hot_dir = test_dir("hot");
    let mut hot = TraceDb::open_with(
        &hot_dir,
        StoreOptions {
            fsync: false,
            ..Default::default()
        },
    )
    .unwrap();
    load(&mut hot);
    assert_eq!(hot.storage_stats().unwrap().sealed_records, 0);
    assert_same(&hot, &expected, "disk store, all records hot");

    let dir = test_dir("sealed");
    let mut sealed = TraceDb::open_with(&dir, small_segments()).unwrap();
    load(&mut sealed);
    let stats = sealed.storage_stats().unwrap();
    assert!(stats.compactions >= 1, "{stats:?}");
    assert!(stats.wal_records > 0, "some records stay hot: {stats:?}");
    assert_same(&sealed, &expected, "sealed and merged segments");
    drop(sealed);

    // Points are not journaled: a cold reopen brings back the records,
    // and the points are loaded again.
    let mut cold = TraceDb::open_with(&dir, small_segments()).unwrap();
    cold.insert_all(points());
    assert_same(&cold, &expected, "reopened cold");

    for d in [hot_dir, dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Copies a flat store directory.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn unreadable_segment_fails_every_metric_loudly() {
    let dir = test_dir("clean");
    let mut db = TraceDb::open_with(&dir, small_segments()).unwrap();
    for batch in batches() {
        db.insert_batch(&batch);
    }
    db.flush().unwrap();
    let clean = answers(&db);
    drop(db);

    // One segment of each measurement.
    let mut targets: HashMap<String, PathBuf> = HashMap::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "col") {
            let m = Segment::open(&path).unwrap().meta().measurement.clone();
            targets.entry(m).or_insert(path);
        }
    }
    assert_eq!(targets.len(), CHAIN.len() + 1);

    let broken = test_dir("broken");
    let mut failed: HashMap<&str, usize> = HashMap::new();
    for path in targets.values() {
        let columns = Segment::open(path).unwrap().meta().columns.clone();
        for col in columns {
            copy_dir(&dir, &broken);
            let target = broken.join(path.file_name().unwrap());
            let mut bytes = std::fs::read(&target).unwrap();
            bytes[col.offset as usize] ^= 0x55;
            std::fs::write(&target, bytes).unwrap();
            let db = TraceDb::open_with(&broken, small_segments()).unwrap();
            for ((name, f), (_, want)) in all_metrics().into_iter().zip(&clean) {
                match catch_unwind(AssertUnwindSafe(|| f(&db))) {
                    Err(_) => *failed.entry(name).or_default() += 1,
                    Ok(got) => assert_eq!(
                        &got,
                        want,
                        "{name} answered wrongly with {:?} of {} corrupt",
                        col.id,
                        path.display()
                    ),
                }
            }
        }
    }
    // Packet counts come from segment footers, which are checked when
    // the store opens; no column is read, so packet loss stays right.
    // Every other metric reads columns and must have failed.
    for (name, _) in all_metrics() {
        if name != "packet_loss" {
            assert!(
                failed.get(name).is_some_and(|&n| n > 0),
                "{name} never failed"
            );
        }
    }
    for d in [dir, broken] {
        let _ = std::fs::remove_dir_all(d);
    }
}
