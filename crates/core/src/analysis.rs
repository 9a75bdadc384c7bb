//! Offline data cleaning and timestamp alignment (§III-C).
//!
//! "After the data cleaning and recomputation, such as identifying
//! incomplete records, timestamp alignment for the clock skew, etc., one
//! then can query the database to perform customized analysis."

use std::collections::{BTreeSet, HashMap, HashSet};

use vnet_tsdb::{ColumnId, DataPoint, Query, ScanResult, TraceDb, TraceKey};

use crate::clock_sync::SkewEstimate;

/// Splits the trace IDs seen at the first of `tracepoints` into those
/// seen at every later one too (complete) and the rest (incomplete).
fn partition_ids(db: &TraceDb, tracepoints: &[&str]) -> (BTreeSet<String>, BTreeSet<String>) {
    let scans: Vec<ScanResult> = tracepoints
        .iter()
        .map(|t| {
            let query = Query::new(*t).select([ColumnId::TraceId, ColumnId::Flags]);
            crate::metrics::scan(db, query)
        })
        .collect();
    let Some((first, rest)) = scans.split_first() else {
        return Default::default();
    };
    let later: Vec<HashSet<TraceKey<'_>>> = rest
        .iter()
        .map(|s| s.iter().filter_map(|e| e.trace_key()).collect())
        .collect();
    let mut complete = BTreeSet::new();
    let mut incomplete = BTreeSet::new();
    for id in first.iter().filter_map(|e| e.trace_key()) {
        let side = if later.iter().all(|l| l.contains(&id)) {
            &mut complete
        } else {
            &mut incomplete
        };
        side.insert(id.to_string());
    }
    (complete, incomplete)
}

/// Trace IDs observed at **every** tracepoint in `tracepoints` — the
/// "complete" records safe for end-to-end analysis.
///
/// # Panics
///
/// Panics if a sealed segment of a tracepoint's table cannot be read.
pub fn complete_ids(db: &TraceDb, tracepoints: &[&str]) -> BTreeSet<String> {
    partition_ids(db, tracepoints).0
}

/// Trace IDs observed at the first tracepoint but missing from at least
/// one later tracepoint — incomplete records (lost packets, truncated
/// traces).
///
/// # Panics
///
/// Panics if a sealed segment of a tracepoint's table cannot be read.
pub fn incomplete_ids(db: &TraceDb, tracepoints: &[&str]) -> BTreeSet<String> {
    partition_ids(db, tracepoints).1
}

/// Rebuilds the database with every point's timestamp aligned onto the
/// master clock, using each node's skew estimate (points from nodes
/// without an estimate pass through unchanged — e.g. the master itself).
/// The result is an in-memory database of points.
///
/// # Panics
///
/// Panics if a sealed segment cannot be read.
pub fn align_timestamps(db: &TraceDb, skew_by_node: &HashMap<String, SkewEstimate>) -> TraceDb {
    let mut out = TraceDb::new();
    for measurement in db.measurements() {
        let scan = crate::metrics::scan(db, Query::new(measurement));
        for e in scan.iter() {
            let mut p: DataPoint = e.to_point();
            if let Some(skew) = p.tag_value("node").and_then(|n| skew_by_node.get(n)) {
                p.timestamp_ns = skew.align_remote_ns(p.timestamp_ns);
            }
            out.insert(p);
        }
    }
    out
}

/// Convenience: aligns timestamps with the per-node skew estimates and
/// decomposes latency across `tracepoints` in one step — the full
/// cross-machine offline pipeline (clean → align → decompose).
pub fn decompose_aligned(
    db: &TraceDb,
    tracepoints: &[&str],
    skew_by_node: &HashMap<String, SkewEstimate>,
) -> Vec<crate::metrics::SegmentStats> {
    let aligned = align_timestamps(db, skew_by_node);
    crate::metrics::decompose(&aligned, tracepoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::TRACE_ID_TAG;

    fn tagged(m: &str, ts: u64, id: &str, node: &str) -> DataPoint {
        DataPoint::new(m, ts)
            .tag(TRACE_ID_TAG, id)
            .tag("node", node)
    }

    #[test]
    fn complete_and_incomplete_partition() {
        let mut db = TraceDb::new();
        for id in ["a", "b", "c"] {
            db.insert(tagged("tp0", 1, id, "n0"));
        }
        for id in ["a", "b"] {
            db.insert(tagged("tp1", 2, id, "n0"));
        }
        db.insert(tagged("tp2", 3, "a", "n0"));
        let complete = complete_ids(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(
            complete.into_iter().collect::<Vec<_>>(),
            vec!["a".to_owned()]
        );
        let incomplete = incomplete_ids(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(
            incomplete.into_iter().collect::<Vec<_>>(),
            vec!["b".to_owned(), "c".to_owned()]
        );
    }

    #[test]
    fn missing_table_means_nothing_complete() {
        let mut db = TraceDb::new();
        db.insert(tagged("tp0", 1, "a", "n0"));
        assert!(complete_ids(&db, &["tp0", "absent"]).is_empty());
        assert!(complete_ids(&TraceDb::new(), &["tp0"]).is_empty());
    }

    #[test]
    fn alignment_applies_per_node_offsets() {
        let mut db = TraceDb::new();
        db.insert(tagged("tp0", 1_000, "a", "master"));
        db.insert(tagged("tp1", 2_000, "a", "remote"));
        let mut skews = HashMap::new();
        skews.insert(
            "remote".to_owned(),
            SkewEstimate {
                one_way_ns: 0,
                offset_ns: 700,
                skew_ns: 700,
                samples: 100,
            },
        );
        let aligned = align_timestamps(&db, &skews);
        let stamps = |m: &str| -> Vec<u64> {
            let scan = Query::new(m).scan(&aligned).unwrap();
            scan.iter().map(|e| e.timestamp_ns()).collect()
        };
        assert_eq!(stamps("tp0"), vec![1_000]);
        assert_eq!(stamps("tp1"), vec![1_300]);
        // Join now reflects true latency.
        assert_eq!(aligned.join_timestamps("tp0", "tp1"), vec![(1_000, 1_300)]);
    }

    #[test]
    fn decompose_aligned_pipeline() {
        let mut db = TraceDb::new();
        for (id, t0, t1) in [("a", 100u64, 900u64), ("b", 200, 1_000)] {
            db.insert(tagged("tp0", t0, id, "master"));
            db.insert(tagged("tp1", t1, id, "remote"));
        }
        let mut skews = HashMap::new();
        skews.insert(
            "remote".to_owned(),
            SkewEstimate {
                one_way_ns: 0,
                offset_ns: 300,
                skew_ns: 300,
                samples: 100,
            },
        );
        let segs = decompose_aligned(&db, &["tp0", "tp1"], &skews);
        assert_eq!(segs.len(), 1);
        // Raw delta is 800ns; aligned is 500ns.
        assert_eq!(segs[0].stats.mean_ns, 500.0);
    }
}
