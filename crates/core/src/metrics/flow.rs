//! Per-flow metrics.
//!
//! Combining filter rules with trace records tagged by flow gives the
//! "advanced tracing information, like per-flow throughput" of §III-D
//! (Fig. 6) — the capability Case Study I leans on to separate the
//! Sockperf flow from the competing iPerf flows inside OVS.

use std::collections::{BTreeMap, HashMap};

use vnet_tsdb::{ColumnId, FlowKey, Query, TraceDb};

use super::loss::PacketLoss;
use super::throughput::Throughput;

/// The columns that make up a record's flow 4-tuple.
const FLOW_COLUMNS: [ColumnId; 4] = [
    ColumnId::Saddr,
    ColumnId::Daddr,
    ColumnId::Sport,
    ColumnId::Dport,
];

/// Re-keys per-flow groups by the rendered flow name, merging groups
/// that render alike (a record's 4-tuple and a point's equal tag).
fn by_name<T>(groups: HashMap<FlowKey<'_>, T>, merge: impl Fn(&mut T, T)) -> BTreeMap<String, T> {
    let mut out: BTreeMap<String, T> = BTreeMap::new();
    for (flow, v) in groups {
        let name = flow.to_string();
        match out.get_mut(&name) {
            Some(acc) => merge(acc, v),
            None => {
                out.insert(name, v);
            }
        }
    }
    out
}

/// Computes throughput per flow (grouped by the `flow` tag) at a
/// tracepoint's table. Returns `(flow, bits/sec)` sorted by flow name.
///
/// # Panics
///
/// Panics if a sealed segment of the table cannot be read.
pub fn per_flow_throughput(db: &TraceDb, measurement: &str) -> Vec<(String, f64)> {
    let columns = [ColumnId::Ts, ColumnId::PktLen, ColumnId::Flags];
    let query = Query::new(measurement).select(columns.into_iter().chain(FLOW_COLUMNS));
    let scan = super::scan(db, query);
    let mut groups: HashMap<FlowKey<'_>, Throughput> = HashMap::new();
    for e in scan.iter() {
        let (Some(flow), Some(len)) = (e.flow_key(), e.field_u64("pkt_len")) else {
            continue;
        };
        groups.entry(flow).or_insert_with(Throughput::new).push(
            e.timestamp_ns(),
            len as u32,
            e.trace_key().is_some(),
        );
    }
    by_name(groups, Throughput::merge)
        .into_iter()
        .map(|(flow, t)| (flow, t.bps()))
        .collect()
}

/// Computes packet loss per flow between two tracepoints, grouping by
/// the `flow` tag — the per-flow counterpart of
/// [`super::loss::packet_loss`], which lets a user tell *which* flow a
/// congested device is dropping. Returns `(flow, loss)` sorted by flow.
///
/// # Panics
///
/// Panics if a sealed segment of either table cannot be read.
pub fn per_flow_loss(db: &TraceDb, upstream: &str, downstream: &str) -> Vec<(String, PacketLoss)> {
    let count_by_flow = |measurement: &str| -> BTreeMap<String, u64> {
        let scan = super::scan(db, Query::new(measurement).select(FLOW_COLUMNS));
        let mut counts: HashMap<FlowKey<'_>, u64> = HashMap::new();
        for flow in scan.iter().filter_map(|e| e.flow_key()) {
            *counts.entry(flow).or_insert(0) += 1;
        }
        by_name(counts, |a, b| *a += b)
    };
    let up = count_by_flow(upstream);
    let down = count_by_flow(downstream);
    up.into_iter()
        .map(|(flow, n_i)| {
            let n_j = down.get(&flow).copied().unwrap_or(0);
            (flow, PacketLoss::from_counts(n_i, n_j))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::DataPoint;

    #[test]
    fn groups_by_flow_tag() {
        let mut db = TraceDb::new();
        // Flow A: 10 x 1000B over 1ms; flow B: 10 x 100B over 1ms.
        for i in 0..10u64 {
            db.insert(
                DataPoint::new("ovs", i * 111_111)
                    .tag("flow", "10.0.0.1:1->10.0.0.2:2")
                    .field("pkt_len", 1000u64),
            );
            db.insert(
                DataPoint::new("ovs", i * 111_111)
                    .tag("flow", "10.0.0.3:3->10.0.0.2:2")
                    .field("pkt_len", 100u64),
            );
        }
        let flows = per_flow_throughput(&db, "ovs");
        assert_eq!(flows.len(), 2);
        assert!(
            flows[0].1 > flows[1].1 * 9.0,
            "1000B flow ~10x the 100B flow"
        );
        assert!(per_flow_throughput(&db, "absent").is_empty());
    }

    #[test]
    fn per_flow_loss_separates_victims() {
        let mut db = TraceDb::new();
        // Flow A: 10 in, 4 out (congested). Flow B: 5 in, 5 out.
        for i in 0..10u64 {
            db.insert(DataPoint::new("up", i).tag("flow", "A"));
            if i < 4 {
                db.insert(DataPoint::new("down", i).tag("flow", "A"));
            }
        }
        for i in 0..5u64 {
            db.insert(DataPoint::new("up", 100 + i).tag("flow", "B"));
            db.insert(DataPoint::new("down", 100 + i).tag("flow", "B"));
        }
        let losses = per_flow_loss(&db, "up", "down");
        assert_eq!(losses.len(), 2);
        assert_eq!(losses[0].0, "A");
        assert_eq!(losses[0].1.lost, 6);
        assert!((losses[0].1.rate - 0.6).abs() < 1e-12);
        assert_eq!(losses[1].1.lost, 0);
        assert!(per_flow_loss(&db, "absent", "down").is_empty());
    }

    #[test]
    fn untagged_points_skipped() {
        let mut db = TraceDb::new();
        db.insert(DataPoint::new("m", 0).field("pkt_len", 10u64));
        db.insert(
            DataPoint::new("m", 10)
                .tag("flow", "f")
                .field("pkt_len", 10u64),
        );
        db.insert(
            DataPoint::new("m", 1_000)
                .tag("flow", "f")
                .field("pkt_len", 10u64),
        );
        let flows = per_flow_throughput(&db, "m");
        assert_eq!(flows.len(), 1);
        assert!(flows[0].1 > 0.0);
    }
}
