//! Per-measurement tables: point storage plus per-node record shards,
//! and the [`Entry`] view queries read both through.
//!
//! A table holds two kinds of data. Hand-built [`DataPoint`]s (offline
//! analysis artifacts, persisted files) keep the old row form. Records
//! arriving through the batched ingest path stay in compact integer form
//! inside one [`RecordShard`] per originating node — no tags or fields
//! are materialized at ingest, and no index is maintained. Tables are
//! private to the store: every read goes through
//! [`Query::scan`](crate::query::Query::scan), which sees both kinds
//! uniformly as [`Entry`] values, ordered by insertion sequence.

use std::borrow::Cow;
use std::fmt;

use crate::point::DataPoint;
use crate::record::CompactRecord;
use crate::symbol::Symbol;

/// The tag key under which vNetTracer stores the per-packet trace ID;
/// records for one packet are joined across tracepoints on it ("records
/// are indexed by their packet IDs", §III-C).
pub const TRACE_ID_TAG: &str = "trace_id";

/// The tag key under which drop records carry their typed drop reason
/// (derived from record flag bits 1–3; absent on non-drop records).
pub const DROP_REASON_TAG: &str = "drop_reason";

/// All compact records one node contributed to a table. Shards are
/// append-only and keyed by the node's interned [`Symbol`]; the resolved
/// name is cached once per shard for read-side materialization.
#[derive(Debug, Clone)]
pub(crate) struct RecordShard {
    node: Symbol,
    node_name: String,
    records: Vec<(u64, CompactRecord)>,
}

impl RecordShard {
    /// The owning node's name.
    pub(crate) fn node_name(&self) -> &str {
        &self.node_name
    }

    /// Number of records in the shard.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// The shard's `(sequence, record)` pairs, in ingest order.
    pub(crate) fn seq_records(&self) -> &[(u64, CompactRecord)] {
        &self.records
    }
}

/// A packet's trace ID in typed form — what [`Entry::tag`] renders for
/// [`TRACE_ID_TAG`], without rendering it. Compact records carry a
/// numeric ID. A point's tag in the canonical 8-digit lower-hex form
/// reads as the same number, so a point and a record naming one packet
/// compare equal; any other tag value stays a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKey<'a> {
    /// A numeric trace ID, rendered as 8 lower-hex digits.
    Id(u32),
    /// A point's trace-ID tag that is not in canonical hex form.
    Tag(&'a str),
}

impl<'a> TraceKey<'a> {
    /// Reads a trace-ID tag value.
    #[inline]
    pub(crate) fn parse(tag: &'a str) -> Self {
        let canonical =
            tag.len() == 8 && tag.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match u32::from_str_radix(tag, 16) {
            Ok(id) if canonical => TraceKey::Id(id),
            _ => TraceKey::Tag(tag),
        }
    }
}

impl fmt::Display for TraceKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKey::Id(id) => write!(f, "{id:08x}"),
            TraceKey::Tag(tag) => f.write_str(tag),
        }
    }
}

/// A flow in typed form — what [`Entry::tag`] renders for `flow`,
/// without rendering it. Group by the key and render once per group;
/// the rendered form is what identifies a flow across records and
/// points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKey<'a> {
    /// A compact record's 4-tuple.
    Tuple {
        /// Source IPv4 address.
        saddr: u32,
        /// Destination IPv4 address.
        daddr: u32,
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
    },
    /// A point's `flow` tag.
    Tag(&'a str),
}

impl fmt::Display for FlowKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FlowKey::Tuple {
                saddr,
                daddr,
                sport,
                dport,
            } => {
                let (src, dst) = (
                    std::net::Ipv4Addr::from(saddr),
                    std::net::Ipv4Addr::from(daddr),
                );
                write!(f, "{src}:{sport}->{dst}:{dport}")
            }
            FlowKey::Tag(tag) => f.write_str(tag),
        }
    }
}

/// A borrowed view of one stored entry — either a materialized
/// [`DataPoint`] or a compact record in a shard. Tag and field accessors
/// present both identically, so queries and metrics need not know how an
/// entry is stored.
#[derive(Debug, Clone, Copy)]
pub enum Entry<'a> {
    /// A point inserted in row form.
    Point(&'a DataPoint),
    /// A compact record in a per-node shard.
    Record {
        /// The table (measurement) name.
        measurement: &'a str,
        /// The shard's node name.
        node: &'a str,
        /// The record itself.
        record: &'a CompactRecord,
    },
}

impl<'a> Entry<'a> {
    /// The entry's timestamp in nanoseconds.
    #[inline]
    pub fn timestamp_ns(&self) -> u64 {
        match self {
            Entry::Point(p) => p.timestamp_ns,
            Entry::Record { record, .. } => record.timestamp_ns,
        }
    }

    /// The entry's measurement (table) name.
    pub fn measurement(&self) -> &'a str {
        match self {
            Entry::Point(p) => &p.measurement,
            Entry::Record { measurement, .. } => measurement,
        }
    }

    /// A tag's value. Record-backed entries derive `node`, `flow`,
    /// `direction` and [`TRACE_ID_TAG`] from the compact form.
    #[inline]
    pub fn tag(&self, key: &str) -> Option<Cow<'a, str>> {
        match self {
            Entry::Point(p) => p.tag_value(key).map(Cow::Borrowed),
            Entry::Record { node, record, .. } => match key {
                "node" => Some(Cow::Borrowed(*node)),
                "flow" => Some(Cow::Owned(record.flow())),
                "direction" => Some(Cow::Borrowed(record.direction_str())),
                TRACE_ID_TAG if record.has_trace_id() => Some(Cow::Owned(record.trace_id_hex())),
                DROP_REASON_TAG => record.drop_reason().map(Cow::Borrowed),
                _ => None,
            },
        }
    }

    /// The entry's trace ID, typed: a record's numeric ID when its
    /// trace-ID flag is set, a point's [`TRACE_ID_TAG`] tag otherwise.
    /// Allocates nothing, unlike `tag(TRACE_ID_TAG)` on a record.
    #[inline]
    pub fn trace_key(&self) -> Option<TraceKey<'a>> {
        match self {
            Entry::Point(p) => p.tag_value(TRACE_ID_TAG).map(TraceKey::parse),
            Entry::Record { record, .. } => record
                .has_trace_id()
                .then_some(TraceKey::Id(record.trace_id)),
        }
    }

    /// The entry's flow, typed: a record's 4-tuple, a point's `flow`
    /// tag. Allocates nothing, unlike `tag("flow")` on a record.
    #[inline]
    pub fn flow_key(&self) -> Option<FlowKey<'a>> {
        match self {
            Entry::Point(p) => p.tag_value("flow").map(FlowKey::Tag),
            Entry::Record { record, .. } => Some(record.flow_key()),
        }
    }

    /// A numeric field as `u64`. Record-backed entries expose `pkt_len`
    /// and `cpu`.
    #[inline]
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self {
            Entry::Point(p) => p.field_value(key).and_then(|v| v.as_u64()),
            Entry::Record { record, .. } => match key {
                "pkt_len" => Some(u64::from(record.pkt_len)),
                "cpu" => Some(u64::from(record.cpu)),
                _ => None,
            },
        }
    }

    /// A numeric field as `f64`.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self {
            Entry::Point(p) => p.field_value(key).and_then(|v| v.as_f64()),
            Entry::Record { .. } => self.field_u64(key).map(|v| v as f64),
        }
    }

    /// Materializes the entry as an owned [`DataPoint`] (cloning for
    /// point-backed entries).
    pub fn to_point(&self) -> DataPoint {
        match self {
            Entry::Point(p) => (*p).clone(),
            Entry::Record {
                measurement,
                node,
                record,
            } => record.to_point(measurement, node),
        }
    }
}

/// All entries of one measurement (one table per tracepoint): the
/// in-memory part of it — points plus the hot, unsealed records.
#[derive(Debug, Default, Clone)]
pub(crate) struct Table {
    name: String,
    next_seq: u64,
    points: Vec<(u64, DataPoint)>,
    shards: Vec<RecordShard>,
}

impl Table {
    /// Creates an empty table named `name`.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The table's measurement name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub(crate) fn insert(&mut self, point: DataPoint) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.points.push((seq, point));
    }

    /// Appends a slice of compact records into `node`'s shard (created on
    /// demand) — the batched ingest path. Records are copied as-is; no
    /// tags or fields are materialized.
    pub(crate) fn insert_records(
        &mut self,
        node: Symbol,
        node_name: &str,
        records: &[CompactRecord],
    ) {
        let shard = match self.shards.iter().position(|s| s.node == node) {
            Some(i) => &mut self.shards[i],
            None => {
                self.shards.push(RecordShard {
                    node,
                    node_name: node_name.to_owned(),
                    records: Vec::new(),
                });
                self.shards.last_mut().expect("just pushed")
            }
        };
        shard.records.extend(records.iter().map(|&record| {
            let seq = self.next_seq;
            self.next_seq += 1;
            (seq, record)
        }));
    }

    /// The table's per-node record shards.
    #[cfg(test)]
    pub(crate) fn shards(&self) -> &[RecordShard] {
        &self.shards
    }

    /// All entries with their insertion sequence numbers, in sequence
    /// order. The scan merges this hot tail with sealed segments by
    /// sequence.
    pub(crate) fn seq_entries(&self) -> Vec<(u64, Entry<'_>)> {
        let mut out: Vec<(u64, Entry<'_>)> = Vec::with_capacity(self.len());
        for (seq, p) in &self.points {
            out.push((*seq, Entry::Point(p)));
        }
        for shard in &self.shards {
            for (seq, record) in &shard.records {
                out.push((
                    *seq,
                    Entry::Record {
                        measurement: &self.name,
                        node: &shard.node_name,
                        record,
                    },
                ));
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        out
    }

    /// Moves all record shards out of the table (sealing); the sequence
    /// counter and point storage are untouched, so future inserts keep
    /// numbering after the sealed records.
    pub(crate) fn take_shards(&mut self) -> Vec<RecordShard> {
        std::mem::take(&mut self.shards)
    }

    /// Raises the sequence counter to at least `seq` — used on reopen so
    /// hot-tail inserts number after the records already sealed on disk.
    pub(crate) fn reserve_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Number of shard records currently resident in memory.
    pub(crate) fn hot_records(&self) -> usize {
        self.shards.iter().map(RecordShard::len).sum()
    }

    /// Number of in-memory entries (points plus hot shard records).
    pub(crate) fn len(&self) -> usize {
        self.points.len() + self.hot_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn stamps(t: &Table) -> Vec<u64> {
        t.seq_entries()
            .iter()
            .map(|(_, e)| e.timestamp_ns())
            .collect()
    }

    #[test]
    fn trace_keys_read_canonical_hex_as_numbers() {
        assert_eq!(TraceKey::parse("000000ab"), TraceKey::Id(0xab));
        assert_eq!(TraceKey::parse("ab"), TraceKey::Tag("ab"));
        assert_eq!(TraceKey::parse("000000AB"), TraceKey::Tag("000000AB"));
        assert_eq!(TraceKey::parse("+00000ab"), TraceKey::Tag("+00000ab"));
        assert_eq!(TraceKey::Id(0xab).to_string(), "000000ab");
        assert_eq!(TraceKey::Tag("lost").to_string(), "lost");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("m");
        assert_eq!(t.len(), 0);
        assert!(t.seq_entries().is_empty());
        assert!(t.shards().is_empty());
    }

    fn rec(ts: u64, trace_id: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id,
            pkt_len: 60,
            flags: 1,
            ..Default::default()
        }
    }

    #[test]
    fn records_shard_by_node_and_merge_in_sequence_order() {
        let mut syms = SymbolTable::new();
        let n1 = syms.intern("n1");
        let n2 = syms.intern("n2");
        let mut t = Table::new("m");
        t.insert(DataPoint::new("m", 5).tag(TRACE_ID_TAG, "00000001"));
        t.insert_records(n1, "n1", &[rec(10, 2), rec(20, 3)]);
        t.insert_records(n2, "n2", &[rec(30, 4)]);
        t.insert_records(n1, "n1", &[rec(40, 5)]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.shards().len(), 2, "one shard per node");
        assert_eq!(t.shards()[0].node_name(), "n1");
        assert_eq!(t.shards()[0].len(), 3);
        assert_eq!(stamps(&t), vec![5, 10, 20, 30, 40], "insertion order");
    }

    #[test]
    fn entry_views_unify_points_and_records() {
        let mut syms = SymbolTable::new();
        let n1 = syms.intern("server1");
        let mut t = Table::new("m");
        t.insert_records(n1, "server1", &[rec(10, 0xab)]);
        t.insert(
            DataPoint::new("m", 20)
                .tag(TRACE_ID_TAG, "000000ab")
                .tag("flow", "10.0.0.1:1->10.0.0.2:2"),
        );
        let entries = t.seq_entries();
        let (e, p) = (&entries[0].1, &entries[1].1);
        assert_eq!(e.measurement(), "m");
        assert_eq!(e.tag("node").as_deref(), Some("server1"));
        assert_eq!(e.tag(TRACE_ID_TAG).as_deref(), Some("000000ab"));
        assert_eq!(e.tag("direction").as_deref(), Some("rx"));
        assert_eq!(e.field_u64("pkt_len"), Some(60));
        assert_eq!(e.field_f64("cpu"), Some(0.0));
        assert_eq!(e.field_u64("absent"), None);
        // Materialization matches the compact record's own view.
        assert_eq!(e.to_point(), rec(10, 0xab).to_point("m", "server1"));
        // Typed keys render to the tags and match across the two forms.
        assert_eq!(e.trace_key(), Some(TraceKey::Id(0xab)));
        assert_eq!(e.trace_key(), p.trace_key());
        assert_eq!(e.flow_key().unwrap().to_string(), e.tag("flow").unwrap());
        assert_eq!(p.flow_key(), Some(FlowKey::Tag("10.0.0.1:1->10.0.0.2:2")));
        let untraced = CompactRecord::default();
        let u = Entry::Record {
            measurement: "m",
            node: "n",
            record: &untraced,
        };
        assert_eq!(u.trace_key(), None);
        assert_eq!(u.tag(TRACE_ID_TAG), None);
    }
}
