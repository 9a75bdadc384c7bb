//! Queries: filter, select and aggregate over a measurement.
//!
//! Covers the operations vNetTracer's offline analysis performs: select a
//! tracepoint's table, filter by tags (flow, node, device) and time range,
//! and aggregate a field (count, mean, min/max, percentiles).
//! [`Query::scan`] is the one way records are read: it covers sealed
//! segments and the in-memory hot tail alike, and yields [`Entry`] views,
//! so point-backed and record-backed data answer identically.

use std::collections::HashMap;

use crate::point::DataPoint;
use crate::record::CompactRecord;
use crate::segment::{ColumnId, SegmentError};
use crate::store::{StoreError, TraceDb};
use crate::table::{Entry, TraceKey, TRACE_ID_TAG};

/// The columns a trace-ID join reads: the timestamp, the trace ID and
/// the flags, whose bit 0 says the ID is present.
pub const TRACE_COLUMNS: [ColumnId; 3] = [ColumnId::Ts, ColumnId::TraceId, ColumnId::Flags];

/// A query over one measurement.
///
/// # Examples
///
/// ```
/// use vnet_tsdb::{DataPoint, TraceDb};
/// use vnet_tsdb::query::Query;
///
/// let mut db = TraceDb::new();
/// for i in 0..10u64 {
///     db.insert(DataPoint::new("rx", i * 100).tag("node", "n1").field("len", i));
/// }
/// let hits = Query::new("rx").tag_eq("node", "n1").time_range(200, 500).scan(&db)?;
/// assert_eq!(hits.len(), 4);
/// # Ok::<(), vnet_tsdb::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Query {
    measurement: String,
    tag_filters: Vec<(String, String)>,
    time_start: Option<u64>,
    time_end: Option<u64>,
    columns: Option<Vec<ColumnId>>,
}

impl Query {
    /// Starts a query over `measurement`.
    pub fn new(measurement: impl Into<String>) -> Self {
        Query {
            measurement: measurement.into(),
            ..Default::default()
        }
    }

    /// Requires tag `key` to equal `value`.
    pub fn tag_eq(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tag_filters.push((key.into(), value.into()));
        self
    }

    /// Restricts to `start..=end` (inclusive), in nanoseconds.
    pub fn time_range(mut self, start: u64, end: u64) -> Self {
        self.time_start = Some(start);
        self.time_end = Some(end);
        self
    }

    /// Reads only these columns of each record; the default is all of
    /// them. The record fields of unselected columns read as zero in
    /// every returned record, sealed or hot, so an answer built from the
    /// selected fields cannot depend on where the records live.
    /// Filters work whatever is selected, and every entry keeps its node
    /// and insertion order. Points are returned whole.
    ///
    /// A metric that reads a few fields selects them: a sealed segment
    /// then decodes those columns and nothing else.
    pub fn select(mut self, columns: impl IntoIterator<Item = ColumnId>) -> Self {
        self.columns = Some(columns.into_iter().collect());
        self
    }

    /// Which record fields the caller reads, by column; never the
    /// row-identity columns `Seq` and `Node`.
    fn selected(&self) -> [bool; ColumnId::ALL.len()] {
        ColumnId::ALL.map(|id| {
            !matches!(id, ColumnId::Seq | ColumnId::Node)
                && self.columns.as_ref().is_none_or(|c| c.contains(&id))
        })
    }

    fn matches(&self, e: &Entry<'_>) -> bool {
        if let Some(s) = self.time_start {
            if e.timestamp_ns() < s {
                return false;
            }
        }
        if let Some(end) = self.time_end {
            if e.timestamp_ns() > end {
                return false;
            }
        }
        self.tag_filters
            .iter()
            .all(|(k, v)| e.tag(k).as_deref() == Some(v.as_str()))
    }

    /// Runs the query over the whole database — sealed segments and the
    /// in-memory hot tail — returning an owned result set.
    ///
    /// This is the vectorized path: tag filters are compiled to integer
    /// predicates once, segments are pruned by footer time range and
    /// node dictionary without touching their data, and only the
    /// predicate columns of surviving segments are decoded before the
    /// selected columns ([`Query::select`]) of the matches. A row's
    /// sequence number and node come from the footer when it determines
    /// them (a gap-free sequence range, a one-node dictionary) and are
    /// decoded otherwise.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from reading sealed segments.
    pub fn scan(&self, db: &TraceDb) -> Result<ScanResult, StoreError> {
        let preds: Vec<TagPred> = self
            .tag_filters
            .iter()
            .map(|(k, v)| TagPred::compile(k, v))
            .collect();
        // A predicate no compact record can satisfy (unknown tag key,
        // malformed value) rules out every sealed row up front — but
        // not hot points, which carry arbitrary tags.
        let record_possible = !preds.iter().any(|p| matches!(p, TagPred::Never));
        let time_filter = self.time_start.is_some() || self.time_end.is_some();
        let selected = self.selected();

        let segments = db.sealed_segments_for(&self.measurement);
        let hot = db.table(&self.measurement);
        let mut nodes: Vec<String> = Vec::new();
        let mut rows: Vec<(u64, u32, CompactRecord)> = Vec::new();
        let mut points: Vec<(u64, DataPoint)> = Vec::new();
        let mut stats = ScanStats::default();
        if preds.is_empty() && !time_filter {
            let sealed: u64 = segments.iter().map(|s| s.meta().records).sum();
            rows.reserve(sealed as usize + hot.map_or(0, |t| t.len()));
        }

        'segments: for seg in segments {
            stats.segments_total += 1;
            let meta = seg.meta();
            let time_pruned = !record_possible
                || self.time_start.is_some_and(|s| meta.max_ts < s)
                || self.time_end.is_some_and(|e| meta.min_ts > e);
            if time_pruned {
                stats.segments_pruned += 1;
                continue;
            }
            // Resolve node-equality predicates against this segment's
            // dictionary; a miss prunes the whole segment.
            let mut node_idx: Vec<u64> = Vec::new();
            for p in &preds {
                if let TagPred::Node(name) = p {
                    match meta.nodes.iter().position(|n| n == name) {
                        Some(i) => node_idx.push(i as u64),
                        None => {
                            stats.segments_pruned += 1;
                            continue 'segments;
                        }
                    }
                }
            }
            stats.segments_scanned += 1;
            stats.sealed_rows_total += meta.records;
            let n = meta.records as usize;
            // Sequence numbers are unique and ascending within a
            // segment, so a range as wide as the row count has no gaps.
            let seq_from_footer = meta
                .max_seq
                .checked_sub(meta.min_seq)
                .and_then(|w| w.checked_add(1))
                == Some(meta.records);
            let one_node = meta.nodes.len() == 1;
            // Row-level checks the footer cannot settle for the whole
            // segment.
            let ts_filter = self.time_start.is_some_and(|s| meta.min_ts < s)
                || self.time_end.is_some_and(|e| meta.max_ts > e);
            let node_filter = !node_idx.is_empty() && !one_node;
            let value_filter = preds.iter().any(|p| !matches!(p, TagPred::Node(_)));

            // Phase 1: decode only the columns the row-level checks touch.
            let mut want = [false; ColumnId::ALL.len()];
            want[ColumnId::Ts as usize] = ts_filter;
            want[ColumnId::Node as usize] = node_filter;
            for p in &preds {
                match p {
                    TagPred::Node(_) | TagPred::Never => {}
                    TagPred::DirectionRx | TagPred::DirectionTx => {
                        want[ColumnId::Direction as usize] = true;
                    }
                    TagPred::TraceId(_) => {
                        want[ColumnId::TraceId as usize] = true;
                        want[ColumnId::Flags as usize] = true;
                    }
                    TagPred::Flow { .. } => {
                        want[ColumnId::Saddr as usize] = true;
                        want[ColumnId::Daddr as usize] = true;
                        want[ColumnId::Sport as usize] = true;
                        want[ColumnId::Dport as usize] = true;
                    }
                }
            }
            let mut cols: [Option<Vec<u64>>; ColumnId::ALL.len()] = Default::default();
            for id in ColumnId::ALL {
                if want[id as usize] {
                    cols[id as usize] = Some(seg.read_column(id)?);
                    stats.bytes_read += meta.columns[id as usize].len;
                }
            }
            // The matched row indices; `None` when every row matches.
            let matched: Option<Vec<usize>> =
                (ts_filter || node_filter || value_filter).then(|| {
                    let col =
                        |id: ColumnId| cols[id as usize].as_deref().expect("loaded in phase 1");
                    (0..n)
                        .filter(|&i| {
                            if ts_filter {
                                let t = col(ColumnId::Ts)[i];
                                if self.time_start.is_some_and(|s| t < s)
                                    || self.time_end.is_some_and(|e| t > e)
                                {
                                    return false;
                                }
                            }
                            (!node_filter || node_idx.iter().all(|&w| col(ColumnId::Node)[i] == w))
                                && preds.iter().all(|p| match p {
                                    TagPred::Node(_) => true,
                                    TagPred::Never => false,
                                    TagPred::DirectionRx => col(ColumnId::Direction)[i] == 0,
                                    TagPred::DirectionTx => col(ColumnId::Direction)[i] != 0,
                                    TagPred::TraceId(id) => {
                                        col(ColumnId::Flags)[i] & 1 != 0
                                            && col(ColumnId::TraceId)[i] == u64::from(*id)
                                    }
                                    TagPred::Flow {
                                        saddr,
                                        daddr,
                                        sport,
                                        dport,
                                    } => {
                                        col(ColumnId::Saddr)[i] == *saddr
                                            && col(ColumnId::Daddr)[i] == *daddr
                                            && col(ColumnId::Sport)[i] == *sport
                                            && col(ColumnId::Dport)[i] == *dport
                                    }
                                })
                        })
                        .collect()
                });
            let count = matched.as_ref().map_or(n, Vec::len);
            if count == 0 {
                continue;
            }
            stats.rows_matched += count as u64;
            let row = |k: usize| matched.as_ref().map_or(k, |m| m[k]);

            // Phase 2: decode the remaining selected columns (and the
            // row identity the footer does not determine), then
            // materialize the matched rows.
            want[ColumnId::Seq as usize] = !seq_from_footer;
            want[ColumnId::Node as usize] = !one_node;
            for id in ColumnId::ALL {
                let needed = want[id as usize] || selected[id as usize];
                if needed && cols[id as usize].is_none() {
                    cols[id as usize] = Some(seg.read_column(id)?);
                    stats.bytes_read += meta.columns[id as usize].len;
                }
            }
            let remap: Vec<u32> = meta
                .nodes
                .iter()
                .map(|name| dict_index(&mut nodes, name))
                .collect();
            let node_col = cols[ColumnId::Node as usize].as_deref();
            let bad_node = match node_col {
                Some(c) => c.iter().copied().find(|&d| d as usize >= remap.len()),
                None => remap.is_empty().then_some(0),
            };
            if let Some(dict) = bad_node {
                return Err(StoreError::Segment(SegmentError::Corrupt(format!(
                    "node index {dict} outside dictionary of {}",
                    seg.path().display()
                ))));
            }
            let seq_col = cols[ColumnId::Seq as usize].as_deref();
            // The selected field lanes; an unselected field reads as 0
            // even when a predicate decoded it.
            let lanes: [Option<&[u64]>; ColumnId::ALL.len()] = ColumnId::ALL.map(|id| {
                cols[id as usize]
                    .as_deref()
                    .filter(|_| selected[id as usize])
            });
            rows.extend((0..count).map(|k| {
                let i = row(k);
                let seq = seq_col.map_or(meta.min_seq + i as u64, |c| c[i]);
                let node = remap[node_col.map_or(0, |c| c[i] as usize)];
                let record =
                    CompactRecord::from_fields(|id| lanes[id as usize].map_or(0, |c| c[i]));
                (seq, node, record)
            }));
        }
        // Segments are disjoint, ascending sequence ranges; the check
        // keeps the merge below correct should that ever change.
        if !rows.is_sorted_by_key(|r| r.0) {
            rows.sort_by_key(|r| r.0);
        }

        // The hot tail: points and not-yet-sealed shard records.
        let hot_base = rows.len();
        if let Some(table) = hot {
            for (seq, e) in table.seq_entries() {
                if !self.matches(&e) {
                    continue;
                }
                stats.hot_entries += 1;
                match e {
                    Entry::Point(p) => points.push((seq, p.clone())),
                    Entry::Record { node, record, .. } => {
                        let idx = dict_index(&mut nodes, node);
                        rows.push((seq, idx, *record));
                    }
                }
            }
        }
        if self.columns.is_some() {
            for (_, _, record) in &mut rows[hot_base..] {
                let r = *record;
                *record = CompactRecord::from_fields(|id| {
                    if selected[id as usize] {
                        r.field(id)
                    } else {
                        0
                    }
                });
            }
        }

        Ok(ScanResult {
            measurement: self.measurement.clone(),
            nodes,
            rows,
            points,
            stats,
        })
    }
}

/// Interns `name` in a scan-local node dictionary.
fn dict_index(nodes: &mut Vec<String>, name: &str) -> u32 {
    match nodes.iter().position(|n| n == name) {
        Some(i) => i as u32,
        None => {
            nodes.push(name.to_owned());
            (nodes.len() - 1) as u32
        }
    }
}

/// A tag filter compiled against the compact record form: what
/// [`Entry::tag`] derives lazily per row, evaluated as a plain integer
/// comparison on decoded columns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TagPred {
    /// `node == name`, resolved to a dictionary index per segment.
    Node(String),
    /// `direction == "rx"` (stored 0).
    DirectionRx,
    /// `direction == "tx"` (stored non-zero).
    DirectionTx,
    /// `trace_id == id`, requires the trace-ID flag bit.
    TraceId(u32),
    /// `flow == "src:sport->dst:dport"`, all four components equal.
    Flow {
        /// Source address.
        saddr: u64,
        /// Destination address.
        daddr: u64,
        /// Source port.
        sport: u64,
        /// Destination port.
        dport: u64,
    },
    /// No compact record can satisfy this filter (unknown key or a
    /// value the derived tag can never take).
    Never,
}

impl TagPred {
    fn compile(key: &str, value: &str) -> TagPred {
        match key {
            "node" => TagPred::Node(value.to_owned()),
            "direction" => match value {
                "rx" => TagPred::DirectionRx,
                "tx" => TagPred::DirectionTx,
                _ => TagPred::Never,
            },
            // The derived tag is always 8 lower-hex digits; only a
            // value in exactly that form can match.
            TRACE_ID_TAG => match TraceKey::parse(value) {
                TraceKey::Id(id) => TagPred::TraceId(id),
                TraceKey::Tag(_) => TagPred::Never,
            },
            "flow" => match CompactRecord::parse_flow(value) {
                Some((saddr, daddr, sport, dport)) => TagPred::Flow {
                    saddr: u64::from(saddr),
                    daddr: u64::from(daddr),
                    sport: u64::from(sport),
                    dport: u64::from(dport),
                },
                None => TagPred::Never,
            },
            _ => TagPred::Never,
        }
    }
}

/// Counters describing what a [`Query::scan`] touched — how much
/// pruning saved and how many bytes actually left the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Sealed segments belonging to the queried measurement.
    pub segments_total: u64,
    /// Segments skipped on footer metadata alone (time range, node
    /// dictionary, impossible predicate).
    pub segments_pruned: u64,
    /// Segments whose columns were (partially) decoded.
    pub segments_scanned: u64,
    /// Rows in the scanned segments.
    pub sealed_rows_total: u64,
    /// Sealed rows matching the query.
    pub rows_matched: u64,
    /// Hot-tail entries (points + shard records) matching the query.
    pub hot_entries: u64,
    /// Encoded bytes read from disk (column blocks, not footers).
    pub bytes_read: u64,
}

/// An owned result set from [`Query::scan`]: matched sealed rows plus
/// matched hot-tail entries, viewable as [`Entry`] values in insertion
/// order.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    measurement: String,
    nodes: Vec<String>,
    rows: Vec<(u64, u32, CompactRecord)>,
    points: Vec<(u64, DataPoint)>,
    stats: ScanStats,
}

impl ScanResult {
    /// The measurement scanned.
    pub fn measurement(&self) -> &str {
        &self.measurement
    }

    /// What the scan touched and skipped.
    pub fn stats(&self) -> &ScanStats {
        &self.stats
    }

    /// Number of matched entries.
    pub fn len(&self) -> usize {
        self.rows.len() + self.points.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matched entries in insertion order, without collecting
    /// them: metrics fold over this.
    #[inline]
    pub fn iter(&self) -> ScanIter<'_> {
        ScanIter {
            scan: self,
            point: 0,
            row: 0,
        }
    }

    /// The matched entries in insertion order, collected.
    pub fn entries(&self) -> Vec<Entry<'_>> {
        self.iter().collect()
    }

    /// The timestamp of each trace ID's first entry (lowest insertion
    /// sequence) — one side of a trace-ID join. Needs the
    /// [`TRACE_COLUMNS`] of sealed rows.
    pub fn first_ts_by_trace(&self) -> HashMap<TraceKey<'_>, u64> {
        let mut first = HashMap::new();
        for e in self.iter() {
            if let Some(id) = e.trace_key() {
                first.entry(id).or_insert_with(|| e.timestamp_ns());
            }
        }
        first
    }
}

/// The entries of a [`ScanResult`] in insertion order: its points and
/// rows, each already in sequence order, merged.
#[derive(Debug, Clone)]
pub struct ScanIter<'a> {
    scan: &'a ScanResult,
    point: usize,
    row: usize,
}

impl<'a> Iterator for ScanIter<'a> {
    type Item = Entry<'a>;

    #[inline]
    fn next(&mut self) -> Option<Entry<'a>> {
        let scan = self.scan;
        let row = scan.rows.get(self.row);
        if let Some((seq, p)) = scan.points.get(self.point) {
            if row.is_none_or(|r| *seq < r.0) {
                self.point += 1;
                return Some(Entry::Point(p));
            }
        }
        let (_, node, record) = row?;
        self.row += 1;
        Some(Entry::Record {
            measurement: &scan.measurement,
            node: &scan.nodes[*node as usize],
            record,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.scan.len() - self.point - self.row;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ScanIter<'_> {}

/// Aggregate statistics over one numeric field of an entry set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Number of entries carrying the field.
    pub count: usize,
    /// Sum of values.
    pub sum: f64,
    /// Mean value (0 when empty).
    pub mean: f64,
    /// Minimum value (0 when empty).
    pub min: f64,
    /// Maximum value (0 when empty).
    pub max: f64,
}

/// Computes aggregate statistics of `field` over `entries`.
pub fn aggregate(entries: &[Entry<'_>], field: &str) -> Aggregate {
    let values: Vec<f64> = entries.iter().filter_map(|e| e.field_f64(field)).collect();
    if values.is_empty() {
        return Aggregate::default();
    }
    let sum: f64 = values.iter().sum();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Aggregate {
        count: values.len(),
        sum,
        mean: sum / values.len() as f64,
        min,
        max,
    }
}

/// Nearest-rank selection of the `q`-quantile on an unsorted buffer via
/// `select_nth_unstable_by` — O(n) per quantile instead of a full sort.
fn select_quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in 0..=1, got {q}"
    );
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    let (_, v, _) = values.select_nth_unstable_by(rank - 1, |a, b| {
        a.partial_cmp(b).expect("no NaNs in trace data")
    });
    *v
}

/// Computes the `q`-quantile (0.0..=1.0) of `field` over `entries` using
/// nearest-rank selection (no full sort). Returns `None` when no values.
///
/// # Panics
///
/// Panics if `q` is outside `0.0..=1.0`.
pub fn percentile(entries: &[Entry<'_>], field: &str, q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in 0..=1, got {q}"
    );
    let mut values: Vec<f64> = entries.iter().filter_map(|e| e.field_f64(field)).collect();
    if values.is_empty() {
        return None;
    }
    Some(select_quantile(&mut values, q))
}

/// Computes several quantiles of `field` over `entries` in one pass:
/// the values are extracted once and each quantile is selected with
/// nearest rank, so callers printing p50/p95/p99 tables don't re-extract
/// (or re-sort) the field per quantile. Returns one value per requested
/// quantile, or `None` when no entry carries the field.
///
/// # Panics
///
/// Panics if any quantile is outside `0.0..=1.0`.
pub fn percentiles(entries: &[Entry<'_>], field: &str, qs: &[f64]) -> Option<Vec<f64>> {
    let mut values: Vec<f64> = entries.iter().filter_map(|e| e.field_f64(field)).collect();
    if values.is_empty() {
        return None;
    }
    Some(
        qs.iter()
            .map(|&q| select_quantile(&mut values, q))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RecordBatch;
    use crate::point::DataPoint;
    use crate::record::CompactRecord;
    use crate::store::{StoreOptions, TraceDb};

    fn db() -> TraceDb {
        let mut db = TraceDb::new();
        for i in 0..100u64 {
            let node = if i % 2 == 0 { "n0" } else { "n1" };
            db.insert(
                DataPoint::new("lat", i * 10)
                    .tag("node", node)
                    .field("us", i),
            );
        }
        db
    }

    fn hits(q: Query, db: &TraceDb) -> usize {
        q.scan(db).unwrap().len()
    }

    #[test]
    fn tag_filter_and_time_range() {
        let db = db();
        assert_eq!(hits(Query::new("lat").tag_eq("node", "n0"), &db), 50);
        assert_eq!(hits(Query::new("lat").time_range(100, 190), &db), 10);
        let q = Query::new("lat").tag_eq("node", "n1").time_range(0, 50);
        assert_eq!(hits(q, &db), 3); // t=10,30,50
        assert_eq!(hits(Query::new("absent"), &db), 0);
    }

    #[test]
    fn aggregate_statistics() {
        let scan = Query::new("lat").scan(&db()).unwrap();
        let pts = scan.entries();
        let agg = aggregate(&pts, "us");
        assert_eq!(agg.count, 100);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 99.0);
        assert!((agg.mean - 49.5).abs() < 1e-9);
        assert_eq!(aggregate(&pts, "missing").count, 0);
    }

    #[test]
    fn percentiles_single() {
        let scan = Query::new("lat").scan(&db()).unwrap();
        let pts = scan.entries();
        assert_eq!(percentile(&pts, "us", 0.5), Some(49.0));
        assert_eq!(percentile(&pts, "us", 0.999), Some(99.0));
        assert_eq!(percentile(&pts, "us", 0.0), Some(0.0));
        assert_eq!(percentile(&pts, "us", 1.0), Some(99.0));
        assert_eq!(percentile(&[], "us", 0.5), None);
    }

    #[test]
    fn percentiles_batch_matches_single() {
        let scan = Query::new("lat").scan(&db()).unwrap();
        let pts = scan.entries();
        let qs = [0.0, 0.5, 0.95, 0.999, 1.0];
        let batch = percentiles(&pts, "us", &qs).unwrap();
        for (&q, &got) in qs.iter().zip(batch.iter()) {
            assert_eq!(Some(got), percentile(&pts, "us", q), "q={q}");
        }
        assert_eq!(percentiles(&[], "us", &qs), None);
        assert_eq!(percentiles(&pts, "missing", &qs), None);
        assert_eq!(percentiles(&pts, "us", &[]), Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_bad_quantile() {
        let _ = percentile(&[], "us", 1.5);
    }

    fn record_batch(range: std::ops::Range<u32>) -> RecordBatch {
        let mut batch = RecordBatch::new();
        for i in range {
            batch.push(
                "rx",
                if i % 2 == 0 { "n0" } else { "n1" },
                CompactRecord {
                    timestamp_ns: u64::from(i) * 100,
                    trace_id: i / 4,
                    pkt_len: 60 + i,
                    direction: (i % 3 == 0) as u8,
                    flags: u8::from(i % 5 != 0),
                    sport: 1000,
                    dport: 2000,
                    ..Default::default()
                },
            );
        }
        batch
    }

    /// The same records and point, in memory and in a disk store. The
    /// first seal holds 40 records around the point's sequence number
    /// (a gapped range, so `Seq` is decoded), the second 40 records
    /// (a gap-free range, read from the footer); 20 stay hot.
    fn record_dbs(tag: &str) -> (TraceDb, TraceDb, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("vnt_query_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StoreOptions {
            seal_threshold: 40,
            fsync: false,
            background_compaction: false,
            ..StoreOptions::default()
        };
        let mut mem = TraceDb::new();
        let mut disk = TraceDb::open_with(&dir, options).unwrap();
        for db in [&mut mem, &mut disk] {
            db.insert_batch(&record_batch(0..20));
            db.insert(
                DataPoint::new("rx", 150)
                    .tag("node", "n0")
                    .field("pkt_len", 99u64),
            );
            db.insert_batch(&record_batch(20..40));
            db.insert_batch(&record_batch(0..40));
            db.insert_batch(&record_batch(0..20));
        }
        assert_eq!(disk.storage_stats().unwrap().sealed_records, 80);
        (mem, disk, dir)
    }

    fn points(scan: &ScanResult) -> Vec<DataPoint> {
        scan.iter().map(|e| e.to_point()).collect()
    }

    #[test]
    fn compiled_predicates_match_row_level_filter() {
        // The reference answer: every entry, filtered row by row.
        let (mem, disk, dir) = record_dbs("predicates");
        let queries = [
            Query::new("rx"),
            Query::new("rx").tag_eq("node", "n0"),
            Query::new("rx").tag_eq("direction", "tx"),
            Query::new("rx")
                .tag_eq("direction", "rx")
                .time_range(500, 2500),
            Query::new("rx").tag_eq(TRACE_ID_TAG, "00000003"),
            Query::new("rx").tag_eq("flow", "0.0.0.0:1000->0.0.0.0:2000"),
            Query::new("rx").tag_eq("unknown_tag", "x"),
            Query::new("rx").tag_eq(TRACE_ID_TAG, "not-hex!"),
            Query::new("absent"),
        ];
        for db in [&mem, &disk] {
            let all = Query::new("rx").scan(db).unwrap();
            for q in &queries {
                let expected: Vec<DataPoint> = if q.measurement == "rx" {
                    all.iter()
                        .filter(|e| q.matches(e))
                        .map(|e| e.to_point())
                        .collect()
                } else {
                    Vec::new()
                };
                let scan = q.scan(db).unwrap();
                assert_eq!(points(&scan), expected, "{q:?}");
                assert_eq!(scan.len(), expected.len());
            }
        }
        let scan = Query::new("rx").scan(&mem).unwrap();
        assert_eq!(scan.stats().segments_total, 0, "memory db has no segments");
        assert_eq!(
            points(&scan),
            points(&Query::new("rx").scan(&disk).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn selected_columns_read_the_same_wherever_records_live() {
        let (mem, disk, dir) = record_dbs("select");
        let q = Query::new("rx").select([ColumnId::Ts, ColumnId::PktLen]);
        let (m, d) = (q.scan(&mem).unwrap(), q.scan(&disk).unwrap());
        assert_eq!(points(&m), points(&d));
        let records: Vec<CompactRecord> = d
            .iter()
            .filter_map(|e| match e {
                Entry::Record { record, .. } => Some(*record),
                Entry::Point(_) => None,
            })
            .collect();
        assert_eq!(records.len(), 100);
        assert!(records
            .iter()
            .all(|r| r.trace_id == 0 && r.flags == 0 && r.sport == 0));
        // The batch groups n0's records first: 0, 2, 4, ...
        assert_eq!(records[1].pkt_len, 62);
        assert_eq!(records[1].timestamp_ns, 200);
        // Nodes and insertion order survive the projection.
        let nodes: Vec<String> = d
            .iter()
            .map(|e| e.tag("node").unwrap().into_owned())
            .collect();
        let full: Vec<String> = Query::new("rx")
            .scan(&disk)
            .unwrap()
            .iter()
            .map(|e| e.tag("node").unwrap().into_owned())
            .collect();
        assert_eq!(nodes, full);
        // Only the selected columns left the disk.
        let full_bytes = Query::new("rx").scan(&disk).unwrap().stats().bytes_read;
        assert!(d.stats().bytes_read < full_bytes / 2);
        // A filter on an unselected column still applies.
        let q = q.tag_eq("direction", "tx");
        assert_eq!(
            points(&q.scan(&mem).unwrap()),
            points(&q.scan(&disk).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn iter_merges_points_and_records_in_insertion_order() {
        let (mem, disk, dir) = record_dbs("order");
        let stamps = |db: &TraceDb| -> Vec<(u64, bool)> {
            let scan = Query::new("rx").scan(db).unwrap();
            assert_eq!(scan.entries().len(), scan.len());
            scan.iter()
                .map(|e| (e.timestamp_ns(), matches!(e, Entry::Point(_))))
                .collect()
        };
        let order = stamps(&disk);
        assert_eq!(order, stamps(&mem));
        assert_eq!(order.len(), 101);
        assert_eq!(
            order.iter().position(|&(_, p)| p),
            Some(20),
            "the point sits between the halves"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_hot_points_survive_impossible_record_predicates() {
        // A tag no record derives can still match a hand-built point.
        let mut db = TraceDb::new();
        db.insert(DataPoint::new("m", 5).tag("custom", "yes"));
        let scan = Query::new("m").tag_eq("custom", "yes").scan(&db).unwrap();
        assert_eq!(scan.len(), 1);
        assert_eq!(scan.stats().hot_entries, 1);
    }

    #[test]
    fn queries_see_batched_records() {
        let mut db = TraceDb::new();
        let mut batch = RecordBatch::new();
        for i in 0..10u32 {
            batch.push(
                "rx",
                if i % 2 == 0 { "n0" } else { "n1" },
                CompactRecord {
                    timestamp_ns: u64::from(i) * 100,
                    pkt_len: 60 + i,
                    direction: 0,
                    ..Default::default()
                },
            );
        }
        db.insert_batch(&batch);
        let scan = Query::new("rx")
            .tag_eq("node", "n0")
            .time_range(0, 400)
            .scan(&db)
            .unwrap();
        let hits = scan.entries();
        assert_eq!(hits.len(), 3); // t=0,200,400
        let agg = aggregate(&hits, "pkt_len");
        assert_eq!(agg.count, 3);
        assert_eq!(agg.min, 60.0);
        assert_eq!(agg.max, 64.0);
        assert_eq!(percentile(&hits, "pkt_len", 0.5), Some(62.0));
    }
}
