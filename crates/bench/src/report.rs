//! Plain-text table reporting for the figure reproductions.

use std::fmt::Write as _;

use vnet_tsdb::TraceDb;
use vnettracer::metrics::throughput_at;

/// A printable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a footnote line (paper comparison, caveats).
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        writeln!(out, "=== {} ===", self.title)?;
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
        }
        let _ = writeln!(out);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
            }
            let _ = writeln!(out);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        f.write_str(&out)
    }
}

/// Formats a nanosecond quantity as microseconds with one decimal.
pub fn us(ns: f64) -> String {
    format!("{:.1}", ns / 1e3)
}

/// Formats a bit/s quantity as Mbps with no decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.0}", bps / 1e6)
}

/// One row of the trace-database summary `vnt` prints after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbSummaryRow {
    /// Table (measurement) name.
    pub table: String,
    /// Records in the table, sealed and hot.
    pub records: usize,
    /// Throughput at the table's tracepoint, bits/second.
    pub throughput_bps: f64,
}

/// Per-table record counts ([`TraceDb::count`]) and throughput
/// ([`throughput_at`]), sorted by table name. Both read sealed segments
/// as well as the hot tail, so a `--save-db` run that sealed reports
/// every record it ingested.
///
/// # Panics
///
/// Panics if a sealed segment cannot be read.
pub fn db_summary(db: &TraceDb) -> Vec<DbSummaryRow> {
    let mut names: Vec<&str> = db.measurements().collect();
    names.sort_unstable();
    names
        .into_iter()
        .map(|name| DbSummaryRow {
            table: name.to_owned(),
            records: db.count(name),
            throughput_bps: throughput_at(db, name),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::{CompactRecord, RecordBatch, StoreOptions};

    #[test]
    fn db_summary_counts_sealed_records() {
        let dir = std::env::temp_dir().join(format!("vnt_summary_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StoreOptions {
            seal_threshold: 64,
            fsync: false,
            background_compaction: false,
            ..StoreOptions::default()
        };
        let mut disk = TraceDb::open_with(&dir, options).unwrap();
        let mut mem = TraceDb::new();
        let mut ingested = 0;
        for b in 0..10u64 {
            let mut batch = RecordBatch::new();
            for i in 0..30u64 {
                let record = CompactRecord {
                    timestamp_ns: (b * 30 + i) * 1_000,
                    pkt_len: 1_000,
                    ..Default::default()
                };
                batch.push(["rx", "tx"][(i % 2) as usize], "vm1", record);
            }
            ingested += disk.insert_batch(&batch);
            mem.insert_batch(&batch);
        }
        assert!(disk.storage_stats().unwrap().sealed_records > 0);
        let rows = db_summary(&disk);
        let total: usize = rows.iter().map(|r| r.records).sum();
        assert_eq!(total as u64, ingested);
        assert_eq!(rows, db_summary(&mem));
        assert!(rows.iter().all(|r| r.throughput_bps > 0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig X", &["case", "value"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["longer".into(), "2.5".into()]);
        t.note("paper: something");
        let s = t.to_string();
        assert!(s.contains("=== Fig X ==="));
        assert!(s.contains("longer"));
        assert!(s.contains("note: paper"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        Table::new("t", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(12_345.0), "12.3");
        assert_eq!(mbps(940_000_000.0), "940");
    }
}
