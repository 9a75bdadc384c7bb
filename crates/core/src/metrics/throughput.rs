//! Throughput at a tracepoint.
//!
//! "We track the packet size S_i and the arrival time T_i during the data
//! transmission, and calculate the network throughput as
//! Σ_{i=1}^{N} (S_i − S_ID) / (T_N − T_1), where … S_ID is the 4 bytes
//! packet unique ID." (§III-D)

use vnet_tsdb::{ColumnId, Query, TraceDb};

/// Bytes the trace ID adds to each packet on the wire (`S_ID`).
pub const TRACE_ID_WIRE_BYTES: u64 = 4;

/// Running sums behind [`throughput_bps`]: sample count, first and last
/// timestamp, and payload bytes net of the trace ID.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Throughput {
    samples: u64,
    first: u64,
    last: u64,
    bytes: u64,
}

impl Throughput {
    pub(crate) fn new() -> Self {
        Throughput {
            samples: 0,
            first: u64::MAX,
            last: 0,
            bytes: 0,
        }
    }

    pub(crate) fn push(&mut self, timestamp_ns: u64, len: u32, has_id: bool) {
        self.samples += 1;
        self.first = self.first.min(timestamp_ns);
        self.last = self.last.max(timestamp_ns);
        self.bytes += u64::from(len).saturating_sub(if has_id { TRACE_ID_WIRE_BYTES } else { 0 });
    }

    pub(crate) fn merge(&mut self, other: Throughput) {
        self.samples += other.samples;
        self.first = self.first.min(other.first);
        self.last = self.last.max(other.last);
        self.bytes += other.bytes;
    }

    pub(crate) fn bps(&self) -> f64 {
        if self.samples < 2 || self.last == self.first {
            return 0.0;
        }
        (self.bytes * 8) as f64 / ((self.last - self.first) as f64 / 1e9)
    }
}

/// Computes throughput in bits/second from `(timestamp_ns, size_bytes,
/// carries_trace_id)` samples. Returns 0.0 with fewer than two samples or
/// zero elapsed time.
pub fn throughput_bps(samples: &[(u64, u32, bool)]) -> f64 {
    let mut t = Throughput::new();
    for &(ts, len, has_id) in samples {
        t.push(ts, len, has_id);
    }
    t.bps()
}

/// Computes throughput at a tracepoint's table, reading each record's
/// `pkt_len` field and whether it carries a trace ID.
///
/// # Panics
///
/// Panics if a sealed segment of the table cannot be read.
pub fn throughput_at(db: &TraceDb, measurement: &str) -> f64 {
    let columns = [ColumnId::Ts, ColumnId::PktLen, ColumnId::Flags];
    let scan = super::scan(db, Query::new(measurement).select(columns));
    let mut t = Throughput::new();
    for e in scan.iter() {
        if let Some(len) = e.field_u64("pkt_len") {
            t.push(e.timestamp_ns(), len as u32, e.trace_key().is_some());
        }
    }
    t.bps()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::{DataPoint, TRACE_ID_TAG};

    #[test]
    fn formula_subtracts_trace_id_bytes() {
        // 10 packets of 104 bytes with IDs over 1 ms: (104-4)*10*8 bits.
        let samples: Vec<(u64, u32, bool)> = (0..10).map(|i| (i * 111_111, 104, true)).collect();
        let elapsed_s = (9.0 * 111_111.0) / 1e9;
        let expected = 100.0 * 10.0 * 8.0 / elapsed_s;
        assert!((throughput_bps(&samples) - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn untagged_packets_count_fully() {
        let with_id = [(0u64, 104u32, true), (1_000_000, 104, true)];
        let without = [(0u64, 104u32, false), (1_000_000, 104, false)];
        assert!(throughput_bps(&without) > throughput_bps(&with_id));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(throughput_bps(&[]), 0.0);
        assert_eq!(throughput_bps(&[(5, 100, false)]), 0.0);
        assert_eq!(throughput_bps(&[(5, 100, false), (5, 100, false)]), 0.0);
    }

    #[test]
    fn throughput_from_database() {
        let mut db = TraceDb::new();
        for i in 0..100u64 {
            db.insert(
                DataPoint::new("nic_rx", i * 1_000)
                    .tag(TRACE_ID_TAG, format!("{i:08x}"))
                    .field("pkt_len", 104u64),
            );
        }
        // 100 packets * 100 effective bytes * 8 bits over 99us.
        let bps = throughput_at(&db, "nic_rx");
        let expected = (100.0 * 100.0 * 8.0) / (99_000.0 / 1e9);
        assert!((bps - expected).abs() / expected < 1e-9);
        assert_eq!(throughput_at(&db, "absent"), 0.0);
    }
}
