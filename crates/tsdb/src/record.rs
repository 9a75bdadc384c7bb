//! Compact trace records: the fixed-size, allocation-free form trace
//! records take inside the store's per-(table, node) shards.
//!
//! The agent's kernel-side records are plain structs of integers; turning
//! each one into a [`DataPoint`](crate::point::DataPoint) (two `BTreeMap`s
//! and several freshly formatted `String`s) at ingest time is what made
//! the old single-record path slow. A [`CompactRecord`] keeps the integer
//! form end to end; the tag and field views a query sees are derived on
//! read instead.

use crate::point::DataPoint;
use crate::segment::ColumnId;
use crate::table::{FlowKey, DROP_REASON_TAG, TRACE_ID_TAG};

/// Resolves a drop-reason code (record flag bits 1–3) to its canonical
/// tag value. Code 0 means "not a drop record"; unknown codes also
/// resolve to `None` so malformed flags never invent a tag.
pub fn drop_reason_name(code: u8) -> Option<&'static str> {
    match code {
        1 => Some("queue-full"),
        2 => Some("policed"),
        3 => Some("device-down"),
        4 => Some("no-route"),
        5 => Some("link-loss"),
        _ => None,
    }
}

/// The inverse of [`drop_reason_name`].
pub fn drop_reason_code(name: &str) -> Option<u8> {
    (1..=5).find(|&c| drop_reason_name(c) == Some(name))
}

/// Bytes one record occupies on the wire (and, padded, in a shard) —
/// used for ingest byte accounting.
pub const COMPACT_RECORD_BYTES: u64 = 32;

/// One packet trace record in compact (integer) form. Field for field
/// this mirrors the 32-byte wire record the eBPF trace scripts emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactRecord {
    /// Node-local `CLOCK_MONOTONIC` timestamp, nanoseconds.
    pub timestamp_ns: u64,
    /// The packet's trace ID (0 when absent; see
    /// [`CompactRecord::has_trace_id`]).
    pub trace_id: u32,
    /// Packet length in bytes.
    pub pkt_len: u32,
    /// Source IPv4 address (numeric, host order).
    pub saddr: u32,
    /// Destination IPv4 address (numeric, host order).
    pub daddr: u32,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// CPU the probe fired on.
    pub cpu: u16,
    /// 0 = RX, 1 = TX.
    pub direction: u8,
    /// Bit 0: a trace ID was found in the packet.
    pub flags: u8,
}

impl CompactRecord {
    /// Whether the packet carried a trace ID.
    #[inline]
    pub fn has_trace_id(&self) -> bool {
        self.flags & 1 != 0
    }

    /// The trace ID in the 8-digit hex form used as the `trace_id` tag.
    pub fn trace_id_hex(&self) -> String {
        format!("{:08x}", self.trace_id)
    }

    /// The `flow` tag value: `src:sport->dst:dport`.
    pub fn flow(&self) -> String {
        self.flow_key().to_string()
    }

    /// The flow 4-tuple, typed; renders as [`CompactRecord::flow`].
    #[inline]
    pub fn flow_key(&self) -> FlowKey<'static> {
        FlowKey::Tuple {
            saddr: self.saddr,
            daddr: self.daddr,
            sport: self.sport,
            dport: self.dport,
        }
    }

    /// The value of column `id`, widened; 0 for the row-identity
    /// columns `Seq` and `Node`, which are not record fields.
    pub(crate) fn field(&self, id: ColumnId) -> u64 {
        match id {
            ColumnId::Seq | ColumnId::Node => 0,
            ColumnId::Ts => self.timestamp_ns,
            ColumnId::TraceId => u64::from(self.trace_id),
            ColumnId::PktLen => u64::from(self.pkt_len),
            ColumnId::Saddr => u64::from(self.saddr),
            ColumnId::Daddr => u64::from(self.daddr),
            ColumnId::Sport => u64::from(self.sport),
            ColumnId::Dport => u64::from(self.dport),
            ColumnId::Cpu => u64::from(self.cpu),
            ColumnId::Direction => u64::from(self.direction),
            ColumnId::Flags => u64::from(self.flags),
        }
    }

    /// Builds a record from its column values — the inverse of
    /// [`CompactRecord::field`].
    #[inline]
    pub(crate) fn from_fields(value: impl Fn(ColumnId) -> u64) -> Self {
        CompactRecord {
            timestamp_ns: value(ColumnId::Ts),
            trace_id: value(ColumnId::TraceId) as u32,
            pkt_len: value(ColumnId::PktLen) as u32,
            saddr: value(ColumnId::Saddr) as u32,
            daddr: value(ColumnId::Daddr) as u32,
            sport: value(ColumnId::Sport) as u16,
            dport: value(ColumnId::Dport) as u16,
            cpu: value(ColumnId::Cpu) as u16,
            direction: value(ColumnId::Direction) as u8,
            flags: value(ColumnId::Flags) as u8,
        }
    }

    /// The `direction` tag value.
    pub fn direction_str(&self) -> &'static str {
        if self.direction == 0 {
            "rx"
        } else {
            "tx"
        }
    }

    /// The typed drop-reason code carried in flag bits 1–3 (0 when the
    /// record is not a drop record).
    pub fn drop_reason_code(&self) -> u8 {
        (self.flags >> 1) & 0x7
    }

    /// The drop-reason tag value, when the record is a drop record with
    /// a known reason code.
    pub fn drop_reason(&self) -> Option<&'static str> {
        drop_reason_name(self.drop_reason_code())
    }

    /// Parses a canonical `flow` tag value (`src:sport->dst:dport`, as
    /// produced by [`CompactRecord::flow`]) back into its four numeric
    /// components. Returns `None` for anything non-canonical — a value
    /// this rejects can never equal a record's derived `flow` tag.
    pub(crate) fn parse_flow(value: &str) -> Option<(u32, u32, u16, u16)> {
        let (src, dst) = value.split_once("->")?;
        let parse_side = |side: &str| -> Option<(u32, u16)> {
            let (ip, port) = side.rsplit_once(':')?;
            let addr: std::net::Ipv4Addr = ip.parse().ok()?;
            Some((u32::from(addr), port.parse().ok()?))
        };
        let (saddr, sport) = parse_side(src)?;
        let (daddr, dport) = parse_side(dst)?;
        let canonical = format!(
            "{}:{sport}->{}:{dport}",
            std::net::Ipv4Addr::from(saddr),
            std::net::Ipv4Addr::from(daddr)
        );
        (canonical == value).then_some((saddr, daddr, sport, dport))
    }

    /// The inverse of [`CompactRecord::to_point`]: reconstructs the
    /// compact form (and the node name) from a materialized point.
    ///
    /// Returns `None` unless the point is *exactly* what `to_point`
    /// would produce for the result — the round trip is verified, so an
    /// import through this function is lossless by construction. Points
    /// with extra tags or fields, non-canonical tag values, or values
    /// out of range are rejected.
    pub fn from_point(point: &DataPoint) -> Option<(String, CompactRecord)> {
        let node = point.tag_value("node")?.to_owned();
        let (saddr, daddr, sport, dport) = Self::parse_flow(point.tag_value("flow")?)?;
        let direction = match point.tag_value("direction")? {
            "rx" => 0,
            "tx" => 1,
            _ => return None,
        };
        let (trace_id, mut flags) = match point.tag_value(TRACE_ID_TAG) {
            Some(hex) if hex.len() == 8 => (u32::from_str_radix(hex, 16).ok()?, 1),
            Some(_) => return None,
            None => (0, 0),
        };
        if let Some(name) = point.tag_value(DROP_REASON_TAG) {
            flags |= drop_reason_code(name)? << 1;
        }
        let record = CompactRecord {
            timestamp_ns: point.timestamp_ns,
            trace_id,
            pkt_len: u32::try_from(point.field_value("pkt_len")?.as_u64()?).ok()?,
            saddr,
            daddr,
            sport,
            dport,
            cpu: u16::try_from(point.field_value("cpu")?.as_u64()?).ok()?,
            direction,
            flags,
        };
        (record.to_point(&point.measurement, &node) == *point).then_some((node, record))
    }

    /// Materializes the record as the [`DataPoint`] the single-record
    /// ingest path would have produced: tagged with node, flow, direction
    /// and (when present) trace ID; fields `pkt_len` and `cpu`.
    pub fn to_point(&self, measurement: &str, node: &str) -> DataPoint {
        let mut p = DataPoint::new(measurement, self.timestamp_ns)
            .tag("node", node)
            .tag("flow", self.flow())
            .tag("direction", self.direction_str())
            .field("pkt_len", u64::from(self.pkt_len))
            .field("cpu", u64::from(self.cpu));
        if self.has_trace_id() {
            p = p.tag(TRACE_ID_TAG, self.trace_id_hex());
        }
        if let Some(reason) = self.drop_reason() {
            p = p.tag(DROP_REASON_TAG, reason);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompactRecord {
        CompactRecord {
            timestamp_ns: 1_234,
            trace_id: 0xdeadbeef,
            pkt_len: 102,
            saddr: u32::from(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            daddr: u32::from(std::net::Ipv4Addr::new(10, 0, 0, 2)),
            sport: 1000,
            dport: 2000,
            cpu: 3,
            direction: 0,
            flags: 1,
        }
    }

    #[test]
    fn materialization_matches_tag_conventions() {
        let p = sample().to_point("tp", "server1");
        assert_eq!(p.measurement, "tp");
        assert_eq!(p.timestamp_ns, 1_234);
        assert_eq!(p.tag_value("node"), Some("server1"));
        assert_eq!(p.tag_value("flow"), Some("10.0.0.1:1000->10.0.0.2:2000"));
        assert_eq!(p.tag_value("direction"), Some("rx"));
        assert_eq!(p.tag_value(TRACE_ID_TAG), Some("deadbeef"));
        assert_eq!(p.field_value("pkt_len").unwrap().as_u64(), Some(102));
        assert_eq!(p.field_value("cpu").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn trace_id_tag_only_when_flagged() {
        let mut r = sample();
        r.flags = 0;
        r.direction = 1;
        let p = r.to_point("tp", "n");
        assert_eq!(p.tag_value(TRACE_ID_TAG), None);
        assert_eq!(p.tag_value("direction"), Some("tx"));
    }

    #[test]
    fn from_point_inverts_to_point() {
        for flags in [0u8, 1] {
            for direction in [0u8, 1] {
                let mut r = sample();
                r.flags = flags;
                r.direction = direction;
                if flags == 0 {
                    // An unflagged trace ID never reaches the point form,
                    // so it cannot survive the round trip.
                    r.trace_id = 0;
                }
                let p = r.to_point("tp", "server1");
                let (node, back) = CompactRecord::from_point(&p).unwrap();
                assert_eq!(node, "server1");
                assert_eq!(back, r);
            }
        }
    }

    #[test]
    fn from_point_rejects_nonconforming_points() {
        let base = sample().to_point("tp", "n");
        assert!(CompactRecord::from_point(&base.clone().tag("extra", "x")).is_none());
        assert!(CompactRecord::from_point(&base.clone().field("extra", 1u64)).is_none());
        let mut no_node = base.clone();
        no_node.tags.remove("node");
        assert!(CompactRecord::from_point(&no_node).is_none());
        let mut bad_flow = base.clone();
        bad_flow
            .tags
            .insert("flow".into(), "01.0.0.1:1->2.0.0.2:2".into());
        assert!(CompactRecord::from_point(&bad_flow).is_none());
        let mut short_id = base;
        short_id.tags.insert(TRACE_ID_TAG.into(), "ab".into());
        assert!(CompactRecord::from_point(&short_id).is_none());
    }

    #[test]
    fn parse_flow_requires_canonical_form() {
        assert_eq!(
            CompactRecord::parse_flow("10.0.0.1:1000->10.0.0.2:2000"),
            Some((0x0a000001, 0x0a000002, 1000, 2000))
        );
        for bad in [
            "",
            "10.0.0.1:1000",
            "10.0.0.1:01000->10.0.0.2:2000", // zero-padded port
            "10.0.0.1:1000->10.0.0.2:70000", // port overflow
            "300.0.0.1:1->2.0.0.2:2",
        ] {
            assert_eq!(CompactRecord::parse_flow(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn drop_reason_round_trips_through_point_form() {
        for code in 1u8..=5 {
            let mut r = sample();
            r.flags = 1 | (code << 1);
            let p = r.to_point("skb_drop", "n");
            assert_eq!(p.tag_value(DROP_REASON_TAG), drop_reason_name(code));
            let (_, back) = CompactRecord::from_point(&p).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.drop_reason_code(), code);
        }
        // Unknown codes never materialize a tag (and so never round trip).
        let mut r = sample();
        r.flags = 7 << 1;
        assert_eq!(r.drop_reason(), None);
        assert_eq!(r.to_point("skb_drop", "n").tag_value(DROP_REASON_TAG), None);
    }

    #[test]
    fn hex_id_zero_padded() {
        let r = CompactRecord {
            trace_id: 0xa,
            flags: 1,
            ..Default::default()
        };
        assert_eq!(r.trace_id_hex(), "0000000a");
    }
}
