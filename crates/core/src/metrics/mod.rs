//! Network performance metrics computed from raw trace data (§III-D).
//!
//! All metrics are *offline* computations over the trace database:
//! throughput, latency (two-tracepoint deltas joined by trace ID), jitter,
//! packet loss, per-flow breakdowns and end-to-end latency decomposition.
//!
//! Every metric reads records through [`Query::scan`] (or counts them
//! from segment footers), selecting only the columns it uses, so its
//! answer is the same whether the records are hot, sealed or reopened
//! from disk. A sealed segment that cannot be read makes the metric
//! panic with the store error: an answer from part of the data would
//! look like a real one.

pub mod arrival;
pub mod decomposition;
pub mod drops;
pub mod flow;
pub mod jitter;
pub mod latency;
pub mod loss;
pub mod throughput;

pub use arrival::{arrival_rate, interarrival_ns};
pub use decomposition::{decompose, per_packet_segments, SegmentStats};
pub use drops::{drop_breakdown, drop_breakdown_all};
pub use flow::{per_flow_loss, per_flow_throughput};
pub use jitter::{jitter_range, jitter_series, JitterTracker};
pub use latency::{latency_between, stats_from_ns, LatencyStats};
pub use loss::{packet_loss, PacketLoss};
pub use throughput::{throughput_at, throughput_bps, TRACE_ID_WIRE_BYTES};

use vnet_tsdb::{Query, ScanResult, TraceDb};

/// Runs `query` over `db`, panicking with the store error if a sealed
/// segment cannot be read — the failure rule every metric shares with
/// [`TraceDb::join_timestamps`].
pub(crate) fn scan(db: &TraceDb, query: Query) -> ScanResult {
    query
        .scan(db)
        .unwrap_or_else(|e| panic!("sealed segment read failed: {e}"))
}
