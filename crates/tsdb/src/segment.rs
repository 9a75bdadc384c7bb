//! Immutable columnar segments: the on-disk form of sealed record shards.
//!
//! A segment holds every compact record one measurement accumulated
//! between two seals, stored column-major so queries touch only the
//! bytes they need. The file layout is:
//!
//! ```text
//! ┌──────────────┬───────────────────┬────────┬─────┬─────┬──────────────┐
//! │ magic (8 B)  │ column blocks …   │ footer │ crc │ len │ magic (8 B)  │
//! └──────────────┴───────────────────┴────────┴─────┴─────┴──────────────┘
//! ```
//!
//! The footer is the segment's index: measurement name, the node
//! dictionary (names are stored once; the node column holds dictionary
//! indices), the record count, the time and sequence ranges used for
//! pruning, and one entry per column block (id, encoding, byte offset,
//! length, CRC). Readers locate the footer from the fixed-size trailer,
//! verify its CRC, and then read column blocks selectively with
//! `read_exact_at` — a time-range query that prunes on the footer never
//! touches the data bytes at all.
//!
//! Timestamps and sequence numbers use the delta-of-delta codec; every
//! other column is plain varint (see [`crate::codec`]). Segments are
//! written once and never modified; compaction replaces whole files
//! under a manifest commit (see [`crate::compact`]).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::codec::{self, crc32, get_str, get_uvarint, put_str, put_uvarint, CodecError};
use crate::record::CompactRecord;

/// Magic bytes at both ends of a segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"VNTSEG1\n";

/// Fixed trailer size: footer CRC (4) + footer length (4) + magic (8).
const TRAILER_BYTES: u64 = 16;

/// The twelve columns of a segment, in on-disk order. One lane per
/// [`CompactRecord`] field, plus the insertion sequence number (`Seq`,
/// which merges sealed rows with the in-memory hot tail in insertion
/// order) and the dictionary-encoded originating node (`Node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ColumnId {
    /// Per-table insertion sequence number.
    Seq = 0,
    /// Record timestamp, nanoseconds.
    Ts = 1,
    /// Index into the segment's node dictionary.
    Node = 2,
    /// Packet trace ID.
    TraceId = 3,
    /// Packet length.
    PktLen = 4,
    /// Source IPv4 address.
    Saddr = 5,
    /// Destination IPv4 address.
    Daddr = 6,
    /// Source port.
    Sport = 7,
    /// Destination port.
    Dport = 8,
    /// CPU the probe fired on.
    Cpu = 9,
    /// 0 = RX, 1 = TX.
    Direction = 10,
    /// Record flags (bit 0: trace ID present).
    Flags = 11,
}

impl ColumnId {
    /// All columns in on-disk order.
    pub const ALL: [ColumnId; 12] = [
        ColumnId::Seq,
        ColumnId::Ts,
        ColumnId::Node,
        ColumnId::TraceId,
        ColumnId::PktLen,
        ColumnId::Saddr,
        ColumnId::Daddr,
        ColumnId::Sport,
        ColumnId::Dport,
        ColumnId::Cpu,
        ColumnId::Direction,
        ColumnId::Flags,
    ];

    fn from_u8(v: u8) -> Option<ColumnId> {
        ColumnId::ALL.get(v as usize).copied()
    }

    /// The codec this column is encoded with: delta-of-delta for the
    /// near-monotonic `Seq`/`Ts` lanes, plain varint otherwise.
    pub fn encoding(self) -> Encoding {
        match self {
            ColumnId::Seq | ColumnId::Ts => Encoding::DeltaOfDelta,
            _ => Encoding::Varint,
        }
    }
}

/// How a column block is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Encoding {
    /// Plain LEB128 varints.
    Varint = 0,
    /// Raw first value, zigzag-varint second differences.
    DeltaOfDelta = 1,
}

impl Encoding {
    fn from_u8(v: u8) -> Option<Encoding> {
        match v {
            0 => Some(Encoding::Varint),
            1 => Some(Encoding::DeltaOfDelta),
            _ => None,
        }
    }
}

/// One column block's entry in the footer index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Which column this block holds.
    pub id: ColumnId,
    /// The block's codec.
    pub encoding: Encoding,
    /// Byte offset of the block from the start of the file.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// CRC-32 of the encoded block.
    pub crc: u32,
}

/// A segment's footer index: everything a reader needs to prune, plan
/// and decode without touching the column data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The measurement (table) the segment belongs to.
    pub measurement: String,
    /// Node-name dictionary; the `Node` column holds indices into it.
    pub nodes: Vec<String>,
    /// Number of rows.
    pub records: u64,
    /// Smallest timestamp in the segment.
    pub min_ts: u64,
    /// Largest timestamp in the segment.
    pub max_ts: u64,
    /// Smallest insertion sequence number.
    pub min_seq: u64,
    /// Largest insertion sequence number.
    pub max_seq: u64,
    /// Per-column block index, in [`ColumnId::ALL`] order.
    pub columns: Vec<ColumnMeta>,
    /// Total file size in bytes (header + blocks + footer + trailer).
    pub file_bytes: u64,
}

/// Errors from reading or writing segment files.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file fails structural validation (bad magic, CRC mismatch,
    /// out-of-bounds block, inconsistent counts).
    Corrupt(String),
    /// A column block failed to decode.
    Codec(CodecError),
}

impl core::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o: {e}"),
            SegmentError::Corrupt(m) => write!(f, "corrupt segment: {m}"),
            SegmentError::Codec(e) => write!(f, "segment codec: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io(e)
    }
}

impl From<CodecError> for SegmentError {
    fn from(e: CodecError) -> Self {
        SegmentError::Codec(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SegmentError {
    SegmentError::Corrupt(msg.into())
}

/// Streaming segment writer: columns are encoded and appended one at a
/// time (compaction never holds more than one decoded column in memory),
/// then [`SegmentWriter::finish`] writes the footer and trailer.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    offset: u64,
    columns: Vec<ColumnMeta>,
    records: Option<u64>,
    min_ts: u64,
    max_ts: u64,
    min_seq: u64,
    max_seq: u64,
}

impl SegmentWriter {
    /// Creates the file at `path` (truncating any previous content) and
    /// writes the header magic.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, SegmentError> {
        let path = path.into();
        let mut file = File::create(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        Ok(SegmentWriter {
            file,
            path,
            offset: SEGMENT_MAGIC.len() as u64,
            columns: Vec::with_capacity(ColumnId::ALL.len()),
            records: None,
            min_ts: u64::MAX,
            max_ts: 0,
            min_seq: u64::MAX,
            max_seq: 0,
        })
    }

    /// Encodes and appends one column. Columns must be pushed in
    /// [`ColumnId::ALL`] order and all hold the same number of values.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`SegmentError::Corrupt`] on order/length misuse.
    pub fn push_column(&mut self, id: ColumnId, values: &[u64]) -> Result<(), SegmentError> {
        let expect = ColumnId::ALL
            .get(self.columns.len())
            .copied()
            .ok_or_else(|| corrupt("too many columns"))?;
        if id != expect {
            return Err(corrupt(format!("expected column {expect:?}, got {id:?}")));
        }
        match self.records {
            None => self.records = Some(values.len() as u64),
            Some(n) if n != values.len() as u64 => {
                return Err(corrupt(format!(
                    "column {id:?} holds {} values, previous columns held {n}",
                    values.len()
                )));
            }
            Some(_) => {}
        }
        if let ColumnId::Ts = id {
            for &v in values {
                self.min_ts = self.min_ts.min(v);
                self.max_ts = self.max_ts.max(v);
            }
        }
        if let ColumnId::Seq = id {
            for &v in values {
                self.min_seq = self.min_seq.min(v);
                self.max_seq = self.max_seq.max(v);
            }
        }
        let encoding = id.encoding();
        let block = match encoding {
            Encoding::Varint => codec::encode_varint_col(values),
            Encoding::DeltaOfDelta => codec::encode_dod(values),
        };
        self.file.write_all(&block)?;
        self.columns.push(ColumnMeta {
            id,
            encoding,
            offset: self.offset,
            len: block.len() as u64,
            crc: crc32(&block),
        });
        self.offset += block.len() as u64;
        Ok(())
    }

    /// Writes the footer and trailer, optionally fsyncs, and returns the
    /// completed metadata. The segment must hold at least one row and
    /// all twelve columns.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`SegmentError::Corrupt`] on misuse.
    pub fn finish(
        mut self,
        measurement: &str,
        nodes: &[String],
        fsync: bool,
    ) -> Result<SegmentMeta, SegmentError> {
        if self.columns.len() != ColumnId::ALL.len() {
            return Err(corrupt(format!(
                "segment has {} of {} columns",
                self.columns.len(),
                ColumnId::ALL.len()
            )));
        }
        let records = self.records.unwrap_or(0);
        if records == 0 {
            return Err(corrupt("refusing to write an empty segment"));
        }
        let mut footer = Vec::with_capacity(256);
        put_uvarint(&mut footer, 1); // format version
        put_str(&mut footer, measurement);
        put_uvarint(&mut footer, nodes.len() as u64);
        for n in nodes {
            put_str(&mut footer, n);
        }
        put_uvarint(&mut footer, records);
        put_uvarint(&mut footer, self.min_ts);
        put_uvarint(&mut footer, self.max_ts);
        put_uvarint(&mut footer, self.min_seq);
        put_uvarint(&mut footer, self.max_seq);
        put_uvarint(&mut footer, self.columns.len() as u64);
        for c in &self.columns {
            footer.push(c.id as u8);
            footer.push(c.encoding as u8);
            put_uvarint(&mut footer, c.offset);
            put_uvarint(&mut footer, c.len);
            footer.extend_from_slice(&c.crc.to_le_bytes());
        }
        self.file.write_all(&footer)?;
        self.file.write_all(&crc32(&footer).to_le_bytes())?;
        self.file.write_all(
            &u32::try_from(footer.len())
                .expect("footer < 4 GiB")
                .to_le_bytes(),
        )?;
        self.file.write_all(SEGMENT_MAGIC)?;
        self.file.flush()?;
        if fsync {
            self.file.sync_all()?;
        }
        let file_bytes = self.offset + footer.len() as u64 + TRAILER_BYTES;
        Ok(SegmentMeta {
            measurement: measurement.to_owned(),
            nodes: nodes.to_vec(),
            records,
            min_ts: self.min_ts,
            max_ts: self.max_ts,
            min_seq: self.min_seq,
            max_seq: self.max_seq,
            columns: std::mem::take(&mut self.columns),
            file_bytes,
        })
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Column-major staging buffer: rows from sealed shards transposed into
/// the twelve column lanes, ready for a [`SegmentWriter`].
#[derive(Debug, Default)]
pub struct ColumnData {
    /// Node dictionary, first-seen order.
    pub nodes: Vec<String>,
    /// One lane per [`ColumnId`], in `ALL` order.
    pub cols: Vec<Vec<u64>>,
}

impl ColumnData {
    /// Transposes `(seq, node_index, record)` rows (already in `seq`
    /// order) into column lanes. `nodes` is the dictionary the
    /// `node_index` values refer to.
    pub fn from_rows(nodes: Vec<String>, rows: &[(u64, u32, CompactRecord)]) -> Self {
        let mut cols: Vec<Vec<u64>> = (0..ColumnId::ALL.len())
            .map(|_| Vec::with_capacity(rows.len()))
            .collect();
        for (seq, node, r) in rows {
            for id in ColumnId::ALL {
                let v = match id {
                    ColumnId::Seq => *seq,
                    ColumnId::Node => u64::from(*node),
                    _ => r.field(id),
                };
                cols[id as usize].push(v);
            }
        }
        ColumnData { nodes, cols }
    }

    /// Writes the staged columns as a complete segment file.
    ///
    /// # Errors
    ///
    /// Any [`SegmentError`] from the writer.
    pub fn write(
        &self,
        path: impl Into<PathBuf>,
        measurement: &str,
        fsync: bool,
    ) -> Result<SegmentMeta, SegmentError> {
        let mut w = SegmentWriter::create(path)?;
        for id in ColumnId::ALL {
            w.push_column(id, &self.cols[id as usize])?;
        }
        w.finish(measurement, &self.nodes, fsync)
    }
}

/// An open (read-only) segment: the validated footer plus a file handle
/// for positional column reads.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    file: File,
    meta: SegmentMeta,
}

impl Segment {
    /// Opens and validates a segment file: both magics, the footer CRC,
    /// and that every column block lies within the data region with all
    /// twelve columns present and consistent row counts.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Corrupt`] on any structural violation — never a
    /// panic, because segments are untrusted after a crash.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SegmentError> {
        let path = path.into();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let min_len = SEGMENT_MAGIC.len() as u64 + TRAILER_BYTES;
        if file_len < min_len {
            return Err(corrupt(format!("file too short ({file_len} bytes)")));
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != SEGMENT_MAGIC {
            return Err(corrupt("bad header magic"));
        }
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        file.read_exact(&mut trailer)?;
        if &trailer[8..16] != SEGMENT_MAGIC {
            return Err(corrupt("bad trailer magic"));
        }
        let footer_crc = u32::from_le_bytes(trailer[0..4].try_into().expect("4 bytes"));
        let footer_len = u64::from(u32::from_le_bytes(
            trailer[4..8].try_into().expect("4 bytes"),
        ));
        let data_end = file_len
            .checked_sub(TRAILER_BYTES + footer_len)
            .ok_or_else(|| corrupt("footer length exceeds file"))?;
        if data_end < SEGMENT_MAGIC.len() as u64 {
            return Err(corrupt("footer overlaps header"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(data_end))?;
        file.read_exact(&mut footer)?;
        if crc32(&footer) != footer_crc {
            return Err(corrupt("footer CRC mismatch"));
        }
        let meta = parse_footer(&footer, file_len, data_end)?;
        Ok(Segment { path, file, meta })
    }

    /// The segment's footer metadata.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads and decodes one column (positional read of just that
    /// block), verifying its CRC.
    ///
    /// # Errors
    ///
    /// I/O failure, CRC mismatch, or codec error.
    pub fn read_column(&self, id: ColumnId) -> Result<Vec<u64>, SegmentError> {
        let col = self
            .meta
            .columns
            .iter()
            .find(|c| c.id == id)
            .ok_or_else(|| corrupt(format!("missing column {id:?}")))?;
        let mut block = vec![0u8; col.len as usize];
        self.file.read_exact_at(&mut block, col.offset)?;
        if crc32(&block) != col.crc {
            return Err(corrupt(format!("column {id:?} CRC mismatch")));
        }
        let n = self.meta.records as usize;
        let values = match col.encoding {
            Encoding::Varint => codec::decode_varint_col(&block, n)?,
            Encoding::DeltaOfDelta => codec::decode_dod(&block, n)?,
        };
        Ok(values)
    }
}

fn parse_footer(footer: &[u8], file_len: u64, data_end: u64) -> Result<SegmentMeta, SegmentError> {
    let mut pos = 0usize;
    let version = get_uvarint(footer, &mut pos)?;
    if version != 1 {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let measurement = get_str(footer, &mut pos)?;
    let node_count = get_uvarint(footer, &mut pos)? as usize;
    if node_count > footer.len() {
        // A dictionary cannot hold more entries than the footer has
        // bytes; rejects absurd counts before the allocation below.
        return Err(corrupt(format!("implausible node count {node_count}")));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        nodes.push(get_str(footer, &mut pos)?);
    }
    let records = get_uvarint(footer, &mut pos)?;
    if records == 0 {
        return Err(corrupt("zero-row segment"));
    }
    let min_ts = get_uvarint(footer, &mut pos)?;
    let max_ts = get_uvarint(footer, &mut pos)?;
    let min_seq = get_uvarint(footer, &mut pos)?;
    let max_seq = get_uvarint(footer, &mut pos)?;
    if min_ts > max_ts || min_seq > max_seq {
        return Err(corrupt("inverted time or sequence range"));
    }
    let column_count = get_uvarint(footer, &mut pos)? as usize;
    if column_count != ColumnId::ALL.len() {
        return Err(corrupt(format!("segment has {column_count} columns")));
    }
    let mut columns = Vec::with_capacity(column_count);
    for (i, expect) in ColumnId::ALL.iter().enumerate() {
        let id_raw = *footer.get(pos).ok_or(CodecError::Truncated)?;
        pos += 1;
        let enc_raw = *footer.get(pos).ok_or(CodecError::Truncated)?;
        pos += 1;
        let id = ColumnId::from_u8(id_raw)
            .ok_or_else(|| corrupt(format!("unknown column id {id_raw}")))?;
        if id != *expect {
            return Err(corrupt(format!("column {i} out of order")));
        }
        let encoding = Encoding::from_u8(enc_raw)
            .ok_or_else(|| corrupt(format!("unknown encoding {enc_raw}")))?;
        if encoding != id.encoding() {
            return Err(corrupt(format!("column {id:?} has wrong encoding")));
        }
        let offset = get_uvarint(footer, &mut pos)?;
        let len = get_uvarint(footer, &mut pos)?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt("column block overflows"))?;
        if offset < SEGMENT_MAGIC.len() as u64 || end > data_end {
            return Err(corrupt(format!("column {id:?} outside data region")));
        }
        let crc_bytes = footer.get(pos..pos + 4).ok_or(CodecError::Truncated)?;
        pos += 4;
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        columns.push(ColumnMeta {
            id,
            encoding,
            offset,
            len,
            crc,
        });
    }
    if pos != footer.len() {
        return Err(corrupt("trailing bytes in footer"));
    }
    // The node column indexes the dictionary; an empty dictionary with
    // rows present would make every row unresolvable.
    if nodes.is_empty() {
        return Err(corrupt("empty node dictionary"));
    }
    Ok(SegmentMeta {
        measurement,
        nodes,
        records,
        min_ts,
        max_ts,
        min_seq,
        max_seq,
        columns,
        file_bytes: file_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, trace_id: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id,
            pkt_len: 60,
            sport: 1000,
            dport: 2000,
            flags: 1,
            ..Default::default()
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vnt_seg_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn sample_rows(n: u64) -> Vec<(u64, u32, CompactRecord)> {
        (0..n)
            .map(|i| (i, (i % 2) as u32, rec(1_000 + i * 37, i as u32)))
            .collect()
    }

    #[test]
    fn write_open_read_round_trip() {
        let path = tmp("round_trip");
        let rows = sample_rows(500);
        let nodes = vec!["n0".to_owned(), "n1".to_owned()];
        let meta = ColumnData::from_rows(nodes.clone(), &rows)
            .write(&path, "tp_a", false)
            .unwrap();
        assert_eq!(meta.records, 500);
        assert_eq!(meta.min_ts, 1_000);
        assert_eq!(meta.max_ts, 1_000 + 499 * 37);
        assert_eq!(meta.min_seq, 0);
        assert_eq!(meta.max_seq, 499);
        assert_eq!(meta.file_bytes, std::fs::metadata(&path).unwrap().len());

        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.meta(), &meta);
        assert_eq!(seg.meta().nodes, nodes);
        let cols: Vec<Vec<u64>> = ColumnId::ALL
            .iter()
            .map(|&id| seg.read_column(id).unwrap())
            .collect();
        assert_eq!(cols, ColumnData::from_rows(nodes.clone(), &rows).cols);
        // Columnar encoding beats the 32 B/record raw form by a wide
        // margin on this regular data.
        assert!(meta.file_bytes < 500 * 32 / 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_footer_rejected_without_panic() {
        let path = tmp("corrupt");
        let rows = sample_rows(64);
        ColumnData::from_rows(vec!["n".into()], &rows)
            .write(&path, "m", false)
            .unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip every byte of the footer + trailer region, one at a time:
        // each corruption must yield Err, never a panic or silent accept.
        let tail_start = clean.len().saturating_sub(96);
        for i in tail_start..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0xff;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                Segment::open(&path).is_err(),
                "byte {i} flip must be detected"
            );
        }
        // Truncations anywhere must also fail cleanly.
        for keep in [0, 7, 8, 20, clean.len() - 1] {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(Segment::open(&path).is_err(), "truncation to {keep}");
        }
        // And a flipped column byte is caught at read time by its CRC.
        let mut bad = clean.clone();
        bad[10] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        if let Ok(seg) = Segment::open(&path) {
            let any_err = ColumnId::ALL.iter().any(|&id| seg.read_column(id).is_err());
            assert!(any_err, "data corruption must fail a column CRC");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_segments_are_refused() {
        let path = tmp("empty");
        let err = ColumnData::from_rows(vec!["n".into()], &[])
            .write(&path, "m", false)
            .unwrap_err();
        assert!(matches!(err, SegmentError::Corrupt(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_enforces_column_order_and_lengths() {
        let path = tmp("order");
        let mut w = SegmentWriter::create(&path).unwrap();
        assert!(w.push_column(ColumnId::Ts, &[1]).is_err(), "Seq first");
        w.push_column(ColumnId::Seq, &[1, 2]).unwrap();
        assert!(
            w.push_column(ColumnId::Ts, &[1]).is_err(),
            "length mismatch"
        );
        let _ = std::fs::remove_file(&path);
    }
}
