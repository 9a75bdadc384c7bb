//! The `store_query` workload: no simulator.
//!
//! A seeded generator writes the records of packets crossing chains of
//! tracepoints and plants the ground truth: per-hop latencies, per-hop
//! loss with typed drop reasons, and many flows per chain. The records go
//! through `Collector::ingest_batch` in agent-sized batches into a disk
//! store ([`crate::store_options`]; enough records for several seals and a
//! compaction), followed by `flush`. The store is then dropped, reopened
//! cold and asked a question set generated from the seed, covering every
//! offline metric function, tag/time-range scans and a `--from-db`-style
//! live replay. Every answer is checked against the planted truth and
//! against the same question on an in-memory copy of the records.
//!
//! The workload's set-up is the cold reopen of the populated store: the
//! manifest read, every segment footer and the WAL tail replay.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vnet_live::{LiveConfig, LiveEngine, WindowSpec};
use vnet_sim::time::SimTime;
use vnet_tsdb::{CompactRecord, Entry, Query, RecordBatch, ScanStats, TraceDb};
use vnettracer::metrics;
use vnettracer::{Collector, ModuleRegistry, ModuleScope};

use crate::spans::{self, span};
use crate::{median, nearest_rank, Args, Checks, RunOutput, COLLECT_NS};

/// Independent tracepoint chains.
const PATHS: usize = 64;
/// Tracepoints per chain.
const HOPS: usize = 4;
/// Packets sent into each chain. With the default 512Ki-record seal
/// threshold, the ~2.3M records this yields seal four times during
/// ingest, which gives every measurement four segments and starts
/// merges, and once more on flush. At 6,600 packets (three seals during
/// ingest) no merge ran.
const PACKETS_PER_PATH: u32 = 9_000;
/// Mean gap between a chain's packets, in record time.
const SEND_INTERVAL_NS: u64 = 16_000;
/// Agents: chains share sender and receiver nodes in this many groups.
const NODE_GROUPS: usize = 4;
/// Tag/time-range scans asked of each chain.
const SCANS_PER_CHAIN: usize = 4;
/// Chains the live replay question covers.
const REPLAY_CHAINS: usize = 4;
/// Distinct 5-tuples per chain.
const FLOWS_PER_PATH: u32 = 64;
/// Slice of record time the live replay ingests between heartbeats, and
/// its window width.
const REPLAY_SLICE_NS: u64 = 1_000_000;
/// Bucket width of the `arrival_rate` questions.
const ARRIVAL_BUCKET_NS: u64 = 100_000;

fn hop_table(p: usize, h: usize) -> String {
    format!("p{p}_hop{h}")
}

fn drop_table(p: usize) -> String {
    format!("p{p}_drops")
}

/// The node hosting hop `h` of chain `p`, as an index into
/// [`node_name`]: the first half of a chain is on its group's sender, the
/// second half on its group's receiver.
fn hop_node(p: usize, h: usize) -> u8 {
    ((p % NODE_GROUPS) * 2 + usize::from(h >= HOPS / 2)) as u8
}

fn node_name(node: u8) -> String {
    let side = if node.is_multiple_of(2) { "tx" } else { "rx" };
    format!("g{}-{side}", node / 2)
}

/// The generated input: records per table (the planted truth) and the
/// agent batches that carry them, in delivery order. Each agent ships
/// what its tracepoints recorded in one [`COLLECT_NS`] of record time as
/// one batch.
struct Dataset {
    tables: BTreeMap<String, Vec<(u8, CompactRecord)>>,
    batches: Vec<(String, u64, RecordBatch)>,
    records: u64,
}

fn generate(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tables: BTreeMap<String, Vec<(u8, CompactRecord)>> = BTreeMap::new();
    // (batch window, node) → batch.
    let mut windows: BTreeMap<(u64, u8), RecordBatch> = BTreeMap::new();
    let mut records = 0u64;
    let mut emit = |table: String, node: u8, rec: CompactRecord, tables: &mut BTreeMap<_, _>| {
        windows
            .entry((rec.timestamp_ns / COLLECT_NS, node))
            .or_default()
            .push(&table, &node_name(node), rec);
        tables
            .entry(table)
            .or_insert_with(Vec::new)
            .push((node, rec));
        records += 1;
    };
    for p in 0..PATHS {
        // Per-chain planted behaviour: segment base latency, spread,
        // loss probability and drop-reason mix.
        let base: Vec<u64> = (0..HOPS - 1)
            .map(|h| [2_000, 30_000, 5_000][h % 3] + rng.gen_range(0..1_000))
            .collect();
        let loss: Vec<f64> = (0..HOPS - 1)
            .map(|h| [0.004, 0.012, 0.006][h % 3] * (0.5 + rng.gen::<f64>()))
            .collect();
        let reasons: Vec<u8> = (0..HOPS - 1).map(|_| 1 + (rng.gen::<u8>() % 5)).collect();
        let flows: Vec<(u32, u32, u16, u16)> = (0..FLOWS_PER_PATH)
            .map(|f| {
                (
                    u32::from(std::net::Ipv4Addr::new(
                        10,
                        p as u8,
                        (f / 256) as u8,
                        (f % 256) as u8,
                    )),
                    u32::from(std::net::Ipv4Addr::new(10, 100 + p as u8, 0, 1)),
                    10_000 + rng.gen_range(0..50_000) as u16,
                    [80u16, 443, 11211, 5201][f as usize % 4],
                )
            })
            .collect();
        for i in 0..PACKETS_PER_PATH {
            let trace_id = ((p as u32) << 24) | (i + 1);
            let (saddr, daddr, sport, dport) =
                flows[rng.gen_range(0..FLOWS_PER_PATH as u64) as usize];
            let pkt_len = 104 + rng.gen_range(0..1_400) as u32;
            let mut t = 1_000_000
                + u64::from(i) * SEND_INTERVAL_NS
                + rng.gen_range(0..SEND_INTERVAL_NS / 2);
            for h in 0..HOPS {
                let rec = CompactRecord {
                    timestamp_ns: t,
                    trace_id,
                    pkt_len,
                    saddr,
                    daddr,
                    sport,
                    dport,
                    cpu: rng.gen_range(0..4) as u16,
                    direction: u8::from(h < HOPS / 2),
                    flags: 1,
                };
                emit(hop_table(p, h), hop_node(p, h), rec, &mut tables);
                if h + 1 == HOPS {
                    break;
                }
                if rng.gen_bool(loss[h]) {
                    // Lost on the way to hop h+1: a typed drop record on
                    // the next hop's node, and nothing further downstream.
                    let reason = if rng.gen_bool(0.7) {
                        reasons[h]
                    } else {
                        1 + (rng.gen::<u8>() % 5)
                    };
                    let drop = CompactRecord {
                        timestamp_ns: t + 1 + rng.gen_range(0..500),
                        flags: 1 | (reason << 1),
                        ..rec
                    };
                    emit(drop_table(p), hop_node(p, h + 1), drop, &mut tables);
                    break;
                }
                let spread = rng.gen_range(0..base[h] / 2);
                let spike = if rng.gen_bool(0.01) {
                    rng.gen_range(0..200_000)
                } else {
                    0
                };
                t += base[h] + spread + spike;
            }
        }
    }
    let batches = windows
        .into_iter()
        .map(|((w, node), batch)| (node_name(node), (w + 1) * COLLECT_NS, batch))
        .collect();
    Dataset {
        tables,
        batches,
        records,
    }
}

#[derive(Debug, Clone)]
enum Question {
    Latency(String, String),
    Decompose(Vec<String>),
    Jitter(String, String),
    Loss(String, String),
    Throughput(String),
    PerFlowThroughput(String),
    PerFlowLoss(String, String),
    Interarrival(String),
    ArrivalRate(String),
    Drops(String),
    Scan {
        table: String,
        flow: Option<String>,
        node: Option<String>,
        range: Option<(u64, u64)>,
    },
    Replay(Vec<usize>),
}

impl Question {
    /// The metric function the question calls, or `None` for scans and
    /// the replay.
    fn metric_fn(&self) -> Option<&'static str> {
        Some(match self {
            Question::Latency(..) => "latency_between",
            Question::Decompose(_) => "decompose",
            Question::Jitter(..) => "jitter_range",
            Question::Loss(..) => "packet_loss",
            Question::Throughput(_) => "throughput_at",
            Question::PerFlowThroughput(_) => "per_flow_throughput",
            Question::PerFlowLoss(..) => "per_flow_loss",
            Question::Interarrival(_) => "interarrival_ns",
            Question::ArrivalRate(_) => "arrival_rate",
            Question::Drops(_) => "drop_breakdown",
            Question::Scan { .. } | Question::Replay(_) => return None,
        })
    }

    /// Metrics that read only the hot table of a measurement and so
    /// answer as if the table were empty once its records are sealed —
    /// an open defect of the program. Their wrong answers are counted
    /// like any other, and labelled as the defect only when they equal
    /// the empty store's answer.
    fn reads_hot_table_only(&self) -> bool {
        matches!(
            self,
            Question::Loss(..)
                | Question::Throughput(_)
                | Question::PerFlowThroughput(_)
                | Question::PerFlowLoss(..)
                | Question::Interarrival(_)
                | Question::ArrivalRate(_)
        )
    }
}

/// The seeded question set, seven questions per chain: the latency of a
/// random hop pair, two metric questions rotating through every metric
/// function (so each is asked of a fifth of the chains), and
/// [`SCANS_PER_CHAIN`] scans; then one live replay of a few chains.
fn questions(seed: u64, data: &Dataset) -> Vec<Question> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut qs = Vec::new();
    let pick = |rng: &mut SmallRng, n: usize| rng.gen_range(0..n as u64) as usize;
    for p in 0..PATHS {
        let hop = |h| hop_table(p, h);
        let a = pick(&mut rng, HOPS - 1);
        let b = a + 1 + pick(&mut rng, HOPS - 1 - a);
        qs.push(Question::Latency(hop(a), hop(b)));
        for j in 0..2 {
            let h = pick(&mut rng, HOPS);
            let c = pick(&mut rng, HOPS - 1);
            qs.push(match (p * 2 + j) % 10 {
                0 => Question::Latency(hop(0), hop(HOPS - 1)),
                1 => Question::Decompose((0..HOPS).map(hop).collect()),
                2 => Question::Jitter(hop(c), hop(c + 1)),
                3 => Question::Loss(hop(c), hop(c + 1)),
                4 => Question::Throughput(hop(h)),
                5 => Question::PerFlowThroughput(hop(h)),
                6 => Question::PerFlowLoss(hop(0), hop(HOPS - 1)),
                7 => Question::Interarrival(hop(h)),
                8 => Question::ArrivalRate(hop(h)),
                _ => Question::Drops(drop_table(p)),
            });
        }
        // Scans, in a rotation of six shapes: a flow over a wide or a
        // narrow window, a whole flow, a node's drops over a window, and
        // plain wide and narrow windows. Scans are the bulk of the set
        // and hold its median, so that median rests on many draws.
        let t0 = &data.tables[&hop(0)];
        let (lo, hi) = (t0[0].1.timestamp_ns, t0[t0.len() - 1].1.timestamp_ns);
        for j in 0..SCANS_PER_CHAIN {
            let shape = (p * SCANS_PER_CHAIN + j) % 6;
            let flow = t0[pick(&mut rng, t0.len())].1.flow();
            let width = (hi - lo) / [4, 50, 1, 2, 10, 200][shape];
            let start = lo + rng.gen_range(0..(hi - lo).saturating_sub(width).max(1));
            let range = Some((start, start + width));
            let h = pick(&mut rng, HOPS);
            qs.push(match shape {
                0 | 1 => Question::Scan {
                    table: hop(h),
                    flow: Some(flow),
                    node: None,
                    range,
                },
                2 => Question::Scan {
                    table: hop(h),
                    flow: Some(flow),
                    node: None,
                    range: None,
                },
                3 => Question::Scan {
                    table: drop_table(p),
                    flow: None,
                    node: Some(node_name(hop_node(p, HOPS - 1))),
                    range,
                },
                _ => Question::Scan {
                    table: hop(h),
                    flow: None,
                    node: None,
                    range,
                },
            });
        }
    }
    let mut chains: Vec<usize> = (0..PATHS).collect();
    for i in 0..REPLAY_CHAINS {
        let j = i + pick(&mut rng, PATHS - i);
        chains.swap(i, j);
    }
    chains.truncate(REPLAY_CHAINS);
    chains.sort_unstable();
    qs.push(Question::Replay(chains));
    qs
}

/// Nearest-rank percentile of sorted integer samples.
fn rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let r = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[r - 1]
}

/// Count, extremes, mean and percentiles of latency samples, in the
/// form both the store and the truth are rendered in.
fn render_stats(samples: &[u64]) -> String {
    let mut s = samples.to_vec();
    s.sort_unstable();
    let sum: u128 = s.iter().map(|&v| u128::from(v)).sum();
    let mean = if s.is_empty() {
        0.0
    } else {
        sum as f64 / s.len() as f64
    };
    format!(
        "n={} mean={mean:?} min={} max={} p50={} p95={} p99={} p999={}",
        s.len(),
        s.first().copied().unwrap_or(0),
        s.last().copied().unwrap_or(0),
        rank(&s, 0.50),
        rank(&s, 0.95),
        rank(&s, 0.99),
        rank(&s, 0.999)
    )
}

/// Count, sum, extremes and an order-sensitive FNV-1a digest.
fn digest(values: impl IntoIterator<Item = u64>) -> String {
    let (mut n, mut sum, mut min, mut max, mut h) =
        (0u64, 0u128, u64::MAX, 0u64, 0xcbf2_9ce4_8422_2325u64);
    for v in values {
        n += 1;
        sum += u128::from(v);
        min = min.min(v);
        max = max.max(v);
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("n={n} sum={sum} min={min} max={max} fnv={h:016x}")
}

fn render_loss(l: &metrics::PacketLoss) -> String {
    format!("{}/{}/{} {:?}", l.upstream, l.downstream, l.lost, l.rate)
}

/// Replays the hop tables of `chains` from `db` through a live engine
/// tracking each chain's end-to-end pair and every hop's throughput, in
/// 1 ms slices of record time with a heartbeat per node after each — the
/// cadence the in-process collector produces.
fn replay(db: &TraceDb, chains: &[usize], scans: &mut ScanTotals) -> Result<String, String> {
    let scope = ModuleScope {
        latency_pairs: chains
            .iter()
            .map(|&p| (hop_table(p, 0), hop_table(p, HOPS - 1)))
            .collect(),
        throughput_tables: chains
            .iter()
            .flat_map(|&p| (0..HOPS).map(move |h| hop_table(p, h)))
            .collect(),
        ..Default::default()
    };
    let specs = ModuleRegistry::builtin()
        .metrics("default", &scope)
        .map_err(|e| e.to_string())?;
    let mut cfg = LiveConfig::from_metric_specs(WindowSpec::tumbling(REPLAY_SLICE_NS), &specs);
    cfg.pair_timeout_ns = 10 * REPLAY_SLICE_NS;
    let mut engine = LiveEngine::new(cfg);
    let mut recs: Vec<(u64, String, String, CompactRecord)> = Vec::new();
    for table in &scope.throughput_tables {
        let res = scans.scan(db, Query::new(table))?;
        for e in res.entries() {
            let (node, rec) = match e {
                Entry::Record { node, record, .. } => (node.to_owned(), *record),
                Entry::Point(p) => CompactRecord::from_point(p)
                    .ok_or_else(|| format!("{table}: entry is not a compact record"))?,
            };
            recs.push((rec.timestamp_ns, table.clone(), node, rec));
        }
    }
    recs.sort_by(|a, b| (a.0, &a.1, &a.2).cmp(&(b.0, &b.1, &b.2)));
    let mut nodes: Vec<String> = recs.iter().map(|r| r.2.clone()).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        engine.register_agent(n, None);
    }
    let mut i = 0;
    let mut now = recs.first().map_or(0, |r| r.0);
    while i < recs.len() {
        now += REPLAY_SLICE_NS;
        let mut batch = RecordBatch::new();
        while i < recs.len() && recs[i].0 <= now {
            batch.push(&recs[i].1, &recs[i].2, recs[i].3);
            i += 1;
        }
        engine.ingest(&batch, now);
        for n in &nodes {
            engine.heartbeat(n, now);
        }
    }
    engine.finish();
    let mut out = Vec::new();
    scans.replay_pairs.clear();
    for (&p, (a, b)) in chains.iter().zip(&scope.latency_pairs) {
        let n = engine.latency_total(a, b).map_or(0, |l| l.count);
        scans.replay_pairs.push((p, n));
        out.push(format!("{a}->{b}:{n}"));
    }
    for t in &scope.throughput_tables {
        let n = engine.throughput_total(t).map_or(0, |w| w.count);
        out.push(format!("{t}:{n}"));
    }
    Ok(out.join(" "))
}

/// What the questions touched: accumulated `Query::scan` counters and
/// the replay's end-to-end pair count per chain.
#[derive(Debug, Default)]
struct ScanTotals {
    stats: ScanStats,
    calls: u64,
    replay_pairs: Vec<(usize, u64)>,
}

impl ScanTotals {
    fn scan(&mut self, db: &TraceDb, q: Query) -> Result<vnet_tsdb::ScanResult, String> {
        let res = span("tsdb.scan", || q.scan(db)).map_err(|e| format!("scan: {e}"))?;
        crate::add_scan_stats(&mut self.stats, res.stats());
        self.calls += 1;
        Ok(res)
    }
}

/// Asks `q` of `db`, rendering the answer for comparison.
fn ask(db: &TraceDb, q: &Question, scans: &mut ScanTotals) -> Result<String, String> {
    let metric = |f: &dyn Fn() -> String| span("core.metric", f);
    Ok(match q {
        Question::Latency(a, b) => {
            metric(&|| render_stats(&metrics::latency_between(db, a, b, None)))
        }
        Question::Decompose(chain) => metric(&|| {
            let chain: Vec<&str> = chain.iter().map(String::as_str).collect();
            metrics::decompose(db, &chain)
                .iter()
                .map(|s| {
                    let st = &s.stats;
                    format!(
                        "{}->{} n={} mean={:?} min={} max={} p50={} p99={} p999={}",
                        s.from,
                        s.to,
                        st.count,
                        st.mean_ns,
                        st.min_ns,
                        st.max_ns,
                        st.p50_ns,
                        st.p99_ns,
                        st.p999_ns
                    )
                })
                .collect::<Vec<_>>()
                .join("; ")
        }),
        Question::Jitter(a, b) => metric(&|| {
            format!(
                "{:?}",
                metrics::jitter_range(&metrics::latency_between(db, a, b, None))
            )
        }),
        Question::Loss(a, b) => metric(&|| render_loss(&metrics::packet_loss(db, a, b))),
        Question::Throughput(t) => metric(&|| format!("{:?}", metrics::throughput_at(db, t))),
        Question::PerFlowThroughput(t) => {
            metric(&|| format!("{:?}", metrics::per_flow_throughput(db, t)))
        }
        Question::PerFlowLoss(a, b) => metric(&|| {
            metrics::per_flow_loss(db, a, b)
                .iter()
                .map(|(f, l)| format!("{f}={}", render_loss(l)))
                .collect::<Vec<_>>()
                .join("; ")
        }),
        Question::Interarrival(t) => metric(&|| digest(metrics::interarrival_ns(db, t))),
        Question::ArrivalRate(t) => metric(&|| {
            digest(
                metrics::arrival_rate(db, t, ARRIVAL_BUCKET_NS)
                    .into_iter()
                    .flat_map(|(b, n)| [b, n]),
            )
        }),
        Question::Drops(t) => metric(&|| format!("{:?}", metrics::drop_breakdown(db, t))),
        Question::Scan {
            table,
            flow,
            node,
            range,
        } => {
            let mut query = Query::new(table);
            if let Some(f) = flow {
                query = query.tag_eq("flow", f);
            }
            if let Some(n) = node {
                query = query.tag_eq("node", n);
            }
            if let Some((a, b)) = range {
                query = query.time_range(*a, *b);
            }
            let res = scans.scan(db, query)?;
            let mut stamps: Vec<u64> = res.entries().iter().map(|e| e.timestamp_ns()).collect();
            stamps.sort_unstable();
            digest(stamps)
        }
        Question::Replay(chains) => span("live.replay", || replay(db, chains, scans))?,
    })
}

/// The planted answer to `q`, computed from the generated records
/// without the program's metric code.
fn truth(data: &Dataset, q: &Question) -> String {
    let empty = Vec::new();
    let table = |t: &str| data.tables.get(t).unwrap_or(&empty);
    // (t_a, t_b) of every packet seen at both tracepoints, in the order
    // the join reports them.
    let pairs = |a: &str, b: &str| -> Vec<(u64, u64)> {
        let at_b: HashMap<u32, u64> = table(b)
            .iter()
            .map(|(_, r)| (r.trace_id, r.timestamp_ns))
            .collect();
        let mut v: Vec<(u64, u64)> = table(a)
            .iter()
            .filter_map(|(_, r)| at_b.get(&r.trace_id).map(|&tb| (r.timestamp_ns, tb)))
            .collect();
        v.sort_unstable();
        v
    };
    let deltas = |a: &str, b: &str| -> Vec<u64> {
        pairs(a, b)
            .into_iter()
            .filter_map(|(ta, tb)| tb.checked_sub(ta))
            .collect()
    };
    let throughput = |recs: &[&CompactRecord]| -> f64 {
        if recs.len() < 2 {
            return 0.0;
        }
        let first = recs.iter().map(|r| r.timestamp_ns).min().unwrap_or(0);
        let last = recs.iter().map(|r| r.timestamp_ns).max().unwrap_or(0);
        if first == last {
            return 0.0;
        }
        let bytes: u64 = recs
            .iter()
            .map(|r| u64::from(r.pkt_len) - if r.has_trace_id() { 4 } else { 0 })
            .sum();
        (bytes * 8) as f64 / ((last - first) as f64 / 1e9)
    };
    let loss = |up: u64, down: u64| metrics::PacketLoss {
        upstream: up,
        downstream: down,
        lost: up.saturating_sub(down),
        rate: if up == 0 {
            0.0
        } else {
            up.saturating_sub(down) as f64 / up as f64
        },
    };
    let by_flow = |t: &str| -> BTreeMap<String, Vec<&CompactRecord>> {
        let mut m: BTreeMap<String, Vec<&CompactRecord>> = BTreeMap::new();
        for (_, r) in table(t) {
            m.entry(r.flow()).or_default().push(r);
        }
        m
    };
    let sorted_stamps = |t: &str| -> Vec<u64> {
        let mut v: Vec<u64> = table(t).iter().map(|(_, r)| r.timestamp_ns).collect();
        v.sort_unstable();
        v
    };
    match q {
        Question::Latency(a, b) => render_stats(&deltas(a, b)),
        Question::Decompose(chain) => chain
            .windows(2)
            .filter_map(|w| {
                let d = deltas(&w[0], &w[1]);
                if d.is_empty() {
                    return None;
                }
                let mut s = d.clone();
                s.sort_unstable();
                let sum: u128 = s.iter().map(|&v| u128::from(v)).sum();
                Some(format!(
                    "{}->{} n={} mean={:?} min={} max={} p50={} p99={} p999={}",
                    w[0],
                    w[1],
                    s.len(),
                    sum as f64 / s.len() as f64,
                    s[0],
                    s[s.len() - 1],
                    rank(&s, 0.50),
                    rank(&s, 0.99),
                    rank(&s, 0.999)
                ))
            })
            .collect::<Vec<_>>()
            .join("; "),
        Question::Jitter(a, b) => {
            let d = deltas(a, b);
            let diffs: Vec<i64> = d.windows(2).map(|w| w[1] as i64 - w[0] as i64).collect();
            let range = diffs
                .iter()
                .min()
                .zip(diffs.iter().max())
                .map(|(&lo, &hi)| (lo, hi));
            format!("{range:?}")
        }
        Question::Loss(a, b) => render_loss(&loss(table(a).len() as u64, table(b).len() as u64)),
        Question::Throughput(t) => {
            let recs: Vec<&CompactRecord> = table(t).iter().map(|(_, r)| r).collect();
            format!("{:?}", throughput(&recs))
        }
        Question::PerFlowThroughput(t) => {
            let v: Vec<(String, f64)> = by_flow(t)
                .into_iter()
                .map(|(f, recs)| (f, throughput(&recs)))
                .collect();
            format!("{v:?}")
        }
        Question::PerFlowLoss(a, b) => {
            let down = by_flow(b);
            by_flow(a)
                .into_iter()
                .map(|(f, up)| {
                    let d = down.get(&f).map_or(0, Vec::len) as u64;
                    format!("{f}={}", render_loss(&loss(up.len() as u64, d)))
                })
                .collect::<Vec<_>>()
                .join("; ")
        }
        Question::Interarrival(t) => digest(
            sorted_stamps(t)
                .windows(2)
                .map(|w| w[1] - w[0])
                .collect::<Vec<_>>(),
        ),
        Question::ArrivalRate(t) => {
            let s = sorted_stamps(t);
            let mut buckets: Vec<(u64, u64)> = Vec::new();
            if let (Some(&lo), Some(&hi)) = (s.first(), s.last()) {
                let first = lo / ARRIVAL_BUCKET_NS * ARRIVAL_BUCKET_NS;
                let n = (hi - first) / ARRIVAL_BUCKET_NS + 1;
                buckets = (0..n).map(|i| (first + i * ARRIVAL_BUCKET_NS, 0)).collect();
                for v in s {
                    buckets[((v - first) / ARRIVAL_BUCKET_NS) as usize].1 += 1;
                }
            }
            digest(buckets.into_iter().flat_map(|(b, n)| [b, n]))
        }
        Question::Drops(t) => {
            let mut m: BTreeMap<String, u64> = BTreeMap::new();
            for (_, r) in table(t) {
                let name = vnet_tsdb::drop_reason_name(r.drop_reason_code())
                    .unwrap_or(metrics::drops::UNATTRIBUTED);
                *m.entry(name.to_owned()).or_default() += 1;
            }
            format!("{:?}", m.into_iter().collect::<Vec<_>>())
        }
        Question::Scan {
            table: t,
            flow,
            node,
            range,
        } => {
            let mut stamps: Vec<u64> = table(t)
                .iter()
                .filter(|(n, r)| {
                    flow.as_ref().is_none_or(|f| r.flow() == *f)
                        && node.as_ref().is_none_or(|want| node_name(*n) == *want)
                        && range.is_none_or(|(a, b)| (a..=b).contains(&r.timestamp_ns))
                })
                .map(|(_, r)| r.timestamp_ns)
                .collect();
            stamps.sort_unstable();
            digest(stamps)
        }
        Question::Replay(chains) => {
            let mut out = Vec::new();
            for &p in chains {
                let (a, b) = (hop_table(p, 0), hop_table(p, HOPS - 1));
                out.push(format!("{a}->{b}:{}", pairs(&a, &b).len()));
            }
            for &p in chains {
                for h in 0..HOPS {
                    let t = hop_table(p, h);
                    out.push(format!("{t}:{}", table(&t).len()));
                }
            }
            out.join(" ")
        }
    }
}

/// The answers every question is checked against, by question index.
struct Answers {
    /// The planted truth.
    truth: Vec<String>,
    /// The in-memory copy's answer.
    memory: Vec<String>,
    /// An empty store's answer: what a metric that reads only the hot
    /// table returns once the records are sealed, the known defect's
    /// signature.
    empty: Vec<String>,
}

/// What one write + read pass measured.
#[derive(Debug, Default)]
struct Pass {
    ingest_ns: u64,
    ingested: u64,
    storage: Option<vnet_tsdb::StorageStats>,
    /// Each round's cold reopen of the populated store; the first is
    /// the coldest.
    open_ns: Vec<u64>,
    /// Median over rounds of (cold reopen plus every question), in s.
    query_s: f64,
    /// Per question, the median latency over rounds.
    question_ms: Vec<f64>,
    wrong: u64,
    metric_ns: BTreeMap<&'static str, (u64, u64)>,
    replay_ns: u64,
    pair_gap: i64,
    scans: ScanTotals,
}

fn store_dir(index: usize) -> PathBuf {
    crate::work_dir().join(format!("store-query-{index}"))
}

fn pass(
    index: usize,
    data: &Dataset,
    qs: &[Question],
    answers: &Answers,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let dir = store_dir(index);
    let _ = std::fs::remove_dir_all(&dir);
    let db = span("tsdb.open", || {
        TraceDb::open_with(&dir, crate::store_options())
    })
    .map_err(|e| format!("open {}: {e}", dir.display()))?;

    // Write phase.
    let mut collector = Collector::with_db(db);
    let mut seq: HashMap<&str, u64> = HashMap::new();
    let t0 = Instant::now();
    for (node, now, batch) in &data.batches {
        let s = seq.entry(node.as_str()).or_default();
        *s += 1;
        let hb = *s;
        p.ingested += span("core.ingest_batch", || {
            collector.ingest_batch(node, hb, batch, 0, SimTime::from_nanos(*now))
        });
    }
    span("tsdb.flush", || collector.db_mut().flush()).map_err(|e| format!("flush: {e}"))?;
    p.ingest_ns = t0.elapsed().as_nanos() as u64;
    p.storage = collector.db().storage_stats();
    checks.check(p.ingested == data.records, false, || {
        format!("ingested {} of {} records", p.ingested, data.records)
    });
    checks.check(collector.db().len() as u64 == data.records, false, || {
        format!(
            "store holds {} of {} records",
            collector.db().len(),
            data.records
        )
    });
    let st = p.storage.unwrap_or_default();
    checks.check(st.seals >= 3 && st.compactions >= 1, false, || {
        format!(
            "store sealed {} times and compacted {} times",
            st.seals, st.compactions
        )
    });
    drop(collector);

    // Read phase, QUERY_ROUNDS times: cold reopen, then every question.
    let mut rounds = Vec::new();
    let mut totals = Vec::new();
    for round in 0..crate::QUERY_ROUNDS {
        let t0 = Instant::now();
        let db = span("tsdb.open", || {
            TraceDb::open_with(&dir, crate::store_options())
        })
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        p.open_ns.push(t0.elapsed().as_nanos() as u64);
        checks.check(db.len() as u64 == data.records, false, || {
            format!(
                "reopened store holds {} of {} records",
                db.len(),
                data.records
            )
        });
        let mut ms = Vec::with_capacity(qs.len());
        for (i, q) in qs.iter().enumerate() {
            let tq = Instant::now();
            let answer = ask(&db, q, &mut p.scans)?;
            let ns = tq.elapsed().as_nanos() as u64;
            ms.push(ns as f64 / 1e6);
            if let Some(f) = q.metric_fn() {
                let e = p.metric_ns.entry(f).or_default();
                e.0 += ns;
                e.1 += 1;
            }
            if matches!(q, Question::Replay(_)) {
                p.replay_ns = ns;
            }
            let ok = answer == answers.truth[i] && answer == answers.memory[i];
            if !ok && round == 0 {
                p.wrong += 1;
            }
            let known = q.reads_hot_table_only() && answer == answers.empty[i];
            checks.check(ok, known, || {
                format!(
                    "{q:?} on the reopened store: {}\n  truth:     {}\n  in memory: {}",
                    clip(&answer),
                    clip(&answers.truth[i]),
                    clip(&answers.memory[i])
                )
            });
        }
        totals.push(t0.elapsed().as_secs_f64());
        rounds.push(ms);
        if round + 1 == crate::QUERY_ROUNDS {
            for &(path, live) in &p.scans.replay_pairs {
                let (a, b) = (hop_table(path, 0), hop_table(path, HOPS - 1));
                let offline = metrics::latency_between(&db, &a, &b, None).len() as i64;
                p.pair_gap += live as i64 - offline;
            }
        }
    }
    p.query_s = median(&totals);
    p.question_ms = crate::per_question_median(&rounds);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(p)
}

fn clip(s: &str) -> String {
    if s.len() > 160 {
        format!("{}…", &s[..160])
    } else {
        s.to_owned()
    }
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut data = generate(args.seed);
    let qs = questions(args.seed, &data);
    let truth: Vec<String> = qs.iter().map(|q| truth(&data, q)).collect();
    // The in-memory copy and an empty store, each asked every question
    // once.
    let mut mem = TraceDb::new();
    for (_, _, batch) in &data.batches {
        mem.insert_batch(batch);
    }
    let ask_all = |db: &TraceDb| -> Result<Vec<String>, String> {
        let mut scans = ScanTotals::default();
        qs.iter().map(|q| ask(db, q, &mut scans)).collect()
    };
    let answers = Answers {
        memory: ask_all(&mem)?,
        empty: ask_all(&TraceDb::new())?,
        truth,
    };
    drop(mem);
    for (i, q) in qs.iter().enumerate() {
        out.checks
            .check(answers.memory[i] == answers.truth[i], false, || {
                format!(
                    "{q:?} in memory: {}\n  truth: {}",
                    clip(&answers.memory[i]),
                    clip(&answers.truth[i])
                )
            });
    }

    out.context = vec![
        ("chains".into(), PATHS.to_string()),
        ("hops".into(), HOPS.to_string()),
        (
            "packets".into(),
            (PACKETS_PER_PATH as usize * PATHS).to_string(),
        ),
        (
            "flows".into(),
            (FLOWS_PER_PATH as usize * PATHS).to_string(),
        ),
        ("records".into(), data.records.to_string()),
        ("batches".into(), data.batches.len().to_string()),
        ("batch_every_ns".into(), COLLECT_NS.to_string()),
        ("questions".into(), qs.len().to_string()),
        ("store".into(), format!("disk {:?}", crate::store_options())),
    ];
    // From here on the process holds only the batches and the store, so
    // the peak resident set measures the store's path, not the reference
    // answers.
    drop(std::mem::take(&mut data.tables));
    crate::reset_peak_rss()?;

    if args.trace {
        let plain = out.checks.pass(|c| pass(0, &data, &qs, &answers, c))?;
        out.peak_rss_mb = crate::peak_rss_mb();
        spans::enable();
        let p = out.checks.pass(|c| pass(1, &data, &qs, &answers, c))?;
        let recorded = spans::take();
        layers(&mut out, &p, &plain, &recorded, data.records, qs.len());
        let path = crate::work_dir().join(format!("spans-store_query-{}.jsonl", args.seed));
        spans::write_jsonl(&path, &recorded).map_err(|e| format!("{}: {e}", path.display()))?;
        out.context
            .push(("spans_file".into(), path.display().to_string()));
        report(&mut out, &[p], qs.len());
        return Ok(out);
    }

    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < crate::MIN_PASSES || started.elapsed() < args.budget() {
        let p = out
            .checks
            .pass(|c| pass(passes.len(), &data, &qs, &answers, c))?;
        eprintln!(
            "pass {}: reopen {:.3} s, ingest {:.3} s, query {:.3} s, peak rss {:.1} MB",
            passes.len(),
            p.open_ns[0] as f64 / 1e9,
            p.ingest_ns as f64 / 1e9,
            p.query_s,
            crate::peak_rss_mb()
        );
        if passes.is_empty() {
            out.peak_rss_mb = crate::peak_rss_mb();
        }
        passes.push(p);
    }
    report(&mut out, &passes, qs.len());
    let r = &out.report;
    for (name, unit) in crate::E2E {
        if let Some(v) = r.get(name) {
            out.e2e.set(*name, v, unit);
        }
    }
    Ok(out)
}

fn report(out: &mut RunOutput, passes: &[Pass], questions: usize) {
    let col =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let last = passes.last().expect("at least one pass");
    let st = last.storage.unwrap_or_default();
    let r = &mut out.report;
    // Set-up: the median of every cold reopen in the run.
    let reopens: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.open_ns.iter().map(|&ns| ns as f64 / 1e9))
        .collect();
    r.set("passes", passes.len() as f64, "count");
    r.set("setup_s", median(&reopens), "s");
    r.set(
        "records_per_s",
        col(&|p| p.ingested as f64 / (p.ingest_ns as f64 / 1e9)),
        "1/s",
    );
    r.set(
        "bytes_per_record",
        crate::sim::bytes_per_record(&st),
        "bytes",
    );
    r.set("query_s", col(&|p| p.query_s), "s");
    r.set(
        "query_p50_ms",
        col(&|p| nearest_rank(&p.question_ms, 0.50)),
        "ms",
    );
    r.set(
        "query_p95_ms",
        col(&|p| nearest_rank(&p.question_ms, 0.95)),
        "ms",
    );
    r.set("questions", questions as f64, "count");
    r.set(
        "wrong_answer_ratio",
        last.wrong as f64 / questions.max(1) as f64,
        "ratio",
    );
}

fn layers(
    out: &mut RunOutput,
    p: &Pass,
    plain: &Pass,
    recorded: &[spans::Span],
    records: u64,
    questions: usize,
) {
    let totals = spans::totals(recorded);
    let total = |n: &str| totals.get(n).map_or(0, |t| t.total_ns) as f64;
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let st = p.storage.unwrap_or_default();
    let l = &mut out.layers;
    l.set(
        "bytes_per_record",
        crate::sim::bytes_per_record(&st),
        "bytes",
    );
    l.set(
        "wrong_answer_ratio",
        p.wrong as f64 / questions.max(1) as f64,
        "ratio",
    );
    l.set(
        "core.ingest_ns_per_record",
        div(total("core.ingest_batch"), records as f64),
        "ns",
    );
    l.set("tsdb.flush_ns", total("tsdb.flush"), "ns");
    l.set("tsdb.seals", st.seals as f64, "count");
    l.set("tsdb.compactions", st.compactions as f64, "count");
    l.set("tsdb.segments", st.segments as f64, "count");
    l.set("tsdb.wal_bytes", st.wal_bytes as f64, "bytes");
    l.set("tsdb.encoded_bytes", st.encoded_bytes as f64, "bytes");
    l.set("tsdb.open_ns", p.open_ns[0] as f64, "ns");
    l.set(
        "tsdb.scan_ns",
        div(total("tsdb.scan"), p.scans.calls as f64),
        "ns",
    );
    let s = &p.scans.stats;
    l.set(
        "tsdb.rows_scanned",
        (s.sealed_rows_total + s.hot_entries) as f64,
        "count",
    );
    l.set("tsdb.bytes_read", s.bytes_read as f64, "bytes");
    l.set(
        "tsdb.prune_ratio",
        div(s.segments_pruned as f64, s.segments_total as f64),
        "ratio",
    );
    for (f, (ns, n)) in &p.metric_ns {
        l.set(
            format!("core.metric.{f}_ns"),
            div(*ns as f64, *n as f64),
            "ns",
        );
    }
    l.set("live.replay_ns", p.replay_ns as f64, "ns");
    l.set("live.offline_pair_gap", p.pair_gap as f64, "count");
    let phase = |p: &Pass| p.ingest_ns as f64 + p.query_s * 1e9;
    l.set(
        "spans.overhead_pct",
        (phase(p) - phase(plain)) / phase(plain).max(1.0) * 100.0,
        "%",
    );
    crate::finish_layers(out, recorded);
}
