//! The tracing-pipeline benchmark.
//!
//! ```text
//! perfbench --workload <rack|sockperf|store_query> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, drives them through the
//! public API of every layer it uses, checks every output, and prints one
//! JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set ([`E2E`]); with `--trace 1` the run
//! records the benchmark's own spans around each layer call and the
//! metrics are the per-layer set ([`LAYERS`]). Lines before the last
//! carry the run context and the full per-workload report.
//!
//! Workloads are batch, not closed or open loop in wall time: each pass
//! runs a fixed amount of work and passes repeat until `--seconds` of
//! wall time have been spent, [`MIN_PASSES`] at least; reported values
//! are medians over passes.
//! Inside the simulator, traffic is open loop in simulated time.
//!
//! The bounded end-to-end set holds only metrics every workload has and
//! that are never zero. Figures that exist on some workloads only —
//! `sim_events_per_s`, `record_loss_ratio`, `sim_overhead_p50_pct`,
//! `sim_overhead_p999_pct`, `bytes_per_record`, `wrong_answer_ratio` —
//! are printed on the `report:` line of every run, and the span run
//! repeats the ones that are not wall-clock times among its per-layer
//! metrics. Simulated nanoseconds (`sim_ns`, the `sim_overhead_*`
//! percentages) and wall nanoseconds (`ns`) are never mixed in one value.

mod sim;
mod spans;
mod store_query;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The end-to-end metrics, printed by every workload with `--trace 0`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("query_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Span names whose self time the span run reports as
/// `span.<name>.self_ns`.
pub const SPAN_NAMES: &[&str] = &[
    "testbed.build",
    "tsdb.open",
    "ebpf.load",
    "core.deploy",
    "sim.run_until",
    "core.collect",
    "live.on_batch",
    "tsdb.flush",
    "core.ingest_batch",
    "tsdb.scan",
    "core.metric",
    "live.replay",
];

/// The per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not exercise reports 0. The first five are
/// end-to-end figures that only some workloads have (see the crate
/// docs); the span run reports them alongside the layers.
pub const LAYERS: &[(&str, &str)] = &[
    ("record_loss_ratio", "ratio"),
    ("sim_overhead_p50_pct", "%"),
    ("sim_overhead_p999_pct", "%"),
    ("bytes_per_record", "bytes"),
    ("wrong_answer_ratio", "ratio"),
    ("testbed.build_ns", "ns"),
    ("core.deploy_ns", "ns"),
    ("core.deploy_ns_per_script", "ns"),
    ("core.scripts", "count"),
    ("ebpf.load_ns_per_program", "ns"),
    ("sim.ns_per_event", "ns"),
    ("sim.ns_per_event_probed", "ns"),
    ("sim.events", "count"),
    ("sim.run_until_calls", "count"),
    ("sim.probes_fired", "count"),
    ("probe.wall_ns_per_firing", "ns"),
    ("ebpf.executions", "count"),
    ("ebpf.matched", "count"),
    ("ebpf.match_ratio", "ratio"),
    ("ebpf.insns_retired", "count"),
    ("ebpf.ops_executed", "count"),
    ("ebpf.fused_hits", "count"),
    ("ebpf.checks_elided", "count"),
    ("ebpf.insns_eliminated", "count"),
    ("ebpf.sim_ns_per_exec", "sim_ns"),
    ("ebpf.certified_cost_ns_max", "sim_ns"),
    ("core.collect_ns_per_record", "ns"),
    ("core.collect_calls", "count"),
    ("core.records_lost", "count"),
    ("core.ingest_ns_per_record", "ns"),
    ("tsdb.flush_ns", "ns"),
    ("tsdb.seals", "count"),
    ("tsdb.compactions", "count"),
    ("tsdb.segments", "count"),
    ("tsdb.wal_bytes", "bytes"),
    ("tsdb.encoded_bytes", "bytes"),
    ("tsdb.open_ns", "ns"),
    ("tsdb.scan_ns", "ns"),
    ("tsdb.rows_scanned", "count"),
    ("tsdb.bytes_read", "bytes"),
    ("tsdb.prune_ratio", "ratio"),
    // `core.metric.<fn>_ns`: mean wall time per call of each metric
    // function on `store_query`.
    ("core.metric.decompose_ns", "ns"),
    ("core.metric.latency_between_ns", "ns"),
    ("core.metric.jitter_range_ns", "ns"),
    ("core.metric.packet_loss_ns", "ns"),
    ("core.metric.throughput_at_ns", "ns"),
    ("core.metric.per_flow_throughput_ns", "ns"),
    ("core.metric.per_flow_loss_ns", "ns"),
    ("core.metric.interarrival_ns_ns", "ns"),
    ("core.metric.arrival_rate_ns", "ns"),
    ("core.metric.drop_breakdown_ns", "ns"),
    ("live.on_batch_ns", "ns"),
    ("live.ns_per_record", "ns"),
    ("live.windows_closed", "count"),
    ("live.replay_ns", "ns"),
    ("live.offline_pair_gap", "count"),
    ("span.testbed.build.self_ns", "ns"),
    ("span.tsdb.open.self_ns", "ns"),
    ("span.ebpf.load.self_ns", "ns"),
    ("span.core.deploy.self_ns", "ns"),
    ("span.sim.run_until.self_ns", "ns"),
    ("span.core.collect.self_ns", "ns"),
    ("span.live.on_batch.self_ns", "ns"),
    ("span.tsdb.flush.self_ns", "ns"),
    ("span.core.ingest_batch.self_ns", "ns"),
    ("span.tsdb.scan.self_ns", "ns"),
    ("span.core.metric.self_ns", "ns"),
    ("span.live.replay.self_ns", "ns"),
    ("spans.count", "count"),
    ("spans.overhead_pct", "%"),
];

/// Named values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Values(pub Vec<(String, f64, &'static str)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|v| v.1)
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A JSON number. Every metric is finite by construction (ratios guard
/// their denominators), so a non-finite value is a bug in this program.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// How one check came out; a later outcome can only make it worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Passed,
    KnownDefect,
    Failed,
}

/// The correctness ledger of one run. Every check counts as attempted;
/// a failed check counts as failed. Checks that fail because of a defect
/// the program is known to have are counted like any other failure but
/// kept apart, so `correct` reports only failures nobody has explained.
///
/// Passes repeat the same work on the same inputs until the time budget
/// is spent, so they make the same checks in the same order. The ledger
/// counts each of those checks once, by its position in the pass: a
/// check fails if it fails in any pass. The counts then depend on the
/// seed only, not on how many passes fit into `--seconds`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made outside passes.
    once: Vec<Outcome>,
    /// Checks made inside passes, by position in the pass.
    per_pass: Vec<Outcome>,
    /// Position of the next check while a pass runs.
    cursor: Option<usize>,
    shown: u32,
}

impl Checks {
    /// Records one check. `known_defect` marks a check whose failure is
    /// an open, documented defect of the program.
    pub fn check(&mut self, ok: bool, known_defect: bool, what: impl FnOnce() -> String) {
        let outcome = match (ok, known_defect) {
            (true, _) => Outcome::Passed,
            (false, true) => Outcome::KnownDefect,
            (false, false) => Outcome::Failed,
        };
        match self.cursor {
            Some(i) => {
                self.cursor = Some(i + 1);
                match self.per_pass.get_mut(i) {
                    Some(o) => *o = (*o).max(outcome),
                    None => self.per_pass.push(outcome),
                }
            }
            None => self.once.push(outcome),
        }
        if ok {
            return;
        }
        if self.shown < 20 {
            self.shown += 1;
            let tag = if known_defect {
                "known defect"
            } else {
                "FAILED"
            };
            eprintln!("check {tag}: {}", what());
        }
    }

    /// Runs one pass of a workload; see the type's documentation.
    pub fn pass<T>(&mut self, f: impl FnOnce(&mut Checks) -> T) -> T {
        self.cursor = Some(0);
        let out = f(self);
        self.cursor = None;
        out
    }

    fn outcomes(&self) -> impl Iterator<Item = Outcome> + '_ {
        self.once.iter().chain(&self.per_pass).copied()
    }

    pub fn attempted(&self) -> u64 {
        self.outcomes().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.outcomes().filter(|&o| o != Outcome::Passed).count() as u64
    }

    /// Failures that are not a known defect.
    pub fn unexpected(&self) -> u64 {
        self.outcomes().filter(|&o| o == Outcome::Failed).count() as u64
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub checks: Checks,
    /// Bounded end-to-end metrics.
    pub e2e: Values,
    /// The workload's full report, including metrics that only apply to
    /// some workloads.
    pub report: Values,
    /// Per-layer metrics (span run only).
    pub layers: Values,
    /// Run context: sizes, options, cadence.
    pub context: Vec<(String, String)>,
    /// The peak resident set (VmHWM) when the first pass has ended, in
    /// MB: what one run of the workload needs. Later passes are repeats
    /// for timing, and their peak depends on the heap the earlier ones
    /// left behind (glibc raises its mmap threshold as large blocks are
    /// freed), which moved the end-of-run peak by 2-13 MB from run to run.
    pub peak_rss_mb: f64,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The median of `v` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `v` for `q` in (0, 1]; 0 when empty.
pub fn nearest_rank(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Agent collection cadence, in simulated (or record) time: the
/// emulator's `COLLECT` interval, shared by every workload. The simulator
/// workloads `collect` after each such step and `store_query`'s agents ship
/// one batch per node per step.
pub const COLLECT_NS: u64 = vnet_testbed::emulate::COLLECT.as_nanos();

/// Passes every plain run makes, however short `--seconds` is, so each
/// pass-level figure is a median of at least this many samples.
pub const MIN_PASSES: usize = 3;

/// Rounds of each workload's question set per pass. A question's
/// latency is its median over rounds and `query_s` the median round, so
/// a stall in one round does not move the reported figures.
pub const QUERY_ROUNDS: usize = 3;

/// Element-wise median over rounds of per-question latencies.
pub fn per_question_median(rounds: &[Vec<f64>]) -> Vec<f64> {
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Adds one `Query::scan`'s counters to a running total.
pub fn add_scan_stats(acc: &mut vnet_tsdb::ScanStats, s: &vnet_tsdb::ScanStats) {
    acc.segments_total += s.segments_total;
    acc.segments_pruned += s.segments_pruned;
    acc.segments_scanned += s.segments_scanned;
    acc.sealed_rows_total += s.sealed_rows_total;
    acc.rows_matched += s.rows_matched;
    acc.hot_entries += s.hot_entries;
    acc.bytes_read += s.bytes_read;
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's peak resident set (VmHWM) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// The options of every disk-backed store the benchmark opens:
/// `StoreOptions::default()`, what `vnt --save-db` uses, with `fsync`
/// off. On a shared virtual disk an fsync took about 1 ms in one minute
/// and 5 ms in the next, and with one fsync per agent batch the wait for
/// the device swung `records_per_s` by 0.25 (rack) to 0.48 (store_query)
/// of its median over ten runs, far above any bound that would still
/// catch a slower write path. The WAL frames, segments and manifest are
/// still written in full; only the wait for the device is left out.
pub fn store_options() -> vnet_tsdb::StoreOptions {
    vnet_tsdb::StoreOptions {
        fsync: false,
        ..vnet_tsdb::StoreOptions::default()
    }
}

/// Directory for disk-backed stores and span dumps, relative to
/// the working directory.
pub fn work_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_work")
}

/// Fills `layers` from a span run: per-name self times plus the span
/// count, and zero for every per-layer metric the workload left unset.
pub fn finish_layers(out: &mut RunOutput, spans: &[spans::Span]) {
    let totals = spans::totals(spans);
    for name in SPAN_NAMES {
        let t = totals.get(name).copied().unwrap_or_default();
        out.layers
            .set(format!("span.{name}.self_ns"), t.self_ns as f64, "ns");
    }
    out.layers.set("spans.count", spans.len() as f64, "count");
    for (name, unit) in LAYERS {
        if out.layers.get(name).is_none() {
            out.layers.set(*name, 0.0, unit);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir().display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "rack" => sim::run(sim::Kind::Rack, &args),
        "sockperf" => sim::run(sim::Kind::Sockperf, &args),
        "store_query" => store_query::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rss = out.peak_rss_mb;
    out.e2e.set("peak_rss_mb", rss, "MB");
    out.report.set("peak_rss_mb", rss, "MB");

    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut context = vec![
        ("workload".to_owned(), args.workload.clone()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        ("host_cpus".to_owned(), host_cpus.to_string()),
        (
            "wall_s".to_owned(),
            format!("{:.3}", started.elapsed().as_secs_f64()),
        ),
    ];
    context.append(&mut out.context);
    let ctx: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!("context: {{{}}}", ctx.join(", "));
    println!("report: {}", out.report.json());

    let (metrics, declared) = if args.trace {
        (&out.layers, LAYERS)
    } else {
        (&out.e2e, E2E)
    };
    for (name, _) in declared {
        assert!(metrics.get(name).is_some(), "metric {name} unset");
    }
    for (name, _, _) in &metrics.0 {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared"
        );
    }
    let checks = &out.checks;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.unexpected() == 0,
        checks.attempted().max(1),
        checks.failed(),
        metrics.json()
    );
    ExitCode::SUCCESS
}
