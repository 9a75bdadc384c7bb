//! The two simulator workloads.
//!
//! - `rack`: the full `datacenter_rack` (40 hosts, 240 VMs, 1.1M flows)
//!   with the registry's `default` profile on every unfiltered tap, one
//!   sim thread and a disk-backed store ([`crate::store_options`]). Every
//!   firing records, so it loads the simulator at scale, the record path,
//!   collect, the WAL, sealing and deploying hundreds of scripts.
//! - `sockperf`: the two-host Fig. 7 scenario, 200k Sockperf messages
//!   plus 300 Mbps of iPerf background, the testbed's own package (four
//!   scripts with 5-tuple filters, so most probe runs are
//!   filter-rejected), one sim thread, an in-memory store and a live
//!   engine subscribed to the collector. A probes-off run of the same
//!   seed gives the simulated latency baseline.
//!
//! Both collect after every millisecond of simulated time. Afterwards
//! each reads its store back, one `Query::scan` per table (rack: after a
//! cold reopen; sockperf: plus time-range slices of every table), and
//! checks every count against the record ledger.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use vnet_live::{LiveConfig, LiveEngine, WindowSpec};
use vnet_sim::time::{SimDuration, SimTime};
use vnet_sim::world::World;
use vnet_testbed::rack::RackTestbed;
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_tsdb::{Query, RecordBatch, ScanStats, TraceDb};
use vnet_workloads::datacenter_rack::RackConfig;
use vnettracer::collector::IngestSubscriber;
use vnettracer::config::{Action, ControlPackage};
use vnettracer::{Agent, ModuleRegistry, VNetTracer};

use crate::spans::{self, span};
use crate::{median, nearest_rank, Args, Checks, RunOutput, COLLECT_NS};

/// Sim threads on `rack`. One, not one per CPU: on a 2-vCPU host the
/// two-thread run lost 2-10 s per run to hypervisor steal and took
/// 8.4-15.8 s, against 8.4-8.9 s on one thread, a spread no bound could
/// absorb.
const RACK_THREADS: usize = 1;
/// Sockperf messages per pass.
const SOCKPERF_MESSAGES: u64 = 200_000;
/// Time-range slices asked of each table on `sockperf`.
const SOCKPERF_SLICES: u64 = 50;
/// The sockperf latency pair whose live and offline counts are compared.
const SOCKPERF_PAIR: (&str, &str) = ("s1_ovs_br1", "s2_ovs_br1");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rack,
    Sockperf,
}

impl Kind {
    /// Set-ups timed per run, at least one per pass. A sockperf set-up
    /// takes tens of ms, so many are cheap; a rack set-up takes over a
    /// second, so rack times only its passes' own.
    fn setup_samples(self) -> usize {
        match self {
            Kind::Rack => crate::MIN_PASSES,
            Kind::Sockperf => 21,
        }
    }

    fn disk(self) -> bool {
        self == Kind::Rack
    }
}

fn rack_config(seed: u64) -> RackConfig {
    RackConfig {
        seed,
        ..RackConfig::default()
    }
}

fn sockperf_config(seed: u64) -> TwoHostConfig {
    TwoHostConfig {
        seed,
        messages: SOCKPERF_MESSAGES,
        ..TwoHostConfig::default()
    }
}

enum Scenario {
    Rack(Box<RackTestbed>),
    Sockperf(Box<TwoHostScenario>, TwoHostConfig),
}

impl Scenario {
    fn build(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::Rack => {
                let mut tb = RackTestbed::build(&rack_config(seed));
                tb.scenario.world.set_parallelism(RACK_THREADS);
                Scenario::Rack(Box::new(tb))
            }
            Kind::Sockperf => {
                let cfg = sockperf_config(seed);
                let mut s = TwoHostScenario::build(&cfg);
                s.world.set_parallelism(1);
                Scenario::Sockperf(Box::new(s), cfg)
            }
        }
    }

    fn world(&mut self) -> &mut World {
        match self {
            Scenario::Rack(tb) => &mut tb.scenario.world,
            Scenario::Sockperf(s, _) => &mut s.world,
        }
    }

    /// The simulated end of the run: the scenario's own `run` duration.
    fn end_ns(&self) -> u64 {
        match self {
            Scenario::Rack(tb) => {
                tb.cfg.send_interval.as_nanos() * (tb.cfg.packets_per_app + 2)
                    + SimDuration::from_millis(10).as_nanos()
            }
            Scenario::Sockperf(_, cfg) => {
                cfg.interval.as_nanos() * (cfg.messages + 2)
                    + SimDuration::from_millis(50).as_nanos()
            }
        }
    }

    fn package(&self) -> ControlPackage {
        match self {
            Scenario::Rack(tb) => tb.control_package(),
            Scenario::Sockperf(s, _) => s.control_package(),
        }
    }

    /// A tracer with an agent on every node, collecting into `db`.
    fn tracer(&self, db: TraceDb) -> VNetTracer {
        match self {
            Scenario::Rack(tb) => {
                // `RackTestbed::make_tracer` with a caller-chosen store.
                let sc = &tb.scenario;
                let mut tracer = VNetTracer::with_db(db);
                tracer.add_agent(Agent::new(sc.tor, "tor", 8));
                for (h, &node) in sc.host_nodes.iter().enumerate() {
                    tracer.add_agent(Agent::new(node, format!("host{h}"), 16));
                }
                for h in 0..tb.cfg.hosts {
                    for v in 0..tb.cfg.vms_per_host {
                        let node = sc.vm_nodes[h * tb.cfg.vms_per_host + v];
                        tracer.add_agent(Agent::new(node, format!("vm{h}-{v}"), 4));
                    }
                }
                tracer
            }
            Scenario::Sockperf(s, _) => s.make_tracer_with_db(db),
        }
    }

    /// Sockperf's simulated one-way latency: (count, p50, p99.9) in sim ns.
    fn sockperf_latency(&self) -> Option<(u64, u64, u64)> {
        match self {
            Scenario::Rack(_) => None,
            Scenario::Sockperf(s, _) => {
                let sum = s.latency.lock().expect("latency recorder lock").summary()?;
                Some((sum.count as u64, sum.p50_ns, sum.p999_ns))
            }
        }
    }
}

/// Forwards collector batches to the live engine inside a
/// `live.on_batch` span, counting the records it hands over.
#[derive(Debug)]
struct TimedLive {
    engine: Rc<RefCell<LiveEngine>>,
    records: Rc<Cell<u64>>,
}

impl IngestSubscriber for TimedLive {
    fn on_batch(
        &mut self,
        node: &str,
        heartbeat_seq: u64,
        batch: &RecordBatch,
        lost_records: u64,
        now: SimTime,
    ) {
        self.records.set(self.records.get() + batch.len() as u64);
        span("live.on_batch", || {
            self.engine
                .borrow_mut()
                .on_batch(node, heartbeat_seq, batch, lost_records, now)
        });
    }

    fn on_heartbeat(&mut self, node: &str, seq: u64, now: SimTime) {
        self.engine.borrow_mut().on_heartbeat(node, seq, now);
    }
}

struct Live {
    engine: Rc<RefCell<LiveEngine>>,
    records: Rc<Cell<u64>>,
}

/// A built, deployed scenario ready to run.
struct Setup {
    sc: Scenario,
    tracer: VNetTracer,
    pkg: ControlPackage,
    live: Option<Live>,
    dir: Option<PathBuf>,
    setup_ns: u64,
}

fn store_dir(kind: Kind, pass: usize) -> Option<PathBuf> {
    kind.disk()
        .then(|| crate::work_dir().join(format!("sim-store-{pass}")))
}

/// Scenario build + store open + deploy, timed as one set-up.
fn setup(kind: Kind, seed: u64, dir: Option<PathBuf>) -> Result<Setup, String> {
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let t0 = Instant::now();
    let mut sc = span("testbed.build", || Scenario::build(kind, seed));
    let pkg = sc.package();
    let db = match &dir {
        Some(d) => span("tsdb.open", || {
            TraceDb::open_with(d, crate::store_options())
        })
        .map_err(|e| format!("cannot open {}: {e}", d.display()))?,
        None => TraceDb::new(),
    };
    let mut tracer = sc.tracer(db);
    let live = match &sc {
        Scenario::Rack(_) => None,
        Scenario::Sockperf(s, _) => {
            let specs = ModuleRegistry::builtin()
                .metrics("default", &s.module_scope())
                .map_err(|e| e.to_string())?;
            let mut cfg = LiveConfig::from_metric_specs(WindowSpec::tumbling(COLLECT_NS), &specs);
            cfg.pair_timeout_ns = COLLECT_NS;
            let mut engine = LiveEngine::new(cfg);
            engine.register_agent("server1", None);
            engine.register_agent("server2", None);
            let live = Live {
                engine: Rc::new(RefCell::new(engine)),
                records: Rc::new(Cell::new(0)),
            };
            tracer.subscribe(Rc::new(RefCell::new(TimedLive {
                engine: live.engine.clone(),
                records: live.records.clone(),
            })));
            Some(live)
        }
    };
    span("core.deploy", || tracer.deploy(sc.world(), &pkg)).map_err(|e| e.to_string())?;
    Ok(Setup {
        sc,
        tracer,
        pkg,
        live,
        dir,
        setup_ns: t0.elapsed().as_nanos() as u64,
    })
}

/// Compiles and loads every program of `pkg` against fresh maps, as an
/// agent does on install, each inside an `ebpf.load` span.
fn load_programs(pkg: &ControlPackage) -> Result<(), String> {
    use vnet_ebpf::{MapDef, MapRegistry};
    for spec in &pkg.traces {
        let mut maps = MapRegistry::new();
        let (perf, counter) = match spec.action {
            Action::RecordPacketInfo | Action::RecordDropInfo => (
                Some(
                    maps.create(MapDef::perf(pkg.global.buffer_size), 4)
                        .map_err(|e| format!("{e:?}"))?,
                ),
                None,
            ),
            Action::CountPerCpu => (
                None,
                Some(
                    maps.create(MapDef::per_cpu_array(8, 1), 4)
                        .map_err(|e| format!("{e:?}"))?,
                ),
            ),
        };
        span("ebpf.load", || {
            let program =
                vnettracer::compile::compile(spec, perf, counter).map_err(|e| e.to_string())?;
            vnet_ebpf::program::load(program, &maps, &vnet_ebpf::standard_helpers())
                .map(drop)
                .map_err(|e| format!("{e:?}"))
        })?;
    }
    Ok(())
}

/// What a probes-on phase measured.
#[derive(Debug, Default)]
struct Probed {
    phase_ns: u64,
    run_until_calls: u64,
    collect_calls: u64,
    collected: u64,
    windows_closed: u64,
    events: u64,
    fired: u64,
    ingested: u64,
    lost: u64,
    stored: u64,
    matched: u64,
    executions: u64,
    insns_retired: u64,
    ops_executed: u64,
    fused_hits: u64,
    checks_elided: u64,
    insns_eliminated: u64,
    run_time_sim_ns: u64,
    certified_cost_max: u64,
    storage: Option<vnet_tsdb::StorageStats>,
    latency: Option<(u64, u64, u64)>,
    /// Per table: records the store must hold (matched − lost).
    expected: BTreeMap<String, u64>,
    live_pairs: u64,
    live_records: u64,
}

/// Runs the probes-on phase: `run_until` + `collect` every millisecond,
/// then the live engine's finish and the store flush.
fn run_probed(s: &mut Setup) -> Result<Probed, String> {
    let end = s.sc.end_ns();
    let mut p = Probed::default();
    let t0 = Instant::now();
    let mut t = 0u64;
    while t < end {
        t = (t + COLLECT_NS).min(end);
        let world = s.sc.world();
        span("sim.run_until", || world.run_until(SimTime::from_nanos(t)));
        p.run_until_calls += 1;
        let world = s.sc.world();
        let tracer = &mut s.tracer;
        p.collected += span("core.collect", || tracer.collect(world)) as u64;
        p.collect_calls += 1;
        if let Some(live) = &s.live {
            p.windows_closed += live.engine.borrow_mut().drain_closed().len() as u64;
        }
    }
    if let Some(live) = &s.live {
        let mut engine = live.engine.borrow_mut();
        engine.finish();
        p.windows_closed += engine.drain_closed().len() as u64;
    }
    let tracer = &mut s.tracer;
    span("tsdb.flush", || tracer.flush_db()).map_err(|e| format!("flush: {e}"))?;
    p.phase_ns = t0.elapsed().as_nanos() as u64;

    let world = s.sc.world();
    p.events = world.events_processed();
    p.fired = world.probes_fired();
    let stats = s.tracer.stats(world);
    p.ingested = s.tracer.collector().records_ingested();
    p.lost = stats.lost_records;
    p.storage = stats.storage;
    p.stored = s.tracer.db().len() as u64;
    for rs in s.tracer.run_stats() {
        let st = rs.stats;
        p.matched += st.matched;
        p.executions += st.executions;
        p.insns_retired += st.insns_retired;
        p.ops_executed += st.ops_executed;
        p.fused_hits += st.fused_hits;
        p.checks_elided += st.checks_elided;
        p.insns_eliminated += st.insns_eliminated;
        p.run_time_sim_ns += st.run_time_ns;
        p.certified_cost_max = p.certified_cost_max.max(st.certified_cost_ns);
        let lost = s.tracer.lost_records(&rs.name);
        *p.expected.entry(rs.name.clone()).or_default() += st.matched.saturating_sub(lost);
    }
    p.latency = s.sc.sockperf_latency();
    if let Some(live) = &s.live {
        let engine = live.engine.borrow();
        p.live_pairs = engine
            .latency_total(SOCKPERF_PAIR.0, SOCKPERF_PAIR.1)
            .map_or(0, |l| l.count);
        p.live_records = live.records.get();
    }
    Ok(p)
}

/// A probes-off run of the same seed and cadence: `run_until` only.
#[derive(Debug, Default)]
struct Unprobed {
    run_ns: u64,
    events: u64,
    latency: Option<(u64, u64, u64)>,
}

fn run_unprobed(kind: Kind, seed: u64, checks: &mut Checks) -> Unprobed {
    let mut sc = Scenario::build(kind, seed);
    let end = sc.end_ns();
    let t0 = Instant::now();
    let mut t = 0u64;
    while t < end {
        t = (t + COLLECT_NS).min(end);
        sc.world().run_until(SimTime::from_nanos(t));
    }
    let off = Unprobed {
        run_ns: t0.elapsed().as_nanos() as u64,
        events: sc.world().events_processed(),
        latency: sc.sockperf_latency(),
    };
    if kind == Kind::Sockperf {
        let done = off.latency.map_or(0, |l| l.0);
        checks.check(done == SOCKPERF_MESSAGES, false, || {
            format!("{done} of {SOCKPERF_MESSAGES} messages completed with probes off")
        });
    }
    off
}

/// The read-back question set and what it touched.
#[derive(Debug, Default)]
struct ReadBack {
    /// Median over rounds of (cold reopen plus every question), in s.
    total_s: f64,
    /// The first (coldest) reopen.
    open_ns: u64,
    /// Per question, the median latency over rounds.
    question_ms: Vec<f64>,
    /// Checks made by the question rounds, and how many failed.
    asked: u64,
    wrong: u64,
    scan: ScanStats,
    offline_pairs: u64,
}

impl ReadBack {
    /// Counts one check of the question rounds and passes `ok` on.
    fn tally(&mut self, ok: bool) -> bool {
        self.asked += 1;
        self.wrong += u64::from(!ok);
        ok
    }

    /// Failed checks over checks made by the question rounds.
    fn wrong_ratio(&self) -> f64 {
        self.wrong as f64 / self.asked.max(1) as f64
    }
}

/// One timed `Query::scan`, returning the matched timestamps and
/// appending its latency to `ms`.
fn timed_scan(
    db: &TraceDb,
    q: Query,
    rb: &mut ReadBack,
    ms: &mut Vec<f64>,
) -> Result<Vec<u64>, String> {
    let t0 = Instant::now();
    let res = span("tsdb.scan", || q.scan(db)).map_err(|e| format!("scan: {e}"))?;
    let stamps: Vec<u64> = res.entries().iter().map(|e| e.timestamp_ns()).collect();
    ms.push(t0.elapsed().as_secs_f64() * 1e3);
    crate::add_scan_stats(&mut rb.scan, res.stats());
    Ok(stamps)
}

/// One round of the question set: a full scan of every table, checked
/// against the ledger, and `slices` time-range scans of each, checked
/// against the full scan. Returns each question's latency in ms.
fn ask_all(
    db: &TraceDb,
    p: &Probed,
    slices: u64,
    rb: &mut ReadBack,
    checks: &mut Checks,
) -> Result<Vec<f64>, String> {
    let mut ms = Vec::new();
    let mut total = 0u64;
    for (table, &want) in &p.expected {
        let stamps = timed_scan(db, Query::new(table), rb, &mut ms)?;
        total += stamps.len() as u64;
        checks.check(rb.tally(stamps.len() as u64 == want), false, || {
            format!(
                "table {table}: scan returned {} rows, ledger says {want}",
                stamps.len()
            )
        });
        let (Some(&lo), Some(&hi)) = (stamps.iter().min(), stamps.iter().max()) else {
            continue;
        };
        let width = (hi - lo) / slices.max(1) + 1;
        for k in 0..slices {
            let (a, b) = (lo + k * width, lo + (k + 1) * width - 1);
            let got = timed_scan(db, Query::new(table).time_range(a, b), rb, &mut ms)?.len();
            let truth = stamps.iter().filter(|&&t| (a..=b).contains(&t)).count();
            checks.check(rb.tally(got == truth), false, || {
                format!("table {table} [{a}, {b}]: {got} rows, expected {truth}")
            });
        }
    }
    checks.check(rb.tally(total == p.ingested), false, || {
        format!("tables hold {total} records, {} ingested", p.ingested)
    });
    Ok(ms)
}

/// Reads the store back [`QUERY_ROUNDS`] times and checks every table
/// against the ledger. `rack` drops the tracer and reopens its directory
/// cold each round; `sockperf` queries its in-memory store in place and
/// also asks time-range slices.
fn read_back(s: Setup, p: &Probed, checks: &mut Checks) -> Result<ReadBack, String> {
    let mut rb = ReadBack::default();
    let Setup {
        sc, tracer, dir, ..
    } = s;
    if let Scenario::Sockperf(..) = sc {
        rb.offline_pairs = vnettracer::metrics::latency_between(
            tracer.db(),
            SOCKPERF_PAIR.0,
            SOCKPERF_PAIR.1,
            None,
        )
        .len() as u64;
    }
    drop(sc);
    let in_memory = match &dir {
        Some(_) => {
            drop(tracer);
            None
        }
        None => Some(tracer),
    };
    let slices = if dir.is_some() { 0 } else { SOCKPERF_SLICES };
    let mut totals = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..crate::QUERY_ROUNDS {
        let t0 = Instant::now();
        let reopened = match &dir {
            Some(d) => {
                let db = span("tsdb.open", || {
                    TraceDb::open_with(d, crate::store_options())
                })
                .map_err(|e| format!("reopen {}: {e}", d.display()))?;
                if rb.open_ns == 0 {
                    rb.open_ns = t0.elapsed().as_nanos() as u64;
                }
                checks.check(rb.tally(db.len() as u64 == p.ingested), false, || {
                    format!(
                        "reopened store holds {} records, {} ingested",
                        db.len(),
                        p.ingested
                    )
                });
                Some(db)
            }
            None => None,
        };
        let db = match (&reopened, &in_memory) {
            (Some(db), _) => db,
            (None, Some(tracer)) => tracer.db(),
            (None, None) => unreachable!("a store is either reopened or kept in memory"),
        };
        rounds.push(ask_all(db, p, slices, &mut rb, checks)?);
        totals.push(t0.elapsed().as_secs_f64());
    }
    rb.total_s = median(&totals);
    rb.question_ms = crate::per_question_median(&rounds);
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(rb)
}

/// Ledger checks of one probes-on phase.
fn check_ledger(kind: Kind, p: &Probed, checks: &mut Checks) {
    checks.check(p.matched == p.ingested + p.lost, false, || {
        format!(
            "record ledger open: {} matched != {} ingested + {} lost ({} pending)",
            p.matched,
            p.ingested,
            p.lost,
            p.matched as i64 - (p.ingested + p.lost) as i64
        )
    });
    checks.check(p.stored == p.ingested, false, || {
        format!("store holds {} records, {} ingested", p.stored, p.ingested)
    });
    checks.check(p.collected == p.ingested, false, || {
        format!(
            "collect returned {} records, collector ingested {}",
            p.collected, p.ingested
        )
    });
    if kind == Kind::Sockperf {
        let done = p.latency.map_or(0, |l| l.0);
        checks.check(done == SOCKPERF_MESSAGES, false, || {
            format!("{done} of {SOCKPERF_MESSAGES} messages completed with probes on")
        });
    }
}

/// (Lost in the ring + missing from the final store) / records the
/// programs emitted.
fn loss_ratio(p: &Probed) -> f64 {
    let missing = p.ingested.saturating_sub(p.stored);
    (p.lost + missing) as f64 / p.matched.max(1) as f64
}

pub fn bytes_per_record(st: &vnet_tsdb::StorageStats) -> f64 {
    st.encoded_bytes as f64 / st.sealed_records.max(1) as f64
}

fn pct_change(on: u64, off: u64) -> f64 {
    (on as f64 - off as f64) / off.max(1) as f64 * 100.0
}

pub fn run(kind: Kind, args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput {
        context: context(kind),
        ..RunOutput::default()
    };
    if args.trace {
        span_run(kind, args, &mut out)?;
    } else {
        plain_run(kind, args, &mut out)?;
    }
    Ok(out)
}

fn context(kind: Kind) -> Vec<(String, String)> {
    let mut c = vec![("collect_every_sim_ns".to_owned(), COLLECT_NS.to_string())];
    match kind {
        Kind::Rack => {
            let cfg = RackConfig::default();
            c.push(("sim_threads".into(), RACK_THREADS.to_string()));
            c.push(("hosts".into(), cfg.hosts.to_string()));
            c.push(("vms".into(), (cfg.hosts * cfg.vms_per_host).to_string()));
            c.push((
                "concurrent_flows".into(),
                cfg.concurrent_flows().to_string(),
            ));
            c.push(("packets".into(), cfg.total_packets().to_string()));
            c.push(("profile".into(), "default".into()));
            c.push(("store".into(), format!("disk {:?}", crate::store_options())));
        }
        Kind::Sockperf => {
            let cfg = sockperf_config(0);
            c.push(("sim_threads".into(), "1".into()));
            c.push(("messages".into(), cfg.messages.to_string()));
            c.push((
                "send_interval_ns".into(),
                cfg.interval.as_nanos().to_string(),
            ));
            c.push(("background_mbps".into(), cfg.background_mbps.to_string()));
            c.push(("profile".into(), "testbed default package".into()));
            c.push(("store".into(), "in-memory".into()));
            c.push(("live_window_ns".into(), COLLECT_NS.to_string()));
        }
    }
    c
}

/// One full pass: set-up, probes-on phase, read-back, checks.
struct Pass {
    setup_ns: u64,
    probed: Probed,
    read: ReadBack,
}

fn pass(kind: Kind, seed: u64, index: usize, checks: &mut Checks) -> Result<Pass, String> {
    let mut s = setup(kind, seed, store_dir(kind, index))?;
    let setup_ns = s.setup_ns;
    let probed = run_probed(&mut s)?;
    check_ledger(kind, &probed, checks);
    let read = read_back(s, &probed, checks)?;
    Ok(Pass {
        setup_ns,
        probed,
        read,
    })
}

fn plain_run(kind: Kind, args: &Args, out: &mut RunOutput) -> Result<(), String> {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rps = Vec::new();
    let mut eps = Vec::new();
    let mut query_s = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut last = None;
    while rps.len() < crate::MIN_PASSES || started.elapsed() < args.budget() {
        let seed = args.seed;
        let p = out.checks.pass(|c| pass(kind, seed, setups.len(), c))?;
        let phase_s = p.probed.phase_ns as f64 / 1e9;
        eprintln!(
            "pass {}: setup {:.3} s, phase {phase_s:.3} s, query {:.3} s, peak rss {:.1} MB",
            setups.len(),
            p.setup_ns as f64 / 1e9,
            p.read.total_s,
            crate::peak_rss_mb()
        );
        setups.push(p.setup_ns as f64 / 1e9);
        rps.push(p.probed.ingested as f64 / phase_s);
        eps.push(p.probed.events as f64 / phase_s);
        query_s.push(p.read.total_s);
        p50.push(nearest_rank(&p.read.question_ms, 0.50));
        p95.push(nearest_rank(&p.read.question_ms, 0.95));
        last = Some(p);
        if rps.len() == 1 {
            out.peak_rss_mb = crate::peak_rss_mb();
        }
    }
    while setups.len() < kind.setup_samples() {
        let s = setup(kind, args.seed, store_dir(kind, setups.len()))?;
        setups.push(s.setup_ns as f64 / 1e9);
        let dir = s.dir.clone();
        drop(s);
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    let last = last.expect("at least one pass");
    let q = last.read.question_ms.len() as f64;
    // Simulated latency depends only on the seed, so one probes-off arm
    // per run gives the baseline for every pass.
    let off = (kind == Kind::Sockperf).then(|| run_unprobed(kind, args.seed, &mut out.checks));

    out.e2e.set("setup_s", median(&setups), "s");
    out.e2e.set("records_per_s", median(&rps), "1/s");
    out.e2e.set("query_s", median(&query_s), "s");
    out.e2e.set("query_p50_ms", median(&p50), "ms");
    out.e2e.set("query_p95_ms", median(&p95), "ms");

    let r = &mut out.report;
    r.set("passes", rps.len() as f64, "count");
    r.set("setup_s", median(&setups), "s");
    r.set("sim_events_per_s", median(&eps), "1/s");
    r.set("records_per_s", median(&rps), "1/s");
    let p = &last.probed;
    r.set("record_loss_ratio", loss_ratio(p), "ratio");
    r.set("records_emitted", p.matched as f64, "count");
    r.set("records_lost", p.lost as f64, "count");
    if let Some(off) = off {
        let (_, off50, off999) = off.latency.unwrap_or_default();
        let (_, on50, on999) = p.latency.unwrap_or_default();
        r.set("sim_overhead_p50_pct", pct_change(on50, off50), "%");
        r.set("sim_overhead_p999_pct", pct_change(on999, off999), "%");
        r.set(
            "live.offline_pair_gap",
            p.live_pairs as f64 - last.read.offline_pairs as f64,
            "count",
        );
    }
    if let Some(st) = p.storage {
        r.set("bytes_per_record", bytes_per_record(&st), "bytes");
    }
    r.set("query_s", median(&query_s), "s");
    r.set("query_p50_ms", median(&p50), "ms");
    r.set("query_p95_ms", median(&p95), "ms");
    r.set("questions", q, "count");
    r.set("wrong_answer_ratio", last.read.wrong_ratio(), "ratio");
    Ok(())
}

fn span_run(kind: Kind, args: &Args, out: &mut RunOutput) -> Result<(), String> {
    // The plain pass: identical work without spans, for the overhead.
    let plain = out.checks.pass(|c| pass(kind, args.seed, 0, c))?;
    out.peak_rss_mb = crate::peak_rss_mb();

    spans::enable();
    let mut s = setup(kind, args.seed, store_dir(kind, 1))?;
    load_programs(&s.pkg)?;
    let p = run_probed(&mut s)?;
    let scripts = s.pkg.traces.len() as u64;
    let rb = out.checks.pass(|c| {
        check_ledger(kind, &p, c);
        read_back(s, &p, c)
    })?;
    let recorded = spans::take();

    let off = run_unprobed(kind, args.seed, &mut out.checks);

    let totals = spans::totals(&recorded);
    let total = |n: &str| totals.get(n).map_or(0, |t| t.total_ns) as f64;
    let count = |n: &str| totals.get(n).map_or(0, |t| t.count) as f64;
    let self_ns = |n: &str| totals.get(n).map_or(0, |t| t.self_ns) as f64;
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let on_run_ns = total("sim.run_until");

    let l = &mut out.layers;
    l.set("record_loss_ratio", loss_ratio(&p), "ratio");
    l.set("wrong_answer_ratio", rb.wrong_ratio(), "ratio");
    if let (Some(on), Some(off)) = (p.latency, off.latency) {
        l.set("sim_overhead_p50_pct", pct_change(on.1, off.1), "%");
        l.set("sim_overhead_p999_pct", pct_change(on.2, off.2), "%");
    }
    if let Some(st) = p.storage {
        l.set("bytes_per_record", bytes_per_record(&st), "bytes");
    }
    l.set(
        "testbed.build_ns",
        div(total("testbed.build"), count("testbed.build")),
        "ns",
    );
    l.set("core.deploy_ns", total("core.deploy"), "ns");
    l.set(
        "core.deploy_ns_per_script",
        div(total("core.deploy"), scripts as f64),
        "ns",
    );
    l.set("core.scripts", scripts as f64, "count");
    l.set(
        "ebpf.load_ns_per_program",
        div(total("ebpf.load"), count("ebpf.load")),
        "ns",
    );
    l.set(
        "sim.ns_per_event",
        div(off.run_ns as f64, off.events as f64),
        "ns",
    );
    l.set(
        "sim.ns_per_event_probed",
        div(on_run_ns, p.events as f64),
        "ns",
    );
    l.set("sim.events", p.events as f64, "count");
    l.set("sim.run_until_calls", p.run_until_calls as f64, "count");
    l.set("sim.probes_fired", p.fired as f64, "count");
    l.set(
        "probe.wall_ns_per_firing",
        div(on_run_ns - off.run_ns as f64, p.fired as f64),
        "ns",
    );
    l.set("ebpf.executions", p.executions as f64, "count");
    l.set("ebpf.matched", p.matched as f64, "count");
    l.set(
        "ebpf.match_ratio",
        div(p.matched as f64, p.executions as f64),
        "ratio",
    );
    l.set("ebpf.insns_retired", p.insns_retired as f64, "count");
    l.set("ebpf.ops_executed", p.ops_executed as f64, "count");
    l.set("ebpf.fused_hits", p.fused_hits as f64, "count");
    l.set("ebpf.checks_elided", p.checks_elided as f64, "count");
    l.set("ebpf.insns_eliminated", p.insns_eliminated as f64, "count");
    l.set(
        "ebpf.sim_ns_per_exec",
        div(p.run_time_sim_ns as f64, p.executions as f64),
        "sim_ns",
    );
    l.set(
        "ebpf.certified_cost_ns_max",
        p.certified_cost_max as f64,
        "sim_ns",
    );
    l.set(
        "core.collect_ns_per_record",
        div(self_ns("core.collect"), p.collected as f64),
        "ns",
    );
    l.set("core.collect_calls", p.collect_calls as f64, "count");
    l.set("core.records_lost", p.lost as f64, "count");
    l.set("tsdb.flush_ns", total("tsdb.flush"), "ns");
    if let Some(st) = p.storage {
        l.set("tsdb.seals", st.seals as f64, "count");
        l.set("tsdb.compactions", st.compactions as f64, "count");
        l.set("tsdb.segments", st.segments as f64, "count");
        l.set("tsdb.wal_bytes", st.wal_bytes as f64, "bytes");
        l.set("tsdb.encoded_bytes", st.encoded_bytes as f64, "bytes");
    }
    l.set("tsdb.open_ns", rb.open_ns as f64, "ns");
    l.set(
        "tsdb.scan_ns",
        div(total("tsdb.scan"), count("tsdb.scan")),
        "ns",
    );
    l.set(
        "tsdb.rows_scanned",
        (rb.scan.sealed_rows_total + rb.scan.hot_entries) as f64,
        "count",
    );
    l.set("tsdb.bytes_read", rb.scan.bytes_read as f64, "bytes");
    l.set(
        "tsdb.prune_ratio",
        div(
            rb.scan.segments_pruned as f64,
            rb.scan.segments_total as f64,
        ),
        "ratio",
    );
    if kind == Kind::Sockperf {
        l.set("live.on_batch_ns", total("live.on_batch"), "ns");
        l.set(
            "live.ns_per_record",
            div(total("live.on_batch"), p.live_records as f64),
            "ns",
        );
        l.set("live.windows_closed", p.windows_closed as f64, "count");
        l.set(
            "live.offline_pair_gap",
            p.live_pairs as f64 - rb.offline_pairs as f64,
            "count",
        );
    }
    l.set(
        "spans.overhead_pct",
        (p.phase_ns as f64 - plain.probed.phase_ns as f64) / plain.probed.phase_ns.max(1) as f64
            * 100.0,
        "%",
    );
    crate::finish_layers(out, &recorded);
    let path = crate::work_dir().join(format!("spans-{:?}-{}.jsonl", kind, args.seed));
    spans::write_jsonl(&path, &recorded).map_err(|e| format!("{}: {e}", path.display()))?;
    out.context
        .push(("spans_file".into(), path.display().to_string()));
    Ok(())
}
