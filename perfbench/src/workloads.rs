//! The three workloads. Each sets up several times (the median is
//! `setup_s`): it generates the trace and rebuilds `G'` for the oracle.
//! Then it runs whole cycles of the same operations for the run's
//! seconds. A cycle starts a fresh durable master, drives it over
//! the socket (closed-loop ingest then reads, or reads beside open-loop
//! writes), stops it without a checkpoint, and runs the certification
//! tail on its store. Every output is checked against the oracle, the
//! paper's guarantees and cross-path certificate agreement, outside the
//! timed regions.
//!
//! Every timed end-to-end metric is figured per round (a read pass, a
//! cycle's write batches, one tail) and reported as the slow-side
//! quartile over the run's rounds; see [`slow_side`]. Cycles interleave
//! all of them, so each metric samples the whole run.

use crate::cluster::{self, Cert, Ingest, Master, Reads};
use crate::layers;
use crate::oracle::{self, Adj, AnswerOracle};
use crate::queries;
use crate::stats::{median, peak_rss_mb, slow_side, Samples, Tally};
use crate::trace::Tracer;
use fg_core::NetworkEvent;
use fg_graph::Graph;
use fg_serve::{Client, Request, ResponseBody};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run (trace generation and the oracle's `G'`);
/// `setup_s` is their median.
const SETUPS: usize = 15;
/// Initial node count of every trace.
const N: usize = 1024;
/// Requests in flight on a read connection.
const DEPTH: usize = 16;
/// Live sources the stretch check runs BFS from.
const STRETCH_SOURCES: usize = 32;

pub struct Spec {
    pub name: &'static str,
    trace: &'static str,
    /// Events in the trace.
    events: usize,
    /// Leading events a fresh master loads in process; the rest arrive
    /// over the socket.
    prefix: usize,
    /// Events per write batch.
    batch: usize,
    /// Requests per read pass.
    read_pool: usize,
    /// Read passes per cycle after the ingest (closed-loop workloads).
    read_passes: usize,
}

pub const SERVE_READ: Spec = Spec {
    name: "serve-read",
    trace: "churn",
    events: 6_000,
    prefix: 0,
    batch: 64,
    read_pool: 8_192,
    read_passes: 6,
};

pub const INGEST_CASCADE: Spec = Spec {
    name: "ingest-cascade",
    trace: "hub-cascade",
    events: 8_000,
    prefix: 0,
    batch: 128,
    read_pool: 4_096,
    read_passes: 2,
};

/// Reads run beside the writes here, not after them.
pub const MIXED_CHURN: Spec = Spec {
    name: "mixed-churn",
    trace: "churn",
    events: 4_000 + MIXED_BATCHES * 16,
    prefix: 4_000,
    batch: 16,
    read_pool: 4_096,
    read_passes: 0,
};

/// Write batches per `mixed-churn` cycle: two seconds at the offered rate.
const MIXED_BATCHES: usize = 50;

/// Offered write rate of `mixed-churn`, in batches per second.
const MIXED_RATE: f64 = 25.0;

pub const ALL: [&Spec; 3] = [&SERVE_READ, &INGEST_CASCADE, &MIXED_CHURN];

/// Every end-to-end metric; the rest are per-layer.
pub const END_TO_END: [&str; 13] = [
    "read_qps",
    "read_p50_us",
    "read_p90_us",
    "write_eps",
    "write_ack_p50_us",
    "write_ack_p90_us",
    "catchup_eps",
    "recover_s",
    "dist_eps",
    "stretch_mean",
    "degree_ratio_mean",
    "setup_s",
    "peak_rss_mb",
];

pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
    pub tracer: Tracer,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Vec<(String, bool)>,
    pub classes: BTreeMap<&'static str, Tally>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn class(&mut self, name: &'static str, tally: Tally) {
        self.classes.entry(name).or_default().add(tally);
    }
}

/// Rate, p50 and p90 of each round of one operation class, plus the
/// reference figures (p99 per round, the maximum, the sample count and
/// the mean). With `pooled`, the run's percentiles come from every
/// sample of every round instead of from per-round percentiles: write
/// rounds hold 50 to 94 acks, too few for a steady per-round p90.
#[derive(Default)]
struct Rounds {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    max_us: f64,
    samples: usize,
    sum_ns: u64,
    pooled: Option<Samples>,
}

impl Rounds {
    fn push(&mut self, ops: f64, secs: f64, lat: &Samples) {
        let mut lat = lat.clone();
        self.rate.push(ops / secs);
        self.p50.push(lat.quantile_us(0.50));
        self.p90.push(lat.quantile_us(0.90));
        self.p99.push(lat.quantile_us(0.99));
        self.max_us = self.max_us.max(lat.quantile_us(1.0));
        self.samples += lat.len();
        self.sum_ns += lat.sum_ns();
        if let Some(pooled) = &mut self.pooled {
            pooled.extend(&lat);
        }
    }

    fn pooled() -> Rounds {
        Rounds {
            pooled: Some(Samples::default()),
            ..Rounds::default()
        }
    }

    fn absorb(&mut self, other: Rounds) {
        self.rate.extend(other.rate);
        self.p50.extend(other.p50);
        self.p90.extend(other.p90);
        self.p99.extend(other.p99);
        self.max_us = self.max_us.max(other.max_us);
        self.samples += other.samples;
        self.sum_ns += other.sum_ns;
    }

    fn mean_us(&self) -> f64 {
        self.sum_ns as f64 / self.samples.max(1) as f64 / 1e3
    }

    /// One round from a cycle's write batches: its time is their
    /// gaps (turnarounds, or idle time before a batch was due) plus acks.
    fn push_batches(&mut self, per_batch: &[(usize, u64, u64)]) {
        let mut lat = Samples::default();
        let (mut events, mut ns) = (0, 0);
        for &(n, gap, ack) in per_batch {
            lat.push(ack);
            events += n;
            ns += gap + ack;
        }
        self.push(events as f64, ns as f64 / 1e9, &lat);
    }

    fn report(&mut self, out: &mut Outcome, names: [&'static str; 3], what: &str) {
        out.metric(names[0], slow_side(&self.rate, true), "1/s");
        let (p50, p90) = match &mut self.pooled {
            Some(all) => (all.quantile_us(0.50), all.quantile_us(0.90)),
            None => (slow_side(&self.p50, false), slow_side(&self.p90, false)),
        };
        out.metric(names[1], p50, "us");
        out.metric(names[2], p90, "us");
        out.notes.push(format!(
            "{what}: {} samples in {} rounds; slow-side p99 {:.1}us, max {:.1}us",
            self.samples,
            self.rate.len(),
            slow_side(&self.p99, false),
            self.max_us
        ));
    }
}

const READ_METRICS: [&str; 3] = ["read_qps", "read_p50_us", "read_p90_us"];
const WRITE_METRICS: [&str; 3] = ["write_eps", "write_ack_p50_us", "write_ack_p90_us"];

/// The trace and everything derived from it alone.
struct Inputs {
    initial: Graph,
    events: Vec<NetworkEvent>,
    ghost: Adj,
}

impl Inputs {
    fn new(spec: &Spec, events: usize, seed: u64) -> Inputs {
        let sc = fg_bench::scenario(spec.trace, N, events, seed);
        let ghost = Adj::ghost_from_trace(&sc.initial, &sc.events);
        Inputs {
            initial: sc.initial,
            events: sc.events,
            ghost,
        }
    }

    /// The structural epoch after the whole trace: initial nodes plus
    /// one per event.
    fn final_epoch(&self) -> u64 {
        (self.initial.nodes_ever() + self.events.len()) as u64
    }

    fn batches(&self, from: usize, batch: usize) -> Vec<Vec<NetworkEvent>> {
        self.events[from..]
            .chunks(batch)
            .map(<[_]>::to_vec)
            .collect()
    }
}

/// Tail results, one per cycle; the certificates and images are the
/// last tail's.
#[derive(Default)]
struct Tails {
    catchup_eps: Vec<f64>,
    recover_s: Vec<f64>,
    dist_eps: Vec<f64>,
    syncs: Tally,
    recoveries: Tally,
    dists: Tally,
    certs: Vec<(String, Cert)>,
    images: Vec<(String, Adj)>,
    replayed: Vec<usize>,
}

impl Tails {
    /// One certification tail on a stopped master's store: a fresh
    /// replica catches up, the store is cold-recovered, and the trace is
    /// replayed on fg-dist.
    fn run(&mut self, run: &mut Run, master_dir: &Path, inputs: &Inputs, batch: usize) {
        let replica_dir = run.dir.join("replica");
        let t = &mut run.tracer;
        let c = t.span("tail.catchup", |t| {
            cluster::catch_up(master_dir, &replica_dir, t)
        });
        self.syncs.add(c.syncs);
        self.catchup_eps.push(c.records as f64 / c.secs);
        let r = t.span("tail.recover", |t| cluster::recover(master_dir, t));
        self.recoveries.ok();
        self.recover_s.push(r.secs);
        self.replayed.push(r.report.replayed);
        let d = t.span("tail.dist", |t| {
            cluster::dist_replay(&inputs.initial, &inputs.events, batch, t)
        });
        self.dists.ok();
        self.dist_eps.push(d.events as f64 / d.secs);
        self.certs = vec![
            ("replica".into(), c.cert),
            ("recovered".into(), r.cert),
            ("fg-dist".into(), d.cert),
        ];
        self.images = vec![
            ("replica".into(), c.image),
            ("recovered".into(), r.image),
            ("fg-dist".into(), d.image),
        ];
    }

    fn report(&self, out: &mut Outcome) {
        out.metric("catchup_eps", slow_side(&self.catchup_eps, true), "1/s");
        out.metric("recover_s", slow_side(&self.recover_s, false), "s");
        out.metric("dist_eps", slow_side(&self.dist_eps, true), "1/s");
        out.class("replica_syncs", self.syncs);
        out.class("recoveries", self.recoveries);
        out.class("dist_replays", self.dists);
    }
}

/// What a cycle's socket phase leaves for the final checks.
struct Served {
    /// The last write ack.
    acked: Cert,
    /// Every certificate the master published.
    published: BTreeSet<Cert>,
    /// Every certificate a read response carried.
    stamps: BTreeSet<Cert>,
    /// Read requests and the bodies served for them at the final epoch.
    requests: Vec<Request>,
    bodies: Vec<ResponseBody>,
}

/// What the last cycle leaves for the final checks.
struct Evidence {
    served: Served,
    stopped: (Cert, Adj),
    /// The served snapshot's image and `G'` at the final epoch.
    snapshot: (Adj, Adj),
}

/// Everything the cycles of one run accumulate.
struct Acc {
    writes: Rounds,
    write_tally: Tally,
    /// The load generator's own gaps: ack → next submit, or lateness.
    generator: Samples,
    reads: Reads,
    read_rounds: Rounds,
    tails: Tails,
    /// `(traced, seconds)` per cycle, for the tracing overhead.
    cycle_secs: Vec<(bool, f64)>,
    /// Each cycle's final certificate: equal histories, equal certificates.
    finals: BTreeSet<Cert>,
    pool: Vec<Request>,
    last: Option<Evidence>,
}

impl Default for Acc {
    fn default() -> Acc {
        Acc {
            writes: Rounds::pooled(),
            write_tally: Tally::default(),
            generator: Samples::default(),
            reads: Reads::default(),
            read_rounds: Rounds::default(),
            tails: Tails::default(),
            cycle_secs: Vec::new(),
            finals: BTreeSet::new(),
            pool: Vec::new(),
            last: None,
        }
    }
}

fn certify(inputs: &Inputs, acc: &Acc, out: &mut Outcome) {
    let f = acc.last.as_ref().expect("at least one cycle");
    let served = &f.served;
    let tails = &acc.tails;
    let epoch = inputs.final_epoch();
    out.check(
        "every cycle ended at the same certificate",
        acc.finals.len() == 1,
    );
    let mut certs = vec![
        ("socket acks".to_string(), served.acked),
        ("stopped master".into(), f.stopped.0),
    ];
    certs.extend(tails.certs.iter().cloned());
    for (path, cert) in &certs {
        out.check(
            format!("{path}: structural epoch {epoch} from the trace"),
            cert.0 == epoch,
        );
        out.check(
            format!("{path}: chain digest equals the socket acks'"),
            cert.1 == served.acked.1,
        );
    }
    out.check(
        "every served stamp is a published certificate",
        served.stamps.is_subset(&served.published),
    );
    let (image, ghost) = &f.snapshot;
    let mut images = vec![("stopped master".to_string(), &f.stopped.1)];
    images.extend(tails.images.iter().map(|(p, a)| (p.clone(), a)));
    for (path, other) in images {
        out.check(
            format!("{path}: image equals the served snapshot's"),
            other == image,
        );
    }
    out.check(
        "served G' equals G' rebuilt from the trace",
        *ghost == inputs.ghost,
    );
    out.check(
        "recovery replayed the whole uncheckpointed history",
        tails.replayed.iter().all(|&r| r == inputs.events.len()),
    );

    let mut oracle = AnswerOracle::new(image, &inputs.ghost);
    let mut wrong = 0;
    for (req, body) in served.requests.iter().zip(&served.bodies) {
        if let Err(e) = oracle.check(req, body) {
            if wrong < 5 {
                eprintln!("oracle disagrees: {e}");
            }
            wrong += 1;
        }
    }
    out.check(
        format!(
            "{} served answers agree with the oracle ({wrong} wrong)",
            served.bodies.len()
        ),
        wrong == 0 && served.bodies.len() == served.requests.len() && !served.bodies.is_empty(),
    );

    let sources = oracle::spread_sources(image, STRETCH_SOURCES);
    let p = oracle::properties(image, &inputs.ghost, &sources);
    out.notes.push(format!(
        "stretch over {} pairs: mean {:.4} max {:.2} (bound {}), {} over the bound; \
         {} live G'-connected pairs split; degree ratio over {} nodes: mean {:.4} max {:.2}, \
         {} above 3x, {} above 4x",
        p.stretch_pairs,
        p.stretch_mean,
        p.stretch_max,
        p.stretch_bound,
        p.stretch_violations,
        p.disconnected_pairs,
        p.degree_nodes,
        p.degree_ratio_mean,
        p.degree_ratio_max,
        p.degree_above_3,
        p.degree_above_4
    ));
    out.check(
        "stretch <= ceil(log2 n) x G' distance",
        p.stretch_violations == 0,
    );
    out.check(
        "no live pair connected in G' is disconnected",
        p.disconnected_pairs == 0,
    );
    out.check("degree <= 4x G' degree", p.degree_above_4 == 0);
    out.metric("stretch_mean", p.stretch_mean, "ratio");
    out.metric("degree_ratio_mean", p.degree_ratio_mean, "ratio");
}

/// The served snapshot's image and `G'`, exported for the oracle.
fn snapshot_sides(master: &Master) -> (Adj, Adj) {
    let snap = master.hub.pin();
    (
        Adj::from_csr(snap.view.image()),
        Adj::from_csr(snap.view.ghost()),
    )
}

/// Per-cycle time of traced cycles over untraced ones, minus one.
fn overhead(cycle_secs: &[(bool, f64)]) -> f64 {
    let pick = |on: bool| -> Vec<f64> {
        cycle_secs
            .iter()
            .filter(|(t, _)| *t == on)
            .map(|(_, v)| *v)
            .collect()
    };
    let (traced, plain) = (pick(true), pick(false));
    if traced.is_empty() || plain.is_empty() {
        return f64::NAN;
    }
    median(&traced) / median(&plain) - 1.0
}

/// A fresh master holding `G_0` plus the spec's prefix.
fn start_master(spec: &Spec, inputs: &Inputs, dir: &Path) -> Master {
    let readers = if spec.read_passes == 0 { 2 } else { 1 };
    let prefix = &inputs.events[..spec.prefix];
    Master::start(&inputs.initial, prefix, 256, dir, readers)
}

/// Sets up, runs cycles for the run's seconds, reports and checks.
pub fn run_workload(run: &mut Run, spec: &Spec) -> Outcome {
    let master_dir = run.dir.join("master");
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let began = Instant::now();
        kept = Some(run.tracer.span("setup", |_| {
            let inputs = Inputs::new(spec, spec.events, run.seed);
            let batches = inputs.batches(spec.prefix, spec.batch);
            (inputs, batches)
        }));
        setups.push(began.elapsed().as_secs_f64());
    }
    let (inputs, batches) = kept.expect("at least one set-up");
    let mut acc = Acc::default();

    let tracing = run.tracer.is_on();
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut k = 0;
    while k == 0 || Instant::now() < deadline {
        // The traced run traces every other cycle; the untraced ones
        // price the tracing.
        if tracing {
            run.tracer.set_on(k % 2 == 1);
        }
        let traced = run.tracer.is_on();
        let began = Instant::now();
        run.tracer.enter("cycle");
        let master = run.tracer.span("cycle.start_master", |_| {
            start_master(spec, &inputs, &master_dir)
        });
        let served = if spec.read_passes > 0 {
            closed_loop(run, spec, &master, &batches, &mut acc)
        } else {
            reads_beside_writes(run, spec, &master, &batches, &mut acc)
        };
        let snapshot = snapshot_sides(&master);
        let stopped = run.tracer.span("phase.stop", |_| master.stop());
        acc.tails.run(run, &master_dir, &inputs, spec.batch);
        run.tracer.exit();
        acc.cycle_secs.push((traced, began.elapsed().as_secs_f64()));
        acc.finals.insert(served.acked);
        acc.last = Some(Evidence {
            served,
            stopped,
            snapshot,
        });
        k += 1;
    }
    if tracing {
        run.tracer.set_on(true);
    }

    out.class("write_batches", acc.write_tally);
    acc.writes.report(&mut out, WRITE_METRICS, "write acks");
    out.class("reads", acc.reads.reads);
    acc.read_rounds
        .report(&mut out, READ_METRICS, "read latency");
    acc.tails.report(&mut out);
    out.notes.push(format!("{k} cycles"));
    run.tracer
        .span("verify", |_| certify(&inputs, &acc, &mut out));
    if run.tracer.is_on() {
        let measured = run.tracer.span("layers", |t| {
            layers::measure(
                t,
                &inputs.initial,
                &inputs.events,
                spec.batch,
                &acc.pool,
                &run.dir,
                spec.read_passes == 0,
            )
        });
        layers::derived(
            &mut out.metrics,
            &measured,
            &acc.reads,
            acc.writes.mean_us(),
            &acc.generator,
            overhead(&acc.cycle_secs),
        );
    }
    let (q1, q3) = crate::stats::quartiles(&setups);
    out.notes.push(format!(
        "{} set-ups: quartiles {q1:.4}s {q3:.4}s",
        setups.len()
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    out
}

/// `serve-read` and `ingest-cascade`: the trace arrives as closed-loop
/// batches (one submit after each ack), then read passes run at the
/// one final epoch with no writes. The first pass's answers go to the
/// oracle.
fn closed_loop(
    run: &mut Run,
    spec: &Spec,
    master: &Master,
    batches: &[Vec<NetworkEvent>],
    acc: &mut Acc,
) -> Served {
    let start = master.start;
    let ing = run.tracer.span("phase.ingest", |t| {
        cluster::ingest(master.addr(), start, batches, t)
    });
    acc.writes.push_batches(&ing.per_batch);
    acc.write_tally.add(ing.batches);
    acc.generator.extend(&ing.turnaround);
    if acc.pool.is_empty() {
        let image = snapshot_sides(master).0;
        acc.pool = queries::pool(&image, run.seed ^ 0x5eed, spec.read_pool);
    }
    let mut client = Client::connect(master.addr()).expect("connect reader");
    let mut served = BTreeSet::new();
    let mut bodies = Vec::new();
    for pass in 0..spec.read_passes {
        let mut r = run.tracer.span("phase.read", |t| {
            cluster::read_pass(&mut client, &acc.pool, DEPTH, pass == 0, t)
        });
        acc.read_rounds.push(acc.pool.len() as f64, r.secs, &r.lat);
        if pass == 0 {
            bodies = std::mem::take(&mut r.bodies);
        }
        served.extend(r.stamps.iter().copied());
        acc.reads.absorb(r);
    }
    let mut published: BTreeSet<Cert> = ing.stamps.iter().copied().collect();
    published.insert(start);
    Served {
        acked: ing.last,
        published,
        stamps: served,
        requests: acc.pool.clone(),
        bodies,
    }
}

/// `mixed-churn`: a pipelined reader runs beside an open-loop writer
/// that submits the cycle's batches at [`MIXED_RATE`], so reads keep
/// landing on new epochs; afterwards one pass at the final epoch feeds
/// the oracle.
fn reads_beside_writes(
    run: &mut Run,
    spec: &Spec,
    master: &Master,
    batches: &[Vec<NetworkEvent>],
    acc: &mut Acc,
) -> Served {
    if acc.pool.is_empty() {
        let image = snapshot_sides(master).0;
        acc.pool = queries::pool(&image, run.seed ^ 0x5eed, spec.read_pool);
    }
    let writer_done = AtomicBool::new(false);
    let (addr, start) = (master.addr(), master.start);
    let (mut wt, mut rt) = (run.tracer.child(1), run.tracer.child(2));
    let pool = &acc.pool;
    let (writes, (reads, read_rounds)) = run.tracer.span("phase.mixed", |_| {
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let w = open_loop_writer(addr, start, batches, &mut wt);
                writer_done.store(true, Ordering::SeqCst);
                w
            });
            let reader = s.spawn(|| {
                let mut client = Client::connect(addr).expect("connect reader");
                let mut all = Reads::default();
                let mut rounds = Rounds::default();
                while !writer_done.load(Ordering::SeqCst) {
                    let r = cluster::read_pass(&mut client, pool, DEPTH, false, &mut rt);
                    rounds.push(pool.len() as f64, r.secs, &r.lat);
                    all.absorb(r);
                }
                (all, rounds)
            });
            let w = writer.join().expect("writer thread");
            (w, reader.join().expect("reader thread"))
        })
    });
    run.tracer.absorb(wt);
    run.tracer.absorb(rt);
    acc.writes.push_batches(&writes.per_batch);
    acc.write_tally.add(writes.batches);
    acc.generator.extend(&writes.turnaround);
    acc.read_rounds.absorb(read_rounds);
    let mut served = reads.stamps.clone();
    acc.reads.absorb(reads);

    // The oracle's pass, at the final epoch after the writer.
    let image = snapshot_sides(master).0;
    let requests = queries::pool(&image, run.seed ^ 0xc4ec, 2048);
    let check = run.tracer.span("phase.check_reads", |t| {
        let mut client = Client::connect(addr).expect("connect checker");
        cluster::read_pass(&mut client, &requests, DEPTH, true, t)
    });
    served.extend(check.stamps.iter().copied());
    let bodies = check.bodies.clone();
    acc.reads.absorb(check);
    let mut published: BTreeSet<Cert> = writes.stamps.iter().copied().collect();
    published.insert(start);
    Served {
        acked: writes.last,
        published,
        stamps: served,
        requests,
        bodies,
    }
}

/// Open-loop writer: batch `k` is due `k / MIXED_RATE` seconds after
/// the start, and its ack latency counts from when it was due.
fn open_loop_writer(
    addr: std::net::SocketAddr,
    start: Cert,
    batches: &[Vec<NetworkEvent>],
    t: &mut Tracer,
) -> Ingest {
    let interval = Duration::from_secs_f64(1.0 / MIXED_RATE);
    let mut client = Client::connect(addr).expect("connect writer");
    let mut w = Ingest {
        last: start,
        ..Ingest::default()
    };
    let began = Instant::now();
    let mut acked_at = began;
    for (k, batch) in batches.iter().enumerate() {
        let due = began + interval * k as u32;
        let events = batch.clone();
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.turnaround
            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        let ack = t.span("fg-serve.client.submit_batch", |_| {
            client.submit_batch(events)
        });
        let ack_ns = due.elapsed().as_nanos() as u64;
        // Idle time before the batch was due, then its latency from due.
        let idle_ns = due.saturating_duration_since(acked_at).as_nanos() as u64;
        w.per_batch.push((batch.len(), idle_ns, ack_ns));
        acked_at = Instant::now();
        let expect = w.last.0 + batch.len() as u64;
        match ack {
            Ok(st) if st.value as usize == batch.len() && st.epoch == expect => {
                w.last = (st.epoch, st.digest);
                w.stamps.push(w.last);
                w.batches.ok();
            }
            other => {
                eprintln!("write batch failed: {other:?}");
                w.batches.fail();
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            crate::stats::quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]),
            (1.5, 4.5)
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(crate::stats::quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
