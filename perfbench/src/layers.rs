//! The traced run's layer pass: the workload's own trace and requests
//! pushed through each layer's public functions in process, one span
//! per call, so every layer's time and counts are read where the work
//! happens. Derived layers (socket, write handoff) are what the
//! client-side latency leaves after the measured layers.

use crate::cluster::{self, opts, Reads};
use crate::queries;
use crate::stats::Samples;
use crate::trace::Tracer;
use fg_core::{ForgivingGraph, GraphView, NetworkEvent, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_graph::Graph;
use fg_serve::{chain_digest, Request, Response, ServeSnapshot, SnapshotHub, BASE_DIGEST};
use fg_store::{
    decode_records, scan_wal, wal_path, DurableHealer, WalRecord, WalWriter, FLAG_COMMIT,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub type Metric = (&'static str, f64, &'static str);

/// The layer figures the derived layers subtract.
pub struct Measured {
    pub metrics: Vec<Metric>,
    codec_us: f64,
    answer_us: f64,
    pin_us: f64,
    write_path_us: f64,
}

fn answer_span(request: &Request) -> &'static str {
    match queries::kind(request) {
        "dist" => "fg-core.view.answer.dist",
        "path" => "fg-core.view.answer.path",
        "stretch" => "fg-core.view.answer.stretch",
        "deg" => "fg-core.view.answer.deg",
        "comp" => "fg-core.view.answer.comp",
        _ => "fg-core.view.answer.other",
    }
}

const ANSWER_METRICS: [(&str, &str); 5] = [
    ("fg-core.view.answer.dist", "fg-core.view.answer_us.dist"),
    ("fg-core.view.answer.path", "fg-core.view.answer_us.path"),
    (
        "fg-core.view.answer.stretch",
        "fg-core.view.answer_us.stretch",
    ),
    ("fg-core.view.answer.deg", "fg-core.view.answer_us.deg"),
    ("fg-core.view.answer.comp", "fg-core.view.answer_us.comp"),
];

/// Runs every layer once over `events` (in `batch`-event commits) and
/// `pool`. With `publishes_land`, a second thread keeps publishing
/// snapshots while the pins are timed.
pub fn measure(
    t: &mut Tracer,
    initial: &Graph,
    events: &[NetworkEvent],
    batch: usize,
    pool: &[Request],
    dir: &Path,
    publishes_land: bool,
) -> Measured {
    let mut m: Vec<Metric> = Vec::new();
    let n0 = initial.nodes_ever() as u64;

    // Engine on an in-memory twin, with freeze + publish per batch.
    let (records, hub, frozen_edges) = t.span("layers.engine", |t| {
        let mut twin = ForgivingGraph::from_graph(initial).expect("G_0 is a fresh graph");
        twin.enable_profiling();
        let hub = Arc::new(SnapshotHub::from_healer(&twin));
        let mut chain = BASE_DIGEST;
        let mut records = Vec::with_capacity(events.len());
        let mut edges = (0, 0);
        for chunk in events.chunks(batch) {
            for (i, event) in chunk.iter().enumerate() {
                let name = if event.is_delete() {
                    "fg-core.engine.delete"
                } else {
                    "fg-core.engine.insert"
                };
                let outcome = t
                    .span(name, |_| twin.apply_event(event))
                    .expect("trace events are legal");
                chain = chain_digest(chain, &outcome);
                records.push(WalRecord {
                    seq: n0 + records.len() as u64 + 1,
                    flags: if i + 1 == chunk.len() { FLAG_COMMIT } else { 0 },
                    digest: outcome.digest(),
                    event: event.clone(),
                });
            }
            let view = t.span("fg-core.view.freeze", |_| twin.view().freeze());
            edges = (view.image().edge_count(), view.ghost().edge_count());
            let snapshot = ServeSnapshot {
                epoch: view.epoch(),
                digest: chain,
                view,
            };
            t.span("fg-serve.snapshot.publish", |_| hub.publish(snapshot));
        }
        let phases = twin.phase_times().expect("profiling enabled");
        let stats = twin.stats();
        m.push(("fg-core.engine.phase.insert_s", phases.insert, "s"));
        m.push(("fg-core.engine.phase.gather_s", phases.gather, "s"));
        m.push(("fg-core.engine.phase.strip_s", phases.strip, "s"));
        m.push(("fg-core.engine.phase.plan_s", phases.plan, "s"));
        m.push(("fg-core.engine.phase.merge_s", phases.merge, "s"));
        m.push((
            "fg-core.engine.helpers_created",
            stats.helpers_created as f64,
            "count",
        ));
        m.push((
            "fg-core.engine.btv_rounds",
            stats.btv_rounds as f64,
            "count",
        ));
        m.push((
            "fg-core.engine.edges_added",
            stats.edges_added as f64,
            "count",
        ));
        m.push((
            "fg-core.engine.arena_slots",
            stats.arena_slots as f64,
            "count",
        ));
        m.push((
            "fg-core.engine.arena_live",
            stats.arena_live as f64,
            "count",
        ));
        (records, hub, edges)
    });
    m.push((
        "fg-core.engine.insert_us",
        t.totals("fg-core.engine.insert").mean_us(),
        "us",
    ));
    m.push((
        "fg-core.engine.delete_us",
        t.totals("fg-core.engine.delete").mean_us(),
        "us",
    ));
    let freeze_us = t.totals("fg-core.view.freeze").mean_us();
    let publish_us = t.totals("fg-serve.snapshot.publish").mean_us();
    m.push(("fg-core.view.freeze_us", freeze_us, "us"));
    m.push(("fg-graph.csr.image_edges", frozen_edges.0 as f64, "count"));
    m.push(("fg-graph.csr.ghost_edges", frozen_edges.1 as f64, "count"));
    m.push(("fg-serve.snapshot.publish_us", publish_us, "us"));

    // The WAL alone: the batch's records staged and committed.
    let wal_dir = dir.join("layers-wal");
    cluster::remove_dir(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create WAL probe dir");
    let wal_file = wal_dir.join("probe.wal");
    t.span("layers.wal", |t| {
        let mut wal = WalWriter::create(&wal_file, 1).expect("create WAL probe");
        let mut start = 0;
        for chunk in events.chunks(batch) {
            let part = &records[start..start + chunk.len()];
            start += chunk.len();
            t.span("fg-store.wal.commit", |_| {
                for r in part {
                    wal.stage(r);
                }
                wal.commit()
            })
            .expect("WAL commit");
        }
    });
    let commits = t.totals("fg-store.wal.commit");
    let wal_bytes = std::fs::metadata(&wal_file).map_or(0, |md| md.len());
    m.push(("fg-store.wal.commit_us", commits.mean_us(), "us"));
    m.push((
        "fg-store.wal.bytes_per_event",
        wal_bytes as f64 / events.len() as f64,
        "B",
    ));
    m.push(("fg-store.wal.fsyncs", commits.count as f64, "count"));
    cluster::remove_dir(&wal_dir);

    // The durable healer: batch applies, then a cold scan and open.
    let store = dir.join("layers-store");
    cluster::remove_dir(&store);
    t.span("layers.durable", |t| {
        let engine = ForgivingGraph::from_graph(initial).expect("G_0 is a fresh graph");
        let mut durable = DurableHealer::create(engine, &store, opts()).expect("create store");
        for chunk in events.chunks(batch) {
            let _ = t
                .span("fg-store.durable.apply_batch", |_| {
                    durable.apply_batch(chunk)
                })
                .expect("trace events are legal");
        }
    });
    let apply_us = t.totals("fg-store.durable.apply_batch").mean_us();
    m.push(("fg-store.durable.apply_us", apply_us, "us"));
    let began = std::time::Instant::now();
    let scan = t
        .span("fg-store.wal.scan", |_| scan_wal(&wal_path(&store, n0)))
        .expect("scan WAL");
    let scan_s = began.elapsed().as_secs_f64();
    let began = std::time::Instant::now();
    let (_, report) = t
        .span("fg-store.durable.open", |_| {
            DurableHealer::<ForgivingGraph>::open(&store, opts())
        })
        .expect("open store");
    let open_s = began.elapsed().as_secs_f64();
    assert_eq!(scan.committed, report.replayed);
    m.push(("fg-store.durable.scan_s", scan_s, "s"));
    m.push(("fg-store.durable.open_s", open_s, "s"));
    m.push(("fg-store.durable.replayed", report.replayed as f64, "count"));

    // Replication: a replica's sync rounds, then decode and certified
    // apply of the same records one call at a time.
    let replica_dir = dir.join("layers-replica");
    let applied_dir = dir.join("layers-applied");
    let caught = t.span("layers.repl", |t| {
        cluster::catch_up(&store, &replica_dir, t)
    });
    let syncs = caught.sync_lat.len();
    m.push(("fg-store.repl.sync_us", caught.sync_lat.mean_us(), "us"));
    m.push(("fg-store.repl.syncs", syncs as f64, "count"));
    m.push((
        "fg-store.repl.records_per_sync",
        caught.records as f64 / syncs.max(1) as f64,
        "count",
    ));
    let raw = std::fs::read(wal_path(&store, n0)).expect("read WAL segment");
    let decoded = t
        .span("fg-store.wal.decode_records", |_| decode_records(&raw))
        .expect("decode WAL records");
    m.push((
        "fg-store.repl.decode_us_per_record",
        t.totals("fg-store.wal.decode_records").total_ns as f64 / 1e3 / decoded.len() as f64,
        "us",
    ));
    cluster::remove_dir(&applied_dir);
    t.span("layers.apply_replicated", |t| {
        let engine = ForgivingGraph::from_graph(initial).expect("G_0 is a fresh graph");
        let mut replica =
            DurableHealer::create(engine, &applied_dir, opts()).expect("create store");
        for record in &decoded {
            let _ = t
                .span("fg-store.durable.apply_replicated", |_| {
                    replica.apply_replicated(record)
                })
                .expect("certified record");
        }
        replica.sync().expect("sync replica store");
    });
    m.push((
        "fg-store.repl.apply_replicated_us",
        t.totals("fg-store.durable.apply_replicated").mean_us(),
        "us",
    ));
    cluster::remove_dir(&applied_dir);
    cluster::remove_dir(&store);

    // fg-dist, one worker, one event per call.
    t.span("layers.dist", |t| {
        let mut net = DistHealer::from_graph_threaded(initial, PlacementPolicy::Adjacent, 1);
        for event in events {
            let name = if event.is_delete() {
                "fg-dist.network.delete"
            } else {
                "fg-dist.network.insert"
            };
            let _ = t
                .span(name, |_| net.apply_event(event))
                .expect("trace events are legal");
        }
        let costs = net.costs();
        m.push((
            "fg-dist.network.messages",
            costs.iter().map(|c| c.messages).sum::<u64>() as f64,
            "count",
        ));
        m.push((
            "fg-dist.network.rounds",
            costs.iter().map(|c| u64::from(c.rounds)).sum::<u64>() as f64,
            "count",
        ));
        m.push((
            "fg-dist.network.bits",
            costs.iter().map(|c| c.bits).sum::<u64>() as f64,
            "count",
        ));
    });
    m.push((
        "fg-dist.network.insert_us",
        t.totals("fg-dist.network.insert").mean_us(),
        "us",
    ));
    m.push((
        "fg-dist.network.delete_us",
        t.totals("fg-dist.network.delete").mean_us(),
        "us",
    ));

    // Serving: codec, pin and answer on the workload's own requests.
    let stop = AtomicBool::new(false);
    t.span("layers.serve", |t| {
        std::thread::scope(|s| {
            let publisher = publishes_land.then(|| {
                s.spawn(|| {
                    let current = hub.pin();
                    while !stop.load(Ordering::Relaxed) {
                        hub.publish(ServeSnapshot {
                            epoch: current.epoch,
                            digest: current.digest,
                            view: current.view.clone(),
                        });
                        std::thread::sleep(Duration::from_millis(2));
                    }
                })
            });
            for (id, request) in pool.iter().enumerate() {
                let id = id as u64 + 1;
                let parsed = t.span("fg-serve.protocol.codec", |_| {
                    let frame = request.to_frame(id);
                    Request::parse(&frame[8..])
                });
                let (_, request) = parsed.expect("own request parses");
                let snap = t.span("fg-serve.snapshot.pin", |_| hub.pin());
                let body = t
                    .span(answer_span(&request), |_| snap.answer(&request))
                    .expect("read op");
                t.span("fg-serve.protocol.codec", |_| {
                    let frame = Response::ok_frame(id, snap.epoch, snap.digest, &body);
                    Response::parse(&frame[8..])
                })
                .expect("own response parses");
            }
            stop.store(true, Ordering::Relaxed);
            if let Some(p) = publisher {
                p.join().expect("publisher thread");
            }
        });
    });
    let codec_us = t.totals("fg-serve.protocol.codec").total_ns as f64 / 1e3 / pool.len() as f64;
    let pin_us = t.totals("fg-serve.snapshot.pin").mean_us();
    m.push(("fg-serve.protocol.codec_us", codec_us, "us"));
    m.push(("fg-serve.snapshot.pin_us", pin_us, "us"));
    let mut answer_ns = 0;
    for (span, metric) in ANSWER_METRICS {
        let totals = t.totals(span);
        answer_ns += totals.total_ns;
        m.push((metric, totals.mean_us(), "us"));
    }
    Measured {
        metrics: m,
        codec_us,
        answer_us: answer_ns as f64 / 1e3 / pool.len() as f64,
        pin_us,
        write_path_us: apply_us + freeze_us + publish_us,
    }
}

/// Adds the measured layers plus the derived ones: socket time per
/// request (the client's per-request wall minus codec, pin and answer),
/// write handoff (mean ack minus durable apply, freeze and publish),
/// and the load generator's own figures.
pub fn derived(
    out: &mut Vec<Metric>,
    measured: &Measured,
    reads: &Reads,
    ack_mean_us: f64,
    generator: &Samples,
    overhead: f64,
) {
    out.extend(measured.metrics.iter().copied());
    let per_request_us = reads.secs * 1e6 / reads.reads.attempted.max(1) as f64;
    out.push((
        "fg-serve.server.socket_us",
        per_request_us - measured.codec_us - measured.pin_us - measured.answer_us,
        "us",
    ));
    out.push((
        "fg-serve.write.handoff_us",
        ack_mean_us - measured.write_path_us,
        "us",
    ));
    out.push((
        "fg-bench.client.busy_s",
        (reads.busy_ns + generator.sum_ns()) as f64 / 1e9,
        "s",
    ));
    out.push(("fg-bench.client.late_ms", generator.mean_us() / 1e3, "ms"));
    out.push(("trace.overhead", overhead, "ratio"));
}
