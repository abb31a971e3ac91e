//! The system under test, driven from outside: a durable FGQ1 master
//! (writer thread + server), closed- and open-loop clients, and the
//! certification tail — a fresh FGR1 replica's catch-up, a cold
//! recovery of the master's uncheckpointed store, and an in-process
//! replay of the same trace on the fg-dist backend.

use crate::oracle::Adj;
use crate::stats::{Samples, Tally};
use crate::trace::Tracer;
use fg_core::{ForgivingGraph, NetworkEvent, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_graph::Graph;
use fg_serve::{
    chain_digest, spawn_writer, Client, Publisher, Request, ResponseBody, Server, ServerConfig,
    SnapshotHub, WriteJob, BASE_DIGEST,
};
use fg_store::{DurableHealer, DurableOptions, RecoveryReport, ReplListener, Replica};
use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The flush policy every store in the benchmark runs under: each
/// acknowledged batch is one WAL write and one fsync, and nothing is
/// ever checkpointed, so recovery and catch-up replay the whole history.
pub fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: None,
        sync_every: 1,
    }
}

/// `(epoch, chain digest)`: the certificate every path must agree on.
pub type Cert = (u64, u64);

type MasterPublisher = Publisher<DurableHealer<ForgivingGraph>>;

/// A running write master on a loopback port.
pub struct Master {
    pub hub: Arc<SnapshotHub>,
    /// The certificate published when the server came up.
    pub start: Cert,
    server: Server,
    writer: SyncSender<WriteJob>,
    handle: JoinHandle<MasterPublisher>,
}

impl Master {
    /// A fresh store at `dir` holding `G_0` plus `prefix` (applied in
    /// process, in `batch`-event commits), served by `readers` threads.
    pub fn start(
        initial: &Graph,
        prefix: &[NetworkEvent],
        batch: usize,
        dir: &Path,
        readers: usize,
    ) -> Master {
        remove_dir(dir);
        let engine = ForgivingGraph::from_graph(initial).expect("G_0 is a fresh graph");
        let mut durable = DurableHealer::create(engine, dir, opts()).expect("create master store");
        for chunk in prefix.chunks(batch) {
            let _ = durable.apply_batch(chunk).expect("trace events are legal");
        }
        let publisher = Publisher::from_durable(durable);
        let hub = publisher.hub();
        let start = (hub.epoch(), publisher.digest());
        let (writer, handle) = spawn_writer(publisher, 4);
        let server = Server::bind_master(
            ("127.0.0.1", 0),
            Arc::clone(&hub),
            writer.clone(),
            ServerConfig {
                readers,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback master");
        Master {
            hub,
            start,
            server,
            writer,
            handle,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Shuts the server down and drops the store without a checkpoint;
    /// returns the store's final certificate and its image.
    pub fn stop(self) -> (Cert, Adj) {
        self.server.shutdown();
        drop(self.writer);
        let publisher = self.handle.join().expect("writer thread");
        let cert = (publisher.healer().epoch(), publisher.digest());
        assert_eq!(
            publisher.digest(),
            publisher.healer().chain_digest(),
            "serving chain equals the WAL chain"
        );
        let image = Adj::from_graph(publisher.healer().image());
        (cert, image)
    }
}

pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove scratch store");
    }
}

/// What a closed-loop ingest through `submit_batch` measured.
#[derive(Default)]
pub struct Ingest {
    /// Ack → next submit: the generator's own turnaround (for the
    /// open-loop writer: how late each submit was).
    pub turnaround: Samples,
    /// `(events, turnaround ns, submit → ack ns)` per batch, in submit
    /// order.
    pub per_batch: Vec<(usize, u64, u64)>,
    pub batches: Tally,
    pub last: Cert,
    pub stamps: Vec<Cert>,
}

/// Submits `batches` one at a time over one connection, each after the
/// previous ack. An ack must report the whole batch applied at the
/// epoch the trace predicts.
pub fn ingest(
    addr: SocketAddr,
    start: Cert,
    batches: &[Vec<NetworkEvent>],
    t: &mut Tracer,
) -> Ingest {
    let mut client = Client::connect(addr).expect("connect writer client");
    let mut out = Ingest {
        last: start,
        ..Ingest::default()
    };
    let mut acked_at = Instant::now();
    for batch in batches {
        let events = batch.clone();
        let sent = Instant::now();
        let turn_ns = sent.duration_since(acked_at).as_nanos() as u64;
        out.turnaround.push(turn_ns);
        let ack = t.span("fg-serve.client.submit_batch", |_| {
            client.submit_batch(events)
        });
        acked_at = Instant::now();
        let ack_ns = acked_at.duration_since(sent).as_nanos() as u64;
        out.per_batch.push((batch.len(), turn_ns, ack_ns));
        let expect = out.last.0 + batch.len() as u64;
        match ack {
            Ok(st) if st.value as usize == batch.len() && st.epoch == expect => {
                out.last = (st.epoch, st.digest);
                out.stamps.push(out.last);
                out.batches.ok();
            }
            other => {
                eprintln!("write batch failed: {other:?}");
                out.batches.fail();
            }
        }
    }
    out
}

/// What one pipelined pass over a request pool measured.
#[derive(Default)]
pub struct Reads {
    /// Send → receive per request (of this pass only).
    pub lat: Samples,
    pub secs: f64,
    pub reads: Tally,
    /// Every distinct certificate the responses carried.
    pub stamps: BTreeSet<Cert>,
    /// Bodies in pool order, when asked for.
    pub bodies: Vec<ResponseBody>,
    /// Wall time outside `recv`: the generator's own work.
    pub busy_ns: u64,
}

impl Reads {
    pub fn absorb(&mut self, other: Reads) {
        self.secs += other.secs;
        self.reads.add(other.reads);
        self.stamps.extend(other.stamps);
        self.busy_ns += other.busy_ns;
    }
}

/// Sends every request of `pool` once with up to `depth` in flight,
/// pairing responses FIFO. A response is a failure when it is an error
/// frame or answers another request id or op.
pub fn read_pass(
    client: &mut Client,
    pool: &[Request],
    depth: usize,
    keep_bodies: bool,
    t: &mut Tracer,
) -> Reads {
    let mut out = Reads::default();
    let mut in_flight: VecDeque<(u64, Instant, usize)> = VecDeque::with_capacity(depth);
    let mut next = 0;
    let mut waiting_ns = 0u64;
    let began = Instant::now();
    while next < pool.len() || !in_flight.is_empty() {
        while next < pool.len() && in_flight.len() < depth {
            let id = t
                .span("fg-serve.client.send", |_| client.send(&pool[next]))
                .expect("send read request");
            in_flight.push_back((id, Instant::now(), next));
            next += 1;
        }
        let wait = Instant::now();
        let response = t
            .span("fg-serve.client.recv", |_| client.recv())
            .expect("receive read response");
        let done = Instant::now();
        waiting_ns += done.duration_since(wait).as_nanos() as u64;
        let (id, sent, idx) = in_flight.pop_front().expect("response without request");
        out.lat.push(done.duration_since(sent).as_nanos() as u64);
        out.stamps.insert((response.epoch, response.digest));
        match response.body {
            Ok(body) if response.request_id == id && body.op() == pool[idx].op() => {
                out.reads.ok();
                if keep_bodies {
                    out.bodies.push(body);
                }
            }
            other => {
                eprintln!("read failed: {:?} answered {other:?}", pool[idx]);
                out.reads.fail();
                if keep_bodies {
                    out.bodies.push(ResponseBody::Epoch);
                }
            }
        }
    }
    out.secs = began.elapsed().as_secs_f64();
    out.busy_ns = ((out.secs * 1e9) as u64).saturating_sub(waiting_ns);
    out
}

/// A fresh replica's catch-up on a stopped master's whole history.
pub struct CatchUp {
    pub secs: f64,
    pub records: usize,
    pub syncs: Tally,
    pub sync_lat: Samples,
    pub cert: Cert,
    pub image: Adj,
}

/// Serves `master_dir` over FGR1 and catches a fresh replica at
/// `replica_dir` up to it: bootstrap from the checkpoint, then
/// `sync_once` until the master reports nothing further.
pub fn catch_up(master_dir: &Path, replica_dir: &Path, t: &mut Tracer) -> CatchUp {
    remove_dir(replica_dir);
    let mut listener = ReplListener::bind("127.0.0.1:0", master_dir).expect("bind FGR1 listener");
    let began = Instant::now();
    let (mut replica, _) = t
        .span("fg-store.repl.bootstrap", |_| {
            Replica::<ForgivingGraph>::bootstrap(listener.local_addr(), replica_dir, opts())
        })
        .expect("replica bootstrap");
    let mut syncs = Tally::default();
    let mut sync_lat = Samples::default();
    let mut records = 0;
    loop {
        let s = Instant::now();
        match t.span("fg-store.repl.sync_once", |_| replica.sync_once()) {
            Ok(progress) => {
                sync_lat.since(s);
                syncs.ok();
                records += progress.applied;
                if progress.caught_up {
                    break;
                }
            }
            Err(e) => {
                eprintln!("replica sync failed: {e}");
                syncs.fail();
                break;
            }
        }
    }
    let secs = began.elapsed().as_secs_f64();
    listener.stop();
    let cert = (replica.epoch(), replica.chain_digest());
    let image = Adj::from_graph(replica.healer().image());
    drop(replica);
    remove_dir(replica_dir);
    CatchUp {
        secs,
        records,
        syncs,
        sync_lat,
        cert,
        image,
    }
}

/// A cold recovery of a store directory.
pub struct Recovered {
    pub secs: f64,
    pub report: RecoveryReport,
    pub cert: Cert,
    pub image: Adj,
}

pub fn recover(dir: &Path, t: &mut Tracer) -> Recovered {
    let began = Instant::now();
    let (healer, report) = t
        .span("fg-store.durable.open", |_| {
            DurableHealer::<ForgivingGraph>::open(dir, opts())
        })
        .expect("recover master store");
    let secs = began.elapsed().as_secs_f64();
    Recovered {
        secs,
        report,
        cert: (healer.epoch(), healer.chain_digest()),
        image: Adj::from_graph(healer.image()),
    }
}

/// The trace replayed in process on the message-passing backend with
/// one worker.
pub struct DistRun {
    pub secs: f64,
    pub events: usize,
    pub cert: Cert,
    pub image: Adj,
}

pub fn dist_replay(
    initial: &Graph,
    events: &[NetworkEvent],
    batch: usize,
    t: &mut Tracer,
) -> DistRun {
    let mut net = DistHealer::from_graph_threaded(initial, PlacementPolicy::Adjacent, 1);
    let mut chain = BASE_DIGEST;
    let began = Instant::now();
    for chunk in events.chunks(batch) {
        let report = t
            .span("fg-dist.healer.apply_batch", |_| net.apply_batch(chunk))
            .expect("trace events are legal");
        for outcome in &report.outcomes {
            chain = chain_digest(chain, outcome);
        }
    }
    let secs = began.elapsed().as_secs_f64();
    DistRun {
        secs,
        events: events.len(),
        cert: (net.epoch(), chain),
        image: Adj::from_graph(net.image()),
    }
}
