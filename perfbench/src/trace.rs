//! The traced run: per-layer numbers from the benchmark's own calls into
//! each layer's public functions, in process, on the workload's seeded
//! request stream.
//!
//! * A **direct pass** replays the stream through a server configured
//!   like the workload's and times each stage a request crosses: request
//!   encode and decode (the workload's wire), `UucsServer::handle_deferred`,
//!   `GroupCommitter::wait` on the ticket it returned, reply encode and
//!   decode. The stage means must add up to the measured per-request
//!   mean ([`stats::check_additivity`]).
//! * A **TCP pass** sends further requests of the same stream to the
//!   same server behind `tcp::serve_with` on loopback; its round-trip
//!   mean minus the direct pass's stage sum is the front end's residual
//!   (socket, sweep dwell, reply flush). It runs in alternating blocks
//!   with per-request spans on and off; the difference is the tracing
//!   overhead.
//! * **Probes** time layers in isolation on the same inputs:
//!   `ResultStore::append_batch` and `sync_wal` on a scratch journal,
//!   `StoreSet::open` on the fixture, a timing `ReplicationSink` around
//!   a leader's `ReplHub` with an in-process follower, and (for
//!   workloads whose server has no group commit) a group-commit server
//!   on a scratch journal. A layer the workload bypasses is therefore
//!   still measured, on this workload's inputs; BENCHMARK.json's layer
//!   map names those rows.
//!
//! Counters the server exports over `STATS` come from the real-server
//! run that precedes this one (see `workloads`).

use crate::fixture;
use crate::load::{self, Governor, Mix, Op, Streams, Verb, CLIENTS, GOVERNORS};
use crate::report::Report;
use crate::stats;
use crate::statsjson::Stats;
use crate::sys;
use crate::workloads::{Ctx, Workload};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use uucs_cluster::hub::HubConfig;
use uucs_cluster::node::{claim_epoch, current_epoch};
use uucs_cluster::{AckMode, ClusterConfig, ClusterNode, ReplHub, Role};
use uucs_protocol::wire::{
    read_client_msg, read_server_msg, write_client_msg, write_server_msg, Endpoint,
};
use uucs_protocol::{ClientMsg, ServerMsg, WalEntry, WIRE_VERSION_BINARY};
use uucs_server::{
    GroupCommitter, ReplicationSink, ResultStore, StorageProfile, StoreSet, TestcaseStore,
    UucsServer,
};
use uucs_wal::{SyncPolicy, WalConfig};
use uucs_wire::frame::{read_server_frame, try_read_client_frame};
use uucs_wire::{encode_client_frame, encode_server_frame, FrameRead};

/// The per-layer metrics the traced run's JSON carries, with units, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("tcp.residual_us.mean", "us"),
    ("tcp.rtt_us.mean", "us"),
    ("tcp.idle_cpu_pct", "%"),
    ("wire.encode_req_us.mean", "us"),
    ("wire.decode_req_us.mean", "us"),
    ("wire.encode_reply_us.mean", "us"),
    ("wire.decode_reply_us.mean", "us"),
    ("wire.req_bytes.mean", "bytes"),
    ("wire.reply_bytes.mean", "bytes"),
    ("server.handle_us.upload.p50", "us"),
    ("server.handle_us.upload.p99", "us"),
    ("server.handle_us.sync.p50", "us"),
    ("server.handle_us.sync.p99", "us"),
    ("server.handle_us.modeldelta.p50", "us"),
    ("server.handle_us.modeldelta.p99", "us"),
    ("server.handle_us.advice.p50", "us"),
    ("server.handle_us.advice.p99", "us"),
    ("wal.append_us.p50", "us"),
    ("wal.append_us.p99", "us"),
    ("wal.fsync_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.replay_s", "s"),
    ("wal.replay_mb_per_s", "MB/s"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.rotations_per_kreq", "count"),
    ("commit.wait_us.p50", "us"),
    ("commit.wait_us.p99", "us"),
    ("commit.batch_mean", "count"),
    ("commit.fsyncs_per_kreq", "count"),
    ("disk.stall_us.mean", "us"),
    ("disk.service_us.mean", "us"),
    ("disk.ops_per_kreq", "count"),
    ("modelsvc.fold_us.mean", "us"),
    ("modelsvc.delta_served_frac", "ratio"),
    ("cluster.replicate_us.p50", "us"),
    ("cluster.replicate_us.p99", "us"),
    ("cluster.quorum_timeouts", "count"),
    ("cluster.lag_batches", "count"),
    ("cluster.backfill_s", "s"),
    ("client.retries_per_kreq", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.gen_cpu_pct", "%"),
    ("trace.stage_sum_us.mean", "us"),
    ("trace.additivity_gap_pct", "%"),
];

/// Requests in the direct pass.
const DIRECT: usize = 1500;
/// Requests in the TCP pass (split over alternating span on/off blocks).
const TCP: usize = 1600;
/// TCP pass blocks (even: half with spans on, half off).
const TCP_BLOCKS: usize = 8;
/// Requests of each verb the stream lacks, timed on the same server.
const PROBE: usize = 64;
/// Uploads through the replication probe.
const REPL_UPLOADS: usize = 300;

/// Microsecond samples per stage.
#[derive(Default)]
struct Spans(BTreeMap<String, Vec<f64>>);

impl Spans {
    fn push(&mut self, stage: &str, since: Instant) {
        self.push_us(stage, since.elapsed().as_secs_f64() * 1e6);
    }

    fn push_us(&mut self, stage: &str, us: f64) {
        self.0.entry(stage.to_string()).or_default().push(us);
    }

    fn get(&self, stage: &str) -> &[f64] {
        self.0.get(stage).map_or(&[], Vec::as_slice)
    }

    fn mean(&self, stage: &str) -> f64 {
        stats::mean(self.get(stage)).unwrap_or(0.0)
    }

    /// The stage's `p` percentile, or the largest sample when there are
    /// too few samples beyond it (probe sets are small).
    fn pct(&self, stage: &str, p: f64) -> f64 {
        let v = stats::sorted(self.get(stage));
        stats::percentile(&v, p)
            .or(v.last().copied())
            .unwrap_or(0.0)
    }
}

/// The framing a workload's clients speak.
#[derive(Clone, Copy, PartialEq)]
enum Wire {
    Text,
    Binary,
}

impl Wire {
    fn encode_req(self, id: u32, msg: &ClientMsg) -> io::Result<Vec<u8>> {
        match self {
            Wire::Binary => encode_client_frame(id, msg),
            Wire::Text => {
                let mut out = Vec::new();
                write_client_msg(&mut out, msg)?;
                Ok(out)
            }
        }
    }

    fn decode_req(self, bytes: &[u8]) -> io::Result<ClientMsg> {
        match self {
            Wire::Binary => match try_read_client_frame(bytes)? {
                FrameRead::Msg { msg, .. } => Ok(msg),
                other => Err(io::Error::other(format!(
                    "request frame decoded as {other:?}"
                ))),
            },
            Wire::Text => read_client_msg(&mut Cursor::new(bytes))?
                .ok_or_else(|| io::Error::other("empty text request")),
        }
    }

    fn encode_reply(self, id: u32, reply: &ServerMsg) -> io::Result<Vec<u8>> {
        match self {
            Wire::Binary => encode_server_frame(id, reply),
            Wire::Text => {
                let mut out = Vec::new();
                write_server_msg(&mut out, reply)?;
                Ok(out)
            }
        }
    }

    fn decode_reply(self, bytes: &[u8]) -> io::Result<ServerMsg> {
        match self {
            Wire::Binary => Ok(read_server_frame(&mut &bytes[..])?.1),
            Wire::Text => read_server_msg(&mut Cursor::new(bytes)),
        }
    }
}

/// A `ReplicationSink` that times every ship (and quorum wait) of the
/// sink it wraps.
struct TimedSink {
    inner: Arc<ReplHub>,
    us: Mutex<Vec<f64>>,
}

impl ReplicationSink for TimedSink {
    fn replicate(&self, entry: &WalEntry) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.replicate(entry);
        self.us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(t.elapsed().as_secs_f64() * 1e6);
        r
    }
}

/// An in-process quorum-ack leader (like `uucs-clusterd --repl-ack
/// quorum`) with its replication timed, and one in-process follower.
struct ClusterProbe {
    leader: Arc<UucsServer>,
    sink: Arc<TimedSink>,
    hub: Arc<ReplHub>,
    repl_addr: std::net::SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    follower: Arc<ClusterNode>,
    backfill_s: f64,
}

impl ClusterProbe {
    fn start(dir: &Path) -> io::Result<ClusterProbe> {
        let epochs = dir.join("epochs");
        std::fs::create_dir_all(&epochs)?;
        let shards = fixture::SHARDS;
        let (stores, _) = StoreSet::open(&dir.join("a").join("wal"), WalConfig::default(), shards)?;
        let leader = Arc::new(UucsServer::with_store_set(stores, 0x5e17));
        for tc in
            uucs_testcase::generate::Library::internet_sweep(fixture::LIBRARY_SEED).testcases()
        {
            leader
                .add_testcase(tc.clone())
                .map_err(|e| io::Error::other(format!("probe library: {e}")))?;
        }
        let hub = ReplHub::open(
            "a",
            dir.join("a").join("repl"),
            leader.shard_count(),
            HubConfig {
                ack: AckMode::Quorum,
                ..HubConfig::default()
            },
        )?;
        hub.set_server(Arc::clone(&leader));
        let sink = Arc::new(TimedSink {
            inner: Arc::clone(&hub),
            us: Mutex::new(Vec::new()),
        });
        leader.set_replication(sink.clone());
        let (repl_addr, accept) = hub.listen("127.0.0.1:0")?;
        let epoch = claim_epoch(&epochs, "a", current_epoch(&epochs) + 1)?;
        leader.set_read_only(false);
        hub.lead(epoch);
        let (stores, _) = StoreSet::open(&dir.join("b").join("wal"), WalConfig::default(), shards)?;
        let fserver = Arc::new(UucsServer::with_store_set(stores, 0x5e17));
        let mut config = ClusterConfig::new("b", &epochs, dir.join("b"));
        config.peers = vec![repl_addr.to_string()];
        let t0 = Instant::now();
        let follower =
            ClusterNode::start(config, Arc::clone(&fserver), "127.0.0.1:0", Role::Follower)?;
        while fserver.testcase_count() < leader.testcase_count() {
            if t0.elapsed() > Duration::from_secs(60) {
                return Err(io::Error::other("follower backfill did not finish in 60 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let backfill_s = t0.elapsed().as_secs_f64();
        Ok(ClusterProbe {
            leader,
            sink,
            hub,
            repl_addr,
            accept: Some(accept),
            follower,
            backfill_s,
        })
    }

    fn replicate_us(&self) -> Vec<f64> {
        self.sink
            .us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn stop(mut self) {
        // Follower first, so it never sees a dead leader and promotes.
        self.follower.shutdown();
        self.hub.shutdown(self.repl_addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

/// Opens a durable server in the README's group-commit shape on `dir`
/// and returns it with the `StoreSet::open` time.
fn open_durable(dir: &Path) -> io::Result<(UucsServer, f64)> {
    let storage = StorageProfile {
        io_threads: 2,
        ..StorageProfile::default()
    };
    let config = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let t = Instant::now();
    let (stores, _) = StoreSet::open_with(dir, config, fixture::SHARDS, &storage)?;
    let open_s = t.elapsed().as_secs_f64();
    let mut server = UucsServer::with_store_set(stores, 0x5e17);
    if let Some(sched) = storage.scheduler() {
        server = server.with_io_scheduler(sched);
    }
    Ok((
        server.with_group_commit(Duration::from_micros(1000)),
        open_s,
    ))
}

/// Registers the simulated clients in process.
fn register(server: &UucsServer, n: usize) -> io::Result<(Vec<String>, Vec<u64>)> {
    let mut ids = Vec::new();
    let mut applied = Vec::new();
    for i in 0..n {
        match server.handle(&load::register_msg(i)) {
            ServerMsg::Id { id, applied_seq } => {
                ids.push(id);
                applied.push(applied_seq);
            }
            other => return Err(io::Error::other(format!("registration answered {other:?}"))),
        }
    }
    Ok((ids, applied))
}

/// Governors for every index, initialised from full models.
fn governors(server: &UucsServer, seed: u64) -> io::Result<HashMap<usize, Governor>> {
    let mut out = HashMap::new();
    for g in 0..GOVERNORS {
        let (resource, task) = Governor::key(seed, g);
        let mut gov = Governor {
            resource,
            task: task.clone(),
            epoch: 0,
            sketch: uucs_modelsvc::QuantileSketch::for_resource(resource),
            crc: 0,
        };
        if let ServerMsg::Model { epoch, sketch, .. } =
            server.handle(&ClientMsg::Model { resource, task })
        {
            gov.adopt(epoch, &sketch).map_err(io::Error::other)?;
        }
        out.insert(g, gov);
    }
    Ok(out)
}

/// Flattens a plan into due order.
fn ops(plan: Vec<Vec<load::Planned>>) -> Vec<Op> {
    let mut all: Vec<load::Planned> = plan.into_iter().flatten().collect();
    all.sort_by_key(|p| p.due_ns);
    all.into_iter().map(|p| p.op).collect()
}

/// The stream's next `n` requests.
fn next_ops(streams: &mut Streams, mix: &Mix, n: usize) -> Vec<Op> {
    ops(streams.plan(n as f64, 1.0, mix, 1))
}

/// Times each stage of every op, straight through the handler.
#[allow(clippy::too_many_arguments)]
fn direct(
    server: &UucsServer,
    committer: Option<&GroupCommitter>,
    wire: Wire,
    ops: &[Op],
    ids: &[String],
    govs: &mut HashMap<usize, Governor>,
    spans: &mut Spans,
    uploads: &mut Vec<(String, u64, Vec<uucs_protocol::RunRecord>)>,
    rep: &mut Report,
) -> io::Result<()> {
    for (i, op) in ops.iter().enumerate() {
        let msg = op.message(ids, govs);
        let since = match &msg {
            ClientMsg::ModelDelta { since, .. } => *since,
            _ => 0,
        };
        let id = i as u32 + 1;
        let all = Instant::now();
        let t = Instant::now();
        let req = wire.encode_req(id, &msg)?;
        spans.push("encode_req", t);
        let t = Instant::now();
        let decoded = wire.decode_req(&req)?;
        spans.push("decode_req", t);
        let t = Instant::now();
        let (reply, ticket) = server.handle_deferred(&decoded);
        let handle_us = t.elapsed().as_secs_f64() * 1e6;
        spans.push_us(&format!("handle.{}", op.verb().name()), handle_us);
        spans.push_us("handle", handle_us);
        let t = Instant::now();
        let mut commit_us = 0.0;
        if let (Some(ticket), Some(c)) = (ticket, committer) {
            c.wait(ticket).map_err(io::Error::other)?;
            commit_us = t.elapsed().as_secs_f64() * 1e6;
            spans.push_us("commit_wait", commit_us);
        }
        spans.push_us("commit_wait_per_req", commit_us);
        let t = Instant::now();
        let bytes = wire.encode_reply(id, &reply)?;
        spans.push("encode_reply", t);
        let t = Instant::now();
        let back = wire.decode_reply(&bytes)?;
        spans.push("decode_reply", t);
        spans.push("request", all);
        spans.push_us("req_bytes", req.len() as f64);
        spans.push_us("reply_bytes", bytes.len() as f64);
        if back != reply {
            rep.problem(format!("reply changed across encode/decode: {reply:?}"));
        }
        match (op, &back) {
            (Op::ModelDelta { gov }, r) => {
                if let Err(e) = govs
                    .get_mut(gov)
                    .expect("governor exists")
                    .on_reply(since, r)
                {
                    rep.problem(format!("traced governor {gov}: {e}"));
                }
            }
            (
                Op::Upload {
                    client,
                    seq,
                    records,
                },
                ServerMsg::Ack(_),
            ) => {
                uploads.push((ids[*client].clone(), *seq, records.clone()));
            }
            (_, ServerMsg::Error(e)) => {
                rep.problem(format!("traced {} failed: {e}", op.verb().name()))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Round trips over loopback to `addr`, in alternating blocks with
/// per-request spans on and off. Returns (mean round trip with spans
/// off, mean with spans on), microseconds.
fn tcp_pass(
    addr: std::net::SocketAddr,
    wire: Wire,
    ops: &[Op],
    ids: &[String],
    govs: &mut HashMap<usize, Governor>,
    spans: &mut Spans,
) -> io::Result<(f64, f64)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    if wire == Wire::Binary {
        match uucs_wire::conn::negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY)? {
            uucs_wire::conn::Negotiated::Version(WIRE_VERSION_BINARY) => {}
            other => {
                return Err(io::Error::other(format!(
                    "in-process server negotiated {other:?}"
                )))
            }
        }
    }
    let per_block = ops.len() / TCP_BLOCKS;
    let (mut on_us, mut off_us, mut on_n, mut off_n) = (0.0, 0.0, 0usize, 0usize);
    for (b, block) in ops.chunks(per_block).take(TCP_BLOCKS).enumerate() {
        let traced = b % 2 == 1;
        let start = Instant::now();
        for (i, op) in block.iter().enumerate() {
            let msg = op.message(ids, govs);
            let since = match &msg {
                ClientMsg::ModelDelta { since, .. } => *since,
                _ => 0,
            };
            let id = (b * per_block + i) as u32 + 1;
            let t = traced.then(Instant::now);
            let req = wire.encode_req(id, &msg)?;
            writer.write_all(&req)?;
            let reply = match wire {
                Wire::Binary => {
                    let (rid, reply) = read_server_frame(&mut reader)?;
                    if rid != id {
                        return Err(io::Error::other(format!("reply {rid} to request {id}")));
                    }
                    reply
                }
                Wire::Text => read_server_msg(&mut reader)?,
            };
            if let Some(t) = t {
                spans.push("tcp_rtt", t);
            }
            if let Op::ModelDelta { gov } = op {
                govs.get_mut(gov)
                    .expect("governor exists")
                    .on_reply(since, &reply)
                    .map_err(io::Error::other)?;
            }
            if let ServerMsg::Error(e) = reply {
                return Err(io::Error::other(format!(
                    "TCP pass {}: {e}",
                    op.verb().name()
                )));
            }
        }
        let us = start.elapsed().as_secs_f64() * 1e6;
        if traced {
            on_us += us;
            on_n += block.len();
        } else {
            off_us += us;
            off_n += block.len();
        }
    }
    let _ = writer.write_all(&wire.encode_req(0, &ClientMsg::Bye)?);
    Ok((off_us / off_n.max(1) as f64, on_us / on_n.max(1) as f64))
}

/// Times `append_batch` and `sync_wal` on a scratch results journal.
fn journal_probe(
    dir: &Path,
    uploads: &[(String, u64, Vec<uucs_protocol::RunRecord>)],
    spans: &mut Spans,
) -> io::Result<()> {
    let config = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let (mut store, _) = ResultStore::open_wal(dir, config)?;
    for (client, seq, records) in uploads {
        let t = Instant::now();
        store
            .append_batch(client, *seq, records.clone())
            .map_err(|e| io::Error::other(format!("probe append: {e}")))?;
        spans.push("wal_append", t);
        let t = Instant::now();
        store.sync_wal()?;
        spans.push("wal_fsync", t);
    }
    Ok(())
}

/// The traced run for workload `w`.
pub fn run(ctx: &Ctx, w: &Workload, rep: &mut Report) -> io::Result<()> {
    let dir = ctx.run_dir.join("trace");
    std::fs::create_dir_all(&dir)?;
    let library = fixture::library_ids();
    let fixture_dir = fixture::ensure(&ctx.work)?;
    let wire = if w.name == "legacy_roundtrip" {
        Wire::Text
    } else {
        Wire::Binary
    };
    let mut spans = Spans::default();
    // The server the stream replays through, configured like the
    // workload's own.
    let mut cluster = None;
    let (server, committer, replay_s) = match w.name {
        "legacy_roundtrip" => {
            let lib = uucs_testcase::generate::Library::internet_sweep(fixture::LIBRARY_SEED);
            let store = TestcaseStore::from_testcases(lib.testcases().to_vec())
                .map_err(|e| io::Error::other(e.to_string()))?;
            (Arc::new(UucsServer::new(store, 0x5e17)), None, None)
        }
        "upload_quorum" => {
            let c = ClusterProbe::start(&dir.join("cluster"))?;
            let s = Arc::clone(&c.leader);
            cluster = Some(c);
            (s, None, None)
        }
        _ => {
            sys::copy_dir(&fixture_dir.join("wal"), &dir.join("data").join("wal"))?;
            let (s, open_s) = open_durable(&dir.join("data").join("wal"))?;
            let c = s.group_committer();
            (Arc::new(s), c, Some(open_s))
        }
    };
    let (ids, applied) = if w.name == "legacy_roundtrip" {
        register(&server, 1)?
    } else {
        register(&server, CLIENTS)?
    };
    let mut streams = if w.name == "legacy_roundtrip" {
        Streams::new(ctx.seed ^ 1, library.clone(), ids.clone(), &applied)
    } else {
        Streams::new(ctx.seed, library.clone(), ids.clone(), &applied)
    };
    let mut govs = governors(&server, ctx.seed)?;
    let mut uploads = Vec::new();

    // Direct pass over the stream, then probes for absent verbs.
    let stream_ops = next_ops(&mut streams, &w.mix, DIRECT);
    direct(
        &server,
        committer.as_deref(),
        wire,
        &stream_ops,
        &ids,
        &mut govs,
        &mut spans,
        &mut uploads,
        rep,
    )?;
    let means: Vec<f64> = [
        "encode_req",
        "decode_req",
        "handle",
        "commit_wait_per_req",
        "encode_reply",
        "decode_reply",
    ]
    .iter()
    .map(|s| spans.mean(s))
    .collect();
    let stage_sum: f64 = means.iter().sum();
    let request_mean = spans.mean("request");
    rep.layer("trace.stage_sum_us.mean", stage_sum, "us");
    rep.layer(
        "trace.additivity_gap_pct",
        (stage_sum - request_mean).abs() / request_mean * 100.0,
        "%",
    );
    if let Err(e) = stats::check_additivity(&means, request_mean) {
        rep.problem(format!("traced stages do not add up: {e}"));
    }
    for verb in Verb::ALL {
        if w.mix.share(verb) <= 0.0 {
            let probe_ops = next_ops(&mut streams, &Mix::only(verb), PROBE);
            let mut scratch = Spans::default();
            direct(
                &server,
                committer.as_deref(),
                wire,
                &probe_ops,
                &ids,
                &mut govs,
                &mut scratch,
                &mut uploads,
                rep,
            )?;
            spans.0.insert(
                format!("handle.{}", verb.name()),
                scratch.get(&format!("handle.{}", verb.name())).to_vec(),
            );
        }
    }

    // TCP pass through the real front end.
    let handle =
        uucs_server::tcp::serve_with(Arc::clone(&server), "127.0.0.1:0", Default::default())?;
    let tcp_ops = next_ops(&mut streams, &w.mix, TCP);
    let (rtt_off, rtt_on) = tcp_pass(handle.addr(), wire, &tcp_ops, &ids, &mut govs, &mut spans)?;
    handle.shutdown();
    rep.layer("tcp.rtt_us.mean", rtt_off, "us");
    rep.layer("tcp.residual_us.mean", rtt_off - stage_sum, "us");
    rep.layer(
        "bench.trace_overhead_pct",
        (rtt_on - rtt_off) / rtt_off * 100.0,
        "%",
    );

    for (name, stage) in [
        ("wire.encode_req_us.mean", "encode_req"),
        ("wire.decode_req_us.mean", "decode_req"),
        ("wire.encode_reply_us.mean", "encode_reply"),
        ("wire.decode_reply_us.mean", "decode_reply"),
    ] {
        rep.layer(name, spans.mean(stage), "us");
    }
    rep.layer("wire.req_bytes.mean", spans.mean("req_bytes"), "bytes");
    rep.layer("wire.reply_bytes.mean", spans.mean("reply_bytes"), "bytes");
    for verb in Verb::ALL {
        let stage = format!("handle.{}", verb.name());
        for (p, label) in [(0.5, "p50"), (0.99, "p99")] {
            rep.layer(
                &format!("server.handle_us.{}.{label}", verb.name()),
                spans.pct(&stage, p),
                "us",
            );
        }
    }

    // Journal: appends and fsyncs of this stream's uploads on a scratch
    // journal, and replay of the fixture journal.
    journal_probe(&dir.join("journal"), &uploads, &mut spans)?;
    for (name, stage) in [
        ("wal.append_us", "wal_append"),
        ("wal.fsync_us", "wal_fsync"),
    ] {
        rep.layer(&format!("{name}.p50"), spans.pct(stage, 0.5), "us");
        rep.layer(&format!("{name}.p99"), spans.pct(stage, 0.99), "us");
    }
    let replay_s = match replay_s {
        Some(s) => s,
        None => {
            let copy = dir.join("replay").join("wal");
            sys::copy_dir(&fixture_dir.join("wal"), &copy)?;
            open_durable(&copy)?.1
        }
    };
    let fixture_mb = sys::dir_bytes(&fixture_dir.join("wal"))? as f64 / 1e6;
    rep.layer("wal.replay_s", replay_s, "s");
    rep.layer("wal.replay_mb_per_s", fixture_mb / replay_s, "MB/s");

    // Group commit: the workload's own committer, or a group-commit
    // server on a scratch journal fed the same uploads.
    if committer.is_none() {
        let (probe, _) = open_durable(&dir.join("commit"))?;
        let (pids, _) = register(&probe, CLIENTS.min(ids.len().max(1)))?;
        let c = probe
            .group_committer()
            .expect("open_durable enables group commit");
        for (k, (_, _, records)) in uploads.iter().enumerate() {
            // Upload k goes to probe client k mod n as its (k / n + 1)-th
            // batch, so every client's seqs increase.
            let msg = ClientMsg::Upload {
                client: pids[k % pids.len()].clone(),
                seq: (k / pids.len()) as u64 + 1,
                records: records.clone(),
            };
            let (_, ticket) = probe.handle_deferred(&msg);
            if let Some(ticket) = ticket {
                let t = Instant::now();
                c.wait(ticket).map_err(io::Error::other)?;
                spans.push("commit_wait", t);
            }
        }
    }
    rep.layer("commit.wait_us.p50", spans.pct("commit_wait", 0.5), "us");
    rep.layer("commit.wait_us.p99", spans.pct("commit_wait", 0.99), "us");

    // Replication: the workload's own leader, or a probe cluster fed
    // the stream's first uploads.
    let cluster = match cluster {
        Some(c) => c,
        None => {
            let c = ClusterProbe::start(&dir.join("cluster"))?;
            let (cids, capplied) = register(&c.leader, CLIENTS)?;
            let mut s = Streams::new(ctx.seed, library, cids.clone(), &capplied);
            for op in next_ops(&mut s, &Mix::UPLOADS, REPL_UPLOADS) {
                if let ServerMsg::Error(e) = c.leader.handle(&op.message(&cids, &HashMap::new())) {
                    return Err(io::Error::other(format!("replication probe upload: {e}")));
                }
            }
            c
        }
    };
    let repl = stats::sorted(&cluster.replicate_us());
    rep.layer(
        "cluster.replicate_us.p50",
        stats::percentile(&repl, 0.5).unwrap_or(f64::NAN),
        "us",
    );
    rep.layer(
        "cluster.replicate_us.p99",
        stats::percentile(&repl, 0.99)
            .or(repl.last().copied())
            .unwrap_or(f64::NAN),
        "us",
    );
    rep.layer("cluster.backfill_s", cluster.backfill_s, "s");
    cluster.stop();

    // Disk-scheduler means the workload's server does not produce come
    // from the probes' own registry.
    let local =
        Stats::parse(&uucs_telemetry::metrics::snapshot_json()).map_err(io::Error::other)?;
    for (name, hist) in [
        ("disk.stall_us.mean", "server.disk.stall_ns"),
        ("disk.service_us.mean", "server.disk.service_ns"),
    ] {
        if rep.layer_value(name).unwrap_or(0.0) == 0.0 {
            rep.layer(name, local.hist(hist).mean / 1e3, "us");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
