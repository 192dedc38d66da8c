//! The leader half of WAL shipping: per-shard replication logs, the
//! `REPL` listener, follower fan-out, backfill, and the quorum-ack
//! wait.
//!
//! Every committed mutation routes to a replication shard by the same
//! stable hash the stores use ([`uucs_server::shard_of`]), appends to
//! that shard's replication log (a normal `uucs-wal` log at
//! `SyncPolicy::Never` — it is a retransmission buffer, not the source
//! of truth; losing it merely forces a snapshot backfill), and fans out
//! to every connected follower. The append and the fan-out happen under
//! the shard's log lock, so followers observe each shard's sequence
//! numbers in order with no gaps.
//!
//! A follower that reconnects resumes from its acked watermark: the
//! leader replays the log tail from that sequence. A watermark that
//! predates the log's newest checkpoint — or one earned under a
//! different cluster epoch — cannot be tailed; the leader instead
//! streams a full store snapshot ([`UucsServer::export_entries`]) and
//! jumps the follower's watermark past it (*snapshot-then-tail*).

use crate::gossip::GossipState;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uucs_protocol::repl::{read_repl_msg, write_repl_msg, ReplMsg};
use uucs_protocol::WalEntry;
use uucs_server::{shard_of, ReplicationSink, UucsServer};
use uucs_telemetry::{metrics, Counter, Gauge};
use uucs_wal::{StdIo, SyncPolicy, Wal, WalConfig};

/// When the leader acknowledges a client-visible mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Ack once the local store accepted it (lowest latency; a leader
    /// loss in the replication gap is healed by client retry + dedup).
    Local,
    /// Ack only after at least one follower acknowledged the entry —
    /// or after [`HubConfig::ack_timeout`] with no follower able to,
    /// in which case the leader degrades to local acks and counts the
    /// event (`server.repl.quorum_timeouts`) rather than refusing
    /// writes: availability over replication, per the paper's "degraded
    /// advice is acceptable, lost acknowledged uploads are not".
    Quorum,
}

impl AckMode {
    /// Parses a `--repl-ack` value.
    pub fn parse(s: &str) -> Option<AckMode> {
        match s {
            "local" => Some(AckMode::Local),
            "quorum" => Some(AckMode::Quorum),
            _ => None,
        }
    }
}

/// Replication-hub tuning.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Ack policy for client-visible mutations.
    pub ack: AckMode,
    /// How long a quorum ack may be waited for before degrading.
    pub ack_timeout: Duration,
    /// Replication-log segment size (small values force rotation in
    /// tests; see the backfill edge-case suite).
    pub segment_bytes: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            ack: AckMode::Local,
            ack_timeout: Duration::from_secs(2),
            segment_bytes: 1 << 20,
        }
    }
}

/// One connected follower, shared between the fan-out path (sender),
/// its writer thread, and its reader thread.
struct FollowerSlot {
    node: String,
    tx: SyncSender<ReplMsg>,
    /// Per-shard acked watermark (next sequence the follower expects).
    acked: Vec<AtomicU64>,
    alive: AtomicBool,
    /// A shutdown handle on the follower's socket: severing it here
    /// unblocks both the reader thread and the follower's apply loop,
    /// so an in-process leader shutdown looks like a crash to peers.
    sock: TcpStream,
}

struct HubMetrics {
    lag_batches: Gauge,
    follower_connected: Gauge,
    quorum_timeouts: Counter,
    shipped: Counter,
}

/// The replication hub. One per node; dormant (every
/// [`ReplicationSink::replicate`] call is a no-op) until the node
/// leads.
pub struct ReplHub {
    node: String,
    shards: usize,
    config: HubConfig,
    logs: Vec<Mutex<Wal<StdIo>>>,
    /// Mirror of each log's `next_lsn`, readable without the log lock.
    next_seq: Vec<AtomicU64>,
    /// Sequences below this are folded into the log's checkpoint and no
    /// longer tailable.
    snapshot_upto: Vec<AtomicU64>,
    followers: Mutex<Vec<Arc<FollowerSlot>>>,
    /// Signals quorum waiters whenever any follower ack advances (or a
    /// follower disconnects, so waiters can re-check liveness).
    ack_signal: Condvar,
    ack_lock: Mutex<()>,
    leading: AtomicBool,
    epoch: AtomicU64,
    /// The engine backfill snapshots export from; also the source of
    /// this node's own gossip contribution.
    server: Mutex<Option<Arc<UucsServer>>>,
    gossip: Mutex<GossipState>,
    metrics: HubMetrics,
    shutdown: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ReplHub {
    /// Opens (or recovers) the per-shard replication logs under `dir`
    /// and returns a dormant hub.
    pub fn open(
        node: impl Into<String>,
        dir: impl Into<PathBuf>,
        shards: usize,
        config: HubConfig,
    ) -> io::Result<Arc<ReplHub>> {
        let node = node.into();
        let dir = dir.into();
        let mut logs = Vec::with_capacity(shards);
        let mut next_seq = Vec::with_capacity(shards);
        let mut snapshot_upto = Vec::with_capacity(shards);
        for i in 0..shards {
            let shard_dir = dir.join(format!("shard-{i:03}"));
            std::fs::create_dir_all(&shard_dir)?;
            let (wal, recovery) = Wal::open(
                StdIo::new(),
                shard_dir,
                WalConfig {
                    segment_bytes: config.segment_bytes,
                    sync: SyncPolicy::Never,
                },
            )?;
            next_seq.push(AtomicU64::new(recovery.next_lsn));
            snapshot_upto.push(AtomicU64::new(
                recovery.snapshot.as_ref().map_or(0, |s| s.upto),
            ));
            logs.push(Mutex::new(wal));
        }
        Ok(Arc::new(ReplHub {
            gossip: Mutex::new(GossipState::new(node.clone())),
            node,
            shards,
            config,
            logs,
            next_seq,
            snapshot_upto,
            followers: Mutex::new(Vec::new()),
            ack_signal: Condvar::new(),
            ack_lock: Mutex::new(()),
            leading: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            server: Mutex::new(None),
            metrics: HubMetrics {
                lag_batches: metrics::gauge("server.repl.lag_batches"),
                follower_connected: metrics::gauge("server.repl.follower_connected"),
                quorum_timeouts: metrics::counter("server.repl.quorum_timeouts"),
                shipped: metrics::counter("server.repl.shipped"),
            },
            shutdown: AtomicBool::new(false),
        }))
    }

    /// The node name this hub replicates for.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The replication shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The current cluster epoch this hub leads under (0 = not yet).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether this hub currently fans out (i.e. the node leads).
    pub fn leading(&self) -> bool {
        self.leading.load(Ordering::SeqCst)
    }

    /// Wires the engine the hub exports backfill snapshots from and
    /// reads gossip contributions off. Must run before [`ReplHub::listen`].
    pub fn set_server(&self, server: Arc<UucsServer>) {
        *lock(&self.server) = Some(server);
    }

    /// Starts leading under `epoch`: replicate-calls fan out from now
    /// on and `HELLO`s are welcomed rather than refused.
    pub fn lead(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
        self.leading.store(true, Ordering::SeqCst);
    }

    /// This node's gossip view (shared with the follower runtime, which
    /// absorbs relayed contributions into it).
    pub fn gossip(&self) -> &Mutex<GossipState> {
        &self.gossip
    }

    /// Checkpoints and compacts every replication log. Sequences below
    /// the checkpoint stop being tailable: a follower behind it gets a
    /// snapshot-then-tail backfill on its next connect. The checkpoint
    /// state is empty on purpose — backfill always exports the *live*
    /// store, so the log never has to carry a second copy of it.
    pub fn checkpoint_logs(&self) -> io::Result<()> {
        for i in 0..self.shards {
            let mut wal = lock(&self.logs[i]);
            let upto = wal.snapshot(b"")?;
            wal.compact()?;
            self.snapshot_upto[i].store(upto, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Names of the currently connected followers.
    pub fn follower_nodes(&self) -> Vec<String> {
        lock(&self.followers)
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| s.node.clone())
            .collect()
    }

    /// The acked watermark of the most-behind connected follower, per
    /// shard — `None` with no follower connected.
    pub fn min_acked(&self, shard: usize) -> Option<u64> {
        lock(&self.followers)
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| s.acked[shard].load(Ordering::SeqCst))
            .min()
    }

    fn update_lag(&self) {
        let mut lag = 0i64;
        for i in 0..self.shards {
            let head = self.next_seq[i].load(Ordering::SeqCst);
            if let Some(acked) = self.min_acked(i) {
                lag = lag.max(head.saturating_sub(acked) as i64);
            }
        }
        self.metrics.lag_batches.set(lag);
    }

    fn fan_out(&self, msg: &ReplMsg) {
        let followers = lock(&self.followers);
        for slot in followers.iter() {
            if slot.alive.load(Ordering::SeqCst) && slot.tx.try_send(msg.clone()).is_err() {
                // Overflowed or hung up: drop the follower; it will
                // reconnect and catch up from its watermark.
                slot.alive.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Blocks until any live follower acked past `seq` on `shard`, the
    /// configured timeout passes (degrade + count), or no follower is
    /// left to wait for.
    fn wait_quorum(&self, shard: usize, seq: u64) {
        let deadline = Instant::now() + self.config.ack_timeout;
        let mut guard = lock(&self.ack_lock);
        loop {
            let satisfied = lock(&self.followers)
                .iter()
                .filter(|s| s.alive.load(Ordering::SeqCst))
                .any(|s| s.acked[shard].load(Ordering::SeqCst) > seq);
            if satisfied {
                return;
            }
            let connected = lock(&self.followers)
                .iter()
                .any(|s| s.alive.load(Ordering::SeqCst));
            let now = Instant::now();
            if !connected || now >= deadline {
                self.metrics.quorum_timeouts.inc();
                return;
            }
            let (g, _) = self
                .ack_signal
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }

    /// Accepts followers on `addr` until shutdown. Returns the bound
    /// address and the accept-thread handle.
    pub fn listen(
        self: &Arc<Self>,
        addr: &str,
    ) -> io::Result<(SocketAddr, JoinHandle<()>)> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let hub = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("repl-accept-{}", self.node))
            .spawn(move || {
                for conn in listener.incoming() {
                    if hub.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let hub2 = Arc::clone(&hub);
                    let _ = std::thread::Builder::new()
                        .name("repl-conn".into())
                        .spawn(move || {
                            let _ = hub2.serve_follower(stream);
                        });
                }
            })?;
        Ok((bound, handle))
    }

    /// Stops accepting, severs every follower connection, and wakes
    /// every waiter — from a peer's point of view indistinguishable
    /// from the leader process dying.
    pub fn shutdown(&self, bound: SocketAddr) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.leading.store(false, Ordering::SeqCst);
        {
            let mut followers = lock(&self.followers);
            for slot in followers.drain(..) {
                slot.alive.store(false, Ordering::SeqCst);
                let _ = slot.sock.shutdown(std::net::Shutdown::Both);
                // Wake a writer parked on an empty fan-out channel so
                // it observes `alive == false` and exits.
                let _ = slot.tx.try_send(ReplMsg::Ping { epoch: 0 });
            }
            self.metrics.follower_connected.set(0);
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(bound);
        self.ack_signal.notify_all();
    }

    /// One follower connection, end to end: handshake, backfill, then
    /// reader duty (acks + gossip) while a writer thread drains the
    /// fan-out channel.
    fn serve_follower(self: &Arc<Self>, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let hello = match read_repl_msg(&mut reader)? {
            Some(ReplMsg::Hello {
                node,
                epoch,
                watermarks,
            }) => (node, epoch, watermarks),
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "expected HELLO")),
        };
        let mut writer = BufWriter::new(stream.try_clone()?);
        if !self.leading() {
            write_repl_msg(&mut writer, &ReplMsg::NotLeader { epoch: self.epoch() })?;
            return Ok(());
        }
        write_repl_msg(
            &mut writer,
            &ReplMsg::Welcome {
                node: self.node.clone(),
                epoch: self.epoch(),
                shards: self.shards,
            },
        )?;
        // Per-shard resume points; missing shards start from 0.
        let mut wanted = vec![0u64; self.shards];
        for (shard, seq) in &hello.2 {
            if *shard < self.shards {
                wanted[*shard] = *seq;
            }
        }
        // Register the slot *before* reading the join points: every
        // sequence at or past `joined` is guaranteed to reach the
        // channel, so backfill up to `joined` + channel drain covers
        // the stream with no gap (overlaps dedup at the follower).
        let (tx, rx) = sync_channel(4096);
        let slot = Arc::new(FollowerSlot {
            node: hello.0.clone(),
            tx,
            acked: (0..self.shards).map(|_| AtomicU64::new(0)).collect(),
            alive: AtomicBool::new(true),
            sock: stream.try_clone()?,
        });
        {
            let mut followers = lock(&self.followers);
            followers.retain(|s| s.alive.load(Ordering::SeqCst));
            followers.push(Arc::clone(&slot));
            self.metrics.follower_connected.set(followers.len() as i64);
        }
        let joined: Vec<u64> = (0..self.shards)
            .map(|i| lock(&self.logs[i]).next_lsn())
            .collect();
        let snapshot_mode = hello.1 != self.epoch()
            || (0..self.shards)
                .any(|i| wanted[i] < self.snapshot_upto[i].load(Ordering::SeqCst));
        let writer_hub = Arc::clone(self);
        let writer_slot = Arc::clone(&slot);
        let wanted_w = wanted.clone();
        let joined_w = joined.clone();
        let writer_handle = std::thread::Builder::new()
            .name("repl-writer".into())
            .spawn(move || {
                let r = writer_hub.stream_to_follower(
                    &mut writer,
                    &writer_slot,
                    rx,
                    snapshot_mode,
                    &wanted_w,
                    &joined_w,
                );
                if r.is_err() {
                    writer_slot.alive.store(false, Ordering::SeqCst);
                }
            })?;
        // Reader duty: acks and gossip until the follower hangs up.
        let read_result = self.read_from_follower(&mut reader, &slot);
        slot.alive.store(false, Ordering::SeqCst);
        // Wake the writer if it is parked on an empty channel; it sees
        // `alive == false` and exits rather than leaking.
        let _ = slot.tx.try_send(ReplMsg::Ping { epoch: 0 });
        {
            let mut followers = lock(&self.followers);
            followers.retain(|s| !Arc::ptr_eq(s, &slot));
            self.metrics.follower_connected.set(
                followers
                    .iter()
                    .filter(|s| s.alive.load(Ordering::SeqCst))
                    .count() as i64,
            );
        }
        self.ack_signal.notify_all();
        drop(writer_handle);
        read_result
    }

    fn stream_to_follower(
        &self,
        writer: &mut BufWriter<TcpStream>,
        slot: &FollowerSlot,
        rx: Receiver<ReplMsg>,
        snapshot_mode: bool,
        wanted: &[u64],
        joined: &[u64],
    ) -> io::Result<()> {
        if snapshot_mode {
            let server = lock(&self.server)
                .clone()
                .ok_or_else(|| io::Error::other("hub has no server"))?;
            for entry in server.export_entries() {
                let shard = route_key(&entry)
                    .map(|k| shard_of(k, self.shards))
                    .unwrap_or(0);
                write_repl_msg(
                    writer,
                    &ReplMsg::SnapEntry {
                        shard,
                        bytes: entry.encode(),
                    },
                )?;
            }
            for (shard, &upto) in joined.iter().enumerate() {
                write_repl_msg(writer, &ReplMsg::SnapDone { shard, upto })?;
            }
        } else {
            for shard in 0..self.shards {
                let wal = lock(&self.logs[shard]);
                for rec in wal.replay() {
                    let (seq, bytes) = rec?;
                    if seq >= wanted[shard] && seq < joined[shard] {
                        write_repl_msg(writer, &ReplMsg::Entry { shard, seq, bytes })?;
                    }
                }
            }
        }
        writer.flush()?;
        while slot.alive.load(Ordering::SeqCst) {
            match rx.recv() {
                Ok(msg) => {
                    write_repl_msg(writer, &msg)?;
                    self.metrics.shipped.inc();
                }
                Err(_) => break,
            }
        }
        Ok(())
    }

    fn read_from_follower(
        self: &Arc<Self>,
        reader: &mut BufReader<TcpStream>,
        slot: &Arc<FollowerSlot>,
    ) -> io::Result<()> {
        loop {
            match read_repl_msg(reader)? {
                Some(ReplMsg::Commit { shard, upto }) if shard < self.shards => {
                    slot.acked[shard].fetch_max(upto, Ordering::SeqCst);
                    self.ack_signal.notify_all();
                    self.update_lag();
                }
                Some(ReplMsg::Gossip { node, epoch, model }) => {
                    let entries: Vec<ReplMsg> = {
                        let mut gossip = lock(&self.gossip);
                        gossip.absorb(&node, epoch, &model);
                        if let Some(server) = lock(&self.server).clone() {
                            gossip.record_own(&server.model_contribution());
                        }
                        gossip
                            .entries()
                            .map(|(n, e, m)| ReplMsg::Gossip {
                                node: n.to_string(),
                                epoch: e,
                                model: m.to_string(),
                            })
                            .collect()
                    };
                    // Relay the full view back so followers learn every
                    // peer's contribution through the leader.
                    for msg in entries {
                        if slot.tx.try_send(msg).is_err() {
                            break;
                        }
                    }
                }
                Some(ReplMsg::Ping { .. }) => {}
                Some(other) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected follower message {other:?}"),
                    ))
                }
                None => return Ok(()),
            }
        }
    }
}

impl ReplicationSink for ReplHub {
    fn replicate(&self, entry: &WalEntry) -> io::Result<()> {
        if !self.leading() {
            return Ok(());
        }
        let Some(key) = route_key(entry) else {
            return Ok(());
        };
        let shard = shard_of(key, self.shards);
        let bytes = entry.encode();
        let seq;
        {
            let mut wal = lock(&self.logs[shard]);
            seq = wal.append(&bytes)?;
            self.next_seq[shard].store(wal.next_lsn(), Ordering::SeqCst);
            // Fan out under the log lock: per-shard sequence order on
            // every follower channel matches append order, gap-free.
            self.fan_out(&ReplMsg::Entry { shard, seq, bytes });
        }
        self.update_lag();
        if self.config.ack == AckMode::Quorum {
            self.wait_quorum(shard, seq);
        }
        Ok(())
    }
}

/// The replication routing key of an entry — the same key its store
/// shard routes by. `Model` entries return `None`: model state travels
/// by gossip, not by shipping.
pub fn route_key(entry: &WalEntry) -> Option<&str> {
    match entry {
        WalEntry::Batch { client, .. } => Some(client),
        WalEntry::Result(rec) => Some(rec.client.as_str()),
        WalEntry::Client { id, .. } => Some(id),
        WalEntry::Testcase(tc) => Some(tc.id.as_str()),
        WalEntry::Model(_) => None,
    }
}
