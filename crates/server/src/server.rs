//! The server's message handler and registry, over sharded stores.
//!
//! Requests route to a shard by a stable hash of their key (client id,
//! testcase id — see [`crate::shard`]), so unrelated clients never
//! contend on a lock. With group commit enabled
//! ([`UucsServer::with_group_commit`]) the durable verbs split into two
//! halves: [`UucsServer::handle_deferred`] appends under the shard lock
//! and returns a [`CommitTicket`] alongside the provisional reply, and
//! the caller redeems the ticket (blocking [`GroupCommitter::wait`] in
//! `Endpoint::handle`, nonblocking `poll` in the worker-pool front end)
//! before the client sees the ack — preserving the invariant that an
//! `Ack` means "journaled on stable storage".

use crate::commit::{CommitTicket, GroupCommitter, StoreFlavor};
use crate::disk::DiskScheduler;
use crate::models::{observations_of, ModelStore};
use crate::shard::{Sharded, StoreSet};
use crate::store::{BatchStatus, RegistryStore, ResultStore, StoreError, TestcaseStore};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use uucs_modelsvc::{ComfortModel, QuantileSketch};
use uucs_protocol::wire::Endpoint;
use uucs_protocol::{ClientMsg, MachineSnapshot, ServerMsg, WalEntry, WIRE_VERSION_BINARY};
use uucs_stats::Pcg64;
use uucs_wal::crc::crc32;
use uucs_telemetry::{metrics, Counter, Gauge, Histogram};
use uucs_testcase::format as tcformat;

/// Pre-registered telemetry handles for one wire verb: request count,
/// error count, handling-latency histogram. Registered once at first
/// request so the per-request cost is three atomic ops, not a registry
/// lookup.
struct VerbMetrics {
    count: Counter,
    errors: Counter,
    ns: Histogram,
}

impl VerbMetrics {
    fn new(verb: &str) -> Self {
        VerbMetrics {
            count: metrics::counter(&format!("server.verb.{verb}.count")),
            errors: metrics::counter(&format!("server.verb.{verb}.errors")),
            ns: metrics::histogram(&format!("server.verb.{verb}.ns")),
        }
    }
}

struct ServerMetrics {
    hello: VerbMetrics,
    register: VerbMetrics,
    sync: VerbMetrics,
    upload: VerbMetrics,
    model: VerbMetrics,
    modeldelta: VerbMetrics,
    advice: VerbMetrics,
    stats: VerbMetrics,
    bye: VerbMetrics,
}

fn server_metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServerMetrics {
        hello: VerbMetrics::new("hello"),
        register: VerbMetrics::new("register"),
        sync: VerbMetrics::new("sync"),
        upload: VerbMetrics::new("upload"),
        model: VerbMetrics::new("model"),
        modeldelta: VerbMetrics::new("modeldelta"),
        advice: VerbMetrics::new("advice"),
        stats: VerbMetrics::new("stats"),
        bye: VerbMetrics::new("bye"),
    })
}

/// Telemetry for the epoch-delta model-sync path: how many `MODELDELTA`
/// queries were answered with a delta vs. fell back to the full sketch.
struct DeltaMetrics {
    served: Counter,
    fallback: Counter,
}

fn delta_metrics() -> &'static DeltaMetrics {
    static METRICS: OnceLock<DeltaMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DeltaMetrics {
        served: metrics::counter("server.model.delta.served"),
        fallback: metrics::counter("server.model.delta.fallback"),
    })
}

/// How many past merged-sketch snapshots the server retains per
/// `(resource, task)` query key for answering `MODELDELTA`. A client
/// more than this many *distinct served epochs* behind simply gets the
/// full sketch — correctness never depends on retention.
const DELTA_HISTORY: usize = 8;

/// One retained merged-sketch snapshot: the epoch it was served at, the
/// CRC32 of its encoded text (what clients echo as `basecrc`), and the
/// encoded text itself (decoded lazily — only a delta request pays).
struct DeltaSnap {
    epoch: u64,
    crc: u32,
    encoded: String,
}

/// The `MODELDELTA` base-history map: newest-first retained snapshots
/// per (resource name, task filter) query key.
type DeltaHistory = HashMap<(&'static str, Option<String>), VecDeque<DeltaSnap>>;

/// Per-shard occupancy gauges, pre-registered so the hot paths pay one
/// atomic store. `server.shard.results.<i>.records` and
/// `server.shard.registry.<i>.clients`.
struct ShardGauges {
    results: Vec<Gauge>,
    registry: Vec<Gauge>,
}

impl ShardGauges {
    fn new(stores: &StoreSet) -> Self {
        let results: Vec<Gauge> = (0..stores.results.count())
            .map(|i| metrics::gauge(&format!("server.shard.results.{i}.records")))
            .collect();
        let registry: Vec<Gauge> = (0..stores.registry.count())
            .map(|i| metrics::gauge(&format!("server.shard.registry.{i}.clients")))
            .collect();
        for (i, g) in results.iter().enumerate() {
            g.set(stores.results.read(i).len() as i64);
        }
        for (i, g) in registry.iter().enumerate() {
            g.set(stores.registry.read(i).len() as i64);
        }
        ShardGauges { results, registry }
    }
}

/// The error a mutating verb reports when its shard's lock was poisoned
/// by an earlier panic. The shard has already healed for the next
/// request (see [`Sharded::try_write`]).
fn poisoned(what: &str) -> ServerMsg {
    ServerMsg::Error(format!(
        "internal: {what} store was poisoned by an earlier panic; recovered, retry"
    ))
}

/// One model query merged across every model shard, with the epoch sum,
/// both from one set of read guards so they describe the same instant.
/// Sketch merges are exact, so sharding is invisible here.
fn merge_shards(
    guards: &[RwLockReadGuard<'_, ModelStore>],
    resource: uucs_testcase::Resource,
    task: Option<&str>,
) -> (u64, QuantileSketch) {
    let mut merged = QuantileSketch::for_resource(resource);
    for g in guards {
        merged
            .merge(&g.merged_sketch(resource, task))
            .expect("shard sketches of one resource share a config");
    }
    (guards.iter().map(|g| g.epoch()).sum(), merged)
}

/// Where a leader ships every committed mutation. Implemented by the
/// cluster tier's replication hub; the server stays ignorant of wire
/// details and ack policy — under `--repl-ack=quorum` the sink blocks
/// until a follower acknowledged the entry, under `local` it returns as
/// soon as the entry is queued.
///
/// The sink is invoked *after* the local store accepted the mutation
/// but *before* the client's ack. Shipping ahead of the local fsync is
/// safe: if the leader dies in the gap, the follower holds an entry the
/// client was never acked — the client retries with the same sequence
/// number and the per-client horizon dedups it, so exactly-once holds.
pub trait ReplicationSink: Send + Sync {
    /// Ships one entry; an `Err` under quorum ack fails the client op.
    fn replicate(&self, entry: &WalEntry) -> std::io::Result<()>;
}

/// The UUCS server state. Thread-safe: the TCP front end shares one
/// instance across connections; each verb locks only the one shard its
/// key routes to.
pub struct UucsServer {
    stores: Arc<StoreSet>,
    /// Group-commit coordinator (None = the stores fsync per their own
    /// `SyncPolicy`, as before).
    committer: Option<Arc<GroupCommitter>>,
    commit_thread: Option<JoinHandle<()>>,
    /// Dedicated disk-I/O thread pool: when present, the group
    /// committer fans its per-shard fsyncs out here and segment
    /// rotations defer their fsync to the next commit pass.
    io_scheduler: Option<Arc<DiskScheduler>>,
    /// When false, the `UPLOAD` path skips comfort-model updates (the
    /// `MODEL`/`ADVICE` verbs then serve a frozen — typically empty —
    /// model). Benchmarks use this to isolate the update cost.
    model_updates: bool,
    /// Seed for the per-client sampling permutations.
    sample_seed: u64,
    /// Last assigned client-id number; ids are globally unique across
    /// shards, so assignment is a global atomic, not a per-shard count.
    next_client: AtomicU64,
    /// Serializes registrations: token dedup must scan every shard
    /// before a new id is minted, and two concurrent registrations with
    /// the same token must not both mint.
    reg_lock: Mutex<()>,
    shard_gauges: ShardGauges,
    /// Committed mutations are mirrored here when the node leads a
    /// replication tier (see [`ReplicationSink`]). Set once, after
    /// construction — the sink (the cluster hub) is built around the
    /// server, so it cannot exist at constructor time.
    replication: OnceLock<Arc<dyn ReplicationSink>>,
    /// A follower's engine: mutating verbs (`REGISTER`, `UPLOAD`) are
    /// refused with a retryable error while reads (`SYNC`, `MODEL`,
    /// `ADVICE`, `STATS`) keep serving — degraded advice is acceptable,
    /// divergent writes are not. Flipped off at promotion.
    read_only: AtomicBool,
    /// Recent merged-sketch snapshots per `(resource name, task)` query
    /// key, newest first — the bases `MODELDELTA` can diff against. A
    /// snapshot is recorded whenever a model query serves a new epoch,
    /// so any epoch a client *could* hold came through here. Empty on a
    /// freshly promoted follower, which makes every skewed delta
    /// request fall back to the full sketch — the safe answer.
    delta_history: Mutex<DeltaHistory>,
}

impl UucsServer {
    /// Creates a server around a testcase library, with a fresh
    /// non-durable result store.
    pub fn new(testcases: TestcaseStore, sample_seed: u64) -> Self {
        Self::with_stores(testcases, ResultStore::new(), sample_seed)
    }

    /// Creates a server around explicit testcase/result stores with a
    /// fresh in-memory registry — the entry point for WAL-backed
    /// durability of the data stores, where every accepted mutation is
    /// journaled before it is acknowledged.
    pub fn with_stores(testcases: TestcaseStore, results: ResultStore, sample_seed: u64) -> Self {
        Self::with_all_stores(testcases, results, RegistryStore::new(), sample_seed)
    }

    /// Creates a server around all three stores, including a (typically
    /// WAL-recovered) client registry, so a restarted server still
    /// recognizes every id it handed out and every client's upload
    /// dedup horizon. Single-shard: the legacy layout.
    pub fn with_all_stores(
        testcases: TestcaseStore,
        results: ResultStore,
        registry: RegistryStore,
        sample_seed: u64,
    ) -> Self {
        Self::with_store_set(
            StoreSet::from_single(testcases, results, registry, ModelStore::new()),
            sample_seed,
        )
    }

    /// Creates a server over an explicit (typically sharded, see
    /// [`StoreSet::open`]) store set.
    pub fn with_store_set(stores: StoreSet, sample_seed: u64) -> Self {
        let stores = Arc::new(stores);
        let mut max_id = 0u64;
        for i in 0..stores.registry.count() {
            for (id, _) in stores.registry.read(i).all() {
                if let Some(n) = id.strip_prefix("client-").and_then(|s| s.parse::<u64>().ok()) {
                    max_id = max_id.max(n);
                }
            }
        }
        let shard_gauges = ShardGauges::new(&stores);
        UucsServer {
            stores,
            committer: None,
            commit_thread: None,
            io_scheduler: None,
            model_updates: true,
            sample_seed,
            next_client: AtomicU64::new(max_id),
            reg_lock: Mutex::new(()),
            shard_gauges,
            replication: OnceLock::new(),
            read_only: AtomicBool::new(false),
            delta_history: Mutex::new(HashMap::new()),
        }
    }

    /// Mirrors every committed mutation into `sink` from now on — the
    /// leader side of the replication tier. One-shot: a second call is
    /// ignored (the first sink stays wired).
    pub fn set_replication(&self, sink: Arc<dyn ReplicationSink>) {
        let _ = self.replication.set(sink);
    }

    /// Switches the mutating verbs on (`false`, a leader) or off
    /// (`true`, a follower). Takes effect for the next request.
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::SeqCst);
    }

    /// Whether mutating verbs are currently refused (follower mode).
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Replaces the comfort-model store — the entry point for WAL-backed
    /// model durability, paired with the data stores' `open_wal`. Must
    /// run before [`UucsServer::with_group_commit`] (the committer
    /// captures the store set).
    pub fn with_model_store(mut self, models: ModelStore) -> Self {
        let set = Arc::get_mut(&mut self.stores)
            .expect("install the model store before starting group commit");
        set.models = Sharded::new(vec![models]);
        self
    }

    /// Disables comfort-model updates on the `UPLOAD` path. The model
    /// verbs keep answering from whatever model the server holds; used
    /// by benchmarks to measure the upload path with aggregation off.
    pub fn without_model_updates(mut self) -> Self {
        self.model_updates = false;
        self
    }

    /// Starts the group-commit thread: store WALs should then run at
    /// `SyncPolicy::Never`, and every durable verb's ack waits for the
    /// committer's batched fsync instead of paying its own. `interval`
    /// is the gathering window per fsync pass.
    pub fn with_group_commit(mut self, interval: Duration) -> Self {
        let (committer, handle) = GroupCommitter::start_with(
            self.stores.clone(),
            interval,
            self.io_scheduler.clone(),
        );
        self.committer = Some(committer);
        self.commit_thread = Some(handle);
        self
    }

    /// Installs the disk-scheduler thread pool (see
    /// [`crate::disk::StorageProfile::scheduler`]). Must run before
    /// [`UucsServer::with_group_commit`]: the committer captures it,
    /// fans per-shard fsyncs out to its threads, and store WALs defer
    /// segment-rotation fsyncs to the committer's passes.
    pub fn with_io_scheduler(mut self, scheduler: Arc<DiskScheduler>) -> Self {
        self.io_scheduler = Some(scheduler);
        self
    }

    /// The group-commit coordinator, when enabled — the worker-pool
    /// front end polls it to finish deferred acks without blocking.
    pub fn group_committer(&self) -> Option<Arc<GroupCommitter>> {
        self.committer.clone()
    }

    /// The store shard count (all families open with the same count).
    pub fn shard_count(&self) -> usize {
        self.stores.results.count()
    }

    /// The comfort model's current epoch: the sum over shards (each
    /// shard mints its own epochs; only the sum — still monotone — is
    /// client-visible).
    pub fn model_epoch(&self) -> u64 {
        self.stores.models.sum(|m| m.epoch())
    }

    /// The merged comfort-model sketch for a resource (optionally one
    /// task) — offline analysis and test cross-checks. Merges across
    /// shards; sketch merges are exact, so sharding is invisible here.
    pub fn model_sketch(
        &self,
        resource: uucs_testcase::Resource,
        task: Option<&str>,
    ) -> QuantileSketch {
        merge_shards(&self.stores.models.read_all(), resource, task).1
    }

    /// Adds a testcase to the library at runtime ("new testcases ... can
    /// be added to the server at any time"). Rejects duplicates; with a
    /// WAL-backed store the addition is durable once this returns `Ok`
    /// (under group commit, this waits for the covering fsync).
    pub fn add_testcase(&self, tc: uucs_testcase::Testcase) -> Result<(), StoreError> {
        let shard = self.stores.testcases.shard_for(tc.id.as_str());
        let mut guard = self.stores.testcases.write_recovered(shard);
        let shipped = self.replication.get().map(|_| tc.clone());
        guard.add(tc)?;
        let lsn = guard.wal_next_lsn();
        drop(guard);
        if let Some(tc) = shipped {
            self.replicate(|| WalEntry::Testcase(tc))?;
        }
        if let Some(ticket) = self.ticket(StoreFlavor::Testcases, shard, lsn) {
            self.committer
                .as_ref()
                .expect("ticket implies committer")
                .wait(ticket)
                .map_err(|e| StoreError::Io(crate::store::invalid(e)))?;
        }
        Ok(())
    }

    /// Folds every store's journal into a checkpoint and drops the
    /// covered segments. A no-op (returning `false`) for plain stores.
    pub fn compact(&self) -> std::io::Result<bool> {
        self.stores.compact()
    }

    /// Number of testcases in the library.
    pub fn testcase_count(&self) -> usize {
        self.stores.testcases.sum(|s| s.len())
    }

    /// Number of uploaded result records.
    pub fn result_count(&self) -> usize {
        self.stores.results.sum(|s| s.len())
    }

    /// Snapshot of all uploaded results (cloned), shard order.
    pub fn results(&self) -> Vec<uucs_protocol::RunRecord> {
        let mut out = Vec::new();
        for g in self.stores.results.read_all() {
            out.extend(g.all().iter().cloned());
        }
        out
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.stores.registry.sum(|s| s.len())
    }

    /// The registered snapshot for a client id.
    pub fn snapshot_of(&self, client: &str) -> Option<MachineSnapshot> {
        let shard = self.stores.registry.shard_for(client);
        self.stores.registry.read(shard).get(client).cloned()
    }

    /// The highest upload batch sequence number applied for a client.
    pub fn applied_seq(&self, client: &str) -> u64 {
        let shard = self.stores.results.shard_for(client);
        self.stores.results.read(shard).applied_seq(client)
    }

    /// Saves the merged stores under a directory (`testcases.txt`,
    /// `results.txt`) — the paper's whole-file text checkpoints.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut tcs = Vec::new();
        for g in self.stores.testcases.read_all() {
            tcs.extend(g.all().iter().cloned());
        }
        std::fs::write(dir.join("testcases.txt"), tcformat::emit_many(&tcs))?;
        let mut recs = Vec::new();
        for g in self.stores.results.read_all() {
            recs.extend(g.all().iter().cloned());
        }
        std::fs::write(
            dir.join("results.txt"),
            uucs_protocol::RunRecord::emit_many(&recs),
        )
    }

    /// Applies one replicated WAL entry into this node's own stores —
    /// the follower half of WAL shipping. Idempotent: a re-delivered
    /// entry (reconnect overlap, snapshot-then-tail seam) is absorbed
    /// without a second copy, so the stream only has to be at-least-once.
    ///
    /// Comfort-model state is deliberately *not* minted here: the model
    /// converges through gossip of each node's own contribution, and
    /// folding replicated batches locally would double-count them after
    /// a promotion. `Model` entries are ignored for the same reason.
    pub fn apply_entry(&self, entry: &WalEntry) -> std::io::Result<()> {
        match entry {
            WalEntry::Testcase(tc) => {
                let shard = self.stores.testcases.shard_for(tc.id.as_str());
                let mut guard = self.stores.testcases.write_recovered(shard);
                if guard.get(tc.id.as_str()).is_none() {
                    guard.add(tc.clone())?;
                }
                Ok(())
            }
            WalEntry::Client {
                id,
                token,
                snapshot,
            } => {
                let _serial = self.reg_lock.lock().unwrap_or_else(PoisonError::into_inner);
                let shard = self.stores.registry.shard_for(id);
                let mut reg = self.stores.registry.write_recovered(shard);
                if reg.get(id).is_none() {
                    reg.register_with_id(id.clone(), snapshot.clone(), token)?;
                    let len = reg.len();
                    drop(reg);
                    self.shard_gauges.registry[shard].set(len as i64);
                    // Keep the id counter ahead of every replicated id so
                    // a promoted follower never re-mints one.
                    if let Some(n) = id.strip_prefix("client-").and_then(|s| s.parse().ok()) {
                        self.next_client.fetch_max(n, Ordering::SeqCst);
                    }
                }
                Ok(())
            }
            WalEntry::Batch {
                client,
                seq,
                records,
            } => {
                let shard = self.stores.results.shard_for(client);
                let mut results = self.stores.results.write_recovered(shard);
                results.append_batch(client, *seq, records.clone())?;
                let len = results.len();
                drop(results);
                self.shard_gauges.results[shard].set(len as i64);
                Ok(())
            }
            WalEntry::Result(rec) => {
                let shard = self.stores.results.shard_for(rec.client.as_str());
                self.stores
                    .results
                    .write_recovered(shard)
                    .append(vec![rec.clone()])?;
                Ok(())
            }
            WalEntry::Model(_) => Ok(()),
        }
    }

    /// Applies one entry of a *snapshot* backfill stream. Snapshot
    /// `Batch` entries are synthetic — the client's full record set at
    /// its current sequence horizon — so a follower holding partial
    /// state (it was tailing the old leader before the seam) must
    /// absorb them record-by-record: each record it already holds for
    /// that client absorbs one equal snapshot record, the rest append,
    /// and the horizon jumps to the snapshot's sequence. All other
    /// entries apply as in [`UucsServer::apply_entry`].
    pub fn apply_snapshot_entry(&self, entry: &WalEntry) -> std::io::Result<()> {
        let WalEntry::Batch {
            client,
            seq,
            records,
        } = entry
        else {
            return self.apply_entry(entry);
        };
        let shard = self.stores.results.shard_for(client);
        let mut results = self.stores.results.write_recovered(shard);
        if results.applied_seq(client) >= *seq {
            return Ok(());
        }
        // Multiset difference against this client's own records, so
        // repeated records keep every copy. The held records are usually
        // a prefix of the snapshot's: matches come off the front, O(1).
        let mut held: VecDeque<_> = results
            .all()
            .iter()
            .filter(|r| r.client == *client)
            .collect();
        let fresh: Vec<_> = records
            .iter()
            .filter(|r| match held.iter().position(|h| h == r) {
                Some(i) => {
                    held.remove(i);
                    false
                }
                None => true,
            })
            .cloned()
            .collect();
        results.append_batch(client, *seq, fresh)?;
        let len = results.len();
        drop(results);
        self.shard_gauges.results[shard].set(len as i64);
        Ok(())
    }

    /// Folds the current store state into a stream of self-contained
    /// WAL entries — the backfill snapshot a leader sends a follower
    /// whose watermark predates the retained replication log. One
    /// `Client` entry per registration (token included, so the promoted
    /// follower honors re-registrations), then one synthetic `Batch`
    /// per client at its current applied sequence carrying all its
    /// records — applying it installs both the records and the upload
    /// dedup horizon in one step — then every `Testcase`.
    pub fn export_entries(&self) -> Vec<WalEntry> {
        let mut out = Vec::new();
        let mut clients = Vec::new();
        for i in 0..self.stores.registry.count() {
            let reg = self.stores.registry.read(i);
            for (id, snapshot) in reg.all() {
                let token = reg.token_of(id).unwrap_or("").to_string();
                out.push(WalEntry::Client {
                    id: id.clone(),
                    token,
                    snapshot: snapshot.clone(),
                });
                clients.push(id.clone());
            }
        }
        for id in clients {
            let shard = self.stores.results.shard_for(&id);
            let results = self.stores.results.read(shard);
            let seq = results.applied_seq(&id);
            let records: Vec<_> = results
                .all()
                .iter()
                .filter(|r| r.client == id)
                .cloned()
                .collect();
            if seq > 0 || !records.is_empty() {
                out.push(WalEntry::Batch {
                    client: id,
                    seq: seq.max(1),
                    records,
                });
            }
        }
        for g in self.stores.testcases.read_all() {
            for tc in g.all() {
                out.push(WalEntry::Testcase(tc.clone()));
            }
        }
        out
    }

    /// This node's own comfort-model contribution for gossip: the fold
    /// of its model shards (epochs summed, cohorts merged per key).
    /// Deterministic — `BTreeMap` ordering makes the encode canonical.
    pub fn model_contribution(&self) -> ComfortModel {
        let guards = self.stores.models.read_all();
        ComfortModel::fold(guards.iter().map(|g| g.model().clone()))
            .expect("cohort sketches of one key share a config")
    }

    /// Installs a merged cluster-wide comfort model (shard 0; the other
    /// shards stay empty — [`UucsServer::model_epoch`] sums, so the
    /// installed epoch is the one clients see). The promotion path:
    /// a follower never minted local model state, so this replaces
    /// nothing.
    pub fn install_model(&self, model: ComfortModel) -> std::io::Result<()> {
        self.stores.models.write_recovered(0).install_model(model)
    }

    /// The client-specific random order of the library. Deterministic per
    /// (server seed, client id), so each sync extends the client's sample
    /// without duplicates — the paper's "growing random sample". The
    /// global order is the concatenation of the shards in index order.
    fn client_order(&self, client: &str, total: usize) -> Vec<usize> {
        let mut rng = Pcg64::new(self.sample_seed).split_str(client);
        let mut idx: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut idx);
        idx
    }

    /// Registers a durability request with the committer, when one is
    /// running and the store is WAL-backed.
    fn ticket(&self, flavor: StoreFlavor, shard: usize, lsn: Option<u64>) -> Option<CommitTicket> {
        match (&self.committer, lsn) {
            (Some(c), Some(upto)) => Some(c.submit(flavor, shard, upto)),
            _ => None,
        }
    }

    /// Handles one message up to (but not including) the durability
    /// wait: the reply is provisional until the returned ticket — if
    /// any — is redeemed against the committer. The worker-pool front
    /// end uses this to keep a worker serving other connections while
    /// an fsync is in flight; [`Endpoint::handle`] wraps it with a
    /// blocking wait. Verb telemetry is recorded here (the appended
    /// latency excludes the commit wait, which `server.commit.ns`
    /// covers separately).
    pub fn handle_deferred(&self, msg: &ClientMsg) -> (ServerMsg, Option<CommitTicket>) {
        let verb = match msg {
            ClientMsg::Hello { .. } => &server_metrics().hello,
            ClientMsg::Register { .. } => &server_metrics().register,
            ClientMsg::Sync { .. } => &server_metrics().sync,
            ClientMsg::Upload { .. } => &server_metrics().upload,
            ClientMsg::Model { .. } => &server_metrics().model,
            ClientMsg::ModelDelta { .. } => &server_metrics().modeldelta,
            ClientMsg::Advice { .. } => &server_metrics().advice,
            ClientMsg::Stats { .. } => &server_metrics().stats,
            ClientMsg::Bye => &server_metrics().bye,
        };
        verb.count.inc();
        let timer = verb.ns.start_timer();
        let (reply, ticket) = self.handle_inner(msg);
        drop(timer);
        if matches!(reply, ServerMsg::Error(_)) {
            verb.errors.inc();
        }
        (reply, ticket)
    }

    /// Mirrors one committed mutation to the replication sink, if any;
    /// the entry is built only when a sink is installed. Under quorum
    /// ack the error propagates so the client is *not* acked for an
    /// entry no follower holds.
    fn replicate(&self, entry: impl FnOnce() -> WalEntry) -> std::io::Result<()> {
        match self.replication.get() {
            Some(sink) => sink.replicate(&entry()),
            None => Ok(()),
        }
    }

    fn handle_inner(&self, msg: &ClientMsg) -> (ServerMsg, Option<CommitTicket>) {
        if self.is_read_only()
            && matches!(msg, ClientMsg::Register { .. } | ClientMsg::Upload { .. })
        {
            // Same wording every follower uses: clients classify this as
            // a retryable server-side refusal and fail over to the next
            // address in their list.
            return (
                ServerMsg::Error("not leader: node is read-only (try another server)".into()),
                None,
            );
        }
        match msg {
            ClientMsg::Hello { version } => {
                // Version negotiation: agree to the highest version both
                // sides speak. The *reply* is all this verb does — the
                // framing switch (when the agreed version is binary) is
                // the transport front end's job, keyed off this reply.
                let agreed = (*version).min(WIRE_VERSION_BINARY);
                (ServerMsg::Hello { version: agreed }, None)
            }
            ClientMsg::Register { snapshot, token } => self.handle_register(snapshot, token),
            ClientMsg::Sync { client, have, want } => {
                if self.snapshot_of(client).is_none() {
                    return (
                        ServerMsg::Error(format!("unregistered client {client}")),
                        None,
                    );
                }
                // One consistent view across shards: all read guards in
                // index order. Writers take one shard lock at a time, so
                // this cannot deadlock against them.
                let guards = self.stores.testcases.read_all();
                let total: usize = guards.iter().map(|g| g.len()).sum();
                let order = self.client_order(client, total);
                let mut slice = Vec::new();
                for &global in order.iter().skip(*have).take(*want) {
                    let mut idx = global;
                    for g in &guards {
                        if idx < g.len() {
                            slice.push(g.all()[idx].clone());
                            break;
                        }
                        idx -= g.len();
                    }
                }
                (ServerMsg::Testcases(slice), None)
            }
            ClientMsg::Upload {
                client,
                seq,
                records,
            } => self.handle_upload(client, *seq, records),
            ClientMsg::Model { resource, task } => {
                let (epoch, observed, censored, sketch) = if self.stores.models.count() == 1 {
                    self.stores.models.read(0).merged(*resource, task.as_deref())
                } else {
                    let (epoch, merged) =
                        merge_shards(&self.stores.models.read_all(), *resource, task.as_deref());
                    (epoch, merged.observed(), merged.censored(), merged.encode())
                };
                // Remember what this epoch looked like: a client holding
                // this reply may come back with `MODELDELTA <epoch>
                // <crc>` and the diff base has to be byte-identical.
                self.record_delta_base(*resource, task, epoch, &sketch);
                (
                    ServerMsg::Model {
                        epoch,
                        observed,
                        censored,
                        sketch,
                    },
                    None,
                )
            }
            ClientMsg::ModelDelta {
                resource,
                task,
                since,
                basecrc,
            } => (self.handle_model_delta(*resource, task, *since, *basecrc), None),
            ClientMsg::Advice {
                resource,
                task,
                epsilon,
            } => {
                // The task-contextual sketch when it has observations,
                // else the resource aggregate (`ComfortModel::advice`'s
                // preference), each merged across every shard.
                let guards = self.stores.models.read_all();
                let (epoch, mut pick) = merge_shards(&guards, *resource, Some(task));
                if pick.observed() == 0 {
                    pick = merge_shards(&guards, *resource, None).1;
                }
                let reply = match pick.advice_level(*epsilon) {
                    Some(level) => ServerMsg::Advice { epoch, level },
                    None => ServerMsg::Error(format!(
                        "no comfort model for {resource} yet (no observations uploaded)"
                    )),
                };
                (reply, None)
            }
            ClientMsg::Stats { reset } => {
                // Snapshot first, then optionally zero: `STATS RESET`
                // returns the counts it is about to clear, so no window
                // is ever unobservable.
                let json = metrics::snapshot_json();
                if *reset {
                    metrics::reset();
                }
                (ServerMsg::Stats(json), None)
            }
            ClientMsg::Bye => (ServerMsg::Ack(0), None),
        }
    }

    /// Retains the sketch a model query just served, so a later
    /// `MODELDELTA <epoch> <crc>` can diff against the byte-identical
    /// base. Newest first, capped at [`DELTA_HISTORY`]; same-epoch
    /// re-queries are absorbed by the front check.
    fn record_delta_base(
        &self,
        resource: uucs_testcase::Resource,
        task: &Option<String>,
        epoch: u64,
        encoded: &str,
    ) {
        let mut hist = self
            .delta_history
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let q = hist.entry((resource.name(), task.clone())).or_default();
        if q.front().map(|s| s.epoch) == Some(epoch) {
            return;
        }
        q.push_front(DeltaSnap {
            epoch,
            crc: crc32(encoded.as_bytes()),
            encoded: encoded.to_string(),
        });
        q.truncate(DELTA_HISTORY);
    }

    /// Answers a `MODELDELTA` query: the delta from the client's cached
    /// epoch when the server can prove (by CRC over the encoded base)
    /// that it still holds that exact base, else the full sketch. The
    /// CRC guard is what makes post-failover epoch collisions safe: a
    /// promoted leader whose epoch numbering diverged simply fails the
    /// match and full-syncs the client.
    fn handle_model_delta(
        &self,
        resource: uucs_testcase::Resource,
        task: &Option<String>,
        since: u64,
        basecrc: u32,
    ) -> ServerMsg {
        let (epoch, merged) =
            merge_shards(&self.stores.models.read_all(), resource, task.as_deref());
        let encoded = merged.encode();
        self.record_delta_base(resource, task, epoch, &encoded);
        if let Some(delta) = self.delta_against(resource, task, since, basecrc, epoch, &merged, &encoded)
        {
            delta_metrics().served.inc();
            return ServerMsg::ModelDelta {
                epoch,
                since,
                delta,
            };
        }
        delta_metrics().fallback.inc();
        ServerMsg::Model {
            epoch,
            observed: merged.observed(),
            censored: merged.censored(),
            sketch: encoded,
        }
    }

    /// The encoded delta from the client's base to `merged`, or `None`
    /// when only a full sync is safe: unknown/skewed base, CRC
    /// mismatch, non-ancestor sketch, or a delta that would not
    /// actually be smaller than the full sketch.
    #[allow(clippy::too_many_arguments)]
    fn delta_against(
        &self,
        resource: uucs_testcase::Resource,
        task: &Option<String>,
        since: u64,
        basecrc: u32,
        epoch: u64,
        merged: &QuantileSketch,
        encoded: &str,
    ) -> Option<String> {
        if since == epoch {
            // Client is current; confirm byte identity, then a noop
            // delta tells it so without resending anything.
            if crc32(encoded.as_bytes()) != basecrc {
                return None;
            }
            return merged.delta_since(merged).ok().map(|d| d.encode());
        }
        if since > epoch {
            // The client negotiated with a differently-numbered leader
            // (failover skew); its base means nothing here.
            return None;
        }
        let hist = self
            .delta_history
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let snap = hist
            .get(&(resource.name(), task.clone()))?
            .iter()
            .find(|s| s.epoch == since && s.crc == basecrc)?;
        let base = QuantileSketch::decode(&snap.encoded).ok()?;
        drop(hist);
        let text = merged.delta_since(&base).ok()?.encode();
        // A delta carrying nearly every bin is a full sync in disguise;
        // send the real thing so the client also refreshes its base.
        if text.len() >= encoded.len() {
            return None;
        }
        Some(text)
    }

    fn handle_register(
        &self,
        snapshot: &MachineSnapshot,
        token: &str,
    ) -> (ServerMsg, Option<CommitTicket>) {
        // Registration is globally serialized: the token scan must see
        // every in-flight registration, and the id counter must only
        // advance for registrations that go on to insert.
        let _serial = self.reg_lock.lock().unwrap_or_else(PoisonError::into_inner);
        if !token.is_empty() {
            // Token-matched re-registration: same identity, and the
            // upload dedup horizon it must resume above — a client
            // whose local store (and batch counter) was wiped would
            // otherwise restart at seq 1, at or below the horizon, and
            // have its new batches ACKed as replays without being
            // stored.
            for i in 0..self.stores.registry.count() {
                let hit = self
                    .stores
                    .registry
                    .read(i)
                    .id_for_token(token)
                    .map(str::to_string);
                if let Some(id) = hit {
                    let applied_seq = self.applied_seq(&id);
                    return (ServerMsg::Id { id, applied_seq }, None);
                }
            }
        }
        let n = self.next_client.fetch_add(1, Ordering::SeqCst) + 1;
        let id = format!("client-{n:04}");
        let shard = self.stores.registry.shard_for(&id);
        let mut reg = match self.stores.registry.try_write(shard) {
            Ok(guard) => guard,
            Err(_) => return (poisoned("registry"), None),
        };
        match reg.register_with_id(id.clone(), snapshot.clone(), token) {
            Ok(()) => {
                let lsn = reg.wal_next_lsn();
                let len = reg.len();
                drop(reg);
                self.shard_gauges.registry[shard].set(len as i64);
                if let Err(e) = self.replicate(|| WalEntry::Client {
                    id: id.clone(),
                    token: token.to_string(),
                    snapshot: snapshot.clone(),
                }) {
                    return (ServerMsg::Error(format!("replication failed: {e}")), None);
                }
                let applied_seq = self.applied_seq(&id);
                let ticket = self.ticket(StoreFlavor::Registry, shard, lsn);
                (ServerMsg::Id { id, applied_seq }, ticket)
            }
            Err(e) => (
                ServerMsg::Error(format!("registration rejected: {e}")),
                None,
            ),
        }
    }

    fn handle_upload(
        &self,
        client: &str,
        seq: u64,
        records: &[uucs_protocol::RunRecord],
    ) -> (ServerMsg, Option<CommitTicket>) {
        if self.snapshot_of(client).is_none() {
            return (
                ServerMsg::Error(format!("unregistered client {client}")),
                None,
            );
        }
        let shard = self.stores.results.shard_for(client);
        let mut results = match self.stores.results.try_write(shard) {
            Ok(guard) => guard,
            Err(_) => return (poisoned("result"), None),
        };
        // Ack only what the store accepted: with a WAL-backed store an
        // Ack means the records are journaled (and, under group commit,
        // fsynced by the time the ticket is redeemed), so a crash after
        // this reply loses nothing the client was told is safe. A
        // replayed batch (retransmit after a lost Ack) is
        // re-acknowledged without storing a second copy — its ticket
        // carries the *current* watermark, so the re-ack is never less
        // durable than the original.
        match results.append_batch(client, seq, records.to_vec()) {
            Ok(status) => {
                let lsn = results.wal_next_lsn();
                let len = results.len();
                drop(results);
                self.shard_gauges.results[shard].set(len as i64);
                // Fold the batch into the comfort model — only when it
                // was *applied*: a replayed retransmit must not
                // double-count its observations. A model journal failure
                // still acks (the records are the source of truth; the
                // model is derived state) but is counted for the
                // operator. Model appends are not ticketed for the same
                // reason.
                if self.model_updates && matches!(status, BatchStatus::Applied(_)) {
                    let obs = observations_of(records);
                    if !obs.is_empty() {
                        let mshard = self.stores.models.shard_for(client);
                        match self.stores.models.try_write(mshard) {
                            Ok(mut models) => {
                                if models.observe_batch(obs).is_err() {
                                    ModelStore::count_update_error();
                                }
                            }
                            Err(_) => ModelStore::count_update_error(),
                        }
                    }
                }
                // Ship the batch before the ack, and only when it was
                // applied — a replayed retransmit was already shipped
                // the first time around.
                if matches!(status, BatchStatus::Applied(_)) {
                    if let Err(e) = self.replicate(|| WalEntry::Batch {
                        client: client.to_string(),
                        seq,
                        records: records.to_vec(),
                    }) {
                        return (ServerMsg::Error(format!("replication failed: {e}")), None);
                    }
                }
                let ticket = self.ticket(StoreFlavor::Results, shard, lsn);
                (ServerMsg::Ack(status.acked()), ticket)
            }
            Err(e) => (ServerMsg::Error(format!("upload rejected: {e}")), None),
        }
    }
}

impl Drop for UucsServer {
    fn drop(&mut self) {
        if let Some(committer) = &self.committer {
            committer.stop();
        }
        if let Some(handle) = self.commit_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Endpoint for UucsServer {
    /// Handles one message end to end, including the group-commit wait
    /// when the verb journaled something — an `Ack` through this path
    /// is always durable. Both the TCP front end and the in-memory test
    /// transport route through the same deferred core, so telemetry
    /// covers every transport identically.
    fn handle(&self, msg: &ClientMsg) -> ServerMsg {
        let (reply, ticket) = self.handle_deferred(msg);
        if let (Some(ticket), Some(committer)) = (ticket, &self.committer) {
            if let Err(e) = committer.wait(ticket) {
                return ServerMsg::Error(format!("journal commit failed: {e}"));
            }
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_testcase::{ExerciseSpec, Resource, Testcase};

    fn library(n: usize) -> TestcaseStore {
        TestcaseStore::from_testcases(
            (0..n)
                .map(|i| {
                    Testcase::single(
                        format!("tc-{i:03}"),
                        1.0,
                        Resource::Cpu,
                        ExerciseSpec::Ramp {
                            level: 1.0,
                            duration: 10.0,
                        },
                    )
                })
                .collect(),
        )
        .expect("generated ids are unique")
    }

    fn register(s: &UucsServer) -> String {
        match s.handle(&ClientMsg::register(MachineSnapshot::study_machine("h"))) {
            ServerMsg::Id { id, .. } => id,
            other => panic!("expected Id, got {other:?}"),
        }
    }

    /// Snapshot backfill keeps a client's legitimately repeated records:
    /// the leader holds `R` under seq 1 and again under seq 2, the
    /// follower applied only seq 1, and absorbing the leader's snapshot
    /// leaves it both copies and the seq-2 horizon.
    #[test]
    fn snapshot_backfill_keeps_repeated_records() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let leader = UucsServer::new(library(1), 1);
        let follower = UucsServer::new(library(1), 1);
        let id = register(&leader);
        let r = RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        for seq in 1..=2 {
            let upload = ClientMsg::Upload {
                client: id.clone(),
                seq,
                records: vec![r.clone()],
            };
            assert_eq!(leader.handle(&upload), ServerMsg::Ack(1));
        }
        follower
            .apply_entry(&WalEntry::Batch {
                client: id.clone(),
                seq: 1,
                records: vec![r],
            })
            .unwrap();
        for entry in leader.export_entries() {
            follower.apply_snapshot_entry(&entry).unwrap();
        }
        assert_eq!(follower.result_count(), 2);
        assert_eq!(follower.applied_seq(&id), 2);
    }

    #[test]
    fn registration_assigns_unique_ids() {
        let s = UucsServer::new(library(5), 1);
        let a = register(&s);
        let b = register(&s);
        assert_ne!(a, b);
        assert_eq!(s.client_count(), 2);
        assert!(s.snapshot_of(&a).is_some());
        assert!(s.snapshot_of("nope").is_none());
    }

    #[test]
    fn growing_random_sample_never_repeats() {
        let s = UucsServer::new(library(20), 2);
        let id = register(&s);
        let mut seen = Vec::new();
        for have in [0usize, 7, 14] {
            let want = 7.min(20 - have);
            match s.handle(&ClientMsg::Sync {
                client: id.clone(),
                have,
                want,
            }) {
                ServerMsg::Testcases(tcs) => {
                    assert!(tcs.len() <= want);
                    for tc in tcs {
                        assert!(
                            !seen.contains(&tc.id.as_str().to_string()),
                            "duplicate {}",
                            tc.id
                        );
                        seen.push(tc.id.as_str().to_string());
                    }
                }
                other => panic!("expected Testcases, got {other:?}"),
            }
        }
        // 7 + 7 + 6 = the whole 20-testcase library, no repeats.
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn different_clients_get_different_orders() {
        let s = UucsServer::new(library(30), 3);
        let a = register(&s);
        let b = register(&s);
        let get = |id: &str| match s.handle(&ClientMsg::Sync {
            client: id.to_string(),
            have: 0,
            want: 10,
        }) {
            ServerMsg::Testcases(tcs) => tcs.iter().map(|t| t.id.to_string()).collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
        assert_ne!(get(&a), get(&b));
        // But each client's own order is stable.
        assert_eq!(get(&a), get(&a));
    }

    #[test]
    fn sync_past_the_end_returns_empty() {
        let s = UucsServer::new(library(3), 4);
        let id = register(&s);
        match s.handle(&ClientMsg::Sync {
            client: id,
            have: 3,
            want: 10,
        }) {
            ServerMsg::Testcases(tcs) => assert!(tcs.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unregistered_clients_rejected() {
        let s = UucsServer::new(library(3), 5);
        assert!(matches!(
            s.handle(&ClientMsg::Sync {
                client: "ghost".into(),
                have: 0,
                want: 1
            }),
            ServerMsg::Error(_)
        ));
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: "ghost".into(),
                seq: 1,
                records: vec![]
            }),
            ServerMsg::Error(_)
        ));
    }

    #[test]
    fn uploads_accumulate() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::new(library(1), 6);
        let id = register(&s);
        let rec = RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        match s.handle(&ClientMsg::Upload {
            client: id.clone(),
            seq: 0,
            records: vec![rec.clone(), rec.clone()],
        }) {
            ServerMsg::Ack(2) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.result_count(), 2);
    }

    #[test]
    fn sequenced_upload_replay_is_acked_but_not_stored() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::new(library(1), 9);
        let id = register(&s);
        let rec = RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        let upload = ClientMsg::Upload {
            client: id.clone(),
            seq: 1,
            records: vec![rec.clone(), rec],
        };
        assert!(matches!(s.handle(&upload), ServerMsg::Ack(2)));
        // The retransmit (lost Ack) gets a fresh Ack, one stored copy.
        assert!(matches!(s.handle(&upload), ServerMsg::Ack(2)));
        assert_eq!(s.result_count(), 2);
        assert_eq!(s.applied_seq(&id), 1);
    }

    /// A token-matched re-registration reports the identity's applied
    /// upload horizon, so a client that lost its local batch counter
    /// (wiped store) can fast-forward instead of resuming below the
    /// horizon — where its new, different batches would be ACKed as
    /// replays and silently discarded.
    #[test]
    fn reregistration_reports_applied_horizon() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::new(library(1), 10);
        let register = |token: &str| match s.handle(&ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine("h"),
            token: token.into(),
        }) {
            ServerMsg::Id { id, applied_seq } => (id, applied_seq),
            other => panic!("expected Id, got {other:?}"),
        };
        let (id, horizon) = register("tok-wipe");
        assert_eq!(horizon, 0, "fresh identity has no horizon");
        let rec = RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        for seq in 1..=3u64 {
            assert!(matches!(
                s.handle(&ClientMsg::Upload {
                    client: id.clone(),
                    seq,
                    records: vec![rec.clone()],
                }),
                ServerMsg::Ack(1)
            ));
        }
        // The "wiped" client re-registers with the same token: same id,
        // and the horizon it must resume above.
        let (id2, horizon) = register("tok-wipe");
        assert_eq!(id2, id);
        assert_eq!(horizon, 3);
        // Resuming above the horizon stores; at it, discards.
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: id.clone(),
                seq: 4,
                records: vec![rec.clone()],
            }),
            ServerMsg::Ack(1)
        ));
        assert_eq!(s.result_count(), 4);
    }

    #[test]
    fn poisoned_lock_degrades_to_error_then_recovers() {
        let s = std::sync::Arc::new(UucsServer::new(library(2), 8));
        // Poison the (single) registry shard: panic while holding the
        // write guard.
        let s2 = s.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.stores.registry.raw(0).write().unwrap();
            panic!("poison the registry");
        })
        .join();
        assert!(s.stores.registry.raw(0).is_poisoned());
        // The first mutating request maps the poisoning to a protocol
        // error instead of panicking the handler thread...
        assert!(matches!(
            s.handle(&ClientMsg::register(MachineSnapshot::study_machine("h"))),
            ServerMsg::Error(_)
        ));
        // ...and clears the poison, so the server keeps serving.
        assert!(!s.stores.registry.raw(0).is_poisoned());
        let id = register(&s);
        assert!(s.snapshot_of(&id).is_some());
        // Read-side observers recover throughout.
        assert_eq!(s.testcase_count(), 2);
    }

    /// Sharded layout: poisoning one shard degrades requests routed to
    /// *that shard only*; every other shard keeps serving, and the
    /// poisoned one heals after a single failed request.
    #[test]
    fn per_shard_poisoning_is_isolated() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = std::sync::Arc::new(UucsServer::with_store_set(StoreSet::plain(4), 12));
        for i in 0..4 {
            s.add_testcase(Testcase::blank(format!("tc-{i}"), 1.0, 60.0))
                .unwrap();
        }
        // Register clients until two land on different result shards.
        let mut ids = vec![register(&s)];
        while s.stores.results.shard_for(ids.last().unwrap())
            == s.stores.results.shard_for(&ids[0])
        {
            ids.push(register(&s));
        }
        let (victim, bystander) = (ids[0].clone(), ids.last().unwrap().clone());
        let victim_shard = s.stores.results.shard_for(&victim);
        let s2 = s.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.stores.results.raw(victim_shard).write().unwrap();
            panic!("poison one result shard");
        })
        .join();
        assert!(s.stores.results.raw(victim_shard).is_poisoned());
        let rec = |client: &str| RunRecord {
            client: client.into(),
            user: "u".into(),
            testcase: "tc-0".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        // The bystander's shard is untouched: upload succeeds while the
        // victim shard is still poisoned.
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: bystander.clone(),
                seq: 1,
                records: vec![rec(&bystander)],
            }),
            ServerMsg::Ack(1)
        ));
        // The victim's shard fails one request...
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: victim.clone(),
                seq: 1,
                records: vec![rec(&victim)],
            }),
            ServerMsg::Error(_)
        ));
        // ...heals, and serves the retry.
        assert!(!s.stores.results.raw(victim_shard).is_poisoned());
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: victim.clone(),
                seq: 1,
                records: vec![rec(&victim)],
            }),
            ServerMsg::Ack(1)
        ));
        assert_eq!(s.result_count(), 2);
    }

    /// `STATS` answers with the telemetry snapshot, and the verbs that
    /// served this very test show up in it. Counts are asserted as
    /// presence, not exact values: the registry is process-global and
    /// other tests in this binary run concurrently.
    #[test]
    fn stats_verb_reports_verb_telemetry() {
        let s = UucsServer::new(library(2), 11);
        let id = register(&s);
        let _ = s.handle(&ClientMsg::Sync {
            client: id,
            have: 0,
            want: 1,
        });
        let json = match s.handle(&ClientMsg::Stats { reset: false }) {
            ServerMsg::Stats(json) => json,
            other => panic!("expected Stats, got {other:?}"),
        };
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        for key in [
            "server.verb.register.count",
            "server.verb.sync.count",
            "server.verb.sync.ns",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains('\n'));
        // Errors are attributed to their verb.
        let _ = s.handle(&ClientMsg::Sync {
            client: "ghost".into(),
            have: 0,
            want: 1,
        });
        match s.handle(&ClientMsg::Stats { reset: false }) {
            ServerMsg::Stats(json) => {
                assert!(json.contains("server.verb.sync.errors"), "{json}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn runtime_testcase_addition() {
        let s = UucsServer::new(library(2), 7);
        assert_eq!(s.testcase_count(), 2);
        s.add_testcase(Testcase::blank("late", 1.0, 60.0)).unwrap();
        assert_eq!(s.testcase_count(), 3);
        // A duplicate id is an error, not a panic, and leaves the
        // library untouched.
        let err = s.add_testcase(Testcase::blank("late", 1.0, 60.0)).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        assert_eq!(s.testcase_count(), 3);
    }

    /// The sharded server answers every verb with the same contract as
    /// the single-store one: uploads land on the uploader's shard, reads
    /// merge across shards.
    #[test]
    fn sharded_server_serves_all_verbs() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::with_store_set(StoreSet::plain(4), 13);
        for i in 0..8 {
            s.add_testcase(Testcase::blank(format!("case-{i}"), 1.0, 60.0))
                .unwrap();
        }
        let a = register(&s);
        let b = register(&s);
        // Sync: the growing sample covers the whole sharded library.
        let mut seen = Vec::new();
        for have in [0usize, 4] {
            match s.handle(&ClientMsg::Sync {
                client: a.clone(),
                have,
                want: 4,
            }) {
                ServerMsg::Testcases(tcs) => {
                    for tc in tcs {
                        assert!(!seen.contains(&tc.id.to_string()));
                        seen.push(tc.id.to_string());
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(seen.len(), 8);
        // Uploads from both clients (different shards or not) all count.
        let rec = |client: &str, level: f64| RunRecord {
            client: client.into(),
            user: "u".into(),
            testcase: "case-0".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 10.0,
            last_levels: vec![(Resource::Cpu, vec![level])],
            monitor: MonitorSummary::default(),
        };
        for (i, id) in [&a, &b].into_iter().enumerate() {
            assert!(matches!(
                s.handle(&ClientMsg::Upload {
                    client: id.clone(),
                    seq: 1,
                    records: vec![rec(id, 1.0 + i as f64)],
                }),
                ServerMsg::Ack(1)
            ));
        }
        assert_eq!(s.result_count(), 2);
        // Model/advice merge across shards: both observations visible.
        match s.handle(&ClientMsg::Model {
            resource: Resource::Cpu,
            task: None,
        }) {
            ServerMsg::Model {
                epoch, observed, ..
            } => {
                assert_eq!(epoch, s.model_epoch());
                assert_eq!(observed, 2);
            }
            other => panic!("{other:?}"),
        }
        match s.handle(&ClientMsg::Advice {
            resource: Resource::Cpu,
            task: "Word".into(),
            epsilon: 0.05,
        }) {
            ServerMsg::Advice { .. } => {}
            other => panic!("{other:?}"),
        }
    }
}
