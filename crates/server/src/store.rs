//! The server's stores, as in the paper ("store testcases and results
//! on permanent storage in text files"), each optionally journaled
//! through a write-ahead log (`uucs-wal`) so a server crash between
//! periodic checkpoints loses nothing that was acknowledged.
//!
//! Every store family is one [`Journaled`] core around a family state
//! ([`StoreState`]). The core owns the optional WAL and holds the only
//! copy of the WAL plumbing: open and replay ([`Journaled::open_wal`]),
//! journal-then-apply, the group-commit watermark
//! ([`Journaled::wal_next_lsn`]), sync ([`Journaled::sync_wal`]) and
//! checkpoint ([`Journaled::compact`]). A family state supplies only
//! what differs: how to decode its snapshot, how to apply one
//! [`WalEntry`] (rejecting another family's as a foreign entry), and
//! the snapshot text it emits. The families are [`TestcaseStore`],
//! [`ResultStore`], [`RegistryStore`] and [`crate::models::ModelStore`].
//!
//! Each store runs in one of two modes:
//!
//! * **Plain** (`new`, and the `load`/`save` text files): the paper's
//!   original design. Durability is whatever the last whole-file
//!   checkpoint captured.
//! * **Durable** (`open_wal`): every mutation is journaled as a
//!   [`WalEntry`] *before* it is applied in memory, through the same
//!   [`StoreState::apply`] that replays it, and reopening the same
//!   directory replays the journal — snapshot first, then the records
//!   past it.
//!
//! Which journals defer their segment-rotation fsync, and who drains
//! it, is the group committer's decision ([`crate::commit`]).
//!
//! Corruption policy: a WAL tolerates a torn final frame (crash
//! residue) but reports mid-log damage; the *text* loaders tolerate
//! nothing and point at the damaged line (`line 41: bad outcome ...`),
//! because a checkpoint file has no append-in-flight excuse.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::Path;
use uucs_protocol::{MachineSnapshot, RunRecord, WalEntry};
use uucs_telemetry::{metrics, Counter, Histogram};
use uucs_testcase::{format as tcformat, Testcase};
use uucs_wal::{Lsn, Recovery, StdIo, Wal, WalConfig, WalObserver};

/// The telemetry bridge for one store's WAL: every observer hook lands
/// in the global registry under `server.wal.<flavor>.*`, so `STATS`
/// exposes append/fsync/snapshot/compaction timings per store. Handles
/// are registered once at `open_wal`, keeping the per-I/O cost at a few
/// atomic ops.
struct WalTelemetry {
    append_ns: Histogram,
    append_bytes: Counter,
    fsync_ns: Histogram,
    rotations: Counter,
    rotation_stall_ns: Histogram,
    snapshot_ns: Histogram,
    compact_ns: Histogram,
    compact_removed: Counter,
}

impl WalTelemetry {
    fn install(wal: &mut Wal<StdIo>, flavor: &str) {
        wal.set_observer(Box::new(WalTelemetry {
            append_ns: metrics::histogram(&format!("server.wal.{flavor}.append.ns")),
            append_bytes: metrics::counter(&format!("server.wal.{flavor}.append.bytes")),
            fsync_ns: metrics::histogram(&format!("server.wal.{flavor}.fsync.ns")),
            rotations: metrics::counter(&format!("server.wal.{flavor}.rotations")),
            rotation_stall_ns: metrics::histogram(&format!(
                "server.wal.{flavor}.rotation_stall.ns"
            )),
            snapshot_ns: metrics::histogram(&format!("server.wal.{flavor}.snapshot.ns")),
            compact_ns: metrics::histogram(&format!("server.wal.{flavor}.compact.ns")),
            compact_removed: metrics::counter(&format!("server.wal.{flavor}.compact.removed")),
        }));
    }
}

impl WalObserver for WalTelemetry {
    fn on_append(&mut self, bytes: usize, dur_ns: u64) {
        self.append_ns.record(dur_ns);
        self.append_bytes.add(bytes as u64);
    }
    fn on_sync(&mut self, dur_ns: u64) {
        self.fsync_ns.record(dur_ns);
    }
    fn on_rotate(&mut self) {
        self.rotations.inc();
    }
    fn on_rotate_stall(&mut self, dur_ns: u64) {
        self.rotation_stall_ns.record(dur_ns);
    }
    fn on_snapshot(&mut self, _bytes: usize, dur_ns: u64) {
        self.snapshot_ns.record(dur_ns);
    }
    fn on_compact(&mut self, removed: usize, dur_ns: u64) {
        self.compact_ns.record(dur_ns);
        self.compact_removed.add(removed as u64);
    }
}

/// Why a store rejected a mutation.
#[derive(Debug)]
pub enum StoreError {
    /// The testcase id is already present; ids are globally unique.
    Duplicate(String),
    /// The write-ahead log could not journal the mutation; nothing was
    /// applied, so the caller must not acknowledge it.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Duplicate(id) => write!(f, "duplicate testcase id {id}"),
            StoreError::Io(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => e,
            duplicate => invalid(duplicate),
        }
    }
}

pub(crate) fn invalid(msg: impl fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// What one store family adds to the [`Journaled`] core: its in-memory
/// state and the three things that differ between families.
pub trait StoreState: Default {
    /// The `<flavor>` of the family's `server.wal.<flavor>.*` telemetry.
    const FLAVOR: &'static str;
    /// The family's journal as errors name it ("a testcase journal").
    const JOURNAL: &'static str;
    /// Rebuilds the state from a compaction snapshot's text.
    fn decode(text: &str) -> io::Result<Self>;
    /// The compaction snapshot text.
    fn encode(&self) -> String;
    /// Applies one journaled entry, moving it into the state — the same
    /// call on replay and right after a live append. Another family's
    /// entry is an `InvalidData` "foreign entry" error.
    fn apply(&mut self, entry: WalEntry) -> io::Result<()>;
    /// Runs once the journal has replayed into the state.
    fn recovered(&self) {}
}

/// The error [`StoreState::apply`] returns for another family's entry.
pub(crate) fn foreign<S: StoreState>() -> io::Error {
    invalid(format!("foreign entry in a {} journal", S::JOURNAL))
}

/// A store's optional write-ahead log (`None` in plain mode).
#[derive(Debug, Default)]
pub(crate) struct Journal {
    wal: Option<Wal<StdIo>>,
}

impl Journal {
    fn append(&mut self, entry: &WalEntry) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.append(&entry.encode())?;
        }
        Ok(())
    }

    /// Forces everything journaled so far to stable storage, returning
    /// the covered watermark (the next LSN). `Ok(0)` in plain mode.
    pub(crate) fn sync(&mut self) -> io::Result<Lsn> {
        match &mut self.wal {
            Some(wal) => {
                wal.sync()?;
                Ok(wal.next_lsn())
            }
            None => Ok(0),
        }
    }

    /// Moves the closing segment's fsync out of rotation and into the
    /// next [`Journal::sync`]. No-op in plain mode.
    pub(crate) fn defer_rotation_sync(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.set_deferred_rotation_sync(true);
        }
    }
}

/// One store family: its in-memory state plus the optional WAL that
/// journals every mutation before it is applied.
#[derive(Debug, Default)]
pub struct Journaled<S> {
    pub(crate) state: S,
    pub(crate) journal: Journal,
}

impl<S: StoreState> Journaled<S> {
    /// An empty, non-durable store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (creating if necessary) a WAL-backed store: replays the
    /// journal under `dir` and journals every later mutation before
    /// applying it. Each record is decoded once and moved into the
    /// state.
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        let (mut wal, mut recovery) = Wal::open(StdIo::new(), dir, config)?;
        WalTelemetry::install(&mut wal, S::FLAVOR);
        let mut state = match recovery.snapshot.take() {
            Some(snap) => S::decode(std::str::from_utf8(&snap.state).map_err(invalid)?)?,
            None => S::default(),
        };
        for item in wal.replay() {
            let (lsn, payload) = item?;
            let entry = WalEntry::decode(&payload).map_err(invalid)?;
            state
                .apply(entry)
                .map_err(|e| invalid(format!("record {lsn}: {e}")))?;
        }
        state.recovered();
        let journal = Journal { wal: Some(wal) };
        Ok((Journaled { state, journal }, recovery))
    }

    /// True when mutations are journaled through a WAL.
    pub fn is_durable(&self) -> bool {
        self.journal.wal.is_some()
    }

    /// The LSN the next journal append would get, or `None` in plain
    /// mode. Captured under the store's write lock right after an
    /// append, it is the durability watermark a group-commit waiter
    /// needs: once a sync covers it, the append is on stable storage.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.journal.wal.as_ref().map(|w| w.next_lsn())
    }

    /// Forces everything journaled so far to stable storage, returning
    /// the covered watermark (the next LSN). `Ok(0)` in plain mode.
    pub fn sync_wal(&mut self) -> io::Result<u64> {
        self.journal.sync()
    }

    /// Folds the journal into a checkpoint of the current state and
    /// deletes the segments it covers. Returns `false` (doing nothing)
    /// in plain mode.
    pub fn compact(&mut self) -> io::Result<bool> {
        let Some(wal) = &mut self.journal.wal else {
            return Ok(false);
        };
        wal.snapshot(self.state.encode().as_bytes())?;
        wal.compact()?;
        Ok(true)
    }

    /// Journals `entry`, then applies it. On a journal error nothing is
    /// applied, so the caller must not acknowledge the mutation; in
    /// durable mode an `Ok` survives a crash once the journal is synced.
    pub(crate) fn commit(&mut self, entry: WalEntry) -> io::Result<()> {
        self.journal.append(&entry)?;
        self.state.apply(entry)
    }
}

/// The testcase library: testcases in insertion order, indexed by id.
#[derive(Debug, Default)]
pub struct Testcases {
    testcases: Vec<Testcase>,
    index: HashMap<String, usize>,
}

impl Testcases {
    fn insert(&mut self, tc: Testcase) -> io::Result<()> {
        match self.index.entry(tc.id.as_str().to_string()) {
            Entry::Occupied(e) => Err(invalid(StoreError::Duplicate(e.key().clone()))),
            Entry::Vacant(e) => {
                e.insert(self.testcases.len());
                self.testcases.push(tc);
                Ok(())
            }
        }
    }
}

impl StoreState for Testcases {
    const FLAVOR: &'static str = "testcases";
    const JOURNAL: &'static str = "testcase";

    fn decode(text: &str) -> io::Result<Self> {
        let mut state = Testcases::default();
        for tc in tcformat::parse_many(text).map_err(invalid)? {
            state.insert(tc)?;
        }
        Ok(state)
    }

    fn encode(&self) -> String {
        tcformat::emit_many(&self.testcases)
    }

    fn apply(&mut self, entry: WalEntry) -> io::Result<()> {
        match entry {
            WalEntry::Testcase(tc) => self.insert(tc),
            _ => Err(foreign::<Self>()),
        }
    }
}

/// The server's testcase library.
pub type TestcaseStore = Journaled<Testcases>;

impl TestcaseStore {
    /// Builds a non-durable store from testcases, rejecting duplicate
    /// ids.
    pub fn from_testcases(testcases: Vec<Testcase>) -> Result<Self, StoreError> {
        let mut s = Self::new();
        for tc in testcases {
            s.add(tc)?;
        }
        Ok(s)
    }

    /// Adds a testcase ("new testcases can be added to the server at any
    /// time"). Rejects a duplicate id; in durable mode the addition is
    /// journaled before it is applied, so an `Ok` survives a crash.
    pub fn add(&mut self, tc: Testcase) -> Result<(), StoreError> {
        if self.get(tc.id.as_str()).is_some() {
            return Err(StoreError::Duplicate(tc.id.as_str().to_string()));
        }
        Ok(self.commit(WalEntry::Testcase(tc))?)
    }

    /// All testcases in insertion order.
    pub fn all(&self) -> &[Testcase] {
        &self.state.testcases
    }

    /// Number of testcases.
    pub fn len(&self) -> usize {
        self.state.testcases.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.state.testcases.is_empty()
    }

    /// Finds by id.
    pub fn get(&self, id: &str) -> Option<&Testcase> {
        self.state.index.get(id).map(|&i| &self.state.testcases[i])
    }

    /// Consumes the store, yielding its testcases (shard migration).
    pub fn into_testcases(self) -> Vec<Testcase> {
        self.state.testcases
    }

    /// Saves the library to a text file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.state.encode())
    }

    /// Loads a library from a text file. Any defect is an
    /// `InvalidData` error naming the file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let testcases = tcformat::parse_many(&text)
            .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        Self::from_testcases(testcases).map_err(|e| invalid(format!("{}: {e}", path.display())))
    }
}

/// What [`ResultStore::append_batch`] did with an upload batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// The batch was new: `n` records journaled and applied.
    Applied(usize),
    /// The batch's sequence number was already applied: nothing stored,
    /// but the caller should re-acknowledge all `n` records — the
    /// previous `ACK` was evidently lost in transit.
    Replayed(usize),
}

impl BatchStatus {
    /// The record count to acknowledge, either way.
    pub fn acked(self) -> usize {
        match self {
            BatchStatus::Applied(n) | BatchStatus::Replayed(n) => n,
        }
    }
}

/// The result store's state: records in upload order, plus the
/// per-client highest applied batch sequence number.
#[derive(Debug, Default)]
pub struct Results {
    records: Vec<RunRecord>,
    applied: BTreeMap<String, u64>,
}

impl StoreState for Results {
    const FLAVOR: &'static str = "results";
    const JOURNAL: &'static str = "result";

    /// Parses [`Results::encode`] output. Snapshots from before
    /// sequence tracking have no `SEQ` lines and parse to an empty map.
    fn decode(text: &str) -> io::Result<Self> {
        let mut applied = BTreeMap::new();
        let mut offset = 0usize;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("SEQ ") else {
                break;
            };
            let (client, seq) = rest
                .rsplit_once(' ')
                .ok_or_else(|| invalid(format!("bad snapshot seq line {line:?}")))?;
            let seq: u64 = seq
                .parse()
                .map_err(|_| invalid(format!("bad snapshot seq line {line:?}")))?;
            applied.insert(client.to_string(), seq);
            offset += line.len() + 1;
        }
        let records = RunRecord::parse_many(&text[offset.min(text.len())..]).map_err(invalid)?;
        Ok(Results { records, applied })
    }

    /// `SEQ <client> <n>` header lines (the idempotency horizon)
    /// followed by the record blocks.
    fn encode(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (client, seq) in &self.applied {
            writeln!(out, "SEQ {client} {seq}").expect("writing to a String cannot fail");
        }
        out.push_str(&RunRecord::emit_many(&self.records));
        out
    }

    fn apply(&mut self, entry: WalEntry) -> io::Result<()> {
        match entry {
            WalEntry::Result(rec) => self.records.push(rec),
            WalEntry::Batch {
                client,
                seq,
                records,
            } => {
                self.records.extend(records);
                let horizon = self.applied.entry(client).or_insert(0);
                *horizon = (*horizon).max(seq);
            }
            _ => return Err(foreign::<Self>()),
        }
        Ok(())
    }
}

/// The server's result store.
///
/// Beyond the records themselves it tracks, per client, the highest
/// *batch sequence number* applied ([`ResultStore::append_batch`]), which
/// is what makes `UPLOAD` idempotent: a batch retransmitted because its
/// `ACK` was lost is recognized and re-acknowledged without storing a
/// second copy. In durable mode the sequence horizon rides in the same
/// WAL entry as the records (one atomic [`WalEntry::Batch`]) and in the
/// compaction snapshot, so dedup survives crashes and checkpoints alike.
pub type ResultStore = Journaled<Results>;

impl ResultStore {
    /// Appends uploaded records, returning how many were accepted. In
    /// durable mode each record is journaled before it is applied —
    /// under `SyncPolicy::Always` an `Ok(n)` means all `n` survive a
    /// crash. On a journal error the upload must not be acknowledged.
    pub fn append(&mut self, records: Vec<RunRecord>) -> Result<usize, StoreError> {
        let n = records.len();
        for rec in records {
            self.commit(WalEntry::Result(rec))?;
        }
        Ok(n)
    }

    /// Appends an upload batch idempotently. `seq` is the client's batch
    /// sequence number: if it is at or below the client's applied
    /// horizon the batch is a retransmit — nothing is stored and
    /// [`BatchStatus::Replayed`] tells the caller to re-acknowledge.
    /// `seq == 0` is the legacy non-idempotent path (always applied).
    ///
    /// In durable mode a new batch is journaled as a single atomic
    /// [`WalEntry::Batch`] carrying both records and horizon, *before*
    /// being applied: an acknowledged batch can neither be lost nor
    /// double-applied across a crash.
    pub fn append_batch(
        &mut self,
        client: &str,
        seq: u64,
        records: Vec<RunRecord>,
    ) -> Result<BatchStatus, StoreError> {
        if seq == 0 {
            return self.append(records).map(BatchStatus::Applied);
        }
        let n = records.len();
        if self.applied_seq(client) >= seq {
            return Ok(BatchStatus::Replayed(n));
        }
        self.commit(WalEntry::Batch {
            client: client.to_string(),
            seq,
            records,
        })?;
        Ok(BatchStatus::Applied(n))
    }

    /// The highest batch sequence number applied for `client` (0 if the
    /// client never uploaded with sequence numbers).
    pub fn applied_seq(&self, client: &str) -> u64 {
        self.state.applied.get(client).copied().unwrap_or(0)
    }

    /// The per-client applied-sequence horizons (shard migration).
    pub fn applied_horizons(&self) -> &BTreeMap<String, u64> {
        &self.state.applied
    }

    /// Consumes the store, yielding records and horizons (migration).
    pub fn into_parts(self) -> (Vec<RunRecord>, BTreeMap<String, u64>) {
        (self.state.records, self.state.applied)
    }

    /// All records in upload order.
    pub fn all(&self) -> &[RunRecord] {
        &self.state.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.state.records.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.state.records.is_empty()
    }

    /// Saves all results to a text file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, RunRecord::emit_many(&self.state.records))
    }

    /// Loads results from a text file.
    ///
    /// Any defect — a bad key, a truncated record, a garbled number —
    /// is an `InvalidData` error naming the file and the 1-based line,
    /// e.g. `results.txt: line 41: bad outcome "maybee"`. Contrast the
    /// WAL replay, which tolerates (and truncates) a torn final frame:
    /// a crash can interrupt a journal append, but nothing legitimately
    /// interrupts a whole-file text checkpoint.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut store = Self::new();
        store.state.records = RunRecord::parse_many(&text)
            .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        Ok(store)
    }
}

/// What a registry snapshot parses into: the `(id, snapshot)` rows and
/// the `(token, id)` idempotency pairs.
type RegistryState = (Vec<(String, MachineSnapshot)>, Vec<(String, String)>);

/// The client registry's state: `(GUID, machine snapshot)` rows in
/// registration order, plus `(token, id)` for every registration that
/// carried an idempotency token — a re-registration presenting a known
/// token gets the same id back instead of a new row.
#[derive(Debug, Default)]
pub struct Registry {
    clients: Vec<(String, MachineSnapshot)>,
    tokens: Vec<(String, String)>,
}

impl StoreState for Registry {
    const FLAVOR: &'static str = "registry";
    const JOURNAL: &'static str = "registry";

    fn decode(text: &str) -> io::Result<Self> {
        let mut state = Registry::default();
        // (id, pending block text) for the entry being accumulated.
        let mut current: Option<(String, String)> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("CLIENT ") {
                if let Some((id, block)) = current.take() {
                    let snap = MachineSnapshot::parse(&block).map_err(invalid)?;
                    state.clients.push((id, snap));
                }
                let mut toks = rest.split_whitespace();
                let id = toks.next().unwrap_or("").to_string();
                if id.is_empty() {
                    return Err(invalid("registry snapshot: CLIENT line missing id"));
                }
                if let Some(token) = toks.next() {
                    state.tokens.push((token.to_string(), id.clone()));
                }
                current = Some((id, String::new()));
            } else if let Some((_, block)) = &mut current {
                block.push_str(line);
                block.push('\n');
            } else {
                return Err(invalid(format!("registry snapshot: stray line {line:?}")));
            }
        }
        if let Some((id, block)) = current.take() {
            let snap = MachineSnapshot::parse(&block).map_err(invalid)?;
            state.clients.push((id, snap));
        }
        Ok(state)
    }

    fn encode(&self) -> String {
        let mut out = String::new();
        for (id, snap) in &self.clients {
            match self.tokens.iter().find(|(_, tid)| tid == id) {
                Some((token, _)) => out.push_str(&format!("CLIENT {id} {token}\n")),
                None => out.push_str(&format!("CLIENT {id}\n")),
            }
            out.push_str(&snap.emit());
        }
        out
    }

    fn apply(&mut self, entry: WalEntry) -> io::Result<()> {
        let WalEntry::Client {
            id,
            token,
            snapshot,
        } = entry
        else {
            return Err(foreign::<Self>());
        };
        if !token.is_empty() {
            self.tokens.push((token, id.clone()));
        }
        self.clients.push((id, snapshot));
        Ok(())
    }
}

/// The server's client registry, optionally journaled through a WAL so
/// a restarted server still recognizes the clients it handed ids to —
/// without it, every server restart would orphan every client in the
/// field. Registration tokens are rebuilt from the journal and the
/// snapshot on recovery, so token dedup survives a restart too.
pub type RegistryStore = Journaled<Registry>;

impl RegistryStore {
    /// Registers a machine, assigning the next GUID. In durable mode the
    /// registration is journaled before it is applied, so an id handed
    /// out survives a server restart.
    ///
    /// A non-empty `token` makes the call idempotent: if this token has
    /// registered before, the *original* id comes back and nothing is
    /// journaled. A client whose `ID` reply was lost in transit can
    /// therefore retry the registration without becoming two clients.
    pub fn register(
        &mut self,
        snapshot: MachineSnapshot,
        token: &str,
    ) -> Result<String, StoreError> {
        if let Some(id) = self.id_for_token(token) {
            return Ok(id.to_string());
        }
        let id = format!("client-{:04}", self.len() + 1);
        self.register_with_id(id.clone(), snapshot, token)?;
        Ok(id)
    }

    /// Registers a machine under a caller-chosen id — the sharded
    /// registry's entry point, where ids come from a global counter
    /// rather than this shard's row count. Journals before applying;
    /// token dedup is the *caller's* job (it requires a cross-shard
    /// scan).
    pub fn register_with_id(
        &mut self,
        id: String,
        snapshot: MachineSnapshot,
        token: &str,
    ) -> Result<(), StoreError> {
        let token = token.to_string();
        Ok(self.commit(WalEntry::Client {
            id,
            token,
            snapshot,
        })?)
    }

    /// The id a registration token resolved to, if it registered before.
    pub fn id_for_token(&self, token: &str) -> Option<&str> {
        if token.is_empty() {
            return None;
        }
        self.state
            .tokens
            .iter()
            .find(|(t, _)| t == token)
            .map(|(_, id)| id.as_str())
    }

    /// The registration token a client id presented, if any — the
    /// replication tier ships it alongside the snapshot so a promoted
    /// follower still honors token-matched re-registrations.
    pub fn token_of(&self, id: &str) -> Option<&str> {
        self.state
            .tokens
            .iter()
            .find(|(_, tid)| tid == id)
            .map(|(t, _)| t.as_str())
    }

    /// Consumes the registry, yielding rows and token pairs (migration).
    pub fn into_parts(self) -> RegistryState {
        (self.state.clients, self.state.tokens)
    }

    /// The registered snapshot for an id.
    pub fn get(&self, id: &str) -> Option<&MachineSnapshot> {
        self.state
            .clients
            .iter()
            .find(|(cid, _)| cid == id)
            .map(|(_, s)| s)
    }

    /// All registrations in order.
    pub fn all(&self) -> &[(String, MachineSnapshot)] {
        &self.state.clients
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.state.clients.len()
    }

    /// True if no client ever registered.
    pub fn is_empty(&self) -> bool {
        self.state.clients.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use uucs_harness::TempDir;
    use uucs_protocol::{MonitorSummary, RunOutcome};
    use uucs_testcase::{ExerciseSpec, Resource};
    use uucs_wal::SyncPolicy;

    fn tc(id: &str) -> Testcase {
        Testcase::single(
            id,
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level: 1.0,
                duration: 10.0,
            },
        )
    }

    fn rec(user: &str) -> RunRecord {
        RunRecord {
            client: "c".into(),
            user: user.into(),
            testcase: "t".into(),
            task: "IE".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        }
    }

    #[test]
    fn testcase_store_roundtrips_through_disk() {
        let dir = TempDir::new("uucs-store");
        let path = dir.join("testcases.txt");
        let store = TestcaseStore::from_testcases(vec![tc("a"), tc("b")]).unwrap();
        store.save(&path).unwrap();
        let loaded = TestcaseStore::load(&path).unwrap();
        assert_eq!(loaded.all(), store.all());
        assert!(loaded.get("a").is_some());
        assert!(loaded.get("zzz").is_none());
    }

    #[test]
    fn duplicate_testcase_rejected() {
        let mut s = TestcaseStore::new();
        s.add(tc("x")).unwrap();
        let err = s.add(tc("x")).unwrap_err();
        assert!(matches!(&err, StoreError::Duplicate(id) if id == "x"));
        assert!(err.to_string().contains("duplicate testcase id x"));
        assert_eq!(s.len(), 1, "the duplicate was not applied");
        assert!(TestcaseStore::from_testcases(vec![tc("y"), tc("y")]).is_err());
    }

    #[test]
    fn result_store_roundtrips_through_disk() {
        let dir = TempDir::new("uucs-rstore");
        let path = dir.join("results.txt");
        let mut store = ResultStore::new();
        store.append(vec![rec("u1"), rec("u2")]).unwrap();
        store.append(vec![rec("u3")]).unwrap();
        assert_eq!(store.len(), 3);
        store.save(&path).unwrap();
        let loaded = ResultStore::load(&path).unwrap();
        assert_eq!(loaded.all(), store.all());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(TestcaseStore::load(Path::new("/nonexistent/x.txt")).is_err());
        assert!(ResultStore::load(Path::new("/nonexistent/x.txt")).is_err());
    }

    #[test]
    fn result_load_error_names_file_and_line() {
        let dir = TempDir::new("uucs-rstore-corrupt");
        let path = dir.join("results.txt");
        let mut text = RunRecord::emit_many(&[rec("u1")]);
        let good_lines = text.lines().count();
        text.push_str("RESULT\nOUTCOME maybee\nEND\n");
        std::fs::write(&path, &text).unwrap();
        let err = ResultStore::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("results.txt"), "no file name in: {msg}");
        assert!(
            msg.contains(&format!("line {}", good_lines + 2)),
            "no line number in: {msg}"
        );
    }

    #[test]
    fn wal_backed_stores_survive_reopen() {
        let dir = TempDir::new("uucs-store-wal");
        let cfg = WalConfig {
            segment_bytes: 2048,
            sync: SyncPolicy::Always,
        };
        {
            let (mut tcs, recovery) = TestcaseStore::open_wal(&dir.join("tc"), cfg).unwrap();
            assert_eq!(recovery.records, 0);
            tcs.add(tc("a")).unwrap();
            tcs.add(tc("b")).unwrap();
            assert!(tcs.is_durable());
            let (mut res, _) = ResultStore::open_wal(&dir.join("res"), cfg).unwrap();
            assert_eq!(res.append(vec![rec("u1"), rec("u2")]).unwrap(), 2);
            // Both stores drop here without any explicit save: the WAL
            // already has everything.
        }
        let (tcs, recovery) = TestcaseStore::open_wal(&dir.join("tc"), cfg).unwrap();
        assert_eq!(recovery.records, 2);
        assert_eq!(tcs.len(), 2);
        assert!(tcs.get("a").is_some() && tcs.get("b").is_some());
        let (res, _) = ResultStore::open_wal(&dir.join("res"), cfg).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res.all()[0], rec("u1"));
    }

    #[test]
    fn wal_backed_store_compacts_and_still_recovers() {
        let dir = TempDir::new("uucs-store-compact");
        let cfg = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Always,
        };
        {
            let (mut res, _) = ResultStore::open_wal(dir.path(), cfg).unwrap();
            res.append((0..8).map(|i| rec(&format!("u{i}"))).collect())
                .unwrap();
            assert!(res.compact().unwrap());
            res.append(vec![rec("after-snap")]).unwrap();
        }
        let (res, recovery) = ResultStore::open_wal(dir.path(), cfg).unwrap();
        assert!(recovery.snapshot.is_none(), "open_wal folds the snapshot");
        assert_eq!(res.len(), 9);
        assert_eq!(res.all()[8], rec("after-snap"));
    }

    #[test]
    fn wal_backed_duplicate_not_journaled() {
        let dir = TempDir::new("uucs-store-dup");
        let cfg = WalConfig::default();
        {
            let (mut tcs, _) = TestcaseStore::open_wal(dir.path(), cfg).unwrap();
            tcs.add(tc("only")).unwrap();
            assert!(matches!(
                tcs.add(tc("only")),
                Err(StoreError::Duplicate(_))
            ));
        }
        let (tcs, recovery) = TestcaseStore::open_wal(dir.path(), cfg).unwrap();
        assert_eq!(recovery.records, 1, "rejected duplicate left no record");
        assert_eq!(tcs.len(), 1);
    }

    /// One row per store family: a session opens `dir` as the family,
    /// applies the mutations numbered `ids` (checkpointing after the
    /// second) and returns the store's size.
    struct Family {
        name: &'static str,
        session: fn(&Path, Range<u64>) -> io::Result<usize>,
    }

    fn session<S: StoreState>(
        dir: &Path,
        ids: Range<u64>,
        mutate: fn(&mut Journaled<S>, u64),
        size: fn(&Journaled<S>) -> usize,
    ) -> io::Result<usize> {
        let cfg = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Always,
        };
        let (mut store, _) = Journaled::<S>::open_wal(dir, cfg)?;
        let second = ids.start + 1;
        for i in ids {
            mutate(&mut store, i);
            if i == second {
                assert!(store.compact().unwrap());
            }
        }
        Ok(size(&store))
    }

    fn families() -> [Family; 4] {
        use crate::models::ModelState;
        use uucs_modelsvc::Observation;
        [
            Family {
                name: "testcases",
                session: |dir, ids| {
                    session::<Testcases>(
                        dir,
                        ids,
                        |s, i| s.add(tc(&format!("t{i}"))).unwrap(),
                        TestcaseStore::len,
                    )
                },
            },
            Family {
                name: "results",
                session: |dir, ids| {
                    session::<Results>(
                        dir,
                        ids,
                        |s, i| {
                            s.append_batch("c", i + 1, vec![rec(&format!("u{i}"))])
                                .unwrap();
                        },
                        ResultStore::len,
                    )
                },
            },
            Family {
                name: "registry",
                session: |dir, ids| {
                    session::<Registry>(
                        dir,
                        ids,
                        |s, i| {
                            let id = format!("client-{i:04}");
                            s.register_with_id(id, MachineSnapshot::study_machine("h"), "")
                                .unwrap();
                        },
                        RegistryStore::len,
                    )
                },
            },
            Family {
                name: "model",
                session: |dir, ids| {
                    session::<ModelState>(
                        dir,
                        ids,
                        |s, i| {
                            let obs = Observation {
                                resource: uucs_testcase::Resource::Cpu,
                                task: "IE".into(),
                                skill: "Typical".into(),
                                level: i as f64 / 10.0,
                                censored: false,
                            };
                            s.observe_batch(vec![obs]).unwrap();
                        },
                        |s| s.epoch() as usize,
                    )
                },
            },
        ]
    }

    /// Every family through the one core: open, mutate, checkpoint,
    /// reopen (snapshot plus journal tail) and mutate again — and a
    /// journal written by another family refuses to open.
    #[test]
    fn every_family_round_trips_and_rejects_foreign_entries() {
        let families = families();
        for (i, family) in families.iter().enumerate() {
            let dir = TempDir::new("uucs-store-family");
            assert_eq!((family.session)(dir.path(), 0..3).unwrap(), 3, "{}", family.name);
            assert_eq!((family.session)(dir.path(), 3..5).unwrap(), 5, "{}", family.name);
            assert_eq!((family.session)(dir.path(), 5..5).unwrap(), 5, "{}", family.name);

            let dir = TempDir::new("uucs-store-foreign");
            let writer = &families[(i + 1) % families.len()];
            (writer.session)(dir.path(), 0..1).unwrap();
            let err = (family.session)(dir.path(), 0..0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{}", family.name);
            assert!(
                err.to_string().contains("foreign entry"),
                "{} opened a {} journal: {err}",
                family.name,
                writer.name
            );
        }
    }

    #[test]
    fn plain_store_compact_is_a_noop() {
        let mut s = TestcaseStore::new();
        s.add(tc("a")).unwrap();
        assert!(!s.compact().unwrap());
        assert!(!s.is_durable());
        let mut r = ResultStore::new();
        assert!(!r.compact().unwrap());
        let mut g = RegistryStore::new();
        assert!(!g.compact().unwrap());
        assert!(!g.is_durable());
    }

    #[test]
    fn append_batch_is_idempotent() {
        let mut r = ResultStore::new();
        let batch = vec![rec("u1"), rec("u2")];
        assert_eq!(
            r.append_batch("c1", 1, batch.clone()).unwrap(),
            BatchStatus::Applied(2)
        );
        // The retransmit (lost ACK) is recognized and re-acked, and the
        // store holds exactly one copy.
        assert_eq!(
            r.append_batch("c1", 1, batch.clone()).unwrap(),
            BatchStatus::Replayed(2)
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.applied_seq("c1"), 1);
        // A later batch applies; an earlier replay is still discarded.
        assert_eq!(
            r.append_batch("c1", 2, vec![rec("u3")]).unwrap(),
            BatchStatus::Applied(1)
        );
        assert_eq!(
            r.append_batch("c1", 1, batch).unwrap(),
            BatchStatus::Replayed(2)
        );
        assert_eq!(r.len(), 3);
        // Horizons are per client.
        assert_eq!(
            r.append_batch("c2", 1, vec![rec("u4")]).unwrap(),
            BatchStatus::Applied(1)
        );
        assert_eq!(r.applied_seq("c2"), 1);
        // seq 0 is the legacy always-apply path.
        assert_eq!(
            r.append_batch("c1", 0, vec![rec("u5")]).unwrap(),
            BatchStatus::Applied(1)
        );
        assert_eq!(r.len(), 5);
        assert_eq!(r.applied_seq("c1"), 2, "legacy path leaves the horizon alone");
    }

    #[test]
    fn batch_horizon_survives_reopen_and_compaction() {
        let dir = TempDir::new("uucs-rstore-seq");
        let cfg = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Always,
        };
        {
            let (mut r, _) = ResultStore::open_wal(dir.path(), cfg).unwrap();
            r.append_batch("c1", 1, vec![rec("u1"), rec("u2")]).unwrap();
            r.append_batch("c2", 5, vec![rec("u3")]).unwrap();
        }
        // Reopen: the horizon came back with the records, so the same
        // retransmit is still discarded — retry-after-lost-Ack is safe
        // across a server restart.
        {
            let (mut r, _) = ResultStore::open_wal(dir.path(), cfg).unwrap();
            assert_eq!(r.len(), 3);
            assert_eq!(r.applied_seq("c1"), 1);
            assert_eq!(r.applied_seq("c2"), 5);
            assert_eq!(
                r.append_batch("c1", 1, vec![rec("u1"), rec("u2")]).unwrap(),
                BatchStatus::Replayed(2)
            );
            assert_eq!(r.len(), 3);
            // Compaction folds the horizon into the snapshot.
            assert!(r.compact().unwrap());
            r.append_batch("c1", 2, vec![rec("u4")]).unwrap();
        }
        let (r, recovery) = ResultStore::open_wal(dir.path(), cfg).unwrap();
        assert!(recovery.snapshot.is_none(), "open_wal folds the snapshot");
        assert_eq!(r.len(), 4);
        assert_eq!(r.applied_seq("c1"), 2);
        assert_eq!(r.applied_seq("c2"), 5, "horizon survived compaction");
    }

    #[test]
    fn registry_store_survives_reopen_and_compaction() {
        let dir = TempDir::new("uucs-registry");
        let cfg = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Always,
        };
        let (a, b) = {
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            assert!(g.is_durable());
            let a = g.register(MachineSnapshot::study_machine("h1"), "").unwrap();
            let b = g.register(MachineSnapshot::study_machine("h2"), "").unwrap();
            assert_ne!(a, b);
            (a, b)
        };
        {
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            assert_eq!(g.len(), 2);
            assert_eq!(g.get(&a).unwrap().hostname, "h1");
            assert_eq!(g.get(&b).unwrap().hostname, "h2");
            // New ids keep advancing past recovered ones: no collision
            // with an id handed out before the restart.
            let c = g.register(MachineSnapshot::study_machine("h3"), "").unwrap();
            assert!(c != a && c != b);
            assert!(g.compact().unwrap());
            g.register(MachineSnapshot::study_machine("h4"), "").unwrap();
        }
        let (g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.get(&a).unwrap().hostname, "h1");
        assert_eq!(g.all()[3].1.hostname, "h4");
    }

    /// A registration retried with the same token (lost `ID` reply) must
    /// resolve to the same id — in memory, across a WAL recovery, and
    /// across a compaction that folds the token into the snapshot.
    #[test]
    fn registration_token_is_idempotent() {
        let mut g = RegistryStore::new();
        let a = g
            .register(MachineSnapshot::study_machine("h"), "tok-a")
            .unwrap();
        let again = g
            .register(MachineSnapshot::study_machine("h"), "tok-a")
            .unwrap();
        assert_eq!(a, again, "same token must return the same id");
        assert_eq!(g.len(), 1, "retry must not add a second client");
        // Distinct tokens are distinct identities even from an identical
        // snapshot (the controlled study registers 33 identical machines).
        let b = g
            .register(MachineSnapshot::study_machine("h"), "tok-b")
            .unwrap();
        assert_ne!(a, b);
        // Legacy tokenless registrations never dedup.
        let c = g.register(MachineSnapshot::study_machine("h"), "").unwrap();
        let d = g.register(MachineSnapshot::study_machine("h"), "").unwrap();
        assert_ne!(c, d);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn registration_token_dedup_survives_recovery_and_compaction() {
        let dir = TempDir::new("uucs-registry-token");
        let cfg = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Always,
        };
        let a = {
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            g.register(MachineSnapshot::study_machine("h"), "tok-a")
                .unwrap()
        };
        {
            // Recovery from the journal alone.
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            let again = g
                .register(MachineSnapshot::study_machine("h"), "tok-a")
                .unwrap();
            assert_eq!(a, again, "token dedup lost in WAL recovery");
            assert_eq!(g.len(), 1);
            // Fold everything into a snapshot; the token must ride along.
            assert!(g.compact().unwrap());
        }
        let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
        let again = g
            .register(MachineSnapshot::study_machine("h"), "tok-a")
            .unwrap();
        assert_eq!(a, again, "token dedup lost in compaction snapshot");
        assert_eq!(g.len(), 1);
    }
}
