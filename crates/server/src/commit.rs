//! Group-commit WAL fsync: one dedicated thread batches pending
//! appends, fsyncs once per shard, and wakes every waiter.
//!
//! The old engine ran each store WAL at `SyncPolicy::Always` — every
//! upload paid a full fsync while holding the store's write lock, so
//! durability cost scaled linearly with request count and serialized
//! the fleet behind the disk. Under group commit the stores run at
//! `SyncPolicy::Never`; a handler appends under the shard lock, records
//! the WAL's next-LSN as its durability watermark (a [`CommitTicket`]),
//! releases the lock, and then waits — without any lock held — until
//! the committer's periodic fsync pass covers that watermark. A pass
//! syncs each dirty shard exactly once no matter how many appends
//! landed since the last pass, so the per-request durability cost is
//! `fsync / batch size`, with the identical guarantee: **no request is
//! acknowledged before its journal entries are on stable storage**.
//!
//! `uucs-wal` itself stays dependency- and policy-free: the committer
//! drives the existing [`uucs_wal::Wal::sync`] (segment rotation and
//! snapshots already fsync under every policy), and batch shape is
//! observable through the `server.commit.*` telemetry series.
//!
//! Deferred rotation is owned here too. With a [`DiskScheduler`], the
//! committer takes the closing segment's fsync off the append path of
//! every journal it syncs — the ticketed families of [`StoreFlavor`] —
//! and its passes drain those deferred syncs, oldest segment first,
//! before any covered ack is released. Model journals are never synced
//! by the committer (no reply waits on them), so they keep rotating
//! inline: a rotation fsyncs the closing segment before the next one
//! is created, and a crash can never persist a later model segment
//! without the earlier one.
//!
//! Failure semantics: if an fsync fails, the slot is marked failed and
//! every current and future waiter on that shard gets the error — the
//! handler answers with a protocol error instead of an ack, exactly as
//! a failed synchronous append did before.

use crate::disk::DiskScheduler;
use crate::shard::StoreSet;
use crate::store::Journal;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uucs_telemetry::{metrics, Counter, Histogram};
use uucs_wal::Lsn;

/// Which store family a ticket's append landed in. Model-WAL appends
/// are deliberately not ticketed: the model is derived state, and a
/// failed model journal write never blocked an upload ack (the records
/// are the source of truth), so the committer never syncs model
/// journals and no reply waits on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFlavor {
    /// The testcase library.
    Testcases,
    /// Uploaded results.
    Results,
    /// The client registry.
    Registry,
}

impl StoreFlavor {
    /// Every ticketed family, in slot order.
    const ALL: [StoreFlavor; 3] = [
        StoreFlavor::Testcases,
        StoreFlavor::Results,
        StoreFlavor::Registry,
    ];
}

/// A durability watermark: "my append is safe once `upto` LSNs of this
/// shard's journal are on disk". Handlers capture it under the shard
/// write lock (where the post-append `next_lsn` is exact) and redeem it
/// lock-free via [`GroupCommitter::wait`] or [`GroupCommitter::poll`].
#[derive(Debug, Clone, Copy)]
pub struct CommitTicket {
    /// The store family the append landed in.
    pub flavor: StoreFlavor,
    /// The shard within the family.
    pub shard: usize,
    /// The journal's next-LSN right after the append.
    pub upto: Lsn,
}

/// Per-slot (flavor × shard) commit bookkeeping.
struct CommitState {
    /// Highest watermark any waiter has asked for, per slot.
    pending: Vec<Lsn>,
    /// Highest watermark known durable, per slot.
    synced: Vec<Lsn>,
    /// Sticky fsync failure, per slot. Once a shard's journal cannot be
    /// synced, nothing on it is ack-able until restart.
    failed: Vec<Option<String>>,
    stop: bool,
}

/// Telemetry for the commit loop.
struct CommitMetrics {
    /// fsync passes over a dirty slot.
    commits: Counter,
    /// Appends covered by one slot fsync (the amortization factor).
    batch: Histogram,
    /// Wall time of one slot fsync, ns.
    ns: Histogram,
}

/// The group-commit coordinator: shared state between request handlers
/// (submit/wait) and the dedicated commit thread.
pub struct GroupCommitter {
    stores: Arc<StoreSet>,
    state: Mutex<CommitState>,
    /// Wakes the commit thread when new work is pending.
    wake: Condvar,
    /// Wakes waiters when watermarks advance or a slot fails.
    done: Condvar,
    /// Group window: how long the commit thread gathers appends before
    /// an fsync pass. Zero = sync as soon as anything is pending.
    interval: Duration,
    counts: [usize; StoreFlavor::ALL.len()],
    stopped: AtomicBool,
    metrics: CommitMetrics,
    /// When present, slot fsyncs are submitted to the disk scheduler's
    /// thread pool instead of running serially on the commit thread —
    /// one pass over `k` dirty shards pays `max(fsync)` wall time, not
    /// `sum(fsync)`.
    scheduler: Option<Arc<DiskScheduler>>,
}

impl GroupCommitter {
    /// Starts the commit thread over `stores`. The returned handle must
    /// be joined after [`GroupCommitter::stop`] (the server's `Drop`
    /// does both).
    pub fn start(stores: Arc<StoreSet>, interval: Duration) -> (Arc<Self>, JoinHandle<()>) {
        Self::start_with(stores, interval, None)
    }

    /// [`GroupCommitter::start`], optionally over a [`DiskScheduler`]:
    /// with one, every fsync pass fans its per-shard syncs out to the
    /// scheduler's I/O threads and redeems the completion tickets, so
    /// independent shards sync in parallel, and the ticketed journals
    /// defer their rotation fsyncs to those passes (see the module
    /// docs).
    pub fn start_with(
        stores: Arc<StoreSet>,
        interval: Duration,
        scheduler: Option<Arc<DiskScheduler>>,
    ) -> (Arc<Self>, JoinHandle<()>) {
        let counts = StoreFlavor::ALL.map(|flavor| stores.shards(flavor));
        if scheduler.is_some() {
            for flavor in StoreFlavor::ALL {
                for shard in 0..stores.shards(flavor) {
                    stores.journal(flavor, shard, Journal::defer_rotation_sync);
                }
            }
        }
        let slots: usize = counts.iter().sum();
        let committer = Arc::new(GroupCommitter {
            stores,
            state: Mutex::new(CommitState {
                pending: vec![0; slots],
                synced: vec![0; slots],
                failed: vec![None; slots],
                stop: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            interval,
            counts,
            stopped: AtomicBool::new(false),
            metrics: CommitMetrics {
                commits: metrics::counter("server.commit.count"),
                batch: metrics::histogram("server.commit.batch"),
                ns: metrics::histogram("server.commit.ns"),
            },
            scheduler,
        });
        let runner = committer.clone();
        let handle = std::thread::Builder::new()
            .name("uucs-group-commit".into())
            .spawn(move || runner.run())
            .expect("spawn group-commit thread");
        (committer, handle)
    }

    fn slot(&self, flavor: StoreFlavor, shard: usize) -> usize {
        let base: usize = self.counts[..flavor as usize].iter().sum();
        base + shard
    }

    fn flavor_shard(&self, slot: usize) -> (StoreFlavor, usize) {
        let mut rest = slot;
        for (flavor, &n) in StoreFlavor::ALL.iter().zip(&self.counts) {
            if rest < n {
                return (*flavor, rest);
            }
            rest -= n;
        }
        unreachable!("slot {slot} out of range");
    }

    /// Registers a durability request and returns the redeemable ticket.
    /// (Also implicit in `wait`/`poll`; explicit submission lets the
    /// commit window start while the handler still serializes its reply.)
    pub fn submit(&self, flavor: StoreFlavor, shard: usize, upto: Lsn) -> CommitTicket {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.request(&mut st, self.slot(flavor, shard), upto);
        CommitTicket { flavor, shard, upto }
    }

    /// Raises a slot's pending watermark to `upto`, waking the commit
    /// thread when that is news.
    fn request(&self, st: &mut CommitState, slot: usize, upto: Lsn) {
        if st.pending[slot] < upto {
            st.pending[slot] = upto;
            self.wake.notify_one();
        }
    }

    /// Blocks until the ticket's watermark is durable. `Err` means the
    /// shard's journal could not be synced — the caller must not ack.
    pub fn wait(&self, ticket: CommitTicket) -> Result<(), String> {
        let slot = self.slot(ticket.flavor, ticket.shard);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.request(&mut st, slot, ticket.upto);
        loop {
            if let Some(e) = &st.failed[slot] {
                return Err(e.clone());
            }
            if st.synced[slot] >= ticket.upto {
                return Ok(());
            }
            if st.stop {
                return Err("server stopped before the commit completed".into());
            }
            st = self
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Nonblocking redemption for the worker-pool front end: `None`
    /// while the fsync is still outstanding, `Some(result)` once the
    /// watermark is durable (ack) or the shard failed (error reply).
    pub fn poll(&self, ticket: CommitTicket) -> Option<Result<(), String>> {
        let slot = self.slot(ticket.flavor, ticket.shard);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = &st.failed[slot] {
            return Some(Err(e.clone()));
        }
        if st.synced[slot] >= ticket.upto {
            return Some(Ok(()));
        }
        self.request(&mut st, slot, ticket.upto);
        if st.stop {
            return Some(Err("server stopped before the commit completed".into()));
        }
        None
    }

    /// Asks the commit thread to drain pending work and exit, and fails
    /// any waiter whose watermark can no longer be reached.
    pub fn stop(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.stop = true;
        self.wake.notify_all();
        self.done.notify_all();
    }

    /// One fsync over a slot's shard, callable from a scheduler thread.
    /// Takes the shard's write lock — handlers hold it only for
    /// in-memory appends, so this is the only place the disk wait
    /// happens, and the lock is what serializes against them.
    fn sync_slot(stores: &StoreSet, (flavor, shard): (StoreFlavor, usize)) -> std::io::Result<Lsn> {
        stores.journal(flavor, shard, Journal::sync)
    }

    /// Publishes one slot's sync outcome: watermark advance (+ metrics)
    /// or sticky failure, then wakes the waiters.
    fn finish_slot(&self, slot: usize, since: Lsn, outcome: std::io::Result<Lsn>, elapsed: u64) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match outcome {
            Ok(watermark) => {
                self.metrics.commits.inc();
                self.metrics.batch.record(watermark.saturating_sub(since));
                self.metrics.ns.record(elapsed);
                if st.synced[slot] < watermark {
                    st.synced[slot] = watermark;
                }
            }
            Err(e) => {
                st.failed[slot] = Some(format!("journal sync failed: {e}"));
            }
        }
        self.done.notify_all();
    }

    fn run(&self) {
        loop {
            // Wait for work (or stop).
            {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    let dirty = (0..st.pending.len())
                        .any(|s| st.failed[s].is_none() && st.pending[s] > st.synced[s]);
                    if dirty {
                        break;
                    }
                    if st.stop {
                        return;
                    }
                    st = self
                        .wake
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                // (lock released here so the window below gathers appends)
            }
            // The group window: let more appends pile onto this pass.
            if !self.interval.is_zero() && !self.stopped.load(Ordering::SeqCst) {
                std::thread::sleep(self.interval);
            }
            // Snapshot the dirty slots, then sync each without the
            // state lock held (the shard lock is what serializes).
            let work: Vec<(usize, Lsn)> = {
                let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                (0..st.pending.len())
                    .filter(|&s| st.failed[s].is_none() && st.pending[s] > st.synced[s])
                    .map(|s| (s, st.synced[s]))
                    .collect()
            };
            if let Some(sched) = &self.scheduler {
                // Fan the dirty shards out to the I/O pool; each sync
                // serializes on its own shard lock, so independent
                // shards fsync in parallel and the pass costs the
                // slowest shard, not the sum.
                let t0 = Instant::now();
                let tickets: Vec<_> = work
                    .iter()
                    .map(|&(slot, since)| {
                        let target = self.flavor_shard(slot);
                        let stores = self.stores.clone();
                        let ticket = sched.submit(move || Self::sync_slot(&stores, target));
                        (slot, since, ticket)
                    })
                    .collect();
                for (slot, since, ticket) in tickets {
                    let outcome = ticket.wait();
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    self.finish_slot(slot, since, outcome, elapsed);
                }
            } else {
                for (slot, since) in work {
                    let t0 = Instant::now();
                    let outcome = Self::sync_slot(&self.stores, self.flavor_shard(slot));
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    self.finish_slot(slot, since, outcome, elapsed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_harness::TempDir;
    use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
    use uucs_testcase::Resource;
    use uucs_wal::{SyncPolicy, WalConfig};

    fn rec(client: &str) -> RunRecord {
        RunRecord {
            client: client.into(),
            user: "u".into(),
            testcase: "t".into(),
            task: "IE".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 1.0,
            last_levels: vec![(Resource::Cpu, vec![2.0])],
            monitor: MonitorSummary::default(),
        }
    }

    fn durable_set(dir: &std::path::Path) -> Arc<StoreSet> {
        let cfg = WalConfig {
            segment_bytes: 64 * 1024,
            sync: SyncPolicy::Never, // the committer is the only fsync
        };
        let (set, _) = StoreSet::open(dir, cfg, 2).unwrap();
        Arc::new(set)
    }

    #[test]
    fn wait_returns_once_watermark_is_durable() {
        let dir = TempDir::new("uucs-commit-wait");
        let stores = durable_set(dir.path());
        let (committer, handle) =
            GroupCommitter::start(stores.clone(), Duration::from_micros(200));
        let shard = stores.results.shard_for("c1");
        let ticket = {
            let mut g = stores.results.write_recovered(shard);
            g.append_batch("c1", 1, vec![rec("c1")]).unwrap();
            let upto = g.wal_next_lsn().unwrap();
            committer.submit(StoreFlavor::Results, shard, upto)
        };
        committer.wait(ticket).unwrap();
        committer.stop();
        handle.join().unwrap();
    }

    #[test]
    fn one_pass_covers_many_appends() {
        let dir = TempDir::new("uucs-commit-batch");
        let stores = durable_set(dir.path());
        let (committer, handle) =
            GroupCommitter::start(stores.clone(), Duration::from_millis(5));
        let mut tickets = Vec::new();
        for i in 0..32 {
            let client = format!("c{i}");
            let shard = stores.results.shard_for(&client);
            let mut g = stores.results.write_recovered(shard);
            g.append_batch(&client, 1, vec![rec(&client)]).unwrap();
            let upto = g.wal_next_lsn().unwrap();
            drop(g);
            tickets.push(committer.submit(StoreFlavor::Results, shard, upto));
        }
        for t in tickets {
            committer.wait(t).unwrap();
        }
        committer.stop();
        handle.join().unwrap();
    }

    #[test]
    fn poll_is_nonblocking_and_converges() {
        let dir = TempDir::new("uucs-commit-poll");
        let stores = durable_set(dir.path());
        let (committer, handle) =
            GroupCommitter::start(stores.clone(), Duration::from_micros(500));
        let shard = stores.results.shard_for("c9");
        let mut g = stores.results.write_recovered(shard);
        g.append_batch("c9", 1, vec![rec("c9")]).unwrap();
        let upto = g.wal_next_lsn().unwrap();
        drop(g);
        let ticket = committer.submit(StoreFlavor::Results, shard, upto);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match committer.poll(ticket) {
                Some(r) => {
                    r.unwrap();
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "commit never completed");
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
        committer.stop();
        handle.join().unwrap();
    }

    #[test]
    fn stop_fails_unreachable_waits() {
        let dir = TempDir::new("uucs-commit-stop");
        let stores = durable_set(dir.path());
        let (committer, handle) = GroupCommitter::start(stores.clone(), Duration::from_secs(30));
        committer.stop();
        handle.join().unwrap();
        // A watermark far beyond anything appended can never be reached.
        let ticket = CommitTicket {
            flavor: StoreFlavor::Results,
            shard: 0,
            upto: 1_000_000,
        };
        assert!(committer.wait(ticket).is_err());
        assert!(matches!(committer.poll(ticket), Some(Err(_))));
    }
}
