//! The disk scheduler: a bounded queue of fsync jobs drained by a
//! dedicated I/O thread pool, with completion tickets.
//!
//! The group committer is its one client. With a scheduler installed
//! ([`crate::UucsServer::with_io_scheduler`]) every commit pass submits
//! one fsync per dirty shard and redeems the tickets, so independent
//! shards sync in parallel and a pass costs the slowest shard, not the
//! sum. The stores then also defer segment-rotation fsyncs to those
//! passes, which takes the closing segment's fsync off the append path
//! (the `engine/rotation_under_load` bench measures inline vs deferred).
//!
//! Submission applies backpressure: when the queue is at capacity,
//! `submit` blocks until a worker drains a slot — bounded memory, and
//! a natural brake when the disk falls behind. Queue depth, queueing
//! stall, service time and op count surface as `server.disk.*`.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use uucs_telemetry::{metrics, Counter, Histogram};

/// How the server's storage engine is provisioned. The [`Default`]
/// profile has no scheduler: fsyncs run on the committer thread and
/// segment rotation syncs inline.
#[derive(Debug, Clone, Default)]
pub struct StorageProfile {
    /// Dedicated disk-scheduler threads. `0` disables the scheduler.
    pub io_threads: usize,
}

impl StorageProfile {
    /// Builds the disk scheduler when `io_threads > 0`.
    pub fn scheduler(&self) -> Option<Arc<DiskScheduler>> {
        (self.io_threads > 0).then(|| Arc::new(DiskScheduler::new(self.io_threads, 256)))
    }
}

type Job = Box<dyn FnOnce() -> io::Result<u64> + Send + 'static>;

struct Request {
    job: Job,
    ticket: Arc<TicketState>,
    enqueued: Instant,
}

#[derive(Default)]
struct TicketState {
    done: Mutex<Option<io::Result<u64>>>,
    cond: Condvar,
}

/// A completion ticket, redeemed with [`Ticket::wait`]. Dropping a
/// ticket abandons the result; the job still runs.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the job completes and returns its result (a
    /// caller-defined `u64`, e.g. a durability watermark).
    pub fn wait(self) -> io::Result<u64> {
        let mut done = self
            .state
            .done
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self
                .state
                .cond
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// `server.disk.*`: queue depth at enqueue, how long requests sat
/// queued, service time per op, and ops completed.
struct DiskMetrics {
    queue_depth: Histogram,
    stall_ns: Histogram,
    service_ns: Histogram,
    ops: Counter,
}

struct SchedShared {
    queue: Mutex<VecDeque<Request>>,
    /// Signals workers (work available / stop).
    work: Condvar,
    /// Signals submitters (slot freed).
    space: Condvar,
    capacity: usize,
    stop: AtomicBool,
    metrics: DiskMetrics,
}

impl SchedShared {
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Request>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded-queue fsync thread pool with completion tickets.
pub struct DiskScheduler {
    shared: Arc<SchedShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DiskScheduler {
    /// A pool of `threads` workers over a queue of at most
    /// `queue_capacity` outstanding requests (both clamped to ≥ 1).
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(SchedShared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity: queue_capacity.max(1),
            stop: AtomicBool::new(false),
            metrics: DiskMetrics {
                queue_depth: metrics::histogram("server.disk.queue_depth"),
                stall_ns: metrics::histogram("server.disk.stall_ns"),
                service_ns: metrics::histogram("server.disk.service_ns"),
                ops: metrics::counter("server.disk.ops"),
            },
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("uucs-disk-{i}"))
                    .spawn(move || Self::worker(&shared))
                    .expect("spawn disk worker")
            })
            .collect();
        DiskScheduler { shared, workers }
    }

    /// Enqueues `job`, blocking while the queue is full (backpressure).
    /// After [`DiskScheduler::shutdown`] the job is rejected: the
    /// ticket resolves to an error immediately.
    pub fn submit(&self, job: impl FnOnce() -> io::Result<u64> + Send + 'static) -> Ticket {
        let state = Arc::new(TicketState::default());
        let ticket = Ticket {
            state: state.clone(),
        };
        let mut queue = self.shared.lock_queue();
        while queue.len() >= self.shared.capacity && !self.shared.stop.load(Ordering::Acquire) {
            queue = self
                .shared
                .space
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if self.shared.stop.load(Ordering::Acquire) {
            drop(queue);
            Self::resolve(&state, Err(io::Error::other("disk scheduler is shut down")));
            return ticket;
        }
        queue.push_back(Request {
            job: Box::new(job),
            ticket: state,
            enqueued: Instant::now(),
        });
        let depth = queue.len();
        drop(queue);
        self.shared.metrics.queue_depth.record(depth as u64);
        self.shared.work.notify_one();
        ticket
    }

    fn resolve(state: &Arc<TicketState>, result: io::Result<u64>) {
        *state.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        state.cond.notify_all();
    }

    fn worker(shared: &SchedShared) {
        loop {
            let request = {
                let mut queue = shared.lock_queue();
                loop {
                    if let Some(req) = queue.pop_front() {
                        break req;
                    }
                    if shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    queue = shared
                        .work
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            shared.space.notify_one();
            let m = &shared.metrics;
            m.stall_ns
                .record(request.enqueued.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            let result = (request.job)();
            m.ops.inc();
            m.service_ns.record(t0.elapsed().as_nanos() as u64);
            Self::resolve(&request.ticket, result);
        }
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    /// Already-queued jobs still run (their tickets resolve normally).
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Anything still queued after the workers exited (stop raced a
        // final submit) gets an error, not a hang.
        for req in self.shared.lock_queue().drain(..) {
            Self::resolve(
                &req.ticket,
                Err(io::Error::other(
                    "disk scheduler shut down before the job ran",
                )),
            );
        }
    }
}

impl Drop for DiskScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn tickets_resolve_with_job_results_in_fifo_order() {
        let sched = DiskScheduler::new(1, 16);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tickets: Vec<_> = (0..8u64)
            .map(|i| {
                let seen = seen.clone();
                sched.submit(move || {
                    seen.lock().unwrap().push(i);
                    Ok(i * 10)
                })
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), i as u64 * 10);
        }
        assert_eq!(*seen.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn errors_travel_through_the_ticket() {
        let sched = DiskScheduler::new(2, 4);
        let t = sched.submit(|| Err(io::Error::other("disk on fire")));
        let err = t.wait().unwrap_err();
        assert!(err.to_string().contains("disk on fire"));
    }

    #[test]
    fn bounded_queue_applies_backpressure_but_completes_everything() {
        let sched = Arc::new(DiskScheduler::new(2, 2));
        let ran = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sched = sched.clone();
            let ran = ran.clone();
            handles.push(std::thread::spawn(move || {
                let tickets: Vec<_> = (0..25)
                    .map(|_| {
                        let ran = ran.clone();
                        sched.submit(move || {
                            std::thread::sleep(Duration::from_micros(200));
                            ran.fetch_add(1, Ordering::Relaxed);
                            Ok(0)
                        })
                    })
                    .collect();
                for t in tickets {
                    t.wait().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(sched.shared.lock_queue().len(), 0);
    }

    #[test]
    fn shutdown_drains_queued_work_and_rejects_new_work() {
        let mut sched = DiskScheduler::new(1, 64);
        let ran = Arc::new(AtomicU64::new(0));
        let tickets: Vec<_> = (0..10)
            .map(|_| {
                let ran = ran.clone();
                sched.submit(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(0)
                })
            })
            .collect();
        sched.shutdown();
        for t in tickets {
            // Queued-before-shutdown jobs either ran or were rejected
            // with an explicit error — never a hang.
            let _ = t.wait();
        }
        let t = sched.submit(|| Ok(1));
        assert!(t.wait().is_err(), "post-shutdown submits are rejected");
    }
}
