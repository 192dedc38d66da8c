//! The load generator: seeded request streams, the simulated volunteer
//! machines and governors they come from, and the open-loop sender that
//! keeps them pipelined on binary wire v2 connections.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use uucs_modelsvc::{QuantileSketch, SketchDelta};
use uucs_protocol::record::{MonitorSummary, RunOutcome, RunRecord};
use uucs_protocol::{ClientMsg, MachineSnapshot, ServerMsg, WIRE_VERSION_BINARY};
use uucs_stats::rng::Pcg64;
use uucs_testcase::Resource;
use uucs_wal::frame::{FrameError, FrameScanner, FRAME_HEADER};
use uucs_wire::conn::{negotiate, Negotiated};
use uucs_wire::{crc32, MAX_PIPELINE};

/// Registered simulated volunteer machines per workload.
pub const CLIENTS: usize = 256;
/// Governor-style clients holding a model base (`sync_reads`).
pub const GOVERNORS: usize = 32;
/// Foreground tasks the synthetic records and governors name.
pub const TASKS: [&str; 4] = ["word", "powerpoint", "browser", "game"];
/// Testcases a SYNC asks for.
pub const SYNC_WANT: usize = 8;

/// The idempotency token of simulated client `i`.
pub fn token(i: usize) -> String {
    format!("perfbench-{i:03}")
}

/// Request verbs the workloads mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `UPLOAD` of 1–4 records.
    Upload,
    /// `SYNC` for [`SYNC_WANT`] more testcases.
    Sync,
    /// `MODELDELTA` poll from a governor.
    ModelDelta,
    /// `ADVICE` query.
    Advice,
}

impl Verb {
    /// Every verb, in metric order.
    pub const ALL: [Verb; 4] = [Verb::Upload, Verb::Sync, Verb::ModelDelta, Verb::Advice];

    /// The verb's lower-case metric name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Upload => "upload",
            Verb::Sync => "sync",
            Verb::ModelDelta => "modeldelta",
            Verb::Advice => "advice",
        }
    }
}

/// A workload's verb mix, as shares summing to 1.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of uploads.
    pub upload: f64,
    /// Share of SYNC requests.
    pub sync: f64,
    /// Share of MODELDELTA polls.
    pub modeldelta: f64,
    /// Share of ADVICE queries (the rest).
    pub advice: f64,
}

impl Mix {
    /// Uploads only.
    pub const UPLOADS: Mix = Mix {
        upload: 1.0,
        sync: 0.0,
        modeldelta: 0.0,
        advice: 0.0,
    };

    /// Every request of one verb.
    pub fn only(verb: Verb) -> Mix {
        let mut m = Mix {
            upload: 0.0,
            sync: 0.0,
            modeldelta: 0.0,
            advice: 0.0,
        };
        *m.share_mut(verb) = 1.0;
        m
    }

    /// The share of `verb`.
    pub fn share(mut self, verb: Verb) -> f64 {
        *self.share_mut(verb)
    }

    fn share_mut(&mut self, verb: Verb) -> &mut f64 {
        match verb {
            Verb::Upload => &mut self.upload,
            Verb::Sync => &mut self.sync,
            Verb::ModelDelta => &mut self.modeldelta,
            Verb::Advice => &mut self.advice,
        }
    }

    fn pick(&self, u: f64) -> Verb {
        if u < self.upload {
            Verb::Upload
        } else if u < self.upload + self.sync {
            Verb::Sync
        } else if u < self.upload + self.sync + self.modeldelta {
            Verb::ModelDelta
        } else {
            Verb::Advice
        }
    }
}

/// One planned request.
#[derive(Debug, Clone)]
pub enum Op {
    /// A batch of records from one client.
    Upload {
        /// Client index.
        client: usize,
        /// Batch sequence number (above the client's server horizon).
        seq: u64,
        /// The records.
        records: Vec<RunRecord>,
    },
    /// A hot sync extending the client's sample.
    Sync {
        /// Client index.
        client: usize,
        /// Testcases the client already holds.
        have: usize,
    },
    /// A governor's delta poll.
    ModelDelta {
        /// Governor index.
        gov: usize,
    },
    /// A borrowing-level query.
    Advice {
        /// The resource.
        resource: Resource,
        /// The foreground task.
        task: &'static str,
    },
}

impl Op {
    /// The verb this op sends.
    pub fn verb(&self) -> Verb {
        match self {
            Op::Upload { .. } => Verb::Upload,
            Op::Sync { .. } => Verb::Sync,
            Op::ModelDelta { .. } => Verb::ModelDelta,
            Op::Advice { .. } => Verb::Advice,
        }
    }

    /// The connection this op is pinned to: a client's (or governor's)
    /// requests always share one connection, so its seqs arrive in
    /// order and its model base advances in reply order.
    pub fn conn(&self, index: usize, conns: usize) -> usize {
        match self {
            Op::Upload { client, .. } | Op::Sync { client, .. } => client % conns,
            Op::ModelDelta { gov } => gov % conns,
            Op::Advice { .. } => index % conns,
        }
    }

    /// The wire message, given the client ids and governor states.
    pub fn message(&self, ids: &[String], govs: &HashMap<usize, Governor>) -> ClientMsg {
        match self {
            Op::Upload {
                client,
                seq,
                records,
            } => ClientMsg::Upload {
                client: ids[*client].clone(),
                seq: *seq,
                records: records.clone(),
            },
            Op::Sync { client, have } => ClientMsg::Sync {
                client: ids[*client].clone(),
                have: *have,
                want: SYNC_WANT,
            },
            Op::ModelDelta { gov } => {
                let g = &govs[gov];
                ClientMsg::ModelDelta {
                    resource: g.resource,
                    task: g.task.clone(),
                    since: g.epoch,
                    basecrc: g.crc,
                }
            }
            Op::Advice { resource, task } => ClientMsg::Advice {
                resource: *resource,
                task: task.to_string(),
                epsilon: 0.05,
            },
        }
    }
}

/// A request with its due time, nanoseconds after the step's start.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When the request is due.
    pub due_ns: u64,
    /// What it is.
    pub op: Op,
}

/// Seeded synthetic result records, shaped like the client's.
pub fn records(rng: &mut Pcg64, client: &str, library: &[String], n: usize) -> Vec<RunRecord> {
    (0..n)
        .map(|_| {
            let resource = Resource::STUDIED[rng.below(3) as usize];
            let top = resource.max_contention() * (0.05 + 0.9 * rng.f64());
            let levels: Vec<f64> = (1..=5).map(|k| top * k as f64 / 5.0).collect();
            let discomfort = rng.f64() < 0.6;
            RunRecord {
                client: client.to_string(),
                user: format!("user-{}", rng.below(64)),
                testcase: library[rng.below(library.len() as u64) as usize].clone(),
                task: TASKS[rng.below(TASKS.len() as u64) as usize].to_string(),
                skill: String::new(),
                outcome: if discomfort {
                    RunOutcome::Discomfort
                } else {
                    RunOutcome::Exhausted
                },
                offset_secs: (rng.f64() * 120.0 * 1000.0).round() / 1000.0,
                last_levels: vec![(resource, levels)],
                monitor: MonitorSummary {
                    cpu_util: (rng.f64() * 1000.0).round() / 1000.0,
                    peak_mem_fraction: (rng.f64() * 1000.0).round() / 1000.0,
                    disk_busy: (rng.f64() * 1000.0).round() / 1000.0,
                    faults: rng.below(500),
                    mean_latency_us: None,
                },
            }
        })
        .collect()
}

/// The client-side state request streams are generated from: each
/// client's next batch sequence number and sample size.
#[derive(Debug, Clone)]
pub struct Streams {
    rng: Pcg64,
    library: Vec<String>,
    next_seq: Vec<u64>,
    have: Vec<usize>,
    ids: Vec<String>,
}

impl Streams {
    /// Streams for clients registered as `ids`, whose server horizons
    /// are `applied` (the next batch goes one above).
    pub fn new(seed: u64, library: Vec<String>, ids: Vec<String>, applied: &[u64]) -> Streams {
        Streams {
            rng: Pcg64::with_stream(seed, 0x10ad),
            library,
            next_seq: applied.iter().map(|a| a + 1).collect(),
            have: vec![0; ids.len()],
            ids,
        }
    }

    /// The next upload op of a random client (1–4 records).
    pub fn upload(&mut self) -> Op {
        let client = self.rng.below(self.ids.len() as u64) as usize;
        let n = 1 + self.rng.below(4) as usize;
        let records = records(&mut self.rng, &self.ids[client], &self.library, n);
        let seq = self.next_seq[client];
        self.next_seq[client] += 1;
        Op::Upload {
            client,
            seq,
            records,
        }
    }

    fn op(&mut self, mix: &Mix) -> Op {
        match mix.pick(self.rng.f64()) {
            Verb::Upload => self.upload(),
            Verb::Sync => {
                let mut client = self.rng.below(self.ids.len() as u64) as usize;
                // A client whose sample already covers the library
                // hands its turn to the next one.
                for _ in 0..self.ids.len() {
                    if self.have[client] + SYNC_WANT <= self.library.len() {
                        break;
                    }
                    client = (client + 1) % self.ids.len();
                }
                let have = self.have[client];
                self.have[client] += SYNC_WANT;
                Op::Sync { client, have }
            }
            Verb::ModelDelta => Op::ModelDelta {
                gov: self.rng.below(GOVERNORS as u64) as usize,
            },
            Verb::Advice => Op::Advice {
                resource: Resource::STUDIED[self.rng.below(3) as usize],
                task: TASKS[self.rng.below(TASKS.len() as u64) as usize],
            },
        }
    }

    /// `rate` requests per second for `secs` seconds, evenly spaced,
    /// split over `conns` connections by pinning.
    pub fn plan(&mut self, rate: f64, secs: f64, mix: &Mix, conns: usize) -> Vec<Vec<Planned>> {
        let n = (rate * secs).round() as usize;
        let mut out = vec![Vec::new(); conns];
        for i in 0..n {
            let op = self.op(mix);
            let c = op.conn(i, conns);
            out[c].push(Planned {
                due_ns: (i as f64 * 1e9 / rate) as u64,
                op,
            });
        }
        out
    }
}

/// A governor-style client: holds one merged model (epoch, sketch and
/// CRC of its encoding) and keeps it current with `MODELDELTA` polls.
#[derive(Debug, Clone)]
pub struct Governor {
    /// The modelled resource.
    pub resource: Resource,
    /// The task filter (`None` = all cohorts).
    pub task: Option<String>,
    /// The epoch of the held sketch.
    pub epoch: u64,
    /// The held sketch.
    pub sketch: QuantileSketch,
    /// CRC32 of `sketch.encode()`.
    pub crc: u32,
}

impl Governor {
    /// Governor `i`'s model key, from the seed.
    pub fn key(seed: u64, i: usize) -> (Resource, Option<String>) {
        let mut rng = Pcg64::with_stream(seed, 0x90 + i as u64);
        let resource = Resource::STUDIED[rng.below(3) as usize];
        let t = rng.below(TASKS.len() as u64 + 1) as usize;
        (resource, TASKS.get(t).map(|t| t.to_string()))
    }

    /// Adopts a full `MODEL` reply.
    pub fn adopt(&mut self, epoch: u64, sketch: &str) -> Result<(), String> {
        self.sketch = QuantileSketch::decode(sketch)?;
        self.epoch = epoch;
        self.crc = crc32(sketch.as_bytes());
        Ok(())
    }

    /// Handles a reply to a poll sent with base `since`. A delta whose
    /// base is no longer the held one (an earlier pipelined poll already
    /// advanced it) is skipped; applying it would be wrong.
    pub fn on_reply(&mut self, since: u64, reply: &ServerMsg) -> Result<(), String> {
        match reply {
            ServerMsg::ModelDelta {
                epoch,
                since: echoed,
                delta,
            } => {
                if *echoed != since {
                    return Err(format!("MODELDELTA echoed base {echoed}, sent {since}"));
                }
                if since != self.epoch || *epoch < self.epoch {
                    return Ok(());
                }
                let d = SketchDelta::decode(delta)?;
                self.sketch
                    .apply_delta(&d)
                    .map_err(|e| format!("delta from epoch {since} does not apply: {e:?}"))?;
                self.epoch = *epoch;
                self.crc = crc32(self.sketch.encode().as_bytes());
                Ok(())
            }
            ServerMsg::Model { epoch, sketch, .. } => {
                if *epoch >= self.epoch {
                    self.adopt(*epoch, sketch)?;
                }
                Ok(())
            }
            other => Err(format!("unexpected MODELDELTA reply {other:?}")),
        }
    }
}

/// One request's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The verb.
    pub verb: Verb,
    /// Due time, ns after the step start.
    pub due_ns: u64,
    /// Written at, ns after the step start.
    pub sent_ns: u64,
    /// Reply read at (`None` = unanswered).
    pub done_ns: Option<u64>,
    /// Whether the reply was a success.
    pub ok: bool,
}

/// What one connection did during one step.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Every planned request, in due order.
    pub samples: Vec<Sample>,
    /// Records acknowledged by `ACK` replies.
    pub acked_records: u64,
    /// Bytes of acknowledged records in their text form (user bytes).
    pub acked_user_bytes: u64,
    /// Output-check violations (any one fails the run).
    pub problems: Vec<String>,
}

/// A negotiated binary wire v2 connection driven by the generator.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_req: u32,
    /// Per-client state of the clients pinned here: testcase ids seen
    /// through SYNC.
    seen: HashMap<usize, HashSet<String>>,
    /// The governors pinned here.
    pub govs: HashMap<usize, Governor>,
}

impl Conn {
    /// Connects and negotiates wire v2 (what `--wire auto` gets).
    pub fn open(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        match negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY)? {
            Negotiated::Version(v) if v == WIRE_VERSION_BINARY => {}
            other => {
                return Err(io::Error::other(format!(
                    "server did not agree to wire v2: {other:?}"
                )))
            }
        }
        if !reader.buffer().is_empty() {
            return Err(io::Error::other("bytes after the HELLO reply"));
        }
        // Reads below only follow a readiness wait, so they never block;
        // writes stay blocking (the pipeline cap bounds what is queued).
        stream.set_read_timeout(None)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            next_req: 1,
            seen: HashMap::new(),
            govs: HashMap::new(),
        })
    }

    fn send(&mut self, msg: &ClientMsg) -> io::Result<u32> {
        let id = self.next_req;
        self.next_req = self.next_req.wrapping_add(1).max(1);
        self.stream
            .write_all(&uucs_wire::encode_client_frame(id, msg)?)?;
        Ok(id)
    }

    /// Pops one complete reply frame off the buffer, if there is one.
    fn pop_reply(&mut self) -> io::Result<Option<(u32, ServerMsg)>> {
        if self.buf.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        let total = FRAME_HEADER + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = match FrameScanner::new(&self.buf[..total]).next() {
            Some(Ok((_, p))) => p,
            Some(Err(FrameError::Corrupt { detail, .. })) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, detail))
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "torn reply frame",
                ))
            }
        };
        let (id, msg) = uucs_wire::codec::decode_server(payload)?;
        self.buf.drain(..total);
        Ok(Some((id, msg)))
    }

    /// Reads whatever arrives within `wait` into the buffer.
    fn fill(&mut self, wait: Duration) -> io::Result<()> {
        if !crate::sys::wait_readable(&self.stream, wait)? {
            return Ok(());
        }
        let mut chunk = [0u8; 65536];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// One strict request/reply exchange (set-up and final checks).
    pub fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        Ok(self.pipeline(std::slice::from_ref(msg))?.remove(0))
    }

    /// Sends `msgs` pipelined (at most [`MAX_PIPELINE`] in flight) and
    /// returns their replies in order, checking the echoed ids.
    pub fn pipeline(&mut self, msgs: &[ClientMsg]) -> io::Result<Vec<ServerMsg>> {
        let mut out = Vec::with_capacity(msgs.len());
        let mut inflight = VecDeque::new();
        let mut next = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while out.len() < msgs.len() {
            while next < msgs.len() && inflight.len() < MAX_PIPELINE {
                inflight.push_back(self.send(&msgs[next])?);
                next += 1;
            }
            while let Some((id, reply)) = self.pop_reply()? {
                let want = inflight.pop_front();
                if want != Some(id) {
                    return Err(io::Error::other(format!(
                        "reply echoes request {id}, expected {want:?}"
                    )));
                }
                out.push(reply);
            }
            if out.len() < msgs.len() {
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no reply within 30 s",
                    ));
                }
                self.fill(Duration::from_millis(100))?;
            }
        }
        Ok(out)
    }

    /// Drives one open-loop step: sends each planned request at its due
    /// time (relative to `t0`), never more than [`MAX_PIPELINE`] in
    /// flight, and reads replies as they come, until every request is
    /// answered or `drain` has passed after the last due time.
    pub fn run(
        &mut self,
        plan: &[Planned],
        ids: &[String],
        t0: Instant,
        drain: Duration,
    ) -> io::Result<ConnResult> {
        let mut res = ConnResult {
            samples: Vec::with_capacity(plan.len()),
            ..ConnResult::default()
        };
        // (request id, index into plan/samples, governor base sent)
        let mut inflight: VecDeque<(u32, usize, u64)> = VecDeque::new();
        let last_due = plan.last().map_or(0, |p| p.due_ns);
        let give_up = t0 + Duration::from_nanos(last_due) + drain;
        let mut next = 0;
        let mut answered = 0;
        let mut reorders = 0u64;
        loop {
            let now_ns = t0.elapsed().as_nanos() as u64;
            while next < plan.len() && inflight.len() < MAX_PIPELINE && plan[next].due_ns <= now_ns
            {
                let p = &plan[next];
                let msg = p.op.message(ids, &self.govs);
                let since = match &msg {
                    ClientMsg::ModelDelta { since, .. } => *since,
                    _ => 0,
                };
                let id = self.send(&msg)?;
                res.samples.push(Sample {
                    verb: p.op.verb(),
                    due_ns: p.due_ns,
                    sent_ns: t0.elapsed().as_nanos() as u64,
                    done_ns: None,
                    ok: false,
                });
                inflight.push_back((id, next, since));
                next += 1;
            }
            while let Some((id, reply)) = self.pop_reply()? {
                let done = t0.elapsed().as_nanos() as u64;
                // Replies must come back in request order. One that
                // overtakes an earlier request is a contract violation;
                // it is still paired by its id so the run can finish.
                let Some(pos) = inflight.iter().position(|(want, _, _)| *want == id) else {
                    res.problems
                        .push(format!("reply to request {id}, which is not in flight"));
                    return Ok(res);
                };
                if pos > 0 {
                    reorders += 1;
                    if reorders == 1 {
                        res.problems.push(format!(
                            "reply to request {id} overtook the reply to request {} (FIFO order violated)",
                            inflight[0].0
                        ));
                    }
                }
                let (_, idx, since) = inflight.remove(pos).expect("position is in range");
                let ok = self.check(&plan[idx].op, since, &reply, &mut res);
                let s = &mut res.samples[idx];
                s.done_ns = Some(done);
                s.ok = ok;
                answered += 1;
            }
            if answered == plan.len() || Instant::now() > give_up {
                break;
            }
            let now_ns = t0.elapsed().as_nanos() as u64;
            let wait = if next < plan.len() && inflight.len() < MAX_PIPELINE {
                Duration::from_nanos(plan[next].due_ns.saturating_sub(now_ns))
            } else {
                Duration::from_millis(5)
            };
            if wait.is_zero() {
                continue;
            }
            self.fill(wait)?;
        }
        // Replies still owed when the drain ran out count as failed, but
        // they must not reach a later exchange on this connection.
        let late_limit = Instant::now() + Duration::from_secs(30);
        while !inflight.is_empty() {
            if Instant::now() > late_limit {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{} replies never arrived", inflight.len()),
                ));
            }
            self.fill(Duration::from_millis(100))?;
            while let Some((id, _)) = self.pop_reply()? {
                inflight.retain(|(want, _, _)| *want != id);
            }
        }
        if reorders > 1 {
            res.problems.push(format!(
                "{reorders} replies in all arrived out of request order"
            ));
        }
        // Requests never sent (the window closed first) count as
        // attempted and failed.
        for p in &plan[next..] {
            res.samples.push(Sample {
                verb: p.op.verb(),
                due_ns: p.due_ns,
                sent_ns: p.due_ns,
                done_ns: None,
                ok: false,
            });
        }
        Ok(res)
    }

    /// Output checks on one reply; returns whether the request
    /// succeeded. A violation is recorded as a problem (it fails the
    /// run); a server-side error reply is just a failed request.
    fn check(&mut self, op: &Op, since: u64, reply: &ServerMsg, res: &mut ConnResult) -> bool {
        if let ServerMsg::Error(_) = reply {
            return false;
        }
        match (op, reply) {
            (Op::Upload { records, .. }, ServerMsg::Ack(n)) => {
                if *n != records.len() {
                    res.problems.push(format!(
                        "ACK {n} for an upload of {} records",
                        records.len()
                    ));
                    return false;
                }
                res.acked_records += *n as u64;
                res.acked_user_bytes += records.iter().map(|r| r.emit().len() as u64).sum::<u64>();
                true
            }
            (Op::Sync { client, .. }, ServerMsg::Testcases(tcs)) => {
                if tcs.len() != SYNC_WANT {
                    res.problems.push(format!(
                        "SYNC returned {} testcases, wanted {SYNC_WANT}",
                        tcs.len()
                    ));
                    return false;
                }
                let seen = self.seen.entry(*client).or_default();
                for tc in tcs {
                    if !seen.insert(tc.id.to_string()) {
                        res.problems.push(format!(
                            "SYNC repeated testcase {} for client {client}",
                            tc.id
                        ));
                        return false;
                    }
                }
                true
            }
            (Op::ModelDelta { gov }, r) => {
                let g = self
                    .govs
                    .get_mut(gov)
                    .expect("governor pinned to this connection");
                match g.on_reply(since, r) {
                    Ok(()) => true,
                    Err(e) => {
                        res.problems.push(format!("governor {gov}: {e}"));
                        false
                    }
                }
            }
            (Op::Advice { .. }, ServerMsg::Advice { level, .. }) => {
                if !level.is_finite() {
                    res.problems
                        .push(format!("ADVICE level {level} is not finite"));
                    return false;
                }
                true
            }
            (op, other) => {
                res.problems
                    .push(format!("{} answered with {other:?}", op.verb().name()));
                false
            }
        }
    }

    /// Sends `BYE` and closes.
    pub fn close(mut self) {
        let _ = self.send(&ClientMsg::Bye);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The registration message for simulated client `i`.
pub fn register_msg(i: usize) -> ClientMsg {
    ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine(format!("volunteer-{i:03}")),
        token: token(i),
    }
}
