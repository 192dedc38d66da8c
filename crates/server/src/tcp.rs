//! The TCP front end: a fixed worker pool sweeping nonblocking sockets.
//!
//! One accept thread hands each new socket to one of a fixed set of
//! workers, so the connection count is decoupled from the thread count.
//! Each worker owns its connections and sweeps them in a readiness
//! loop — drain readable bytes into a per-connection buffer, parse
//! complete frames with the torn-frame-rejecting wire readers (a strict
//! prefix of a valid frame never parses, so a partial read just waits
//! for more bytes), hand complete messages to the shared
//! [`UucsServer`], and flush replies. A connection whose reply awaits a
//! group-commit fsync parks on its [`CommitTicket`] and is polled
//! nonblockingly, so a worker keeps serving its other connections while
//! the disk catches up. The ceiling is file descriptors, not threads.
//!
//! Hardened for the open internet the paper's clients lived on:
//!
//! * **Per-connection read deadlines** — a stalled or black-holed peer
//!   is dropped after [`ServeConfig::read_timeout`].
//! * **Connection cap** — past [`ServeConfig::max_connections`] live
//!   connections, new arrivals get `ERROR server at capacity` and are
//!   closed, so an accept storm degrades politely. The close lingers:
//!   the server shuts down its write side and a worker drains the
//!   peer's request until it hangs up (or `LINGER` passes), so the
//!   close never turns into a reset that overtakes the `ERROR`.
//! * **Write backpressure** — a connection stops reading and parsing
//!   input while its unflushed replies exceed `MAX_OUTBUF`, so a peer
//!   that pipelines requests and never reads the replies cannot grow
//!   server memory; the read deadline then reclaims it.
//! * **Accept-error backoff** — a transient `accept(2)` failure (EMFILE,
//!   ECONNABORTED, ...) sleeps `ACCEPT_RETRY` and retries; it does not
//!   kill the listener.
//! * **Graceful drain** — [`ServerHandle::shutdown`] stops accepting,
//!   lets every worker close its connections, and joins the workers
//!   within a deadline.
//! * **Forward compatibility** — a message tag this server does not know
//!   ([`std::io::ErrorKind::Unsupported`]) is answered with
//!   `ERROR unsupported message ...` and the connection stays alive.
//!   Torn framing (`InvalidData`) still closes the connection: the
//!   stream position is unknown.

use crate::commit::{CommitTicket, GroupCommitter};
use crate::server::UucsServer;
use std::collections::VecDeque;
use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uucs_protocol::wire::{read_client_msg, write_server_msg};
use uucs_protocol::{ClientMsg, ServerMsg, WIRE_VERSION_BINARY};
use uucs_telemetry::{metrics, Counter, Gauge};
use uucs_wire::frame::{try_read_client_frame, write_server_frame};
use uucs_wire::{FrameRead, MAX_PIPELINE};

/// Wire-protocol telemetry: how many live connections speak each
/// framing, and how many verbs arrived over each wire version.
struct WireMetrics {
    text_conns: Gauge,
    binary_conns: Gauge,
    v1_verbs: Counter,
    v2_verbs: Counter,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: std::sync::OnceLock<WireMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| WireMetrics {
        text_conns: metrics::gauge("server.wire.text_conns"),
        binary_conns: metrics::gauge("server.wire.binary_conns"),
        v1_verbs: metrics::counter("server.wire.v1.verbs"),
        v2_verbs: metrics::counter("server.wire.v2.verbs"),
    })
}

/// RAII tracking of which framing gauge a connection occupies. Every
/// connection starts text (negotiation itself is text); `upgrade`
/// moves it to the binary gauge; drop releases whichever it holds.
struct WireConnGauge {
    binary: bool,
}

impl WireConnGauge {
    fn text() -> Self {
        wire_metrics().text_conns.inc();
        WireConnGauge { binary: false }
    }

    fn upgrade(&mut self) {
        if !self.binary {
            wire_metrics().text_conns.dec();
            wire_metrics().binary_conns.inc();
            self.binary = true;
        }
    }
}

impl Drop for WireConnGauge {
    fn drop(&mut self) {
        if self.binary {
            wire_metrics().binary_conns.dec();
        } else {
            wire_metrics().text_conns.dec();
        }
    }
}

/// Tuning knobs for the TCP front end.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-connection read deadline: a connection idle (or stalled
    /// mid-message) longer than this is closed. `None` waits forever —
    /// the pre-hardening behaviour.
    pub read_timeout: Option<Duration>,
    /// Maximum simultaneously served connections; arrivals beyond it are
    /// answered `ERROR server at capacity` and closed.
    pub max_connections: usize,
    /// How long [`ServerHandle::shutdown`] waits for the workers to
    /// drain before giving up on the stragglers.
    pub drain_deadline: Duration,
    /// Worker threads; `0` sizes from the machine's available
    /// parallelism.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_timeout: Some(Duration::from_secs(30)),
            // The worker pool spends a file descriptor, not a thread,
            // per connection — the default cap is sized for fleets.
            max_connections: 4096,
            drain_deadline: Duration::from_secs(5),
            workers: 0,
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// A running TCP server. Only [`ServerHandle::shutdown`] stops it and
/// joins its threads; dropping the handle leaves them running.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    live: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
    drain_deadline: Duration,
    /// The shared server state, for inspection by tests and drivers.
    pub server: Arc<UucsServer>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connections currently being served.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Requests shutdown and drains: stops accepting, joins the accept
    /// loop, and joins the workers (each closes its connections on its
    /// next sweep) within the configured deadline. Returns `true` if
    /// everything drained, `false` if stragglers were left behind
    /// (their threads die with the process).
    pub fn shutdown(mut self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + self.drain_deadline;
        let mut drained = true;
        for w in std::mem::take(&mut self.workers) {
            // `JoinHandle` has no timed join; poll `is_finished` against
            // the deadline.
            while !w.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if w.is_finished() {
                let _ = w.join();
            } else {
                drained = false;
            }
        }
        drained
    }
}

/// Binds `127.0.0.1:0` (or a specific address) and serves the given
/// server state until shutdown, with default hardening ([`ServeConfig`]).
pub fn serve(server: Arc<UucsServer>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with(server, addr, ServeConfig::default())
}

/// Cap on a connection's buffered unparsed input: a peer that streams
/// this much without ever completing a frame is hostile or broken.
const MAX_INBUF: usize = 4 * 1024 * 1024;

/// Cap on a connection's unflushed replies: past it the connection
/// stops reading and parsing input until the peer drains some, so the
/// buffer holds at most this plus one reply (plus the replies already
/// parked on fsync tickets, bounded by [`MAX_PIPELINE`]).
const MAX_OUTBUF: usize = MAX_INBUF;

/// Backoff after a transient `accept(2)` error.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// How long a capacity-rejected socket is drained before it closes.
const LINGER: Duration = Duration::from_millis(500);

/// Worker idle sleep: the sweep granularity when no socket had bytes.
/// Well under client retry timeouts (the chaos transports use 1s), and
/// coarse enough that an idle fleet costs ~no CPU.
const IDLE_SLEEP: Duration = Duration::from_micros(300);

/// Queues handing accepted sockets from the accept loop to the workers.
struct PoolShared {
    queues: Vec<Mutex<VecDeque<TcpStream>>>,
    /// Capacity-rejected sockets awaiting a clean close, with their
    /// deadlines; any worker's sweep drains them.
    lingering: Mutex<Vec<(TcpStream, Instant)>>,
    stop: Arc<AtomicBool>,
}

/// One drain step for a capacity-rejected socket: reads (and discards)
/// what the peer sent. `false` once it can close without a reset — the
/// peer hung up — or its deadline passed. One read per sweep, so a peer
/// that keeps sending cannot hold a worker.
fn lingers(stream: &mut TcpStream, deadline: Instant) -> bool {
    let mut buf = [0u8; 4096];
    match stream.read(&mut buf) {
        Ok(0) => false,
        Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => false,
        _ => Instant::now() < deadline,
    }
}

/// [`serve`] with explicit tuning.
pub fn serve_with(
    server: Arc<UucsServer>,
    addr: &str,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(0));
    let nworkers = if config.workers == 0 {
        default_workers()
    } else {
        config.workers
    };
    let shared = Arc::new(PoolShared {
        queues: (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect(),
        lingering: Mutex::new(Vec::new()),
        stop: stop.clone(),
    });
    let live_gauge = metrics::gauge("server.connections.live");
    let accepted = metrics::counter("server.connections.accepted");
    let rejected = metrics::counter("server.connections.rejected");

    let mut workers = Vec::with_capacity(nworkers);
    for i in 0..nworkers {
        let shared = shared.clone();
        let server = server.clone();
        let live = live.clone();
        let live_gauge = live_gauge.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("uucs-worker-{i}"))
                .spawn(move || worker_loop(i, shared, server, live, live_gauge, config))
                .expect("spawn pool worker"),
        );
    }

    let stop2 = stop.clone();
    let shared2 = shared.clone();
    let live2 = live.clone();
    let live_gauge2 = live_gauge.clone();
    let accept_thread = std::thread::Builder::new()
        .name("uucs-accept".into())
        .spawn(move || {
            let mut next = 0usize;
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        if live2.load(Ordering::SeqCst) >= config.max_connections {
                            // Over the cap: answer, then close without
                            // spending a live slot on the peer. Closing
                            // with its request unread would send a reset
                            // that can overtake the reply, so shut down
                            // our side and let the workers drain it.
                            rejected.inc();
                            let mut w = stream;
                            let _ = write_server_msg(
                                &mut w,
                                &ServerMsg::Error("server at capacity".into()),
                            );
                            if w.shutdown(Shutdown::Write).is_ok()
                                && w.set_nonblocking(true).is_ok()
                            {
                                shared2
                                    .lingering
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push((w, Instant::now() + LINGER));
                            }
                            continue;
                        }
                        live2.fetch_add(1, Ordering::SeqCst);
                        accepted.inc();
                        live_gauge2.inc();
                        let q = next % shared2.queues.len();
                        next = next.wrapping_add(1);
                        shared2.queues[q]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push_back(stream);
                    }
                    // A transient accept failure (EMFILE, ECONNABORTED,
                    // a half-open handshake torn down...) must not kill
                    // the whole server: back off briefly, keep listening.
                    Err(_) => std::thread::sleep(ACCEPT_RETRY),
                }
            }
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
        live,
        workers,
        drain_deadline: config.drain_deadline,
        server,
    })
}

/// One reply queued behind a group-commit fsync: redeemed by polling,
/// serialized only once the watermark is durable. A reply with no
/// ticket of its own (`SYNC`, `ADVICE`, `ERROR`, ...) parks too when an
/// earlier reply is still waiting, so replies leave in request order.
/// `req_id` is `None` on a text connection (text replies carry no
/// correlation id).
struct Parked {
    req_id: Option<u32>,
    ticket: Option<CommitTicket>,
    reply: ServerMsg,
}

/// Per-connection state machine of the worker pool.
struct PoolConn {
    stream: TcpStream,
    /// Unparsed input bytes (possibly a partial frame at the tail).
    inbuf: Vec<u8>,
    /// Serialized replies not yet flushed to the socket.
    outbuf: Vec<u8>,
    /// Replies parked behind group-commit fsyncs, oldest first. A text
    /// connection parks at most one and stops parsing input while it
    /// waits (replies stay ordered, exactly the legacy discipline); a
    /// binary connection keeps parsing up to [`MAX_PIPELINE`] parked
    /// replies — that is what request pipelining buys.
    pending: VecDeque<Parked>,
    /// Which framing gauge this connection occupies — and, via
    /// [`WireConnGauge::binary`], which framing it currently speaks.
    wire: WireConnGauge,
    /// Peer closed its write side; serve what is buffered, then close.
    eof: bool,
    /// `BYE` received (or torn input on an eof'd stream): close after
    /// the outbuf flushes.
    closing: bool,
    last_activity: Instant,
}

/// What one sweep step decided about a connection.
enum Step {
    Keep { progressed: bool },
    Close,
}

impl PoolConn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Replies are small multi-write frames; don't let Nagle sit on
        // them.
        let _ = stream.set_nodelay(true);
        Ok(PoolConn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            wire: WireConnGauge::text(),
            eof: false,
            closing: false,
            last_activity: Instant::now(),
        })
    }

    /// Whether this connection may read and parse more input: not once
    /// it is closing, not while its pipeline window of replies parked on
    /// fsync tickets is full (one for text, [`MAX_PIPELINE`] for
    /// binary), and not while its unflushed replies exceed `MAX_OUTBUF`
    /// — the write backpressure that bounds a peer that never reads.
    fn takes_input(&self) -> bool {
        let pipeline_cap = if self.wire.binary { MAX_PIPELINE } else { 1 };
        !self.closing && self.pending.len() < pipeline_cap && self.outbuf.len() <= MAX_OUTBUF
    }

    /// Queues one reply: serialized at once when nothing is parked and
    /// it needs no fsync, otherwise parked behind the earlier replies.
    fn queue_reply(&mut self, req_id: Option<u32>, ticket: Option<CommitTicket>, reply: ServerMsg) {
        if ticket.is_none() && self.pending.is_empty() {
            self.push_reply(req_id, &reply);
        } else {
            self.pending.push_back(Parked {
                req_id,
                ticket,
                reply,
            });
        }
    }

    /// Serializes one reply in whatever framing the connection speaks.
    fn push_reply(&mut self, req_id: Option<u32>, reply: &ServerMsg) {
        match req_id {
            Some(id) => {
                let _ = write_server_frame(&mut self.outbuf, id, reply);
            }
            None => {
                let _ = write_server_msg(&mut self.outbuf, reply);
            }
        }
    }

    fn step(
        &mut self,
        server: &UucsServer,
        committer: Option<&GroupCommitter>,
        read_timeout: Option<Duration>,
    ) -> Step {
        let mut progressed = false;

        // 1. Redeem parked replies whose fsync landed — oldest first,
        // so a pipelined client's acks still arrive in request order
        // even when many are parked at once.
        while let Some(parked) = self.pending.front() {
            // No committer can't really happen (tickets come from one),
            // but degrade to an immediate reply, never a wedge.
            let outcome = match (parked.ticket, committer) {
                (Some(ticket), Some(c)) => c.poll(ticket),
                _ => Some(Ok(())),
            };
            let Some(outcome) = outcome else { break };
            let done = self.pending.pop_front().expect("front exists");
            match outcome {
                Ok(()) => self.push_reply(done.req_id, &done.reply),
                Err(e) => {
                    let err = ServerMsg::Error(format!("journal commit failed: {e}"));
                    self.push_reply(done.req_id, &err);
                }
            }
            progressed = true;
        }

        // 2. Flush buffered replies.
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Step::Close,
                Ok(n) => {
                    self.outbuf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Step::Close,
            }
        }

        // 3. Drain readable bytes, unless the pipeline window is full or
        // the peer has not read enough of its replies.
        if self.takes_input() && !self.eof {
            let mut buf = [0u8; 4096];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&buf[..n]);
                        progressed = true;
                        if self.inbuf.len() > MAX_INBUF {
                            return Step::Close;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Step::Close,
                }
            }
        }

        // 4. Parse and handle every complete frame in the buffer, in
        // whichever framing the connection currently speaks. A `HELLO`
        // that negotiates binary flips the framing *between* messages:
        // the reply is serialized in text first, then every later byte
        // on the connection is a binary frame.
        while self.takes_input() && !self.inbuf.is_empty() {
            match parse_request(&self.inbuf, self.wire.binary) {
                Parsed::Incomplete => break,
                Parsed::Blank => {
                    self.inbuf.clear();
                    break;
                }
                Parsed::Corrupt => return Step::Close,
                Parsed::Request {
                    consumed,
                    req_id,
                    msg,
                } => {
                    self.inbuf.drain(..consumed);
                    progressed = true;
                    let msg = match msg {
                        Ok(msg) => msg,
                        Err(reply) => {
                            self.queue_reply(req_id, None, reply);
                            continue;
                        }
                    };
                    // Only binary frames carry a correlation id.
                    if req_id.is_some() {
                        wire_metrics().v2_verbs.inc();
                    } else {
                        wire_metrics().v1_verbs.inc();
                    }
                    if matches!(msg, ClientMsg::Bye) {
                        self.closing = true;
                        continue;
                    }
                    let (reply, ticket) = server.handle_deferred(&msg);
                    // Negotiation: the engine — not the handler — owns
                    // framing, so the flip happens here, after the text
                    // HELLO reply is queued.
                    let upgrade = matches!(
                        (&msg, &reply),
                        (ClientMsg::Hello { .. }, ServerMsg::Hello { version })
                            if *version >= WIRE_VERSION_BINARY
                    );
                    self.queue_reply(req_id, ticket, reply);
                    if upgrade {
                        self.wire.upgrade();
                    }
                }
            }
        }

        // 5. Lifecycle: a finished conversation closes once everything
        // owed has been flushed.
        let flushed = self.outbuf.is_empty() && self.pending.is_empty();
        if self.closing && flushed {
            return Step::Close;
        }
        if self.eof && flushed && self.inbuf.is_empty() {
            return Step::Close;
        }
        // Bytes that can never complete a frame (peer is gone).
        if self.eof && self.pending.is_empty() && !self.inbuf.is_empty() {
            if let Parsed::Incomplete = parse_request(&self.inbuf, self.wire.binary) {
                return Step::Close;
            }
        }

        if progressed {
            self.last_activity = Instant::now();
        } else if let Some(t) = read_timeout {
            if self.pending.is_empty() && self.last_activity.elapsed() > t {
                return Step::Close;
            }
        }
        Step::Keep { progressed }
    }
}

/// One parse of the front of a connection's input buffer.
enum Parsed {
    /// A strict prefix of a request: wait for more bytes.
    Incomplete,
    /// Only whitespace between text messages: the buffer is done.
    Blank,
    /// Damaged framing: the stream position is unknown, so close.
    Corrupt,
    /// `consumed` bytes held one request: `Ok` to handle, or `Err` with
    /// the `ERROR` for a well-framed request from a newer client (the
    /// connection goes on). `req_id` is the binary correlation id.
    Request {
        consumed: usize,
        req_id: Option<u32>,
        msg: Result<ClientMsg, ServerMsg>,
    },
}

/// The front end's request parser, for both framings: text (wire v1)
/// or, once negotiated, binary frames (wire v2).
fn parse_request(buf: &[u8], binary: bool) -> Parsed {
    if binary {
        let (consumed, req_id, msg) = match try_read_client_frame(buf) {
            Ok(FrameRead::Incomplete) => return Parsed::Incomplete,
            Err(_) => return Parsed::Corrupt,
            Ok(FrameRead::Msg {
                consumed,
                req_id,
                msg,
            }) => (consumed, req_id, Ok(msg)),
            Ok(FrameRead::Unknown {
                consumed,
                req_id,
                opcode,
            }) => {
                let reply = format!("unsupported message: unknown opcode {opcode}");
                (consumed, req_id, Err(ServerMsg::Error(reply)))
            }
        };
        return Parsed::Request {
            consumed,
            req_id: Some(req_id),
            msg,
        };
    }
    let mut cursor = Cursor::new(buf);
    let msg = match read_client_msg(&mut cursor) {
        Ok(Some(msg)) => Ok(msg),
        Ok(None) => return Parsed::Blank,
        // An unknown message tag: the read stopped at a clean line
        // boundary, so the connection can go on.
        Err(e) if e.kind() == ErrorKind::Unsupported => {
            Err(ServerMsg::Error(format!("unsupported message: {e}")))
        }
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Parsed::Incomplete,
        Err(_) => return Parsed::Corrupt,
    };
    Parsed::Request {
        consumed: cursor.position() as usize,
        req_id: None,
        msg,
    }
}

fn worker_loop(
    index: usize,
    shared: Arc<PoolShared>,
    server: Arc<UucsServer>,
    live: Arc<AtomicUsize>,
    live_gauge: Gauge,
    config: ServeConfig,
) {
    let committer = server.group_committer();
    let mut conns: Vec<PoolConn> = Vec::new();
    // Dropping a connection's stream closes the socket (the peer sees
    // EOF); releasing it frees its live slot.
    let release = || {
        live.fetch_sub(1, Ordering::SeqCst);
        live_gauge.dec();
    };
    loop {
        // Intake newly accepted sockets.
        {
            let mut q = shared.queues[index]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while let Some(stream) = q.pop_front() {
                match PoolConn::new(stream) {
                    Ok(conn) => conns.push(conn),
                    Err(_) => release(),
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            for _ in conns.drain(..) {
                release();
            }
            return;
        }
        shared
            .lingering
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain_mut(|(stream, deadline)| lingers(stream, *deadline));
        let mut any_progress = false;
        let mut i = 0;
        while i < conns.len() {
            match conns[i].step(&server, committer.as_deref(), config.read_timeout) {
                Step::Keep { progressed } => {
                    any_progress |= progressed;
                    i += 1;
                }
                Step::Close => {
                    conns.swap_remove(i);
                    release();
                    any_progress = true;
                }
            }
        }
        if !any_progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TestcaseStore;
    use std::io::{BufReader, Write};
    use uucs_protocol::wire::{read_server_msg, write_client_msg, Endpoint};
    use uucs_protocol::{MachineSnapshot, ServerMsg};
    use uucs_testcase::{ExerciseSpec, Resource, Testcase};

    fn start() -> ServerHandle {
        start_with(ServeConfig::default())
    }

    fn start_with(config: ServeConfig) -> ServerHandle {
        serve_with(Arc::new(library_server(10)), "127.0.0.1:0", config).unwrap()
    }

    fn library_server(testcases: usize) -> UucsServer {
        let lib = TestcaseStore::from_testcases(
            (0..testcases)
                .map(|i| {
                    Testcase::single(
                        format!("t{i}"),
                        1.0,
                        Resource::Disk,
                        ExerciseSpec::Ramp {
                            level: 2.0,
                            duration: 10.0,
                        },
                    )
                })
                .collect(),
        )
        .expect("generated ids are unique");
        UucsServer::new(lib, 9)
    }

    /// A peer that pipelines `SYNC` requests and never reads a reply
    /// must not grow the server's reply buffer without bound: past
    /// `MAX_OUTBUF` the connection stops reading and parsing input.
    #[test]
    fn unread_replies_stop_input_at_the_outbuf_bound() {
        let server = library_server(2000);
        let id = match server.handle(&ClientMsg::register(MachineSnapshot::study_machine("hog"))) {
            ServerMsg::Id { id, .. } => id,
            other => panic!("{other:?}"),
        };
        let sync = ClientMsg::Sync {
            client: id,
            have: 0,
            want: 2000,
        };
        let mut one_reply = Vec::new();
        write_server_msg(&mut one_reply, &server.handle(&sync)).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = PoolConn::new(accepted).unwrap();

        // Ten bounds' worth of replies, for a few KiB of requests that
        // the socket buffers hold without blocking this writer.
        let requests = 10 * MAX_OUTBUF / one_reply.len() + 1;
        let mut burst = Vec::new();
        for _ in 0..requests {
            write_client_msg(&mut burst, &sync).unwrap();
        }
        client.write_all(&burst).unwrap();

        let mut max_out = 0;
        let mut idle_steps = 0;
        while idle_steps < 100 {
            match conn.step(&server, None, None) {
                Step::Keep { progressed: true } => idle_steps = 0,
                Step::Keep { progressed: false } => {
                    idle_steps += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Step::Close => panic!("connection closed while replies were owed"),
            }
            max_out = max_out.max(conn.outbuf.len());
        }
        assert!(max_out > MAX_OUTBUF, "the burst never reached the bound");
        assert!(
            max_out <= MAX_OUTBUF + one_reply.len(),
            "outbuf grew to {max_out} bytes (bound {MAX_OUTBUF} + one {}-byte reply)",
            one_reply.len()
        );
        drop(client);
    }

    #[test]
    fn register_sync_upload_over_tcp() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("tcp-test")),
        )
        .unwrap();
        let id = match read_server_msg(&mut reader).unwrap() {
            ServerMsg::Id { id, .. } => id,
            other => panic!("{other:?}"),
        };

        write_client_msg(
            &mut writer,
            &ClientMsg::Sync {
                client: id.clone(),
                have: 0,
                want: 4,
            },
        )
        .unwrap();
        match read_server_msg(&mut reader).unwrap() {
            ServerMsg::Testcases(tcs) => assert_eq!(tcs.len(), 4),
            other => panic!("{other:?}"),
        }

        write_client_msg(
            &mut writer,
            &ClientMsg::Upload {
                client: id,
                seq: 1,
                records: vec![],
            },
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Ack(0)
        ));

        write_client_msg(&mut writer, &ClientMsg::Bye).unwrap();
        assert_eq!(handle.server.client_count(), 1);
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let handle = start();
        let addr = handle.addr();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    write_client_msg(
                        &mut writer,
                        &ClientMsg::register(MachineSnapshot::study_machine(format!("h{i}"))),
                    )
                    .unwrap();
                    match read_server_msg(&mut reader).unwrap() {
                        ServerMsg::Id { id, .. } => id,
                        other => panic!("{other:?}"),
                    }
                })
            })
            .collect();
        let mut ids: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4, "all clients got distinct ids");
        assert_eq!(handle.server.client_count(), 4);
        handle.shutdown();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let handle = start();
        let addr = handle.addr();
        handle.shutdown();
        // After shutdown the listener is gone; connecting fails or the
        // connection is immediately useless. Either way no panic.
        let _ = TcpStream::connect(addr);
    }

    #[test]
    fn unknown_message_answered_and_connection_survives() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // A message tag from the future.
        writer.write_all(b"TELEPORT now\n").unwrap();
        writer.flush().unwrap();
        match read_server_msg(&mut reader).unwrap() {
            ServerMsg::Error(e) => assert!(e.contains("unsupported"), "{e}"),
            other => panic!("{other:?}"),
        }
        // The connection is still alive and serves known messages.
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("future")),
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        handle.shutdown();
    }

    #[test]
    fn stalled_connection_is_closed_after_read_timeout() {
        let handle = start_with(ServeConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        });
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("staller")),
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        // ... then go silent. The server must hang up on us.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 1];
        let hung_up = matches!(std::io::Read::read(&mut reader, &mut buf), Ok(0));
        assert!(hung_up, "server kept a stalled connection alive");
        handle.shutdown();
    }

    /// The production defaults: the connection budget is sized for
    /// fleets (descriptors, not threads), and the worker count follows
    /// the machine. Changing either is a protocol-level decision, not a
    /// refactoring accident.
    #[test]
    fn default_engine_and_cap_are_fleet_scale() {
        let config = ServeConfig::default();
        assert_eq!(config.max_connections, 4096);
        assert_eq!(config.workers, 0, "0 = size from the machine");
    }

    /// Flag round-trips: explicit cap/worker settings survive
    /// into the running server's behavior.
    #[test]
    fn config_round_trips_through_serve() {
        let handle = start_with(ServeConfig {
            max_connections: 2,
            workers: 1,
            ..ServeConfig::default()
        });
        // Two connections fit ...
        let hold: Vec<TcpStream> = (0..2)
            .map(|i| {
                let s = TcpStream::connect(handle.addr()).unwrap();
                let mut w = s.try_clone().unwrap();
                let mut r = BufReader::new(s.try_clone().unwrap());
                write_client_msg(
                    &mut w,
                    &ClientMsg::register(MachineSnapshot::study_machine(format!("cap{i}"))),
                )
                .unwrap();
                assert!(matches!(
                    read_server_msg(&mut r).unwrap(),
                    ServerMsg::Id { .. }
                ));
                s
            })
            .collect();
        assert_eq!(handle.live_connections(), 2);
        // ... the third is told the server is full.
        let third = TcpStream::connect(handle.addr()).unwrap();
        let mut r3 = BufReader::new(third);
        match read_server_msg(&mut r3).unwrap() {
            ServerMsg::Error(e) => assert!(e.contains("capacity"), "{e}"),
            other => panic!("{other:?}"),
        }
        drop(hold);
        handle.shutdown();
    }

    #[test]
    fn connection_cap_rejects_politely() {
        let handle = start_with(ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        });
        // First connection occupies the only slot.
        let first = TcpStream::connect(handle.addr()).unwrap();
        let mut w1 = first.try_clone().unwrap();
        let mut r1 = BufReader::new(first);
        write_client_msg(
            &mut w1,
            &ClientMsg::register(MachineSnapshot::study_machine("holder")),
        )
        .unwrap();
        assert!(matches!(read_server_msg(&mut r1).unwrap(), ServerMsg::Id { .. }));
        // Second arrival is told the server is full, not silently hung.
        let second = TcpStream::connect(handle.addr()).unwrap();
        let mut r2 = BufReader::new(second);
        match read_server_msg(&mut r2).unwrap() {
            ServerMsg::Error(e) => assert!(e.contains("capacity"), "{e}"),
            other => panic!("{other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_open_connections() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("lingerer")),
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        assert_eq!(handle.live_connections(), 1);
        // The connection is idle-open; shutdown must still drain it
        // within the deadline rather than leak the thread.
        assert!(handle.shutdown(), "connection thread did not drain");
    }

    /// A request split across many tiny writes parses once complete —
    /// the pool's buffer state machine reassembles partial frames.
    #[test]
    fn fragmented_frames_reassemble() {
        let handle = start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut msg = Vec::new();
        write_client_msg(
            &mut msg,
            &ClientMsg::register(MachineSnapshot::study_machine("dribbler")),
        )
        .unwrap();
        for chunk in msg.chunks(3) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut reader = BufReader::new(stream);
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        handle.shutdown();
    }
}
