//! A fault-tolerant [`ClientTransport`]: per-exchange deadlines, bounded
//! retries with deterministic exponential backoff, and automatic
//! reconnection.
//!
//! A [`TcpTransport`](crate::transport::TcpTransport) is one connection:
//! it dies on the first torn connection, and without a deadline blocks
//! forever on a black-holed server. [`ResilientTransport`] holds one at
//! a time in a retry loop: every exchange gets a read/write deadline, a
//! failed exchange drops the connection and reconnects after a backoff
//! delay, and after a bounded number of attempts the error surfaces to
//! the caller — who keeps the records spooled locally and tries again at
//! the next sync ("the client can operate disconnected from the
//! server").
//!
//! Retrying an exchange is safe because every message in the protocol is
//! idempotent from the server's point of view: `SYNC` is a read,
//! `UPLOAD` carries a per-client batch sequence number the server
//! deduplicates on, and a re-`REGISTER` merely burns an id. The backoff
//! schedule is a pure function of the policy (including its jitter
//! seed), so tests replay identical timing decisions.
//!
//! Only *transient* failures are retried (timeouts, refused dials,
//! resets, torn frames). A peer that speaks an unknown protocol
//! ([`std::io::ErrorKind::Unsupported`]) or emits unparseable bytes
//! (`InvalidData`) fails the exchange immediately: it would answer
//! every retry the same way, and the caller's offline spool is the
//! right fallback.

use crate::transport::{ClientTransport, TcpTransport};
use std::io;
use std::sync::OnceLock;
use std::time::Duration;
use uucs_protocol::{ClientMsg, ServerMsg};
use uucs_stats::Pcg64;
use uucs_telemetry::{metrics, Counter, Gauge};
use uucs_wire::WireMode;

/// Pre-registered transport telemetry (`client.transport.*`): one
/// registry lookup per process, a few atomic ops per exchange.
struct TransportMetrics {
    attempts: Counter,
    retries: Counter,
    backoff_ns: Counter,
    timeouts: Counter,
    exchanges_ok: Counter,
    failures: Counter,
    failovers: Counter,
    /// The wire version the current connection negotiated (1 = text,
    /// 2 = binary, 0 = no connection yet).
    negotiated: Gauge,
}

fn transport_metrics() -> &'static TransportMetrics {
    static METRICS: OnceLock<TransportMetrics> = OnceLock::new();
    METRICS.get_or_init(|| TransportMetrics {
        attempts: metrics::counter("client.transport.attempts"),
        retries: metrics::counter("client.transport.retries"),
        backoff_ns: metrics::counter("client.transport.backoff_ns"),
        timeouts: metrics::counter("client.transport.timeouts"),
        exchanges_ok: metrics::counter("client.transport.exchanges_ok"),
        failures: metrics::counter("client.transport.failures"),
        failovers: metrics::counter("client.failover.count"),
        negotiated: metrics::gauge("client.wire.negotiated"),
    })
}

/// What a failed exchange attempt means for the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The peer would answer every retry identically (unknown protocol,
    /// unparseable bytes): surface the error now.
    Permanent,
    /// Nobody is home at *this* address — the OS refused the dial
    /// without waiting. With a server list, the next address deserves
    /// an immediate try: a refused dial costs milliseconds, unlike a
    /// timeout, so backing off before pivoting just delays failover.
    FastFailover,
    /// A transient fault where the server may yet answer (timeout,
    /// reset, torn frame): back off, then retry.
    Backoff,
}

/// The retry classification table. Pure, total, and unit-tested — the
/// one place deciding which failures burn backoff time, which pivot to
/// the next server immediately, and which give up.
pub fn classify(kind: io::ErrorKind) -> FailureClass {
    match kind {
        io::ErrorKind::Unsupported | io::ErrorKind::InvalidData => FailureClass::Permanent,
        io::ErrorKind::ConnectionRefused => FailureClass::FastFailover,
        _ => FailureClass::Backoff,
    }
}

/// Bounded-retry schedule: exponential backoff with multiplicative
/// jitter, deterministic under a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total exchange attempts before giving up (>= 1).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles per attempt after that.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Jitter seed; the same seed always yields the same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x7e57,
        }
    }
}

impl RetryPolicy {
    /// The full backoff schedule: `max_attempts - 1` delays, where delay
    /// `i` is `min(cap, base << i)` scaled by a jitter factor in
    /// `[0.5, 1.0)` drawn from the seeded generator. Pure — two calls
    /// return identical schedules.
    pub fn delays(&self) -> Vec<Duration> {
        let mut rng = Pcg64::new(self.seed).split_str("backoff");
        (0..self.max_attempts.saturating_sub(1))
            .map(|i| {
                let exp = self
                    .base
                    .saturating_mul(1u32.checked_shl(i).unwrap_or(u32::MAX))
                    .min(self.cap);
                let jitter = rng.uniform(0.5, 1.0);
                Duration::from_secs_f64(exp.as_secs_f64() * jitter)
            })
            .collect()
    }
}

/// How long a `ResilientTransport` waits for connect, read, and write.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// A reconnecting TCP transport with deadlines, bounded retries, and
/// multi-address failover: give it every node of a replicated server
/// tier and it pivots to the next address when the current one refuses
/// the dial or answers "not leader".
pub struct ResilientTransport {
    addrs: Vec<String>,
    current: usize,
    /// Index of the address the last successful exchange used; a
    /// success elsewhere counts one failover.
    last_good: Option<usize>,
    timeout: Duration,
    policy: RetryPolicy,
    wire: WireMode,
    conn: Option<TcpTransport>,
    sleeper: Box<dyn FnMut(Duration) + Send>,
}

impl ResilientTransport {
    /// Creates a transport for `addr` with the default deadline and
    /// retry policy. Does not connect — the first exchange does.
    pub fn new(addr: impl Into<String>) -> Self {
        Self::multi(vec![addr.into()])
    }

    /// Creates a transport over a server list (at least one address).
    /// Exchanges start at the first address and fail over in list order,
    /// wrapping around.
    pub fn multi(addrs: Vec<String>) -> Self {
        assert!(!addrs.is_empty(), "at least one server address required");
        ResilientTransport {
            addrs,
            current: 0,
            last_good: None,
            timeout: DEFAULT_TIMEOUT,
            policy: RetryPolicy::default(),
            wire: WireMode::default(),
            conn: None,
            sleeper: Box::new(std::thread::sleep),
        }
    }

    /// The address the next exchange will dial.
    pub fn current_addr(&self) -> &str {
        &self.addrs[self.current]
    }

    /// Drops the connection and advances to the next address in the
    /// list (a no-op rotation with a single address).
    fn rotate(&mut self) {
        self.conn = None;
        self.current = (self.current + 1) % self.addrs.len();
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the per-exchange connect/read/write deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Selects the wire framing. [`WireMode::Text`] (the default) never
    /// sends `HELLO` and stays byte-identical to a legacy client;
    /// [`WireMode::Auto`] negotiates per fresh connection — so a
    /// failover to a legacy server renegotiates and degrades to text,
    /// and a failover back upgrades again; [`WireMode::Binary`] fails
    /// the exchange (permanently, no retries) when the server cannot
    /// speak binary.
    pub fn with_wire_mode(mut self, wire: WireMode) -> Self {
        self.wire = wire;
        self
    }

    /// The framing the current connection speaks, if connected.
    pub fn negotiated_wire(&self) -> Option<u32> {
        self.conn.as_ref().map(TcpTransport::version)
    }

    /// Replaces the sleep function used between attempts (tests inject a
    /// recorder to assert the schedule without waiting it out).
    pub fn with_sleeper(mut self, sleeper: Box<dyn FnMut(Duration) + Send>) -> Self {
        self.sleeper = sleeper;
        self
    }

    /// Whether a live connection is currently held.
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Ends the session politely if a connection is up.
    pub fn bye(&mut self) {
        if let Some(mut t) = self.conn.take() {
            let _ = t.bye();
        }
        transport_metrics().negotiated.set(0);
    }

    fn ensure_connected(&mut self) -> io::Result<&mut TcpTransport> {
        if self.conn.is_none() {
            // Negotiation runs per fresh connection, so each address in
            // the failover list gets its own verdict.
            let conn =
                TcpTransport::dial(&self.addrs[self.current], self.wire, Some(self.timeout))?;
            transport_metrics()
                .negotiated
                .set(i64::from(conn.version()));
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }
}

/// A server-side refusal that means "this node is a follower" — the
/// reply every read-only cluster node gives mutating verbs. Worth a
/// pivot, not a backoff: some other node in the list leads.
fn is_not_leader(reply: &ServerMsg) -> bool {
    matches!(reply, ServerMsg::Error(msg) if msg.starts_with("not leader"))
}

impl ClientTransport for ResilientTransport {
    /// Sends `msg`, reconnecting, failing over, and retrying per the
    /// policy. Failures route through the [`classify`] table: permanent
    /// ones surface immediately, refused dials (and "not leader"
    /// refusals) pivot to the next address without burning backoff
    /// time — bounded to one lap of the list per attempt — and
    /// everything else sleeps the (deterministic) backoff delay, also
    /// rotating so the retry lands on a different server when there is
    /// one. The last error surfaces after `max_attempts` failures.
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        let tm = transport_metrics();
        let delays = self.policy.delays();
        let mut last_err: Option<io::Error> = None;
        let mut attempt = 0u32;
        // Fast pivots taken since the last backoff-class failure; one
        // full lap of dead addresses forfeits the fast path (otherwise
        // a fully-down cluster would spin instead of backing off).
        let mut fast_hops = 0usize;
        while attempt < self.policy.max_attempts.max(1) {
            if attempt > 0 && fast_hops == 0 {
                let delay = delays
                    .get(attempt as usize - 1)
                    .copied()
                    .unwrap_or(self.policy.cap);
                tm.retries.inc();
                tm.backoff_ns.add(delay.as_nanos() as u64);
                (self.sleeper)(delay);
            }
            tm.attempts.inc();
            let result = self
                .ensure_connected()
                .and_then(|conn| conn.exchange(msg));
            match result {
                Ok(reply) => {
                    if is_not_leader(&reply) && fast_hops + 1 < self.addrs.len() {
                        // A healthy follower answered: the leader is
                        // some other list entry. Pivot like a refused
                        // dial — this costs one round trip, not a
                        // backoff window.
                        fast_hops += 1;
                        self.rotate();
                        continue;
                    }
                    tm.exchanges_ok.inc();
                    if self.last_good.is_some_and(|i| i != self.current) {
                        tm.failovers.inc();
                    }
                    self.last_good = Some(self.current);
                    return Ok(reply);
                }
                Err(e) => {
                    if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) {
                        tm.timeouts.inc();
                    }
                    // Connection state is unknown (torn write, half a
                    // reply, a timeout mid-frame): drop it and reconnect
                    // on the next attempt.
                    self.conn = None;
                    match classify(e.kind()) {
                        // A peer that speaks an unknown protocol
                        // (`Unsupported`) or emits bytes that cannot
                        // parse (`InvalidData`) will say the same thing
                        // after every backoff — burning the whole
                        // schedule per message just delays the caller's
                        // fallback to the offline spool.
                        FailureClass::Permanent => {
                            tm.failures.inc();
                            return Err(e);
                        }
                        FailureClass::FastFailover if fast_hops + 1 < self.addrs.len() => {
                            fast_hops += 1;
                            self.rotate();
                            last_err = Some(e);
                            continue;
                        }
                        // Timeouts, resets, torn frames (`UnexpectedEof`)
                        // — and refused dials once the whole list
                        // refused: back off, then try the next address.
                        FailureClass::FastFailover | FailureClass::Backoff => {
                            fast_hops = 0;
                            self.rotate();
                            last_err = Some(e);
                            attempt += 1;
                        }
                    }
                }
            }
        }
        tm.failures.inc();
        Err(last_err
            .unwrap_or_else(|| io::Error::other("retry policy allows zero attempts")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(400),
            seed: 99,
        };
        let a = policy.delays();
        let b = policy.delays();
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), 5);
        for (i, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(100)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(400));
            assert!(*d >= exp / 2, "delay {i} below jitter floor: {d:?}");
            assert!(*d <= exp, "delay {i} above cap: {d:?}");
        }
        // A different seed jitters differently.
        let other = RetryPolicy { seed: 100, ..policy }.delays();
        assert_ne!(a, other);
    }

    #[test]
    fn dead_server_fails_after_bounded_attempts() {
        // Bind-then-drop yields an address nothing listens on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let rec = slept.clone();
        let policy = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(20),
            seed: 7,
        };
        let expected = policy.delays();
        let mut t = ResilientTransport::new(addr.to_string())
            .with_timeout(Duration::from_millis(200))
            .with_policy(policy)
            .with_sleeper(Box::new(move |d| rec.lock().unwrap().push(d)));
        let err = t.exchange(&ClientMsg::Bye).unwrap_err();
        assert!(!t.is_connected());
        // Exactly max_attempts - 1 sleeps, following the pure schedule.
        assert_eq!(*slept.lock().unwrap(), expected);
        // And the failure is a refused dial, not a silent hang.
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::ConnectionRefused | io::ErrorKind::TimedOut
            ),
            "unexpected error: {err}"
        );
    }

    /// A protocol-mismatched peer is a *permanent* failure: the error
    /// must surface on the first attempt, not after burning the whole
    /// backoff schedule against a server that will answer the same way
    /// every time.
    #[test]
    fn protocol_mismatch_fails_without_retries() {
        use std::io::Write;

        // A "server" from another planet: answers every connection with
        // an unknown tag, which the wire reader reports as Unsupported.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            // One connection is all a non-retrying transport makes; a
            // regression that retries would find the listener gone and
            // surface ConnectionRefused instead of Unsupported, failing
            // the kind assertion below.
            if let Ok((mut stream, _)) = listener.accept() {
                let _ = stream.write_all(b"WARP speed 9\n");
            }
        });
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let rec = slept.clone();
        let mut t = ResilientTransport::new(addr.to_string())
            .with_timeout(Duration::from_millis(500))
            .with_policy(RetryPolicy {
                max_attempts: 5,
                base: Duration::from_millis(10),
                cap: Duration::from_millis(20),
                seed: 11,
            })
            .with_sleeper(Box::new(move |d| rec.lock().unwrap().push(d)));
        let err = t.exchange(&ClientMsg::Bye).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        assert!(
            slept.lock().unwrap().is_empty(),
            "permanent failure was retried: {:?}",
            slept.lock().unwrap()
        );
        assert!(!t.is_connected());
        drop(t);
        h.join().unwrap();
    }

    #[test]
    fn reconnects_after_server_restarts() {
        use std::io::BufReader;
        use uucs_protocol::wire::{read_client_msg, write_server_msg};

        // A single-shot server: answers one exchange then slams the door.
        fn one_shot(listener: std::net::TcpListener) -> std::thread::JoinHandle<()> {
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                if read_client_msg(&mut reader).unwrap().is_some() {
                    write_server_msg(&mut writer, &ServerMsg::Ack(1)).unwrap();
                }
                // Dropping both halves resets the connection.
            })
        }

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h1 = one_shot(listener);
        let mut t = ResilientTransport::new(addr.to_string())
            .with_timeout(Duration::from_millis(500))
            .with_policy(RetryPolicy {
                max_attempts: 5,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(5),
                seed: 3,
            });
        let msg = ClientMsg::Sync {
            client: "c".into(),
            have: 0,
            want: 1,
        };
        assert_eq!(t.exchange(&msg).unwrap(), ServerMsg::Ack(1));
        h1.join().unwrap();

        // The first server is gone; a second generation binds the same
        // port is racy, so re-bind a fresh listener and retarget — the
        // point is the dropped connection is detected and re-dialed.
        let listener2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr2 = listener2.local_addr().unwrap();
        let h2 = one_shot(listener2);
        t.addrs = vec![addr2.to_string()];
        t.current = 0;
        assert_eq!(t.exchange(&msg).unwrap(), ServerMsg::Ack(1));
        h2.join().unwrap();
    }

    /// The classification table, pinned: exactly which error kinds are
    /// permanent, which pivot to the next address without backoff, and
    /// which sleep. A regression here silently changes failover latency
    /// across the whole fleet.
    #[test]
    fn failure_classification_table() {
        use io::ErrorKind::*;
        for (kind, want) in [
            (Unsupported, FailureClass::Permanent),
            (InvalidData, FailureClass::Permanent),
            (ConnectionRefused, FailureClass::FastFailover),
            (TimedOut, FailureClass::Backoff),
            (WouldBlock, FailureClass::Backoff),
            (ConnectionReset, FailureClass::Backoff),
            (ConnectionAborted, FailureClass::Backoff),
            (UnexpectedEof, FailureClass::Backoff),
            (BrokenPipe, FailureClass::Backoff),
            (NotConnected, FailureClass::Backoff),
            (AddrNotAvailable, FailureClass::Backoff),
            (Other, FailureClass::Backoff),
        ] {
            assert_eq!(classify(kind), want, "{kind:?}");
        }
    }

    /// A refused dial on the first address must reach the second
    /// address *without* sleeping: fast failover is the difference
    /// between a sub-millisecond pivot and a multi-second backoff lap
    /// while a perfectly healthy replica sits in the list.
    #[test]
    fn connection_refused_fails_over_without_backoff() {
        use std::io::BufReader;
        use uucs_protocol::wire::{read_client_msg, write_server_msg};

        // A dead first address and a live second one.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            if read_client_msg(&mut reader).unwrap().is_some() {
                write_server_msg(&mut writer, &ServerMsg::Ack(7)).unwrap();
            }
        });
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let rec = slept.clone();
        let mut t = ResilientTransport::multi(vec![dead.to_string(), live.to_string()])
            .with_timeout(Duration::from_millis(500))
            .with_sleeper(Box::new(move |d| rec.lock().unwrap().push(d)));
        let msg = ClientMsg::Sync {
            client: "c".into(),
            have: 0,
            want: 1,
        };
        assert_eq!(t.exchange(&msg).unwrap(), ServerMsg::Ack(7));
        assert!(
            slept.lock().unwrap().is_empty(),
            "fast failover must not sleep: {:?}",
            slept.lock().unwrap()
        );
        assert_eq!(t.current_addr(), live.to_string());
        h.join().unwrap();
    }

    /// A one-connection server stub that records every request it reads
    /// and answers each `SYNC` with `ACK <have>`. As a v2 server it
    /// answers `HELLO` with `HELLO 2` and reads binary frames from then
    /// on; as a legacy server it answers `ERROR` to the verb it does not
    /// know and stays in text. It accepts a single connection, so a
    /// transport that redialed would be refused.
    fn stub_server(v2: bool) -> (String, std::thread::JoinHandle<Vec<ClientMsg>>) {
        use std::io::{BufReader, Read};
        use uucs_protocol::wire::{read_client_msg, write_server_msg};
        use uucs_wire::frame::{try_read_client_frame, write_server_frame};
        use uucs_wire::FrameRead;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(listener);
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut seen = Vec::new();
            let mut binary = false;
            loop {
                let (req_id, msg) = if binary {
                    let mut frame = vec![0u8; 8];
                    if reader.read_exact(&mut frame).is_err() {
                        break;
                    }
                    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
                    frame.resize(8 + len, 0);
                    reader.read_exact(&mut frame[8..]).unwrap();
                    match try_read_client_frame(&frame).unwrap() {
                        FrameRead::Msg { req_id, msg, .. } => (Some(req_id), msg),
                        other => panic!("{other:?}"),
                    }
                } else {
                    match read_client_msg(&mut reader) {
                        Ok(Some(msg)) => (None, msg),
                        _ => break,
                    }
                };
                seen.push(msg.clone());
                let reply = match msg {
                    ClientMsg::Hello { .. } if v2 => ServerMsg::Hello { version: 2 },
                    ClientMsg::Hello { .. } => ServerMsg::Error("unknown message HELLO".into()),
                    ClientMsg::Sync { have, .. } => ServerMsg::Ack(have),
                    ClientMsg::Bye => break,
                    other => panic!("unexpected {other:?}"),
                };
                match req_id {
                    Some(id) => write_server_frame(&mut writer, id, &reply).unwrap(),
                    None => write_server_msg(&mut writer, &reply).unwrap(),
                }
                binary |= matches!(reply, ServerMsg::Hello { .. });
            }
            seen
        });
        (addr, h)
    }

    /// Every wire mode against a v2 server and a legacy one: `Text`
    /// never sends `HELLO`; `Auto` settles on the best common version
    /// and keeps using the negotiated socket; `Binary` against a legacy
    /// server fails `InvalidData` at once, with no backoff sleep.
    #[test]
    fn wire_mode_matrix_against_v2_and_legacy_servers() {
        let sync = |have: usize| ClientMsg::Sync {
            client: "c".into(),
            have,
            want: 1,
        };
        for (mode, v2, settles_on) in [
            (WireMode::Text, true, Some(1)),
            (WireMode::Text, false, Some(1)),
            (WireMode::Auto, true, Some(2)),
            (WireMode::Auto, false, Some(1)),
            (WireMode::Binary, true, Some(2)),
            (WireMode::Binary, false, None),
        ] {
            let server_kind = if v2 { "v2" } else { "legacy" };
            let case = format!("{mode} against a {server_kind} server");
            let (addr, server) = stub_server(v2);
            let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
            let rec = slept.clone();
            let mut t = ResilientTransport::new(addr)
                .with_timeout(Duration::from_secs(5))
                .with_wire_mode(mode)
                .with_sleeper(Box::new(move |d| rec.lock().unwrap().push(d)));
            let first = t.exchange(&sync(1));
            match settles_on {
                Some(version) => {
                    assert_eq!(first.unwrap(), ServerMsg::Ack(1), "{case}");
                    assert_eq!(t.negotiated_wire(), Some(version), "{case}");
                    assert_eq!(t.exchange(&sync(2)).unwrap(), ServerMsg::Ack(2), "{case}");
                    t.bye();
                }
                None => {
                    let err = first.unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
                    assert!(!t.is_connected(), "{case}");
                }
            }
            assert!(slept.lock().unwrap().is_empty(), "{case} slept");
            drop(t);
            let seen = server.join().unwrap();
            let hello = matches!(seen.first(), Some(ClientMsg::Hello { .. }));
            assert_eq!(hello, mode != WireMode::Text, "{case}: {seen:?}");
            let syncs = seen
                .iter()
                .filter(|m| matches!(m, ClientMsg::Sync { .. }))
                .count();
            assert_eq!(syncs, if settles_on.is_some() { 2 } else { 0 }, "{case}");
        }
    }

    /// With every address refusing, the transport must not spin on the
    /// fast path forever: one lap of the list forfeits it, and the
    /// bounded backoff schedule runs as in the single-address case.
    #[test]
    fn all_addresses_dead_still_fails_in_bounded_time() {
        let dead = |_: ()| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let rec = slept.clone();
        let policy = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(20),
            seed: 7,
        };
        let expected = policy.delays();
        let mut t = ResilientTransport::multi(vec![dead(()), dead(())])
            .with_timeout(Duration::from_millis(200))
            .with_policy(policy)
            .with_sleeper(Box::new(move |d| rec.lock().unwrap().push(d)));
        let err = t.exchange(&ClientMsg::Bye).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        assert_eq!(
            *slept.lock().unwrap(),
            expected,
            "backoff schedule must still bound a fully-dead list"
        );
    }
}
