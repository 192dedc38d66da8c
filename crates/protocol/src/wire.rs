//! Line-oriented wire framing for the client/server exchanges.
//!
//! Both interactions are client-initiated (§2): registration and hot
//! sync. Messages are text blocks over any `Read`/`Write` pair (TCP in
//! production, an in-memory duplex in tests):
//!
//! ```text
//! client -> server                  server -> client
//! ----------------                  ----------------
//! REGISTER + snapshot block         ID <guid> <applied-seq>
//! SYNC <client-id> <have> <want>    TESTCASES <n> + n testcase blocks
//! UPLOAD <client-id> <n> <seq>      ACK <n>
//!   + n record blocks
//! MODEL <resource> [<task>]         MODEL <epoch> <observed> <censored> <sketch>
//! ADVICE <resource> <task> <eps>    ADVICE <epoch> <level>
//! STATS [RESET]                     STATS <json>
//! BYE                               (connection closes)
//!                                   ERROR <message>   (any time)
//! ```
//!
//! `MODEL` and `ADVICE` are the model-service verbs (`uucs-modelsvc`).
//! `MODEL` returns the server's merged comfort model for a resource
//! (optionally narrowed to one foreground task): the model epoch, the
//! observed/censored sample counts, and the merged quantile sketch as
//! its single-token text encoding — the same bytes the server journals,
//! so a client can cache and re-decode it offline. `ADVICE` asks the
//! server to evaluate the model instead: it answers with the epoch and
//! the recommended borrowing level whose predicted discomfort
//! probability stays under `eps` (the paper's `c_0.05` statistic is
//! `eps = 0.05`). `eps` must be a finite probability strictly inside
//! `(0, 1)`; anything else is malformed, not a boundary case — an
//! epsilon of 0 or 1 would always/never censor and signals a confused
//! client. Both replies are single lines, so the framing inherits the
//! strict-prefix-never-parses property of every other header.
//!
//! `STATS` is the observability verb: the server answers with its
//! telemetry registry encoded as a single line of JSON (sorted keys,
//! integer values — see `uucs-telemetry`), covering per-verb request
//! counts and latency histograms, WAL append/fsync/compaction timings,
//! and connection gauges. `STATS RESET` zeroes every metric *after*
//! taking the snapshot, so tests can fence measurement windows. Being a
//! plain header line, the verb rides the existing forward-compatibility
//! rule: an older server answers `ERROR` and keeps the connection.
//!
//! `seq` is the client's monotonically increasing batch sequence number;
//! it makes `UPLOAD` idempotent (a server that already applied the batch
//! acks again without storing a second copy, so retrying after a lost
//! `ACK` is safe). A missing `seq` token (older clients) parses as `0`,
//! which means "no idempotency" and is always applied.
//!
//! `applied-seq` in the `ID` reply is the server's upload dedup horizon
//! for the (possibly pre-existing) identity it just resolved: the
//! highest batch sequence number it has applied for that client. A
//! client whose local counter was lost (wiped store) fast-forwards to
//! it at registration, so its next batch lands *above* the horizon
//! instead of being silently discarded as a replay. A missing token
//! (older servers) parses as `0`, which never fast-forwards anything.
//!
//! Forward compatibility: an unknown *header* tag is reported as
//! [`std::io::ErrorKind::Unsupported`], distinct from the
//! `InvalidData` used for malformed known messages. A server can answer
//! `ERROR` and keep the connection alive after `Unsupported` (the read
//! stopped at a clean line boundary), but must drop it after
//! `InvalidData` (framing may be torn mid-block).
//!
//! # Protocol versioning
//!
//! The text protocol above is **wire version 1** and is never
//! renegotiated away: a connection always *starts* in text, and a
//! server must keep answering v1 clients byte-for-byte forever. Two
//! verbs ride the forward-compatibility rule to let newer peers opt
//! into more:
//!
//! * `HELLO <version>` ([`ClientMsg::Hello`]) — version negotiation.
//!   A v2-capable client sends it as its *first* message; a v2 server
//!   answers `HELLO <min(2, requested)>` and, when the agreed version
//!   is [`WIRE_VERSION_BINARY`], both sides switch the connection to
//!   the length-prefixed CRC-checked binary framing of `uucs-wire`
//!   (request pipelining, typed encodings). A legacy server answers
//!   `ERROR` — the unknown-header rule — and the client simply stays
//!   in text. Legacy clients never send `HELLO`, so their byte stream
//!   is untouched by this extension.
//! * `MODELDELTA <resource> <task|-> <since> <basecrc>`
//!   ([`ClientMsg::ModelDelta`]) — epoch-delta model download: "I hold
//!   the merged sketch of model epoch `since`, whose encoded form has
//!   CRC32 `basecrc`; send only what changed." A v2 server that still
//!   retains that epoch *and* whose retained encoding matches the CRC
//!   answers [`ServerMsg::ModelDelta`] with a changed-bin delta
//!   (`uucs_modelsvc::SketchDelta`); otherwise it falls back to a full
//!   [`ServerMsg::Model`] reply, which a delta-aware client must also
//!   accept. A legacy server answers `ERROR`, and the client retries
//!   as a plain `MODEL` query. The CRC guard matters after failover: a
//!   freshly promoted leader may reuse epoch numbers for different
//!   model states, and a delta applied to the wrong base would
//!   silently diverge — the CRC (plus the delta's own base-total
//!   cross-checks) turns that into a clean full-download.
//!
//! Version constants live here ([`WIRE_VERSION_TEXT`],
//! [`WIRE_VERSION_BINARY`]); the binary framing itself lives in the
//! `uucs-wire` crate so this crate stays transport-agnostic.

use crate::record::RunRecord;
use crate::snapshot::MachineSnapshot;
use std::io::{BufRead, Write};
use uucs_modelsvc::{QuantileSketch, SketchDelta};
use uucs_testcase::{format as tcformat, Resource, Testcase};

/// Wire version 1: the line-oriented text protocol this module frames.
/// Every connection starts here; it is the permanent fallback.
pub const WIRE_VERSION_TEXT: u32 = 1;

/// Wire version 2: the negotiated binary framing implemented by the
/// `uucs-wire` crate (length-prefixed CRC-checked frames, request
/// pipelining, typed encodings, batched uploads).
pub const WIRE_VERSION_BINARY: u32 = 2;

/// Anything that can answer client messages — the server implements this,
/// and the client's in-memory transport calls it directly (the same
/// handler that backs the TCP listener), so tests exercise identical
/// server logic without sockets.
pub trait Endpoint: Send + Sync {
    /// Handles one client message, producing the reply.
    fn handle(&self, msg: &ClientMsg) -> ServerMsg;
}

/// Messages a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Negotiate the wire version (`HELLO <version>`): "I speak up to
    /// `version`." Expects [`ServerMsg::Hello`] with the agreed version
    /// (the minimum of both sides), or `ERROR` from a legacy server —
    /// which means "text only". Must be the first message on a
    /// connection; the agreed version takes effect for everything
    /// after the reply.
    Hello {
        /// The highest wire version the client speaks.
        version: u32,
    },
    /// Register this machine; expects [`ServerMsg::Id`].
    Register {
        /// The machine being registered.
        snapshot: MachineSnapshot,
        /// A client-generated idempotency token (empty = legacy
        /// registration). Re-registering with a token the server has
        /// seen returns the *same* GUID instead of minting a new one,
        /// so a registration retried after a lost `ID` reply cannot
        /// create a duplicate client.
        token: String,
    },
    /// Request up to `want` testcases the client does not yet have (it
    /// holds `have`); expects [`ServerMsg::Testcases`].
    Sync {
        /// The client's GUID.
        client: String,
        /// How many testcases the client already holds.
        have: usize,
        /// Upper bound on how many new testcases to send.
        want: usize,
    },
    /// Upload result records; expects [`ServerMsg::Ack`].
    Upload {
        /// The client's GUID.
        client: String,
        /// The client's batch sequence number: strictly increasing per
        /// client, `0` for legacy non-idempotent uploads. Retransmitting
        /// a `(client, seq)` batch the server already applied yields a
        /// fresh `ACK` and no second copy.
        seq: u64,
        /// The result records.
        records: Vec<RunRecord>,
    },
    /// Request the merged comfort model for a resource (optionally
    /// narrowed to one foreground task); expects [`ServerMsg::Model`].
    Model {
        /// The borrowed resource the model describes.
        resource: Resource,
        /// Narrow to this foreground task's cohorts; `None` merges
        /// every cohort of the resource. Task names are single wire
        /// tokens (the record format already guarantees this).
        task: Option<String>,
    },
    /// Request only what changed in the merged comfort model since the
    /// epoch the client already holds
    /// (`MODELDELTA <resource> <task|-> <since> <basecrc>`); expects
    /// [`ServerMsg::ModelDelta`], or a full [`ServerMsg::Model`] when
    /// the server no longer retains that epoch (or its retained
    /// encoding's CRC32 disagrees with `basecrc`).
    ModelDelta {
        /// The borrowed resource the model describes.
        resource: Resource,
        /// Narrow to this foreground task's cohorts; `None` (wire
        /// token `-`) merges every cohort of the resource.
        task: Option<String>,
        /// The model epoch of the client's cached merged sketch.
        since: u64,
        /// CRC32 (the WAL polynomial, `uucs_wal::crc::crc32`) of the
        /// cached sketch's text encoding — proof the client's base is
        /// the same bytes the server retained for `since`, not a
        /// different server's coincidentally equal epoch number.
        basecrc: u32,
    },
    /// Request a recommended borrowing level; expects
    /// [`ServerMsg::Advice`].
    Advice {
        /// The borrowed resource.
        resource: Resource,
        /// The foreground task the client is about to run under.
        task: String,
        /// Target discomfort probability, strictly inside `(0, 1)`.
        epsilon: f64,
    },
    /// Request the server's telemetry snapshot; expects
    /// [`ServerMsg::Stats`].
    Stats {
        /// Zero every metric after snapshotting, so the next `STATS`
        /// reflects only traffic since this one — used by tests to
        /// fence measurement windows.
        reset: bool,
    },
    /// Close the session.
    Bye,
}

/// Messages a server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The negotiated wire version for this connection, answering a
    /// [`ClientMsg::Hello`]: `min(server max, client requested)`. When
    /// it names [`WIRE_VERSION_BINARY`], both sides switch framing
    /// immediately after this reply.
    Hello {
        /// The agreed wire version.
        version: u32,
    },
    /// The GUID assigned (or re-resolved, for a known idempotency token)
    /// at registration, together with the server's applied upload-batch
    /// horizon for that identity.
    Id {
        /// The client's GUID.
        id: String,
        /// The highest upload batch sequence number the server has
        /// applied for this client (0 if it never uploaded with
        /// sequence numbers). A re-registering client fast-forwards its
        /// own counter to this, so a wiped client cannot resume below
        /// the dedup horizon and have its new batches discarded as
        /// replays.
        applied_seq: u64,
    },
    /// New testcases for the client.
    Testcases(Vec<Testcase>),
    /// Acknowledgment of `n` uploaded records.
    Ack(usize),
    /// The merged comfort model for a [`ClientMsg::Model`] query.
    Model {
        /// The model epoch the sketch was merged at.
        epoch: u64,
        /// Observed (feedback) samples in the merged sketch.
        observed: u64,
        /// Censored (exhausted-without-feedback) samples.
        censored: u64,
        /// The merged quantile sketch, in its single-token text
        /// encoding (`uucs_modelsvc::QuantileSketch::encode`). The
        /// reader deep-validates it, so a [`ServerMsg::Model`] in hand
        /// always decodes.
        sketch: String,
    },
    /// The changed-bin delta for a [`ClientMsg::ModelDelta`] query
    /// (`MODELDELTA <epoch> <since> <delta>`): what advances the
    /// client's cached epoch-`since` sketch to the server's current
    /// `epoch`. Only sent when the server verified the client's base
    /// CRC; otherwise the server answers a full [`ServerMsg::Model`].
    ModelDelta {
        /// The model epoch the delta advances the client to.
        epoch: u64,
        /// The base epoch the delta was computed against (echoes the
        /// query, so a pipelining client can sanity-check pairing).
        since: u64,
        /// The delta in its single-token text encoding
        /// (`uucs_modelsvc::SketchDelta::encode`). The reader
        /// deep-validates it, so a reply in hand always decodes.
        delta: String,
    },
    /// The recommendation for a [`ClientMsg::Advice`] query.
    Advice {
        /// The model epoch the recommendation was computed at.
        epoch: u64,
        /// The recommended borrowing level (contention value).
        level: f64,
    },
    /// The server's telemetry snapshot: one line of JSON (the
    /// `uucs-telemetry` registry encoding). Opaque to the protocol
    /// layer — it is framed, not parsed, here.
    Stats(String),
    /// Protocol error.
    Error(String),
}

impl ClientMsg {
    /// A registration with no idempotency token (the pre-token wire
    /// format): every such registration mints a fresh GUID.
    pub fn register(snapshot: MachineSnapshot) -> Self {
        ClientMsg::Register {
            snapshot,
            token: String::new(),
        }
    }
}

impl ServerMsg {
    /// An `ID` reply for a fresh identity (applied horizon 0) — the
    /// common case in tests and mock endpoints.
    pub fn id(id: impl Into<String>) -> Self {
        ServerMsg::Id {
            id: id.into(),
            applied_seq: 0,
        }
    }
}

/// Writes a client message to a stream in one `write`. The message is
/// built in memory first: on a `TCP_NODELAY` socket every `write` leaves
/// as its own segment.
pub fn write_client_msg(w: &mut impl Write, msg: &ClientMsg) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match msg {
        ClientMsg::Hello { version } => writeln!(out, "HELLO {version}"),
        ClientMsg::Register { snapshot, token } => {
            let header = if token.is_empty() {
                writeln!(out, "REGISTER")
            } else {
                writeln!(out, "REGISTER {token}")
            };
            out.push_str(&snapshot.emit());
            header
        }
        ClientMsg::Sync { client, have, want } => writeln!(out, "SYNC {client} {have} {want}"),
        ClientMsg::Upload {
            client,
            seq,
            records,
        } => {
            let header = writeln!(out, "UPLOAD {client} {} {seq}", records.len());
            for record in records {
                record.emit_into(&mut out);
            }
            header
        }
        ClientMsg::Model { resource, task } => match task {
            Some(task) => {
                check_token("MODEL task", task)?;
                writeln!(out, "MODEL {resource} {task}")
            }
            None => writeln!(out, "MODEL {resource}"),
        },
        ClientMsg::ModelDelta {
            resource,
            task,
            since,
            basecrc,
        } => {
            let task = match task {
                Some(task) => {
                    check_token("MODELDELTA task", task)?;
                    if task == "-" {
                        // "-" is the on-wire spelling of "no task"; a
                        // task literally named "-" would read back as
                        // None and silently widen the query.
                        return Err(proto_err("MODELDELTA task must not be \"-\""));
                    }
                    task.as_str()
                }
                None => "-",
            };
            writeln!(out, "MODELDELTA {resource} {task} {since} {basecrc}")
        }
        ClientMsg::Advice {
            resource,
            task,
            epsilon,
        } => {
            check_token("ADVICE task", task)?;
            check_epsilon(*epsilon)?;
            writeln!(out, "ADVICE {resource} {task} {epsilon}")
        }
        ClientMsg::Stats { reset } => {
            if *reset {
                writeln!(out, "STATS RESET")
            } else {
                writeln!(out, "STATS")
            }
        }
        ClientMsg::Bye => writeln!(out, "BYE"),
    }
    .expect("formatting into a String cannot fail");
    w.write_all(out.as_bytes())?;
    w.flush()
}

/// Writes a server message to a stream in one `write`, built in memory
/// first like [`write_client_msg`].
pub fn write_server_msg(w: &mut impl Write, msg: &ServerMsg) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match msg {
        ServerMsg::Hello { version } => writeln!(out, "HELLO {version}"),
        ServerMsg::Id { id, applied_seq } => writeln!(out, "ID {id} {applied_seq}"),
        ServerMsg::Testcases(tcs) => {
            let header = writeln!(out, "TESTCASES {}", tcs.len());
            for tc in tcs {
                tcformat::emit_into(tc, &mut out);
            }
            header
        }
        ServerMsg::Ack(n) => writeln!(out, "ACK {n}"),
        ServerMsg::Model {
            epoch,
            observed,
            censored,
            sketch,
        } => {
            // The sketch encoding is one whitespace-free token by
            // construction; anything else would tear the frame.
            check_token("MODEL sketch", sketch)?;
            writeln!(out, "MODEL {epoch} {observed} {censored} {sketch}")
        }
        ServerMsg::ModelDelta {
            epoch,
            since,
            delta,
        } => {
            // The delta encoding is one whitespace-free token by
            // construction; anything else would tear the frame.
            check_token("MODELDELTA delta", delta)?;
            writeln!(out, "MODELDELTA {epoch} {since} {delta}")
        }
        ServerMsg::Advice { epoch, level } => {
            if !level.is_finite() {
                return Err(proto_err("ADVICE level must be finite"));
            }
            writeln!(out, "ADVICE {epoch} {level}")
        }
        ServerMsg::Stats(json) => {
            // The snapshot is one line by construction; a stray newline
            // would tear the frame, so refuse to emit one.
            if json.contains('\n') {
                return Err(proto_err("STATS payload must be a single line"));
            }
            writeln!(out, "STATS {json}")
        }
        ServerMsg::Error(e) => writeln!(out, "ERROR {e}"),
    }
    .expect("formatting into a String cannot fail");
    w.write_all(out.as_bytes())?;
    w.flush()
}

/// Reads lines until a block terminator (`END` at depth zero) completes
/// `n` blocks, returning the collected text.
fn read_blocks(r: &mut impl BufRead, n: usize) -> std::io::Result<String> {
    let mut out = String::new();
    let mut remaining = n;
    let mut line = String::new();
    while remaining > 0 {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream ended mid-block",
            ));
        }
        if !line.ends_with('\n') {
            // A line without its terminator is a torn frame: the stream
            // died mid-line, and the fragment must not be interpreted
            // (a content line cut down to exactly "END" would otherwise
            // falsely close the block).
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream ended mid-line inside block",
            ));
        }
        if line.trim() == "END" {
            remaining -= 1;
        }
        out.push_str(&line);
    }
    Ok(out)
}

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Fields spliced into a header line must be single non-empty tokens —
/// embedded whitespace would shift every later token and tear the frame.
fn check_token(what: &str, s: &str) -> std::io::Result<()> {
    if s.is_empty() || s.chars().any(|c| c.is_whitespace()) {
        return Err(proto_err(format!("{what} must be one non-empty token")));
    }
    Ok(())
}

/// A target discomfort probability must lie strictly inside `(0, 1)`:
/// 0 asks for a level no user would ever mind (always the minimum), 1
/// for one every user minds — both signal a confused client, and NaN
/// or an infinity would poison every comparison downstream.
fn check_epsilon(epsilon: f64) -> std::io::Result<()> {
    if !epsilon.is_finite() || epsilon <= 0.0 || epsilon >= 1.0 {
        return Err(proto_err(format!(
            "ADVICE epsilon must be in (0, 1), got {epsilon}"
        )));
    }
    Ok(())
}

/// A header line that arrived without its `'\n'` terminator means the
/// stream ended mid-frame. The fragment must never be parsed: `"ID
/// client-0001\n"` cut after three bytes would otherwise read as a valid
/// registration reply carrying an empty id, which the client would cache
/// forever.
fn torn_err(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        format!("stream ended mid-line reading {what} (torn frame)"),
    )
}

fn unsupported_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::Unsupported, msg.into())
}

/// Reads one client message. Returns `Ok(None)` on clean EOF before any
/// header line.
pub fn read_client_msg(r: &mut impl BufRead) -> std::io::Result<Option<ClientMsg>> {
    let mut header = String::new();
    loop {
        header.clear();
        if r.read_line(&mut header)? == 0 {
            return Ok(None);
        }
        if !header.ends_with('\n') {
            return Err(torn_err("client header"));
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    let header = header.trim().to_string();
    let mut toks = header.split_whitespace();
    match toks.next() {
        Some("HELLO") => {
            let version: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad HELLO version"))?;
            if version == 0 {
                return Err(proto_err("HELLO version must be positive"));
            }
            if toks.next().is_some() {
                return Err(proto_err("trailing tokens after HELLO"));
            }
            Ok(Some(ClientMsg::Hello { version }))
        }
        Some("REGISTER") => {
            let token = toks.next().unwrap_or("").to_string();
            let body = read_blocks(r, 1)?;
            let snapshot = MachineSnapshot::parse(&body).map_err(proto_err)?;
            Ok(Some(ClientMsg::Register { snapshot, token }))
        }
        Some("SYNC") => {
            let client = toks.next().ok_or_else(|| proto_err("SYNC missing id"))?;
            let have: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("SYNC missing have"))?;
            let want: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("SYNC missing want"))?;
            Ok(Some(ClientMsg::Sync {
                client: client.to_string(),
                have,
                want,
            }))
        }
        Some("UPLOAD") => {
            let client = toks.next().ok_or_else(|| proto_err("UPLOAD missing id"))?;
            let n: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("UPLOAD missing count"))?;
            // Optional 4th token: the batch sequence number (0 = legacy
            // non-idempotent upload from an older client).
            let seq: u64 = match toks.next() {
                Some(t) => t.parse().map_err(|_| proto_err("bad UPLOAD seq"))?,
                None => 0,
            };
            let body = read_blocks(r, n)?;
            let records = RunRecord::parse_many(&body).map_err(proto_err)?;
            if records.len() != n {
                return Err(proto_err(format!(
                    "UPLOAD promised {n} records, parsed {}",
                    records.len()
                )));
            }
            Ok(Some(ClientMsg::Upload {
                client: client.to_string(),
                seq,
                records,
            }))
        }
        Some("MODEL") => {
            let resource: Resource = toks
                .next()
                .ok_or_else(|| proto_err("MODEL missing resource"))?
                .parse()
                .map_err(|_| proto_err("bad MODEL resource"))?;
            let task = toks.next().map(str::to_string);
            if toks.next().is_some() {
                return Err(proto_err("trailing tokens after MODEL"));
            }
            Ok(Some(ClientMsg::Model { resource, task }))
        }
        Some("MODELDELTA") => {
            let resource: Resource = toks
                .next()
                .ok_or_else(|| proto_err("MODELDELTA missing resource"))?
                .parse()
                .map_err(|_| proto_err("bad MODELDELTA resource"))?;
            let task = match toks.next() {
                Some("-") => None,
                Some(t) => Some(t.to_string()),
                None => return Err(proto_err("MODELDELTA missing task")),
            };
            let since: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad MODELDELTA since epoch"))?;
            let basecrc: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad MODELDELTA base crc"))?;
            if toks.next().is_some() {
                return Err(proto_err("trailing tokens after MODELDELTA"));
            }
            Ok(Some(ClientMsg::ModelDelta {
                resource,
                task,
                since,
                basecrc,
            }))
        }
        Some("ADVICE") => {
            let resource: Resource = toks
                .next()
                .ok_or_else(|| proto_err("ADVICE missing resource"))?
                .parse()
                .map_err(|_| proto_err("bad ADVICE resource"))?;
            let task = toks
                .next()
                .ok_or_else(|| proto_err("ADVICE missing task"))?
                .to_string();
            let epsilon: f64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad ADVICE epsilon"))?;
            check_epsilon(epsilon)?;
            if toks.next().is_some() {
                return Err(proto_err("trailing tokens after ADVICE"));
            }
            Ok(Some(ClientMsg::Advice {
                resource,
                task,
                epsilon,
            }))
        }
        Some("STATS") => {
            let reset = match toks.next() {
                None => false,
                Some("RESET") => true,
                Some(other) => return Err(proto_err(format!("bad STATS modifier {other:?}"))),
            };
            Ok(Some(ClientMsg::Stats { reset }))
        }
        Some("BYE") => Ok(Some(ClientMsg::Bye)),
        other => Err(unsupported_err(format!("unknown client message {other:?}"))),
    }
}

/// Reads one server message.
pub fn read_server_msg(r: &mut impl BufRead) -> std::io::Result<ServerMsg> {
    let mut header = String::new();
    loop {
        header.clear();
        if r.read_line(&mut header)? == 0 {
            // EOF where a reply was due is a *connection* failure, not
            // malformed data: the peer (or a middlebox) closed on us,
            // which a resilient client should treat as retryable —
            // unlike `InvalidData`, which marks bytes that can never
            // parse no matter how often they are re-requested.
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed awaiting server message",
            ));
        }
        if !header.ends_with('\n') {
            return Err(torn_err("server header"));
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    let header = header.trim().to_string();
    let (kind, rest) = header.split_once(' ').unwrap_or((header.as_str(), ""));
    match kind {
        "HELLO" => {
            let mut toks = rest.split_whitespace();
            let version: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad HELLO version"))?;
            if version == 0 || toks.next().is_some() {
                return Err(proto_err("bad HELLO reply"));
            }
            Ok(ServerMsg::Hello { version })
        }
        "ID" => {
            let mut toks = rest.split_whitespace();
            let id = toks
                .next()
                .ok_or_else(|| proto_err("ID missing client id"))?;
            // Optional 2nd token: the applied upload horizon (0 = an
            // older server that does not report one).
            let applied_seq: u64 = match toks.next() {
                Some(t) => t.parse().map_err(|_| proto_err("bad ID applied-seq"))?,
                None => 0,
            };
            Ok(ServerMsg::Id {
                id: id.to_string(),
                applied_seq,
            })
        }
        "TESTCASES" => {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| proto_err("bad TESTCASES count"))?;
            let body = read_blocks(r, n)?;
            let tcs = tcformat::parse_many(&body)
                .map_err(|e| proto_err(format!("bad testcase block: {e}")))?;
            if tcs.len() != n {
                return Err(proto_err("TESTCASES count mismatch"));
            }
            Ok(ServerMsg::Testcases(tcs))
        }
        "ACK" => {
            let n: usize = rest.trim().parse().map_err(|_| proto_err("bad ACK"))?;
            Ok(ServerMsg::Ack(n))
        }
        "MODEL" => {
            let mut toks = rest.split_whitespace();
            let epoch: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad MODEL epoch"))?;
            let observed: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad MODEL observed count"))?;
            let censored: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad MODEL censored count"))?;
            let sketch = toks
                .next()
                .ok_or_else(|| proto_err("MODEL missing sketch"))?
                .to_string();
            if toks.next().is_some() {
                return Err(proto_err("trailing tokens after MODEL reply"));
            }
            // Deep-validate: a MODEL reply in hand must always decode,
            // and its counts must agree with the header's.
            let decoded = QuantileSketch::decode(&sketch)
                .map_err(|e| proto_err(format!("bad MODEL sketch: {e}")))?;
            if decoded.observed() != observed || decoded.censored() != censored {
                return Err(proto_err("MODEL counts disagree with sketch"));
            }
            Ok(ServerMsg::Model {
                epoch,
                observed,
                censored,
                sketch,
            })
        }
        "MODELDELTA" => {
            let mut toks = rest.split_whitespace();
            let epoch: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad MODELDELTA epoch"))?;
            let since: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad MODELDELTA since epoch"))?;
            let delta = toks
                .next()
                .ok_or_else(|| proto_err("MODELDELTA missing delta"))?
                .to_string();
            if toks.next().is_some() {
                return Err(proto_err("trailing tokens after MODELDELTA reply"));
            }
            // Deep-validate: a MODELDELTA reply in hand must always
            // decode (the delta encoding is self-checking, so a torn
            // token can never pass).
            SketchDelta::decode(&delta)
                .map_err(|e| proto_err(format!("bad MODELDELTA delta: {e}")))?;
            Ok(ServerMsg::ModelDelta {
                epoch,
                since,
                delta,
            })
        }
        "ADVICE" => {
            let mut toks = rest.split_whitespace();
            let epoch: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad ADVICE epoch"))?;
            let level: f64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| proto_err("bad ADVICE level"))?;
            if !level.is_finite() || toks.next().is_some() {
                return Err(proto_err("bad ADVICE reply"));
            }
            Ok(ServerMsg::Advice { epoch, level })
        }
        // The whole rest-of-line is the JSON payload: it contains spaces
        // of its own, so it is captured raw rather than tokenized.
        "STATS" => Ok(ServerMsg::Stats(rest.to_string())),
        "ERROR" => Ok(ServerMsg::Error(rest.to_string())),
        other => Err(unsupported_err(format!("unknown server message {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MonitorSummary, RunOutcome};
    use std::io::Cursor;
    use uucs_testcase::{ExerciseSpec, Resource};

    fn roundtrip_client(msg: ClientMsg) {
        let mut buf = Vec::new();
        write_client_msg(&mut buf, &msg).unwrap();
        let mut cur = Cursor::new(buf);
        let got = read_client_msg(&mut cur).unwrap().unwrap();
        assert_eq!(got, msg);
    }

    fn roundtrip_server(msg: ServerMsg) {
        let mut buf = Vec::new();
        write_server_msg(&mut buf, &msg).unwrap();
        let mut cur = Cursor::new(buf);
        let got = read_server_msg(&mut cur).unwrap();
        assert_eq!(got, msg);
    }

    fn record() -> RunRecord {
        RunRecord {
            client: "c1".into(),
            user: "u1".into(),
            testcase: "t1".into(),
            task: "Quake".into(),
            skill: "Power".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 33.0,
            last_levels: vec![(Resource::Cpu, vec![0.5, 0.55])],
            monitor: MonitorSummary::default(),
        }
    }

    #[test]
    fn register_roundtrip() {
        roundtrip_client(ClientMsg::register(MachineSnapshot::study_machine("h1")));
        roundtrip_client(ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine("h1"),
            token: "tok-00c0ffee".into(),
        });
    }

    #[test]
    fn sync_roundtrip() {
        roundtrip_client(ClientMsg::Sync {
            client: "c-9".into(),
            have: 12,
            want: 30,
        });
    }

    #[test]
    fn upload_roundtrip() {
        roundtrip_client(ClientMsg::Upload {
            client: "c-9".into(),
            seq: 17,
            records: vec![record(), record()],
        });
        roundtrip_client(ClientMsg::Upload {
            client: "c-9".into(),
            seq: 0,
            records: vec![],
        });
    }

    #[test]
    fn upload_without_seq_parses_as_legacy_zero() {
        // An older client omits the 4th token; it must still parse.
        let mut buf = Vec::new();
        writeln!(buf, "UPLOAD c1 0").unwrap();
        let mut cur = Cursor::new(buf);
        match read_client_msg(&mut cur).unwrap().unwrap() {
            ClientMsg::Upload { seq, records, .. } => {
                assert_eq!(seq, 0);
                assert!(records.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bye_roundtrip() {
        roundtrip_client(ClientMsg::Bye);
    }

    /// A valid single-token sketch encoding for reply fixtures.
    fn sketch_token(observed: u64, censored: u64) -> String {
        let mut s = uucs_modelsvc::QuantileSketch::new(0.0, 10.0, 8);
        for i in 0..observed {
            s.insert(1.0 + i as f64 % 8.0);
        }
        for _ in 0..censored {
            s.insert_censored();
        }
        s.encode()
    }

    #[test]
    fn model_and_advice_roundtrip() {
        roundtrip_client(ClientMsg::Model {
            resource: Resource::Cpu,
            task: None,
        });
        roundtrip_client(ClientMsg::Model {
            resource: Resource::Disk,
            task: Some("Word".into()),
        });
        roundtrip_client(ClientMsg::Advice {
            resource: Resource::Memory,
            task: "Quake".into(),
            epsilon: 0.05,
        });
        roundtrip_server(ServerMsg::Model {
            epoch: 9,
            observed: 5,
            censored: 2,
            sketch: sketch_token(5, 2),
        });
        roundtrip_server(ServerMsg::Advice {
            epoch: 9,
            level: 4.25,
        });
    }

    /// A valid single-token delta encoding for reply fixtures: the
    /// delta that adds `extra` observations to a `(observed, censored)`
    /// base built by [`sketch_token`]'s construction.
    fn delta_token(observed: u64, censored: u64, extra: u64) -> String {
        let mut base = uucs_modelsvc::QuantileSketch::new(0.0, 10.0, 8);
        for i in 0..observed {
            base.insert(1.0 + i as f64 % 8.0);
        }
        for _ in 0..censored {
            base.insert_censored();
        }
        let mut target = base.clone();
        for i in 0..extra {
            target.insert(2.0 + i as f64 % 7.0);
        }
        target.delta_since(&base).unwrap().encode()
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip_client(ClientMsg::Hello {
            version: WIRE_VERSION_BINARY,
        });
        roundtrip_client(ClientMsg::Hello { version: 7 });
        roundtrip_server(ServerMsg::Hello {
            version: WIRE_VERSION_TEXT,
        });
        roundtrip_server(ServerMsg::Hello {
            version: WIRE_VERSION_BINARY,
        });
    }

    #[test]
    fn hello_rejects_garbled_and_zero_versions() {
        for bad in ["HELLO\n", "HELLO x\n", "HELLO 0\n", "HELLO 2 3\n", "HELLO -1\n"] {
            let mut cur = Cursor::new(bad.as_bytes().to_vec());
            assert_eq!(
                read_client_msg(&mut cur).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?} must be InvalidData"
            );
            let mut cur = Cursor::new(bad.as_bytes().to_vec());
            assert_eq!(
                read_server_msg(&mut cur).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?} must be InvalidData"
            );
        }
    }

    #[test]
    fn modeldelta_roundtrip() {
        roundtrip_client(ClientMsg::ModelDelta {
            resource: Resource::Cpu,
            task: None,
            since: 12,
            basecrc: 0xdead_beef,
        });
        roundtrip_client(ClientMsg::ModelDelta {
            resource: Resource::Disk,
            task: Some("Word".into()),
            since: 0,
            basecrc: 0,
        });
        roundtrip_server(ServerMsg::ModelDelta {
            epoch: 14,
            since: 12,
            delta: delta_token(5, 2, 3),
        });
        // The no-op delta (model unchanged since the client's epoch).
        roundtrip_server(ServerMsg::ModelDelta {
            epoch: 12,
            since: 12,
            delta: delta_token(5, 2, 0),
        });
    }

    #[test]
    fn modeldelta_rejects_truncated_and_garbled_args() {
        for bad in [
            "MODELDELTA\n",                  // missing everything
            "MODELDELTA cpu\n",              // missing task
            "MODELDELTA gpu - 1 2\n",        // unknown resource
            "MODELDELTA cpu - 1\n",          // missing crc
            "MODELDELTA cpu Word x 2\n",     // garbled since
            "MODELDELTA cpu Word 1 x\n",     // garbled crc
            "MODELDELTA cpu - 1 2 extra\n",  // trailing tokens
        ] {
            let mut cur = Cursor::new(bad.as_bytes().to_vec());
            assert_eq!(
                read_client_msg(&mut cur).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?} must be InvalidData"
            );
        }
        // A task literally named "-" would read back as None; the
        // writer refuses instead of silently widening the query.
        let mut buf = Vec::new();
        assert!(write_client_msg(
            &mut buf,
            &ClientMsg::ModelDelta {
                resource: Resource::Cpu,
                task: Some("-".into()),
                since: 1,
                basecrc: 2,
            }
        )
        .is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn modeldelta_reply_is_deep_validated() {
        let good = delta_token(3, 1, 2);
        for bad in [
            "MODELDELTA 2 1\n".to_string(),            // missing delta
            "MODELDELTA 2 1 garbage\n".to_string(),    // undecodable delta
            format!("MODELDELTA x 1 {good}\n"),        // bad epoch
            format!("MODELDELTA 2 x {good}\n"),        // bad since
            format!("MODELDELTA 2 1 {good} extra\n"),  // trailing tokens
        ] {
            let mut cur = Cursor::new(bad.as_bytes().to_vec());
            assert_eq!(
                read_server_msg(&mut cur).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?} must be InvalidData"
            );
        }
        // Truncating the delta token anywhere keeps the reply invalid
        // (the growth accounting makes the encoding self-checking).
        let line = format!("MODELDELTA 2 1 {good}\n");
        let full = line.trim_end();
        for cut in (full.len() - good.len() + 1)..full.len() {
            let torn = format!("{}\n", &full[..cut]);
            let mut cur = Cursor::new(torn.into_bytes());
            assert!(read_server_msg(&mut cur).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn model_rejects_truncated_and_garbled_args() {
        for bad in [
            "MODEL\n",                   // missing resource
            "MODEL gpu\n",               // unknown resource
            "MODEL cpu Word extra\n",    // trailing tokens
            "ADVICE\n",                  // missing everything
            "ADVICE cpu\n",              // missing task + epsilon
            "ADVICE cpu Word\n",         // missing epsilon
            "ADVICE cpu Word nope\n",    // unparseable epsilon
            "ADVICE cpu Word nan\n",     // non-finite epsilon
            "ADVICE cpu Word inf\n",     // non-finite epsilon
            "ADVICE cpu Word 0\n",       // boundary: never uncomfortable
            "ADVICE cpu Word 1\n",       // boundary: always uncomfortable
            "ADVICE cpu Word 1.5\n",     // out of range
            "ADVICE cpu Word -0.05\n",   // out of range
            "ADVICE cpu Word 0.05 x\n",  // trailing tokens
        ] {
            let mut cur = Cursor::new(bad.as_bytes().to_vec());
            assert_eq!(
                read_client_msg(&mut cur).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?} must be InvalidData"
            );
        }
    }

    #[test]
    fn model_reply_is_deep_validated() {
        let good = sketch_token(3, 1);
        for bad in [
            "MODEL 1 3 1\n".to_string(),                 // missing sketch
            "MODEL 1 3 1 garbage\n".to_string(),         // undecodable sketch
            format!("MODEL x 3 1 {good}\n"),             // bad epoch
            format!("MODEL 1 9 1 {good}\n"),             // observed disagrees
            format!("MODEL 1 3 9 {good}\n"),             // censored disagrees
            format!("MODEL 1 3 1 {good} extra\n"),       // trailing tokens
            "ADVICE 1\n".to_string(),                    // missing level
            "ADVICE 1 nan\n".to_string(),                // non-finite level
            "ADVICE 1 2.5 extra\n".to_string(),          // trailing tokens
        ] {
            let mut cur = Cursor::new(bad.as_bytes().to_vec());
            assert_eq!(
                read_server_msg(&mut cur).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?} must be InvalidData"
            );
        }
        // Truncating the sketch token anywhere keeps the reply invalid
        // (the sketch encoding itself never parses from a strict prefix).
        let line = format!("MODEL 1 3 1 {good}\n");
        let full = line.trim_end();
        for cut in (full.len() - good.len() + 1)..full.len() {
            let torn = format!("{}\n", &full[..cut]);
            let mut cur = Cursor::new(torn.into_bytes());
            assert!(read_server_msg(&mut cur).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn model_writer_refuses_frame_tearing_fields() {
        let mut buf = Vec::new();
        assert!(write_client_msg(
            &mut buf,
            &ClientMsg::Model {
                resource: Resource::Cpu,
                task: Some("two words".into()),
            }
        )
        .is_err());
        assert!(write_client_msg(
            &mut buf,
            &ClientMsg::Advice {
                resource: Resource::Cpu,
                task: "Word".into(),
                epsilon: f64::NAN,
            }
        )
        .is_err());
        assert!(write_server_msg(
            &mut buf,
            &ServerMsg::Model {
                epoch: 1,
                observed: 0,
                censored: 0,
                sketch: "q1;0;1 0;8".into(),
            }
        )
        .is_err());
        assert!(write_server_msg(
            &mut buf,
            &ServerMsg::Advice {
                epoch: 1,
                level: f64::INFINITY,
            }
        )
        .is_err());
        assert!(buf.is_empty(), "refused writes must emit nothing");
    }

    #[test]
    fn stats_roundtrip() {
        roundtrip_client(ClientMsg::Stats { reset: false });
        roundtrip_client(ClientMsg::Stats { reset: true });
        roundtrip_server(ServerMsg::Stats(
            "{\"counters\":{\"server.verb.sync.count\":3},\"gauges\":{},\"histograms\":{}}"
                .into(),
        ));
        roundtrip_server(ServerMsg::Stats(String::new()));
    }

    #[test]
    fn stats_rejects_garbled_modifier_and_torn_payload() {
        let mut cur = Cursor::new(b"STATS SPLAT\n".to_vec());
        assert_eq!(
            read_client_msg(&mut cur).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // A multi-line payload would tear the frame; the writer refuses.
        let mut buf = Vec::new();
        assert!(write_server_msg(&mut buf, &ServerMsg::Stats("{}\n{}".into())).is_err());
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::id("guid-42"));
        roundtrip_server(ServerMsg::Id {
            id: "guid-42".into(),
            applied_seq: 17,
        });
        roundtrip_server(ServerMsg::Ack(7));
        roundtrip_server(ServerMsg::Error("nope".into()));
        let tc = uucs_testcase::Testcase::single(
            "x",
            1.0,
            Resource::Disk,
            ExerciseSpec::Ramp {
                level: 5.0,
                duration: 120.0,
            },
        );
        roundtrip_server(ServerMsg::Testcases(vec![tc.clone(), tc]));
        roundtrip_server(ServerMsg::Testcases(vec![]));
    }

    /// A `Write` that counts the `write` calls reaching it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every message variant, block-carrying ones included, reaches the
    /// stream in exactly one `write` — one segment on a `TCP_NODELAY`
    /// socket — and the bytes still read back as the message.
    #[test]
    fn every_message_leaves_in_one_write() {
        let snapshot = MachineSnapshot::study_machine("m1");
        let tc = uucs_testcase::Testcase::single(
            "x",
            1.0,
            Resource::Disk,
            ExerciseSpec::Ramp {
                level: 5.0,
                duration: 120.0,
            },
        );
        let client = [
            ClientMsg::Hello { version: 2 },
            ClientMsg::register(snapshot.clone()),
            ClientMsg::Register {
                snapshot,
                token: "tok".into(),
            },
            ClientMsg::Sync {
                client: "c1".into(),
                have: 3,
                want: 9,
            },
            ClientMsg::Upload {
                client: "c1".into(),
                seq: 4,
                records: vec![record(), record()],
            },
            ClientMsg::Model {
                resource: Resource::Cpu,
                task: None,
            },
            ClientMsg::Model {
                resource: Resource::Cpu,
                task: Some("Word".into()),
            },
            ClientMsg::ModelDelta {
                resource: Resource::Memory,
                task: Some("Quake".into()),
                since: 3,
                basecrc: 77,
            },
            ClientMsg::Advice {
                resource: Resource::Disk,
                task: "IE".into(),
                epsilon: 0.25,
            },
            ClientMsg::Stats { reset: false },
            ClientMsg::Stats { reset: true },
            ClientMsg::Bye,
        ];
        for msg in client {
            let mut w = CountingWriter::default();
            write_client_msg(&mut w, &msg).unwrap();
            assert_eq!(w.writes, 1, "{msg:?}");
            let got = read_client_msg(&mut Cursor::new(w.bytes)).unwrap();
            assert_eq!(got, Some(msg));
        }
        let server = [
            ServerMsg::Hello { version: 2 },
            ServerMsg::Id {
                id: "guid-42".into(),
                applied_seq: 17,
            },
            ServerMsg::Testcases(vec![tc.clone(), tc]),
            ServerMsg::Ack(7),
            ServerMsg::Model {
                epoch: 4,
                observed: 5,
                censored: 1,
                sketch: sketch_token(5, 1),
            },
            ServerMsg::ModelDelta {
                epoch: 6,
                since: 4,
                delta: delta_token(5, 1, 3),
            },
            ServerMsg::Advice {
                epoch: 4,
                level: 0.75,
            },
            ServerMsg::Stats("{\"counters\":{}}".into()),
            ServerMsg::Error("nope".into()),
        ];
        for msg in server {
            let mut w = CountingWriter::default();
            write_server_msg(&mut w, &msg).unwrap();
            assert_eq!(w.writes, 1, "{msg:?}");
            assert_eq!(read_server_msg(&mut Cursor::new(w.bytes)).unwrap(), msg);
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_client_msg(&mut cur).unwrap(), None);
    }

    #[test]
    fn truncated_upload_errors() {
        let mut buf = Vec::new();
        write!(buf, "UPLOAD c1 2\nRESULT\nOUTCOME exhausted\nEND\n").unwrap();
        let mut cur = Cursor::new(buf);
        assert!(read_client_msg(&mut cur).is_err());
    }

    #[test]
    fn unknown_messages_error() {
        let mut cur = Cursor::new(b"JUMP\n".to_vec());
        assert!(read_client_msg(&mut cur).is_err());
        let mut cur = Cursor::new(b"WAT 3\n".to_vec());
        assert!(read_server_msg(&mut cur).is_err());
    }

    #[test]
    fn unknown_tag_is_unsupported_and_stream_stays_usable() {
        // The unknown-header error is distinguishable from torn framing,
        // and the reader stops at the line boundary: the next message on
        // the same stream still parses — the basis for the server's
        // reply-ERROR-and-keep-going forward compatibility.
        let mut buf = Vec::new();
        writeln!(buf, "JUMP high").unwrap();
        write_client_msg(
            &mut buf,
            &ClientMsg::Sync {
                client: "c".into(),
                have: 1,
                want: 2,
            },
        )
        .unwrap();
        let mut cur = Cursor::new(buf);
        let err = read_client_msg(&mut cur).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
        assert!(matches!(
            read_client_msg(&mut cur).unwrap().unwrap(),
            ClientMsg::Sync { have: 1, want: 2, .. }
        ));
        // Malformed known messages stay InvalidData (framing unsafe).
        let mut cur = Cursor::new(b"SYNC c1 nope 4\n".to_vec());
        assert_eq!(
            read_client_msg(&mut cur).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn multiple_messages_in_sequence() {
        let mut buf = Vec::new();
        write_client_msg(&mut buf, &ClientMsg::Sync { client: "c".into(), have: 0, want: 5 })
            .unwrap();
        write_client_msg(
            &mut buf,
            &ClientMsg::Upload {
                client: "c".into(),
                seq: 1,
                records: vec![record()],
            },
        )
        .unwrap();
        write_client_msg(&mut buf, &ClientMsg::Bye).unwrap();
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_client_msg(&mut cur).unwrap().unwrap(),
            ClientMsg::Sync { .. }
        ));
        assert!(matches!(
            read_client_msg(&mut cur).unwrap().unwrap(),
            ClientMsg::Upload { .. }
        ));
        assert_eq!(read_client_msg(&mut cur).unwrap().unwrap(), ClientMsg::Bye);
        assert_eq!(read_client_msg(&mut cur).unwrap(), None);
    }

    /// A reply cut mid-line must never parse. `writeln!` can put `"ID "`
    /// and the id in separate TCP segments, so a fault between them
    /// leaves exactly this torn prefix on the wire — parsing it as
    /// `Id("")` once poisoned a client's cached registration for good.
    #[test]
    fn torn_server_header_is_rejected() {
        for torn in [
            "ID ",
            "ID client-00",
            "ACK 4",
            "ERROR boo",
            "TESTCASES 2",
            "STATS {\"counters\":{}",
            "MODEL 3 1 0 q1;0;10;8;1",
            "MODELDELTA 3 2 qd1;0;10;8",
            "ADVICE 3 2.5",
            "HELLO 2",
        ] {
            let mut cur = Cursor::new(torn.as_bytes().to_vec());
            let err = read_server_msg(&mut cur).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "torn {torn:?} must be UnexpectedEof, got {err:?}"
            );
        }
    }

    #[test]
    fn torn_client_header_is_rejected() {
        for torn in [
            "SYNC c1 0 8",
            "UPLOAD c1 1 3",
            "BYE",
            "REGISTER",
            "STATS RESET",
            "MODEL cpu Word",
            "MODELDELTA cpu - 3 77",
            "ADVICE cpu Word 0.05",
            "HELLO 2",
        ] {
            let mut cur = Cursor::new(torn.as_bytes().to_vec());
            let err = read_client_msg(&mut cur).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "torn {torn:?} must be UnexpectedEof, got {err:?}"
            );
        }
    }

    /// An `ID` reply from an older server omits the applied-seq token;
    /// it must parse as horizon 0 (never fast-forward). A garbled
    /// horizon is malformed, not silently zero.
    #[test]
    fn id_without_applied_seq_parses_as_legacy_zero() {
        let mut cur = Cursor::new(b"ID client-0007\n".to_vec());
        assert_eq!(
            read_server_msg(&mut cur).unwrap(),
            ServerMsg::Id {
                id: "client-0007".into(),
                applied_seq: 0
            }
        );
        let mut cur = Cursor::new(b"ID client-0007 nope\n".to_vec());
        assert_eq!(
            read_server_msg(&mut cur).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn eof_awaiting_server_reply_is_unexpected_eof() {
        // A cleanly closed connection where a reply was due must be
        // distinguishable from malformed data: the former is retryable
        // (server restarting), the latter is not.
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert_eq!(
            read_server_msg(&mut cur).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn empty_id_is_rejected() {
        let mut cur = Cursor::new(b"ID \n".to_vec());
        assert_eq!(
            read_server_msg(&mut cur).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        let mut cur = Cursor::new(b"ID\n".to_vec());
        assert!(read_server_msg(&mut cur).is_err());
    }

    /// A block body cut mid-line must not be interpreted: a content line
    /// truncated to exactly "END" would otherwise close the block early.
    #[test]
    fn torn_block_line_is_rejected() {
        // A TESTCASES frame whose body dies mid-line.
        let torn = b"TESTCASES 1\nTESTCASE t 1\nEND".to_vec();
        let mut cur = Cursor::new(torn);
        assert_eq!(
            read_server_msg(&mut cur).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }
}
