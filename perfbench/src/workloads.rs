//! The four workloads, each against the real server binaries started as
//! child processes: set-up (timed several times), the measured window,
//! the output checks, and the numbers they produce.

use crate::fixture;
use crate::load::{
    self, Conn, ConnResult, Governor, Mix, Planned, Streams, Verb, CLIENTS, GOVERNORS,
};
use crate::report::Report;
use crate::stats::{self, Step};
use crate::statsjson::Stats;
use crate::sys::{self, ServerProc};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use uucs_client::{ClientTransport, ResilientTransport, WireMode};
use uucs_protocol::{ClientMsg, ServerMsg};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Connections (and generator threads) per workload: `nproc` on the
/// two-core machine the rates were fixed on.
pub const CONNS: usize = 2;
/// How long a step waits for stragglers after its last due time.
const DRAIN: Duration = Duration::from_secs(2);
/// Longest a server may take to answer its first request.
const START_LIMIT: Duration = Duration::from_secs(60);
/// Ladder steps above the peak rate, at most.
pub const LADDER_STEPS: usize = 8;
/// Round trips after which `legacy_roundtrip` reads the server's peak
/// RSS (about a quarter of the nominal loop at the seed's speed).
const LEGACY_RSS_AT: u64 = 5000;
/// The group-commit shape every durable server runs (README).
pub const DURABLE_FLAGS: [&str; 7] = [
    "--wal",
    "--shards",
    "4",
    "--commit-interval-us",
    "1000",
    "--io-threads",
    "2",
];

/// A workload's fixed definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Verb mix of the open-loop traffic.
    pub mix: Mix,
    /// Nominal rate, requests/s (open loop).
    pub nominal_rps: f64,
    /// Peak rate, requests/s (open loop).
    pub peak_rps: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "upload_durable",
        mix: Mix::UPLOADS,
        nominal_rps: 1000.0,
        peak_rps: 4000.0,
    },
    Workload {
        name: "legacy_roundtrip",
        mix: Mix::UPLOADS,
        nominal_rps: 0.0,
        peak_rps: 0.0,
    },
    Workload {
        name: "sync_reads",
        mix: Mix {
            upload: 0.10,
            sync: 0.40,
            modeldelta: 0.40,
            advice: 0.10,
        },
        nominal_rps: 500.0,
        peak_rps: 2000.0,
    },
    Workload {
        name: "upload_quorum",
        mix: Mix::UPLOADS,
        nominal_rps: 200.0,
        peak_rps: 500.0,
    },
];

/// Per-run settings.
pub struct Ctx {
    /// The traffic seed.
    pub seed: u64,
    /// Measured seconds.
    pub secs: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory holding `uucs-server` and `uucs-clusterd`.
    pub bins: PathBuf,
    /// The benchmark's work directory (fixture cache).
    pub work: PathBuf,
    /// This run's scratch directory.
    pub run_dir: PathBuf,
}

impl Ctx {
    fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }
}

fn err(what: impl Into<String>) -> io::Error {
    io::Error::other(what.into())
}

/// Median of `SETUPS` timed set-ups; all but the last are torn down.
fn timed_setups<T>(
    mut start: impl FnMut(usize) -> io::Result<(T, f64)>,
    mut teardown: impl FnMut(T),
) -> io::Result<(T, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (t, s) = start(i)?;
        times.push(s);
        if i + 1 < SETUPS {
            teardown(t);
        } else {
            kept = Some(t);
        }
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((kept.expect("last set-up kept"), median))
}

/// Spawns `uucs-server` with `flags` and times it to its first answer
/// (the HELLO that negotiates wire v2). Returns the process and the
/// negotiated connection.
fn start_server(
    ctx: &Ctx,
    flags: &[String],
    data: &Path,
    tag: &str,
) -> io::Result<(ServerProc, Conn, f64)> {
    let addr = sys::free_addr()?;
    let mut args = vec![
        "--addr".to_string(),
        addr.clone(),
        "--data".to_string(),
        data.display().to_string(),
    ];
    args.extend(flags.iter().cloned());
    let t0 = Instant::now();
    let mut p = ServerProc::spawn(
        &ctx.bin("uucs-server"),
        &args,
        &addr,
        &ctx.run_dir.join(format!("{tag}.log")),
    )?;
    let conn = Conn::open(p.connect(START_LIMIT)?)?;
    Ok((p, conn, t0.elapsed().as_secs_f64()))
}

/// Registers the simulated clients by token (pipelined) and returns
/// their ids and server-side upload horizons.
fn register(conn: &mut Conn) -> io::Result<(Vec<String>, Vec<u64>)> {
    let msgs: Vec<ClientMsg> = (0..CLIENTS).map(load::register_msg).collect();
    let mut ids = Vec::new();
    let mut applied = Vec::new();
    for r in conn.pipeline(&msgs)? {
        match r {
            ServerMsg::Id { id, applied_seq } => {
                ids.push(id);
                applied.push(applied_seq);
            }
            other => return Err(err(format!("registration answered {other:?}"))),
        }
    }
    Ok((ids, applied))
}

fn stats_of(conn: &mut Conn, reset: bool) -> io::Result<Stats> {
    match conn.exchange(&ClientMsg::Stats { reset })? {
        ServerMsg::Stats(json) => Stats::parse(&json).map_err(err),
        other => Err(err(format!("STATS answered {other:?}"))),
    }
}

/// Results the server holds, from its per-shard occupancy gauges.
fn held_records(s: &Stats) -> f64 {
    s.gauge_sum("server.shard.results.", ".records")
}

/// One measured open-loop step.
pub struct StepOut {
    /// Offered rate.
    pub rate: f64,
    /// Window length, seconds.
    pub secs: f64,
    /// Per-connection outcomes.
    pub results: Vec<ConnResult>,
    /// Server CPU seconds spent during the step.
    pub server_cpu_s: f64,
}

impl StepOut {
    fn samples(&self) -> impl Iterator<Item = &load::Sample> {
        self.results.iter().flat_map(|r| r.samples.iter())
    }

    /// Sorted latencies (ms, from due time) of successful requests of
    /// the given verbs (all verbs when empty).
    pub fn latencies(&self, verbs: &[Verb]) -> Vec<f64> {
        stats::sorted(
            &self
                .samples()
                .filter(|s| s.ok && (verbs.is_empty() || verbs.contains(&s.verb)))
                .map(|s| stats::latency_ms(s.due_ns, s.done_ns.expect("ok implies answered")))
                .collect::<Vec<_>>(),
        )
    }

    /// Latencies (ms) of successful requests in due order.
    pub fn latencies_by_due(&self) -> Vec<f64> {
        let mut v: Vec<(u64, f64)> = self
            .samples()
            .filter(|s| s.ok)
            .map(|s| {
                (
                    s.due_ns,
                    stats::latency_ms(s.due_ns, s.done_ns.expect("ok implies answered")),
                )
            })
            .collect();
        v.sort_by_key(|x| x.0);
        v.into_iter().map(|x| x.1).collect()
    }

    /// Sorted generator lateness, ms.
    pub fn lateness(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .samples()
                .map(|s| stats::lateness_ms(s.due_ns, s.sent_ns))
                .collect::<Vec<_>>(),
        )
    }

    /// Requests planned.
    pub fn attempted(&self) -> u64 {
        self.samples().count() as u64
    }

    /// Requests that did not succeed.
    pub fn failed(&self) -> u64 {
        self.samples().filter(|s| !s.ok).count() as u64
    }

    /// Successful completions.
    pub fn completed(&self) -> u64 {
        self.samples().filter(|s| s.ok).count() as u64
    }

    /// The step as the ladder's stop rule sees it. A completion counts
    /// if it lands within the SLO limit after the window closes: a
    /// server that keeps up answers the window's last requests that
    /// fast, one that falls behind leaves a backlog longer than that.
    pub fn step(&self) -> Step {
        let window_ns = ((self.secs + stats::SLO_P99_MS / 1e3) * 1e9) as u64;
        let in_window = self
            .samples()
            .filter(|s| s.ok && s.done_ns.is_some_and(|d| d <= window_ns))
            .count();
        Step {
            offered_rps: self.rate,
            completed_rps: in_window as f64 / self.secs,
            p99_ms: stats::windowed_percentile(&self.latencies_by_due(), 0.99),
            failed: self.failed(),
        }
    }

    fn sum(&self, f: impl Fn(&ConnResult) -> u64) -> u64 {
        self.results.iter().map(f).sum()
    }
}

/// Runs one step on every connection at once (one thread each: the
/// calling thread drives the first connection).
fn run_step(
    conns: &mut [Conn],
    plans: &[Vec<Planned>],
    ids: &[String],
    rate: f64,
    secs: f64,
    cpu_pids: &[u32],
) -> io::Result<StepOut> {
    let cpu = || -> f64 {
        cpu_pids
            .iter()
            .map(|&p| sys::cpu_seconds(p).unwrap_or(0.0))
            .sum()
    };
    let t0 = Instant::now() + Duration::from_millis(5);
    let cpu0 = cpu();
    let (first, rest) = conns.split_at_mut(1);
    let results = std::thread::scope(|s| -> io::Result<Vec<ConnResult>> {
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(&plans[1..])
            .map(|(c, plan)| {
                s.spawn(move || {
                    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
                    c.run(plan, ids, t0, DRAIN)
                })
            })
            .collect();
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let mut out = vec![first[0].run(&plans[0], ids, t0, DRAIN)?];
        for h in handles {
            out.push(h.join().expect("generator thread panicked")?);
        }
        Ok(out)
    })?;
    Ok(StepOut {
        rate,
        secs,
        results,
        server_cpu_s: cpu() - cpu0,
    })
}

/// The nominal, peak and (optionally) ladder steps of an open-loop
/// workload, with the end-to-end numbers they give.
struct OpenLoop {
    nominal: StepOut,
    peak: StepOut,
    ladder: Vec<StepOut>,
}

#[allow(clippy::too_many_arguments)]
fn open_loop(
    ctx: &Ctx,
    w: &Workload,
    conns: &mut [Conn],
    streams: &mut Streams,
    ids: &[String],
    cpu_pids: &[u32],
    ladder: bool,
    rep: &mut Report,
) -> io::Result<OpenLoop> {
    let (nominal_secs, peak_secs, ladder_secs) = if ladder {
        (
            0.50 * ctx.secs,
            0.25 * ctx.secs,
            0.25 * ctx.secs / LADDER_STEPS as f64,
        )
    } else {
        (0.55 * ctx.secs, 0.45 * ctx.secs, 0.0)
    };
    let gen0 = sys::self_cpu_s();
    let wall0 = Instant::now();
    let plan = streams.plan(w.nominal_rps, nominal_secs, &w.mix, conns.len());
    let nominal = run_step(conns, &plan, ids, w.nominal_rps, nominal_secs, cpu_pids)?;
    let plan = streams.plan(w.peak_rps, peak_secs, &w.mix, conns.len());
    let peak = run_step(conns, &plan, ids, w.peak_rps, peak_secs, cpu_pids)?;
    // Peak memory before the ladder, whose length varies run to run.
    rep.e2e("rss_peak_mb", sys::rss_peak_mb(cpu_pids[0])?, "MiB");
    let gen_cpu_pct = (sys::self_cpu_s() - gen0) / wall0.elapsed().as_secs_f64() * 100.0;
    let mut steps = Vec::new();
    if ladder && peak.step().meets_slo() {
        let mut rate = w.peak_rps;
        for _ in 0..LADDER_STEPS {
            rate *= stats::LADDER_FACTOR;
            let plan = streams.plan(rate, ladder_secs, &w.mix, conns.len());
            let s = run_step(conns, &plan, ids, rate, ladder_secs, cpu_pids)?;
            let go_on = stats::ladder_continues(&s.step());
            steps.push(s);
            if !go_on {
                break;
            }
        }
    }
    for s in [&nominal, &peak] {
        if !s.step().meets_slo() {
            rep.flag(format!(
                "the {} req/s step misses the SLO (p99 {:?} ms, {:.1} completed/s): the fixed rate sits above the knee",
                s.rate,
                s.step().p99_ms,
                s.step().completed_rps
            ));
        }
    }
    let late = stats::sorted(&[nominal.lateness(), peak.lateness()].concat());
    let late_p99 = stats::percentile(&late, 0.99).unwrap_or(f64::NAN);
    rep.info("gen_late_p99_ms", late_p99, "ms");
    rep.layer("bench.gen_cpu_pct", gen_cpu_pct, "%");
    let lat_p99 = stats::percentile(&nominal.latencies(&[]), 0.99).unwrap_or(f64::INFINITY);
    if late_p99 > 0.25 * lat_p99 || gen_cpu_pct > 80.0 * CONNS as f64 {
        rep.flag(format!(
            "generator-bound: lateness p99 {late_p99:.3} ms, generator CPU {gen_cpu_pct:.0}%"
        ));
    }
    Ok(OpenLoop {
        nominal,
        peak,
        ladder: steps,
    })
}

/// Reports `lat_p50_ms` and `lat_p99_ms` (with `suffix`) from latencies
/// in the order the requests were due, each as the median over
/// consecutive 1000-request windows of the window's percentile. The
/// pooled percentiles are printed alongside for reference.
fn latency_metrics(suffix: &str, by_due: &[f64], rep: &mut Report) {
    let sorted = stats::sorted(by_due);
    let p50 = stats::windowed_percentile(by_due, 0.5);
    let p99 = stats::windowed_percentile(by_due, 0.99);
    if p50.is_none() || p99.is_none() {
        rep.problem(format!(
            "lat{suffix}: {} samples are too few for p99",
            by_due.len()
        ));
    }
    rep.e2e(
        &format!("lat_p50_ms{suffix}"),
        p50.unwrap_or(f64::NAN),
        "ms",
    );
    rep.e2e(
        &format!("lat_p99_ms{suffix}"),
        p99.unwrap_or(f64::NAN),
        "ms",
    );
    for (p, name) in [(0.5, "p50"), (0.99, "p99")] {
        rep.info(
            &format!("lat_{name}_ms{suffix}.pooled"),
            stats::percentile(&sorted, p).unwrap_or(f64::NAN),
            "ms",
        );
    }
}

/// Reports the latency, CPU and reply checks shared by every open-loop
/// workload.
fn report_open_loop(ol: &OpenLoop, rep: &mut Report) {
    for (suffix, step) in [("", &ol.nominal), (".peak", &ol.peak)] {
        latency_metrics(suffix, &step.latencies_by_due(), rep);
    }
    let completed = ol.nominal.completed().max(1) as f64;
    rep.e2e(
        "cpu_us_per_req",
        ol.nominal.server_cpu_s / completed * 1e6,
        "us",
    );
    for s in std::iter::once(&ol.nominal)
        .chain([&ol.peak])
        .chain(&ol.ladder)
    {
        rep.count(s.attempted(), s.failed());
        for r in &s.results {
            for p in &r.problems {
                rep.problem(p.clone());
            }
        }
    }
}

fn all_steps(ol: &OpenLoop) -> impl Iterator<Item = &StepOut> {
    std::iter::once(&ol.nominal)
        .chain([&ol.peak])
        .chain(&ol.ladder)
}

fn acked(ol: &OpenLoop) -> u64 {
    all_steps(ol).map(|s| s.sum(|r| r.acked_records)).sum()
}

fn kreq_and_user_bytes(ol: &OpenLoop) -> (f64, u64) {
    let reqs: u64 = all_steps(ol).map(|s| s.completed()).sum();
    let user: u64 = all_steps(ol).map(|s| s.sum(|r| r.acked_user_bytes)).sum();
    (reqs.max(1) as f64 / 1000.0, user)
}

/// Per-layer numbers read from the server's `STATS` after the window,
/// normalised by the window's completed requests and acked user bytes.
fn stats_layers(s: &Stats, kreq: f64, user: u64, rep: &mut Report) {
    let wal_bytes = s.counter_sum("server.wal.", ".append.bytes");
    rep.layer(
        "wal.bytes_per_user_byte",
        wal_bytes / user.max(1) as f64,
        "ratio",
    );
    rep.layer(
        "wal.rotations_per_kreq",
        s.counter_sum("server.wal.", ".rotations") / kreq,
        "count",
    );
    rep.layer(
        "commit.batch_mean",
        s.hist("server.commit.batch").mean,
        "count",
    );
    rep.layer(
        "commit.fsyncs_per_kreq",
        s.counter("server.commit.count") / kreq,
        "count",
    );
    rep.layer(
        "disk.ops_per_kreq",
        s.counter("server.disk.ops") / kreq,
        "count",
    );
    rep.layer(
        "disk.stall_us.mean",
        s.hist("server.disk.stall_ns").mean / 1e3,
        "us",
    );
    rep.layer(
        "disk.service_us.mean",
        s.hist("server.disk.service_ns").mean / 1e3,
        "us",
    );
    rep.layer(
        "modelsvc.fold_us.mean",
        s.hist("modelsvc.update.ns").mean / 1e3,
        "us",
    );
    let served = s.counter("server.model.delta.served");
    let fallback = s.counter("server.model.delta.fallback");
    rep.layer(
        "modelsvc.delta_served_frac",
        if served + fallback > 0.0 {
            served / (served + fallback)
        } else {
            0.0
        },
        "ratio",
    );
    rep.layer(
        "cluster.quorum_timeouts",
        s.counter("server.repl.quorum_timeouts"),
        "count",
    );
    rep.layer(
        "cluster.lag_batches",
        s.gauge("server.repl.lag_batches"),
        "count",
    );
    rep.layer(
        "client.retries_per_kreq",
        uucs_telemetry::metrics::counter("client.transport.retries").get() as f64 / kreq,
        "count",
    );
}

/// Server CPU share over a quiet second with the connections still open.
fn idle_cpu_pct(pids: &[u32]) -> f64 {
    let cpu = || -> f64 {
        pids.iter()
            .map(|&p| sys::cpu_seconds(p).unwrap_or(0.0))
            .sum()
    };
    let c0 = cpu();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    (cpu() - c0) / t0.elapsed().as_secs_f64() * 100.0
}

/// Opens the second generator connection and hands each connection
/// the governors pinned to it (initialised from full `MODEL` replies).
fn connections(first: Conn, addr: &str, seed: u64, governors: bool) -> io::Result<Vec<Conn>> {
    let mut conns = vec![first];
    while conns.len() < CONNS {
        conns.push(Conn::open(std::net::TcpStream::connect(addr)?)?);
    }
    if governors {
        for g in 0..GOVERNORS {
            let (resource, task) = Governor::key(seed, g);
            let c = &mut conns[g % CONNS];
            let mut gov = Governor {
                resource,
                task: task.clone(),
                epoch: 0,
                sketch: uucs_modelsvc::QuantileSketch::for_resource(resource),
                crc: 0,
            };
            match c.exchange(&ClientMsg::Model { resource, task })? {
                ServerMsg::Model { epoch, sketch, .. } => gov.adopt(epoch, &sketch).map_err(err)?,
                other => return Err(err(format!("MODEL answered {other:?}"))),
            }
            c.govs.insert(g, gov);
        }
    }
    Ok(conns)
}

/// The governors' final check: one last delta poll each, then a fresh
/// full `MODEL` must match the delta-maintained sketch byte for byte.
fn check_governors(conns: &mut [Conn], rep: &mut Report) -> io::Result<()> {
    for c in conns.iter_mut() {
        let keys: Vec<usize> = c.govs.keys().copied().collect();
        for g in keys {
            let gov = c.govs[&g].clone();
            let poll = ClientMsg::ModelDelta {
                resource: gov.resource,
                task: gov.task.clone(),
                since: gov.epoch,
                basecrc: gov.crc,
            };
            let reply = c.exchange(&poll)?;
            let gov = c.govs.get_mut(&g).expect("governor present");
            if let Err(e) = gov.on_reply(gov.epoch, &reply) {
                rep.problem(format!("governor {g} final poll: {e}"));
                continue;
            }
            let full = ClientMsg::Model {
                resource: gov.resource,
                task: gov.task.clone(),
            };
            let gov = c.govs[&g].clone();
            match c.exchange(&full)? {
                ServerMsg::Model { epoch, sketch, .. } => {
                    if epoch != gov.epoch || sketch != gov.sketch.encode() {
                        rep.problem(format!(
                            "governor {g}: delta-maintained sketch at epoch {} differs from MODEL at epoch {epoch}",
                            gov.epoch
                        ));
                    }
                }
                other => rep.problem(format!("governor {g}: MODEL answered {other:?}")),
            }
        }
    }
    Ok(())
}

/// `upload_durable` and `sync_reads`: the group-commit server restarted
/// on the fixture journal, driven open loop.
pub fn durable(ctx: &Ctx, w: &Workload, rep: &mut Report) -> io::Result<()> {
    let fixture = fixture::ensure(&ctx.work)?;
    let data = ctx.run_dir.join("data");
    sys::copy_dir(&fixture.join("wal"), &data.join("wal"))?;
    sys::sync_fs(&data)?;
    let fs = sys::fs_type(&data)?;
    rep.validity("data_fs", &fs);
    if fs == "tmpfs" || fs == "ramfs" {
        return Err(err(format!(
            "data directory is on {fs}, where fsync is free"
        )));
    }
    let flags: Vec<String> = DURABLE_FLAGS.iter().map(|s| s.to_string()).collect();
    let ((mut server, mut first), setup_s) = timed_setups(
        |i| {
            let (p, c, s) = start_server(ctx, &flags, &data, &format!("server-{i}"))?;
            Ok(((p, c), s))
        },
        |(mut p, _c)| p.kill(),
    )?;
    rep.e2e("setup_s", setup_s, "s");
    let (ids, applied) = register(&mut first)?;
    if applied.contains(&0) {
        rep.problem("a fixture client re-registered without its upload horizon".to_string());
    }
    let addr = server.addr.clone();
    let mut conns = connections(first, &addr, ctx.seed, w.mix.modeldelta > 0.0)?;
    let before = held_records(&stats_of(&mut conns[0], true)?);
    if before != fixture::RECORDS as f64 {
        rep.problem(format!(
            "server recovered {before} results, fixture holds {}",
            fixture::RECORDS
        ));
    }
    let mut streams = Streams::new(ctx.seed, fixture::library_ids(), ids.clone(), &applied);
    // Whatever recovery and the torn-down set-ups left dirty goes to disk
    // now, not during the window.
    sys::sync_fs(&data)?;
    let pid = server.pid();
    let ladder = w.name == "upload_durable";
    let ol = open_loop(ctx, w, &mut conns, &mut streams, &ids, &[pid], ladder, rep)?;
    report_open_loop(&ol, rep);
    let acked = acked(&ol);
    if ladder {
        let steps: Vec<Step> = all_steps(&ol).map(|s| s.step()).collect();
        match stats::sustained(&steps) {
            Some(s) => rep.info("sustained_rps", s.completed_rps, "1/s"),
            None => rep.problem("no ladder step met the SLO".to_string()),
        }
        if ol.ladder.len() == LADDER_STEPS && steps.last().is_some_and(Step::meets_slo) {
            rep.flag(format!(
                "the ladder met the SLO at all {LADDER_STEPS} steps: sustained_rps is a lower bound"
            ));
        }
        for s in &steps {
            rep.note(format!(
                "ladder step {:.0}/s: completed {:.1}/s, p99 {:?} ms, failed {}",
                s.offered_rps, s.completed_rps, s.p99_ms, s.failed
            ));
        }
    }
    if w.mix.sync > 0.0 {
        for (name, verbs) in [
            ("sync", &[Verb::Sync][..]),
            ("model", &[Verb::ModelDelta, Verb::Advice][..]),
        ] {
            let v = ol.nominal.latencies(verbs);
            rep.info(
                &format!("{name}_p50_ms"),
                stats::percentile(&v, 0.5).unwrap_or(f64::NAN),
                "ms",
            );
            rep.info(
                &format!("{name}_p99_ms"),
                stats::percentile(&v, 0.99).unwrap_or(f64::NAN),
                "ms",
            );
        }
    }
    if ctx.trace {
        rep.layer("tcp.idle_cpu_pct", idle_cpu_pct(&[pid]), "%");
    }
    let after = stats_of(&mut conns[0], false)?;
    if held_records(&after) != before + acked as f64 {
        rep.problem(format!(
            "server holds {} results; fixture plus acked is {}",
            held_records(&after),
            before + acked as f64
        ));
    }
    if ctx.trace {
        let (kreq, user) = kreq_and_user_bytes(&ol);
        stats_layers(&after, kreq, user, rep);
    }
    if w.mix.modeldelta > 0.0 {
        check_governors(&mut conns, rep)?;
    }
    for c in conns {
        c.close();
    }
    if ladder {
        // Kill-and-recover: every acked record, and nothing else, must
        // come back.
        server.kill();
        let (p, mut c, recover_s) = start_server(ctx, &flags, &data, "recover")?;
        server = p;
        rep.info("wal.recover_after_kill_s", recover_s, "s");
        let held = held_records(&stats_of(&mut c, false)?);
        if held != before + acked as f64 {
            rep.problem(format!(
                "after SIGKILL the server recovered {held} results; fixture plus acked is {}",
                before + acked as f64
            ));
        }
        c.close();
    }
    server.kill();
    Ok(())
}

/// `legacy_roundtrip`: a lone text-wire client through the resilient
/// client transport, closed loop, against an in-memory server; then two
/// such clients at once (the connection cap) as the peak point.
pub fn legacy(ctx: &Ctx, rep: &mut Report) -> io::Result<()> {
    let data = ctx.run_dir.join("data");
    std::fs::create_dir_all(&data)?;
    rep.validity("data_fs", &sys::fs_type(&data)?);
    let flags = vec![
        "--generate-library".to_string(),
        fixture::LIBRARY_SEED.to_string(),
    ];
    let ((mut server, probe), setup_s) = timed_setups(
        |i| {
            let (p, c, s) = start_server(ctx, &flags, &data, &format!("server-{i}"))?;
            Ok(((p, c), s))
        },
        |(mut p, _c)| p.kill(),
    )?;
    rep.e2e("setup_s", setup_s, "s");
    probe.close();
    let addr = server.addr.clone();
    let library = fixture::library_ids();
    // Set-up: each caller registers its one client over text.
    let mut callers = Vec::new();
    for i in 0..CONNS {
        let mut t = ResilientTransport::new(addr.clone()).with_wire_mode(WireMode::Text);
        let (id, applied) = match t.exchange(&load::register_msg(i))? {
            ServerMsg::Id { id, applied_seq } => (id, applied_seq),
            other => return Err(err(format!("registration answered {other:?}"))),
        };
        let streams = Streams::new(
            ctx.seed ^ (i as u64 + 1),
            library.clone(),
            vec![id.clone()],
            &[applied],
        );
        callers.push((t, streams, vec![id]));
    }
    let before = {
        let mut c = Conn::open(std::net::TcpStream::connect(&addr)?)?;
        let s = stats_of(&mut c, true)?;
        c.close();
        held_records(&s)
    };
    let gen0 = sys::self_cpu_s();
    let pid = server.pid();
    let nominal_secs = 0.55 * ctx.secs;
    let peak_secs = 0.45 * ctx.secs;
    let wall0 = Instant::now();
    let cpu0 = sys::cpu_seconds(pid)?;
    let nominal = closed_loop(&mut callers[..1], nominal_secs, Some((pid, LEGACY_RSS_AT)))?;
    let nominal_cpu = sys::cpu_seconds(pid)? - cpu0;
    let peak = closed_loop(&mut callers[..], peak_secs, None)?;
    let gen_cpu_pct = (sys::self_cpu_s() - gen0) / wall0.elapsed().as_secs_f64() * 100.0;
    let mut acked = 0;
    let mut user_bytes = 0;
    for r in [&nominal, &peak] {
        rep.count(r.attempted, r.failed);
        acked += r.acked;
        user_bytes += r.user_bytes;
        for p in &r.problems {
            rep.problem(p.clone());
        }
    }
    latency_metrics("", &nominal.lat_ms, rep);
    latency_metrics(".peak", &peak.lat_ms, rep);
    let done = (nominal.attempted - nominal.failed).max(1) as f64;
    rep.e2e("cpu_us_per_req", nominal_cpu / done * 1e6, "us");
    rep.info("closed_rps", done / nominal_secs, "1/s");
    rep.layer("bench.gen_cpu_pct", gen_cpu_pct, "%");
    let kreq = (nominal.attempted + peak.attempted).max(1) as f64 / 1000.0;
    if ctx.trace {
        rep.layer("tcp.idle_cpu_pct", idle_cpu_pct(&[pid]), "%");
    }
    let mut c = Conn::open(std::net::TcpStream::connect(&addr)?)?;
    let after = stats_of(&mut c, false)?;
    c.close();
    if held_records(&after) != before + acked as f64 {
        rep.problem(format!(
            "server holds {} results; acked {acked}",
            held_records(&after)
        ));
    }
    if ctx.trace {
        stats_layers(&after, kreq, user_bytes, rep);
    }
    match nominal.rss_mb {
        Some(mb) => rep.e2e("rss_peak_mb", mb, "MiB"),
        None => rep.problem(format!(
            "the nominal loop made fewer than {LEGACY_RSS_AT} round trips; rss_peak_mb needs that many"
        )),
    }
    for (mut t, _, _) in callers {
        t.bye();
    }
    server.kill();
    Ok(())
}

/// What a closed loop of callers did.
#[derive(Default)]
struct Closed {
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    acked: u64,
    user_bytes: u64,
    problems: Vec<String>,
    rss_mb: Option<f64>,
}

/// Each caller uploads back to back for `secs`, one thread per caller
/// (the calling thread drives the first).
///
/// With `rss_probe = Some((pid, n))`, the first caller reads `pid`'s peak
/// RSS right after its `n`-th round trip: a point of fixed work, since
/// the in-memory store grows with every upload and a faster run would
/// otherwise report a larger peak.
fn closed_loop(
    callers: &mut [(ResilientTransport, Streams, Vec<String>)],
    secs: f64,
    rss_probe: Option<(u32, u64)>,
) -> io::Result<Closed> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let one = |(t, streams, ids): &mut (ResilientTransport, Streams, Vec<String>),
               probe: Option<(u32, u64)>|
     -> Closed {
        let mut out = Closed::default();
        let govs = Default::default();
        while Instant::now() < deadline {
            let op = streams.upload();
            let msg = op.message(ids, &govs);
            let load::Op::Upload { records, .. } = &op else {
                unreachable!("streams.upload() makes uploads")
            };
            out.attempted += 1;
            let t0 = Instant::now();
            match t.exchange(&msg) {
                Ok(ServerMsg::Ack(n)) if n == records.len() => {
                    out.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    out.acked += n as u64;
                    out.user_bytes += records.iter().map(|r| r.emit().len() as u64).sum::<u64>();
                }
                Ok(ServerMsg::Ack(n)) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "ACK {n} for an upload of {} records",
                        records.len()
                    ));
                }
                Ok(_) | Err(_) => out.failed += 1,
            }
            if let Some((pid, n)) = probe {
                if out.attempted == n {
                    out.rss_mb = sys::rss_peak_mb(pid).ok();
                }
            }
        }
        out
    };
    let (first, rest) = callers.split_at_mut(1);
    let parts = std::thread::scope(|s| {
        let hs: Vec<_> = rest
            .iter_mut()
            .map(|c| s.spawn(move || one(c, None)))
            .collect();
        let mut parts = vec![one(&mut first[0], rss_probe)];
        for h in hs {
            parts.push(h.join().expect("caller thread panicked"));
        }
        parts
    });
    let mut out = Closed::default();
    for p in parts {
        out.lat_ms.extend(p.lat_ms);
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.acked += p.acked;
        out.user_bytes += p.user_bytes;
        out.problems.extend(p.problems);
        out.rss_mb = out.rss_mb.or(p.rss_mb);
    }
    Ok(out)
}

/// A leader/follower `uucs-clusterd` pair.
struct Cluster {
    leader: ServerProc,
    follower: ServerProc,
    conn: Conn,
}

impl Cluster {
    fn kill(mut self) {
        // Follower first: a follower that outlives its leader would
        // promote itself.
        self.follower.kill();
        self.leader.kill();
    }
}

/// Starts a fresh two-node cluster under `dir` and times it from the
/// leader's spawn to the first quorum-acked upload.
fn start_cluster(ctx: &Ctx, dir: &Path) -> io::Result<(Cluster, f64)> {
    let bin = ctx.bin("uucs-clusterd");
    let (addr_a, repl_a, addr_b, repl_b) = (
        sys::free_addr()?,
        sys::free_addr()?,
        sys::free_addr()?,
        sys::free_addr()?,
    );
    let epochs = dir.join("epochs");
    std::fs::create_dir_all(&epochs)?;
    let node = |name: &str, data: &Path, addr: &str, repl: &str| -> Vec<String> {
        [
            "--node",
            name,
            "--cluster-dir",
            &epochs.display().to_string(),
            "--data",
            &data.display().to_string(),
            "--addr",
            addr,
            "--repl-listen",
            repl,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };
    let mut la = node("a", &dir.join("a"), &addr_a, &repl_a);
    la.extend(["--repl-ack", "quorum", "--generate-library", "42"].map(String::from));
    let mut lb = node("b", &dir.join("b"), &addr_b, &repl_b);
    lb.extend(["--follow".to_string(), repl_a.clone()]);
    let t0 = Instant::now();
    let mut leader = ServerProc::spawn(&bin, &la, &addr_a, &dir.join("a.log"))?;
    let mut conn = Conn::open(leader.connect(START_LIMIT)?)?;
    let follower = ServerProc::spawn(&bin, &lb, &addr_b, &dir.join("b.log"))?;
    loop {
        if stats_of(&mut conn, false)?.gauge("server.repl.follower_connected") >= 1.0 {
            break;
        }
        if t0.elapsed() > START_LIMIT {
            return Err(err(format!(
                "follower never connected: {}",
                follower.log_tail()
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let probe = match conn.exchange(&ClientMsg::Register {
        snapshot: uucs_protocol::MachineSnapshot::study_machine("probe"),
        token: "perfbench-probe".into(),
    })? {
        ServerMsg::Id { id, .. } => id,
        other => return Err(err(format!("probe registration answered {other:?}"))),
    };
    let mut rng = uucs_stats::rng::Pcg64::new(1);
    let records = load::records(&mut rng, &probe, &fixture::library_ids()[..1], 1);
    match conn.exchange(&ClientMsg::Upload {
        client: probe,
        seq: 1,
        records,
    })? {
        ServerMsg::Ack(1) => {}
        other => return Err(err(format!("probe upload answered {other:?}"))),
    }
    let setup = t0.elapsed().as_secs_f64();
    if stats_of(&mut conn, false)?.counter("server.repl.quorum_timeouts") > 0.0 {
        return Err(err("the first upload degraded to a local ack"));
    }
    Ok((
        Cluster {
            leader,
            follower,
            conn,
        },
        setup,
    ))
}

/// `upload_quorum`: uploads against a quorum-ack leader with one
/// follower.
pub fn quorum(ctx: &Ctx, w: &Workload, rep: &mut Report) -> io::Result<()> {
    let fs = sys::fs_type(&ctx.run_dir)?;
    rep.validity("data_fs", &fs);
    if fs == "tmpfs" || fs == "ramfs" {
        return Err(err(format!(
            "data directory is on {fs}, where fsync is free"
        )));
    }
    let (cluster, setup_s) = timed_setups(
        |i| start_cluster(ctx, &ctx.run_dir.join(format!("cluster-{i}"))),
        Cluster::kill,
    )?;
    rep.e2e("setup_s", setup_s, "s");
    let Cluster {
        mut leader,
        mut follower,
        mut conn,
    } = cluster;
    let (ids, applied) = register(&mut conn)?;
    let addr = leader.addr.clone();
    let mut conns = connections(conn, &addr, ctx.seed, false)?;
    let before = held_records(&stats_of(&mut conns[0], true)?);
    let mut streams = Streams::new(ctx.seed, fixture::library_ids(), ids.clone(), &applied);
    sys::sync_fs(&ctx.run_dir)?;
    let pids = [leader.pid(), follower.pid()];
    let ol = open_loop(ctx, w, &mut conns, &mut streams, &ids, &pids, false, rep)?;
    report_open_loop(&ol, rep);
    if ctx.trace {
        rep.layer("tcp.idle_cpu_pct", idle_cpu_pct(&pids), "%");
    }
    let after = stats_of(&mut conns[0], false)?;
    let acked = acked(&ol);
    if held_records(&after) != before + acked as f64 {
        rep.problem(format!(
            "leader holds {} results; before plus acked is {}",
            held_records(&after),
            before + acked as f64
        ));
    }
    if after.counter("server.repl.quorum_timeouts") > 0.0 {
        rep.flag("quorum acks degraded to local acks during the window".to_string());
    }
    if ctx.trace {
        let (kreq, user) = kreq_and_user_bytes(&ol);
        stats_layers(&after, kreq, user, rep);
    }
    for c in conns {
        c.close();
    }
    follower.kill();
    leader.kill();
    Ok(())
}
