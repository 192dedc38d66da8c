//! `perfbench`: the repository benchmark. Starts the real `uucs-server`
//! / `uucs-clusterd` binaries and drives one seeded workload at them
//! over loopback, checks every answer, and prints a readable report
//! followed by one JSON line with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of the traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --bins DIR --work DIR
//! ```
//!
//! `perfbench/run.sh` builds everything from source and runs this.

mod fixture;
mod load;
mod report;
mod stats;
mod statsjson;
mod sys;
mod trace;
mod workloads;

use report::Report;
use std::path::PathBuf;
use workloads::{Ctx, WORKLOADS};

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --bins DIR --work DIR",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut secs = None;
    let mut trace = None;
    let mut bins = None;
    let mut work = None;
    let mut i = 0;
    while i < args.len() {
        let val = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])));
        match args[i].as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                secs = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 1.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--bins" => bins = Some(PathBuf::from(val)),
            "--work" => work = Some(PathBuf::from(val)),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    let w = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let work = work.unwrap_or_else(|| usage("--work is required"));
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        secs: secs.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        bins: bins.unwrap_or_else(|| usage("--bins is required")),
        run_dir: work.join(format!("run-{}", std::process::id())),
        work,
    };
    if let Err(e) = prepare(&ctx) {
        eprintln!("perfbench: cannot prepare {:?}: {e}", ctx.work);
        std::process::exit(1);
    }
    let mut rep = Report::default();
    rep.validity("nproc", &sys::nproc().to_string());
    rep.validity("kernel", &sys::kernel());
    rep.validity("transport", "loopback 127.0.0.1");
    rep.validity(
        "generator",
        &format!(
            "{} threads, {} connections",
            workloads::CONNS,
            workloads::CONNS
        ),
    );
    let outcome = match w.name {
        "legacy_roundtrip" => workloads::legacy(&ctx, &mut rep),
        "upload_quorum" => workloads::quorum(&ctx, &w, &mut rep),
        _ => workloads::durable(&ctx, &w, &mut rep),
    }
    .and_then(|()| {
        if ctx.trace {
            trace::run(&ctx, &w, &mut rep)
        } else {
            Ok(())
        }
    });
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", w.name);
        std::process::exit(1);
    }
    let json = if ctx.trace {
        rep.json(&trace::PER_LAYER, true)
    } else {
        rep.json(&report::END_TO_END, false)
    };
    print!("{}", rep.table(w.name, ctx.seed, ctx.trace));
    println!("{json}");
}

/// Creates the work directory and clears run directories that an
/// interrupted earlier run left behind.
fn prepare(ctx: &Ctx) -> std::io::Result<()> {
    std::fs::create_dir_all(&ctx.work)?;
    for e in std::fs::read_dir(&ctx.work)? {
        let e = e?;
        if e.file_name().to_string_lossy().starts_with("run-") {
            std::fs::remove_dir_all(e.path())?;
        }
    }
    std::fs::create_dir_all(&ctx.run_dir)
}
