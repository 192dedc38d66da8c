//! The durable workloads' starting state: a journal holding the
//! internet-sweep library, the simulated clients' registrations and a
//! few hundred thousand results, built once per checkout from a fixed
//! seed and copied fresh into every run.

use crate::load::{self, CLIENTS};
use std::io;
use std::path::{Path, PathBuf};
use uucs_protocol::wire::Endpoint;
use uucs_protocol::{ClientMsg, ServerMsg};
use uucs_server::{StoreSet, UucsServer};
use uucs_stats::rng::Pcg64;
use uucs_wal::{SyncPolicy, WalConfig};

/// Results in the fixture journal.
pub const RECORDS: usize = 200_000;
/// Records per fixture upload batch.
const BATCH: usize = 4;
/// The fixture's fixed seed (the run's `--seed` varies the traffic,
/// not the starting state).
const SEED: u64 = 0xf1c7;
/// Library seed, as `uucs-server --generate-library 42`.
pub const LIBRARY_SEED: u64 = 42;
/// Shards of every durable server.
pub const SHARDS: usize = 4;

/// The library's testcase ids, in library order.
pub fn library_ids() -> Vec<String> {
    uucs_testcase::generate::Library::internet_sweep(LIBRARY_SEED)
        .testcases()
        .iter()
        .map(|t| t.id.to_string())
        .collect()
}

/// The fixture directory under `work` (holding `wal/`), built on first
/// use. Built in a temporary directory and renamed into place, so an
/// interrupted build is never mistaken for a finished one.
pub fn ensure(work: &Path) -> io::Result<PathBuf> {
    let dir = work.join(format!("fixture-{RECORDS}"));
    if dir.join("wal").is_dir() {
        return Ok(dir);
    }
    let tmp = work.join("fixture.tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)?;
    let config = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let (stores, _) = StoreSet::open(&tmp.join("wal"), config, SHARDS)?;
    let server = UucsServer::with_store_set(stores, 0x5e17);
    let library = uucs_testcase::generate::Library::internet_sweep(LIBRARY_SEED);
    for tc in library.testcases() {
        server
            .add_testcase(tc.clone())
            .map_err(|e| io::Error::other(format!("fixture library: {e}")))?;
    }
    let ids: Vec<String> = library
        .testcases()
        .iter()
        .map(|t| t.id.to_string())
        .collect();
    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        match server.handle(&load::register_msg(i)) {
            ServerMsg::Id { id, .. } => clients.push(id),
            other => return Err(io::Error::other(format!("fixture registration: {other:?}"))),
        }
    }
    let mut rng = Pcg64::with_stream(SEED, 1);
    let mut seq = vec![0u64; CLIENTS];
    for b in 0..RECORDS / BATCH {
        let c = b % CLIENTS;
        seq[c] += 1;
        let msg = ClientMsg::Upload {
            client: clients[c].clone(),
            seq: seq[c],
            records: load::records(&mut rng, &clients[c], &ids, BATCH),
        };
        match server.handle(&msg) {
            ServerMsg::Ack(n) if n == BATCH => {}
            other => return Err(io::Error::other(format!("fixture upload: {other:?}"))),
        }
    }
    drop(server);
    std::fs::rename(&tmp, &dir)?;
    Ok(dir)
}
