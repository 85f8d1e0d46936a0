//! `privtree-serve` — the PrivTree read path as a process.
//!
//! Loads one or more serialized releases — the `privtree-spatial`
//! `serialize` text format or the `privtree-store` binary format, told
//! apart by magic sniffing; a grid section, when present, ships the
//! precomputed cell grid so no rebuild happens at load time — into an
//! epoch-aware [`privtree_engine::ReleaseStore`], then answers a query
//! workload over **stdin** (default) or a **TCP socket**
//! (`--listen ADDR`). Both transports speak both protocols — the text
//! line protocol, or `privtree-wire v1` frames after a `0xB7` first
//! byte. Queries go through the pooled read path: a shard that carries
//! a cell grid answers grid-routed, any other shard through the plain
//! frozen walk (same answers, to float reassociation). Shipped grids
//! are used either way; `--grids` also builds a default grid for every
//! release that arrives without one, at boot and on each `add`/`swap`/
//! `load`. Epoch operations (`add`/`swap`/`retire`) reuse every
//! untouched shard and build, with `--grids`, only the touched release's
//! grid while in-flight readers keep their snapshot.
//!
//! ```text
//! privtree-serve [--grids] [--listen ADDR] [--catalog DIR]
//!                [--journal] [--fsync always|never|every:N]
//!                [--keep-generations N] [--max-conns N]
//!                [--read-timeout S] [--drain-timeout S]
//!                [--slow-query-log MS] <key=release>...
//! ```
//!
//! With `--catalog DIR` the process **warm-starts** from an on-disk
//! release catalog (every cataloged release is served under its key,
//! alongside any `key=path` arguments) and gains the `save <key>` /
//! `load <key>` protocol verbs, which persist a serving release to the
//! catalog and add-or-swap one back from it. The warm start is
//! **lossy**: a key whose file is missing, torn, or corrupt is
//! quarantined (logged at startup, reported by `stats`) and every clean
//! release serves — a degraded boot beats no boot. A release whose
//! shipped grid does not fit its arena is damaged too. Catalog opens
//! are **zero-copy**: binary releases are memory-mapped straight out of
//! the page cache and columns borrow the mapping.
//!
//! With `--journal` (requires `--catalog`), every `add`/`swap`/`retire`
//! appends a write-ahead record to the catalog's journal **before** the
//! ok line is written — an acked mutation survives a crash, and the
//! next boot replays the journal on top of the manifest. `--fsync`
//! (requires `--journal`) picks the append durability (`always`, the
//! default; `every:N`; `never`), `--keep-generations N` retains the
//! newest N generations per key (GC never unlinks a file a retained
//! generation still references), and the `checkpoint` verb folds the
//! journal into the manifest and rotates the segment.
//!
//! In listen mode the process runs under lifecycle guards: at most
//! `--max-conns` concurrent connections (excess accepts answer
//! `err busy`), a `--read-timeout` idle deadline evicting a peer that
//! sends nothing while idle or reads none of its pending replies for
//! that long (0 disables it), a 64 KiB protocol line cap, and
//! per-command panic isolation. `SIGTERM`/`SIGINT` — or EOF on stdin —
//! start a **graceful drain**: stop accepting, finish in-flight
//! replies, and exit once every connection closed or `--drain-timeout`
//! passed. (An EOF that arrives instantly means stdin was never
//! attached, e.g. `< /dev/null` under a supervisor, and is ignored.)
//!
//! The protocols themselves live in [`privtree_engine::serve`] (one text
//! command per line; a failed command answers `err <reason>` and the
//! connection keeps serving). See `examples/epoch_serving.rs` for an
//! end-to-end walkthrough.

use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

use privtree_engine::serve::{
    load_release, serve_lines, spawn_tcp_with, ServeContext, ServeOptions,
};
use privtree_engine::ReleaseStore;
use privtree_runtime::{install_termination_handler, ShutdownSignal};
use privtree_spatial::sharded::ShardHandle;
use privtree_store::{Catalog, FsyncPolicy};

const USAGE: &str = "usage: privtree-serve [--grids] [--listen ADDR] [--catalog DIR]\n\
                     [--journal] [--fsync always|never|every:N] [--keep-generations N]\n\
                     [--max-conns N] [--read-timeout SECS] [--drain-timeout SECS]\n\
                     [--slow-query-log MS] <key=release>...\n\
                     releases are privtree-synopsis v1 text files or privtree-bin v1\n\
                     binary files (sniffed; an attached grid section is loaded instead\n\
                     of rebuilt); queries arrive over stdin, or over TCP with --listen,\n\
                     as text lines or privtree-wire frames on either;\n\
                     --grids builds a default cell grid for every release that arrives\n\
                     without one (shipped grids route queries either way);\n\
                     --catalog warm-starts from (and enables save/load against) an\n\
                     on-disk release catalog, quarantining damaged entries instead of\n\
                     refusing to boot; --journal (requires --catalog) makes every\n\
                     add/swap/retire durable via a write-ahead journal record before\n\
                     the ack, replayed on the next boot; --fsync (requires --journal;\n\
                     default always) picks the journal append durability;\n\
                     --keep-generations (default 1) retains the newest N generations\n\
                     per key; --max-conns (default 1024) sheds excess connections with\n\
                     `err busy`; --read-timeout (default 30, 0=off) evicts a peer that\n\
                     sends nothing while idle, or reads none of its pending replies, for\n\
                     that long; SIGTERM/SIGINT or stdin EOF drain gracefully, waiting up\n\
                     to --drain-timeout (default 5) for in-flight replies;\n\
                     --slow-query-log records queries slower than MS milliseconds in a\n\
                     ring the `slowlog` verb dumps (the `metrics` verb serves the full\n\
                     telemetry exposition either way)";

fn parse_secs(flag: &str, value: Option<String>) -> Result<u64, String> {
    value
        .ok_or_else(|| format!("{flag} needs a number of seconds"))?
        .parse()
        .map_err(|_| format!("{flag} needs a number of seconds"))
}

fn run() -> Result<(), String> {
    let mut grids = false;
    let mut listen: Option<String> = None;
    let mut catalog_dir: Option<String> = None;
    let mut journal = false;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut keep_generations: usize = 1;
    let mut max_conns: usize = 1024;
    let mut read_timeout_secs: u64 = 30;
    let mut drain_timeout_secs: u64 = 5;
    let mut slow_query_log_ms: Option<u64> = None;
    let mut releases: Vec<(String, ShardHandle)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--grids" => grids = true,
            "--listen" => {
                listen = Some(args.next().ok_or("--listen needs an address")?);
            }
            "--catalog" => {
                catalog_dir = Some(args.next().ok_or("--catalog needs a directory")?);
            }
            "--journal" => journal = true,
            "--fsync" => {
                let spelling = args.next().ok_or("--fsync needs always|never|every:N")?;
                fsync = Some(FsyncPolicy::parse(&spelling).ok_or_else(|| {
                    format!("--fsync: bad policy {spelling} (always|never|every:N)")
                })?);
            }
            "--keep-generations" => {
                keep_generations = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--keep-generations needs a positive count")?;
            }
            "--max-conns" => {
                max_conns = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--max-conns needs a positive count")?;
            }
            "--read-timeout" => {
                read_timeout_secs = parse_secs("--read-timeout", args.next())?;
            }
            "--drain-timeout" => {
                drain_timeout_secs = parse_secs("--drain-timeout", args.next())?;
            }
            "--slow-query-log" => {
                slow_query_log_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or("--slow-query-log needs a positive number of milliseconds")?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            spec => {
                let (key, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=path, got {spec}\n{USAGE}"))?;
                releases.push((key.to_string(), load_release(path)?));
            }
        }
    }
    if catalog_dir.is_none() {
        if journal {
            return Err(format!("--journal requires --catalog\n{USAGE}"));
        }
        if keep_generations != 1 {
            return Err(format!("--keep-generations requires --catalog\n{USAGE}"));
        }
    }
    if fsync.is_some() && !journal {
        return Err(format!("--fsync requires --journal\n{USAGE}"));
    }
    let fsync = fsync.unwrap_or(FsyncPolicy::Always);
    let mut quarantined = Vec::new();
    let catalog = match &catalog_dir {
        Some(dir) => {
            // open replays any journal the manifest references; the
            // sweep runs after replay so journal-only generations are
            // never mistaken for orphans
            let mut catalog = Catalog::open_or_create(dir).map_err(|e| e.to_string())?;
            let sweep = catalog.recovery_sweep();
            if !sweep.is_clean() {
                eprintln!(
                    "privtree-serve: catalog recovery swept {} stale tmp file(s), \
                     {} orphan file(s), {} orphan journal segment(s)",
                    sweep.tmp_files, sweep.orphan_files, sweep.journal_files
                );
            }
            if catalog.replayed_ops() > 0 {
                eprintln!(
                    "privtree-serve: replayed {} journaled op(s) on top of the manifest \
                     (journal_seq={})",
                    catalog.replayed_ops(),
                    catalog.journal_seq()
                );
            }
            catalog.set_retention(keep_generations);
            if journal {
                catalog.enable_journal(fsync).map_err(|e| e.to_string())?;
            }
            // cataloged releases join the key=path arguments, which may
            // not collide (the store refuses duplicates), so both publish
            // in one version-1 snapshot. Lossy: damaged entries
            // quarantine instead of refusing to boot.
            let (loaded, bad) = catalog.load_all_mapped_lossy();
            releases.extend(loaded);
            quarantined = bad
                .into_iter()
                .map(|(key, e)| (key, e.to_string()))
                .collect();
            Some(catalog)
        }
        None => None,
    };
    for (key, reason) in &quarantined {
        eprintln!("privtree-serve: quarantined catalog release {key}: {reason}");
    }
    if releases.is_empty() {
        return Err(match quarantined.len() {
            0 => format!("no releases given\n{USAGE}"),
            n => format!("all {n} catalog release(s) were quarantined; nothing is left to serve"),
        });
    }
    let store = if grids {
        ReleaseStore::open_gridded(releases)
    } else {
        ReleaseStore::open(releases)
    }
    .map_err(|e| e.to_string())?;
    let snap = store.snapshot();
    eprintln!(
        "privtree-serve: {} release(s), {} nodes, dims={}, gridded={}{}{}{}",
        snap.shard_count(),
        snap.node_count(),
        snap.dims(),
        store.gridded(),
        match &catalog_dir {
            Some(dir) => format!(", catalog={dir}"),
            None => String::new(),
        },
        match journal {
            true => format!(", journal=on fsync={fsync} keep={keep_generations}"),
            false => String::new(),
        },
        match quarantined.len() {
            0 => String::new(),
            n => format!(", quarantined={n}"),
        }
    );
    let mut ctx = match catalog {
        Some(catalog) => ServeContext::with_catalog(store, catalog),
        None => ServeContext::new(store),
    }
    .with_quarantined(quarantined);
    if let Some(ms) = slow_query_log_ms {
        ctx = ctx.with_slow_query_log(Duration::from_millis(ms));
    }
    match listen {
        Some(addr) => {
            let opts = ServeOptions {
                max_conns,
                idle_timeout: (read_timeout_secs > 0)
                    .then(|| Duration::from_secs(read_timeout_secs)),
            };
            let shutdown = ShutdownSignal::new();
            // SIGTERM / SIGINT drain instead of killing mid-reply
            install_termination_handler(&shutdown);
            // stdin EOF drains too: a supervisor closing our stdin (or
            // an operator's ctrl-d) winds the listener down cleanly. An
            // EOF that arrives instantly means stdin was never attached
            // (e.g. `< /dev/null`) — ignore it, or daemonized servers
            // would exit at startup.
            let stdin_shutdown = shutdown.clone();
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                let mut sink = [0u8; 256];
                let mut stdin = io::stdin().lock();
                loop {
                    match stdin.read(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                if started.elapsed() >= Duration::from_millis(200) {
                    stdin_shutdown.trigger();
                }
            });
            let server = spawn_tcp_with(Arc::new(ctx), &addr, opts, shutdown)?;
            // announced on stdout so scripts (and the integration tests)
            // can discover an OS-assigned port
            println!("listening on {}", server.addr());
            io::stdout().flush().ok();
            let drained = server.join_then_drain(Duration::from_secs(drain_timeout_secs));
            if drained {
                eprintln!("privtree-serve: drained, exiting");
                Ok(())
            } else {
                eprintln!(
                    "privtree-serve: drain deadline ({drain_timeout_secs}s) passed with \
                     connections still open, exiting"
                );
                Ok(())
            }
        }
        None => {
            let stdin = io::stdin();
            serve_lines(&ctx, stdin.lock(), io::stdout())
                .map_err(|e| format!("stdin protocol failed: {e}"))
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("privtree-serve: {e}");
        std::process::exit(1);
    }
}
