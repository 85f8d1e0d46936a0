//! The multiplexed TCP front end: one thread, every connection.
//!
//! The reactor owns every socket nonblockingly (readiness via
//! [`privtree_runtime::readiness`], i.e. `poll(2)`) and does only
//! transport work: it feeds each connection's bytes into that
//! connection's sans-IO [`Session`], runs [`run_jobs`] over **all**
//! connections at once — so queries that arrived on different
//! connections in the same tick go out as one pooled dispatch — and
//! writes each session's rendered output back to its socket. It
//! enforces the TCP guards of `crate::serve` (connection cap, idle
//! deadline, drain) plus backpressure, and records the transport
//! telemetry: `conns{proto}` (when a session negotiates and when it
//! closes), byte counts, shed/evict counters, queue depth, and the
//! per-tick `reactor_stage_us` histograms.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use privtree_runtime::readiness::{self, PollEntry};
use privtree_runtime::telemetry::{Gauge, Stage, TickTrace};
use privtree_runtime::{failpoints, ShutdownSignal};

use crate::serve::{ServeContext, ServeOptions};
use crate::session::{run_jobs, Session};

/// Poll timeout: the longest the reactor sleeps when no socket has
/// traffic. Also bounds how late a drain or deadline eviction lands.
const REACTOR_TICK: Duration = Duration::from_millis(20);

/// Most bytes ingested from one connection per tick, so a firehose
/// peer cannot starve the others between polls.
const READ_QUANTUM: usize = 1 << 20;

/// Pending-output level above which a connection stops being read:
/// TCP backpressure propagates to the peer instead of the reactor
/// buffering unboundedly. One reply may exceed this (a maximal batch
/// renders tens of megabytes) — the cap stops *additional* commands
/// from piling more replies on, it never splits one.
const OUT_HIGH_WATER: usize = 1 << 20;

/// One connection's state in the reactor: the socket, its protocol
/// [`Session`], and the idle/stall clocks the deadline checks.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// The `conns{proto}` gauge this connection counts in once its
    /// session negotiated; released when the connection drops.
    gauge: Option<Arc<Gauge>>,
    last_read: Instant,
    /// When the peer first refused bytes with output pending.
    write_stalled: Option<Instant>,
    /// Drop the connection now.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            session: Session::default(),
            gauge: None,
            last_read: Instant::now(),
            write_stalled: None,
            dead: false,
        }
    }

    fn pending_out(&self) -> usize {
        self.session.output().len()
    }
}

impl AsMut<Session> for Conn {
    fn as_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        if let Some(gauge) = &self.gauge {
            gauge.sub(1);
        }
    }
}

/// Raw descriptor for the readiness set.
#[cfg(unix)]
fn fd_of<T: std::os::fd::AsRawFd>(s: &T) -> i64 {
    s.as_raw_fd() as i64
}

/// Non-Unix readiness ignores descriptors (everything polls ready).
#[cfg(not(unix))]
fn fd_of<T>(_s: &T) -> i64 {
    0
}

/// The reactor loop: owns the listener and every accepted socket until
/// shutdown (drain) or abort (drop everything). `active` mirrors the
/// live connection count for [`crate::serve::ServerHandle`].
pub(crate) fn run_reactor(
    listener: TcpListener,
    ctx: Arc<ServeContext>,
    opts: ServeOptions,
    shutdown: ShutdownSignal,
    active: Arc<AtomicUsize>,
    abort: Arc<AtomicBool>,
) {
    let mut listener = Some(listener);
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        if abort.load(Ordering::SeqCst) {
            break;
        }
        // per-tick stage timings; only stages that had work are
        // recorded, so idle 20 ms poll ticks never dilute the
        // histograms (`new` samples the enabled switch once per tick)
        let mut trace = TickTrace::new();
        let draining = shutdown.is_triggered();
        if draining {
            // closing the listener refuses new connections immediately
            listener = None;
            if conns.is_empty() {
                break;
            }
        }

        // readiness: the listener wants accepts; a connection wants
        // reads unless it is closing or back-pressured, and writes only
        // while output is pending (POLLOUT on an idle socket is always
        // ready and would busy-spin the loop)
        let mut entries = Vec::with_capacity(conns.len() + 1);
        let listener_slot = listener.as_ref().map(|l| {
            entries.push(PollEntry::read(fd_of(l)));
            entries.len() - 1
        });
        let conn_base = entries.len();
        for conn in &conns {
            let mut e = PollEntry {
                fd: fd_of(&conn.stream),
                want_read: conn.session.wants_input() && conn.pending_out() < OUT_HIGH_WATER,
                want_write: conn.pending_out() > 0,
                ..PollEntry::default()
            };
            if !e.want_read && !e.want_write {
                // still in the set so a hangup wakes the poll
                e.want_read = !conn.session.wants_input();
            }
            entries.push(e);
        }
        readiness::wait(&mut entries, REACTOR_TICK);

        // accept burst, shedding past the cap
        if let (Some(l), Some(slot)) = (&listener, listener_slot) {
            if entries[slot].readable {
                accept_burst(l, &mut conns, &ctx, &opts);
            }
        }

        // read + decode into jobs; the whole pass is the `decode`
        // stage, charged only when some socket actually had traffic
        let now = Instant::now();
        let any_input = conns.iter().enumerate().any(|(i, conn)| {
            !conn.dead
                && !conn.session.done()
                && entries
                    .get(conn_base + i)
                    .is_some_and(|e| e.readable || e.closed)
        });
        let read_pass = |conns: &mut Vec<Conn>| {
            for (i, conn) in conns.iter_mut().enumerate() {
                if conn.dead || conn.session.done() {
                    continue;
                }
                let ready = entries
                    .get(conn_base + i)
                    .is_some_and(|e| e.readable || e.closed);
                if ready && conn.session.wants_input() && conn.pending_out() < OUT_HIGH_WATER {
                    let got = read_some(conn, now);
                    if got > 0 {
                        ctx.metrics.bytes_in.add(got as u64);
                    }
                }
                // while draining, buffered bytes stay undecoded: in-flight
                // means already queued
                if !conn.dead && !draining {
                    // a decode bug closes only this connection
                    if !conn.session.ingest(&ctx) {
                        conn.dead = true;
                    }
                    if conn.gauge.is_none() {
                        conn.gauge = match conn.session.protocol() {
                            Some("wire") => Some(Arc::clone(&ctx.metrics.conns_wire)),
                            Some(_) => Some(Arc::clone(&ctx.metrics.conns_text)),
                            None => None,
                        };
                        if let Some(gauge) = &conn.gauge {
                            gauge.add(1);
                        }
                    }
                }
            }
        };
        if any_input {
            trace.time(Stage::Decode, || read_pass(&mut conns));
        } else {
            read_pass(&mut conns);
        }

        // queue depth after decode is the tick's high-water mark:
        // everything below works the queues down
        ctx.metrics
            .queue_depth
            .set(conns.iter().map(|c| c.session.queued() as u64).sum());

        run_jobs(&mut conns, &ctx, &mut trace);

        // flush, then lifecycle: write stalls, idle deadlines, drain
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            let before = conn.pending_out();
            if before > 0 {
                trace.time(Stage::Flush, || flush(conn, now, opts.idle_timeout));
                ctx.metrics
                    .bytes_out
                    .add((before - conn.pending_out()) as u64);
            } else {
                flush(conn, now, opts.idle_timeout);
            }
            if conn.dead {
                // the only in-flush death with replies still owed is a
                // stalled-writer deadline or a failed socket; count the
                // deadline case as an eviction
                if conn.write_stalled.is_some() {
                    ctx.metrics.conns_evicted.inc();
                }
                continue;
            }
            // every job ran above, so a flushed connection owes nothing
            let flushed = conn.pending_out() == 0;
            if flushed && (conn.session.done() || draining) {
                // a finished session, or a drain: in-flight replies have
                // been written, and no further command is read
                conn.dead = true;
                continue;
            }
            if let Some(deadline) = opts.idle_timeout {
                if flushed && now.duration_since(conn.last_read) >= deadline {
                    // slowloris eviction: silent (or trickling-and-
                    // stalled) peers cannot pin a slot open
                    conn.dead = true;
                    ctx.metrics.conns_evicted.inc();
                }
            }
        }

        conns.retain(|conn| !conn.dead);
        active.store(conns.len(), Ordering::SeqCst);
        trace.observe_into(&ctx.metrics.stage_us);
    }
    // aborted (or drained): whatever remains is dropped, sockets close
    drop(conns);
    active.store(0, Ordering::SeqCst);
}

/// Drain the listener's accept queue; connections past the cap are
/// answered `err busy` and closed (see [`shed`]).
fn accept_burst(
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    ctx: &ServeContext,
    opts: &ServeOptions,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.len() >= opts.max_conns {
                    ctx.metrics.conns_shed.inc();
                    shed(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // small request/reply turnarounds; Nagle would add its
                // full delay to every coalesced batch
                let _ = stream.set_nodelay(true);
                conns.push(Conn::new(stream));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("privtree-serve: failed connection: {e}");
                return;
            }
        }
    }
}

/// Feed up to [`READ_QUANTUM`] bytes off one socket into its session;
/// returns how many.
fn read_some(conn: &mut Conn, now: Instant) -> usize {
    if failpoints::check("serve.read").is_err() {
        conn.dead = true;
        return 0;
    }
    let mut taken = 0;
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.session.feed(&[]);
                return taken;
            }
            Ok(n) => {
                conn.session.feed(&buf[..n]);
                conn.last_read = now;
                taken += n;
                if taken >= READ_QUANTUM {
                    return taken;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return taken;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return taken;
            }
        }
    }
}

/// Write as much pending output as the socket accepts; a peer that
/// refuses every byte for `idle_timeout` with replies pending is
/// evicted.
fn flush(conn: &mut Conn, now: Instant, idle_timeout: Option<Duration>) {
    if conn.pending_out() == 0 {
        conn.write_stalled = None;
        return;
    }
    if failpoints::check("serve.write").is_err() {
        conn.dead = true;
        return;
    }
    loop {
        match conn.stream.write(conn.session.output()) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.session.consume_output(n);
                conn.write_stalled = None;
                if conn.pending_out() == 0 {
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // the peer stopped reading with replies pending: start
                // (or check) the stall clock
                let since = *conn.write_stalled.get_or_insert(now);
                if let Some(deadline) = idle_timeout {
                    if now.duration_since(since) >= deadline {
                        conn.dead = true;
                    }
                }
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Answer `err busy` (with a retry hint — the cap is a transient
/// condition, not a protocol error) and close: load shedding at the
/// connection cap. The reply is the text line whatever protocol the
/// peer intended — shedding happens before the first byte arrives, so
/// negotiation never ran (a binary client recognizes the `err ` prefix
/// where its fixed-size preamble reply would be). Best-effort — one
/// small write, bounded by a short timeout so a hostile peer cannot
/// stall the reactor.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(b"err busy (connection cap reached, retry shortly)\n");
}
