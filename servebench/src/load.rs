//! The load generator: closed-loop readers and the publisher.
//!
//! Readers send their stream's pre-rendered requests back to back, each
//! after the previous reply arrived, and keep every reply's bytes for
//! checking after the window. The publisher builds a new epoch with
//! PrivTree, encodes it without a grid section, writes it, and sends
//! `swap <key> <path>` — open loop at a fixed period during
//! `text-publish`'s window, or one after another in the wire workloads'
//! publish phase.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use privtree_spatial::FrozenSynopsis;
use privtree_store::encode_release;

use crate::client::{TextConn, WireConn};
use crate::inputs::{Proto, Stream};
use crate::steal;
use crate::trace::{Span, Tracer, PUBLISH_REQUEST};

/// When a reader measures and, in a traced run, which requests carry
/// spans. Times are offsets from the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub origin: Instant,
    /// Requests starting before this are warm-up and are not kept.
    pub measure_from: Duration,
    /// No request starts at or after this.
    pub end: Duration,
    /// Traced runs alternate untraced and traced slices of this length,
    /// untraced first; `None` traces nothing.
    pub slice: Option<Duration>,
}

impl Window {
    pub fn traced_at(&self, t: Duration) -> bool {
        match self.slice {
            Some(slice) if t >= self.measure_from => {
                ((t - self.measure_from).as_nanos() / slice.as_nanos()) % 2 == 1
            }
            _ => false,
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.measure_from).as_secs_f64()
    }
}

/// One measured request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into the stream's requests.
    pub index: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub traced: bool,
    /// Where the reply bytes sit in the reader's chunks; `None` when the
    /// request failed at the socket (error or timeout).
    pub reply: Option<(usize, usize, usize)>,
}

impl Request {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Everything one reader saw.
pub struct ReaderLog {
    pub stream: usize,
    pub requests: Vec<Request>,
    pub chunks: Vec<Vec<u8>>,
    /// The socket error that ended the reader early, if any.
    pub error: Option<String>,
    /// L4 spans of traced requests (the loopback round trip).
    pub spans: Vec<Span>,
}

impl ReaderLog {
    pub fn reply(&self, r: &Request) -> Option<&[u8]> {
        r.reply.map(|(c, off, len)| &self.chunks[c][off..off + len])
    }

    /// Bytes this log holds for checking: kept replies and records. They
    /// grow with throughput, so the memory metric leaves them out.
    pub fn kept_bytes(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum::<usize>()
            + self.requests.len() * std::mem::size_of::<Request>()
    }
}

/// Reply bytes are appended to fixed-capacity chunks: growing one big
/// buffer would copy everything kept so far inside the timed loop.
const CHUNK: usize = 8 << 20;

/// More requests per second than one loopback connection completes
/// (the fastest workload runs about 7,000); only records actually kept
/// occupy memory.
const MAX_REQUESTS_PER_SEC: usize = 32_768;

/// Request ids of reader spans: stream in the high half.
pub fn request_id(stream: usize, seq: usize) -> u64 {
    ((stream as u64) << 32) | seq as u64
}

/// Drive one closed-loop connection until the window ends.
pub fn run_reader(
    proto: Proto,
    addr: SocketAddr,
    stream_index: usize,
    stream: &Stream,
    window: Window,
) -> ReaderLog {
    // sized so it never grows inside the window: growing would copy
    // every record kept so far, and its footprint would track throughput
    let expected = (window.end - window.measure_from).as_secs() as usize * MAX_REQUESTS_PER_SEC;
    let mut log = ReaderLog {
        stream: stream_index,
        requests: Vec::with_capacity(expected.max(1 << 16)),
        chunks: vec![Vec::with_capacity(CHUNK)],
        error: None,
        spans: Vec::new(),
    };
    let mut wire = None;
    let mut text = None;
    let connected = match proto {
        Proto::Wire => WireConn::connect(addr).map(|c| wire = Some(c)),
        Proto::Text => TextConn::connect(addr).map(|c| text = Some(c)),
    };
    if let Err(e) = connected {
        log.error = Some(format!("connect: {e}"));
        return log;
    }
    // the largest reply seen so far bounds how much room the next needs
    let mut room = 64 * 1024;
    let n = stream.payloads.len();
    // streams start at different offsets so two connections do not send
    // the same request at the same moment
    let mut index = stream_index * n / 2 % n;
    loop {
        let chunk = log.chunks.last_mut().expect("one chunk at least");
        if chunk.capacity() - chunk.len() < room {
            log.chunks.push(Vec::with_capacity(CHUNK.max(room * 2)));
        }
        let c = log.chunks.len() - 1;
        let chunk = &mut log.chunks[c];
        let off = chunk.len();
        let start = Instant::now();
        let t = start.saturating_duration_since(window.origin);
        if t >= window.end {
            break;
        }
        let result = match (&mut wire, &mut text) {
            (Some(conn), _) => conn.round_trip(&stream.payloads[index], chunk),
            (_, Some(conn)) => conn.round_trip(&stream.payloads[index], stream.reply_lines, chunk),
            _ => unreachable!("connected above"),
        };
        let end = Instant::now();
        let len = chunk.len() - off;
        room = room.max(len * 2);
        if t < window.measure_from {
            chunk.truncate(off);
        } else {
            let traced = window.traced_at(t);
            let seq = log.requests.len();
            let (start_ns, end_ns) = (window.ns(start), window.ns(end));
            if traced {
                log.spans.push(Span {
                    name: "engine.reactor",
                    request: request_id(stream_index, seq),
                    parent: None,
                    start_ns,
                    end_ns,
                    share: 1.0,
                });
            }
            log.requests.push(Request {
                index,
                start_ns,
                end_ns,
                traced,
                reply: result.is_ok().then_some((c, off, len)),
            });
        }
        if let Err(e) = result {
            log.error = Some(e.to_string());
            break;
        }
        index = (index + 1) % n;
    }
    if let Some(conn) = wire {
        conn.quit();
    }
    if let Some(conn) = text {
        conn.quit();
    }
    log
}

/// When publishes start.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Publish `e` is due at `first + e * period`, however long earlier
    /// publishes took (an open loop).
    Open { first: Instant, period: Duration },
    /// Each publish starts when the previous one got its reply.
    BackToBack,
}

/// One publish.
#[derive(Debug, Clone)]
pub struct Publish {
    pub scheduled_ns: u64,
    pub start_ns: u64,
    /// The `swap` command was written.
    pub sent_ns: u64,
    /// Its reply was read.
    pub done_ns: u64,
    pub ok: bool,
    pub reply: String,
    pub bytes: usize,
    pub nodes: usize,
    pub depth: u32,
    /// The host's steal from start to reply.
    pub steal_pct: Option<f64>,
}

impl Publish {
    /// From the scheduled start to the reply.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.scheduled_ns) as f64 / 1e6
    }

    pub fn lag_ms(&self) -> f64 {
        (self.start_ns - self.scheduled_ns) as f64 / 1e6
    }
}

pub struct PublishLog {
    pub publishes: Vec<Publish>,
    /// Each epoch's arena, in publish order, when asked to keep them.
    pub arenas: Vec<Arc<FrozenSynopsis>>,
    pub spans: Vec<Span>,
    /// The last encoded epoch (for the traced run's replays).
    pub last_bytes: Vec<u8>,
    pub error: Option<String>,
}

/// What the publisher needs to know.
pub struct Publisher<'a> {
    pub addr: SocketAddr,
    pub key: &'a str,
    /// Where epoch files are written before their `swap`.
    pub dir: PathBuf,
    pub count: usize,
    pub schedule: Schedule,
    pub keep_arenas: bool,
    /// Builds epoch `e`'s release (`e` counts from 0).
    pub build: &'a (dyn Fn(usize) -> privtree_spatial::synopsis::SpatialSynopsis + Sync),
}

impl Publisher<'_> {
    pub fn run(&self, origin: Instant, traced: bool) -> PublishLog {
        let mut tracer = Tracer::new(origin, traced);
        let mut log = PublishLog {
            publishes: Vec::with_capacity(self.count),
            arenas: Vec::new(),
            spans: Vec::new(),
            last_bytes: Vec::new(),
            error: None,
        };
        std::fs::create_dir_all(&self.dir).expect("create the epoch directory");
        let mut conn = match TextConn::connect(self.addr) {
            Ok(conn) => conn,
            Err(e) => {
                log.error = Some(format!("connect: {e}"));
                return log;
            }
        };
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        for e in 0..self.count {
            let scheduled = match self.schedule {
                Schedule::Open { first, period } => first + period * e as u32,
                Schedule::BackToBack => Instant::now(),
            };
            sleep_until(scheduled);
            let ticks = steal::ticks();
            let start = Instant::now();
            let id = PUBLISH_REQUEST | e as u64;
            let (synopsis, _) = tracer.time("core.build", id, None, || (self.build)(e));
            let depth = synopsis.max_depth();
            let (arena, _) = tracer.time("spatial.frozen.freeze", id, None, || synopsis.freeze());
            let (bytes, _) = tracer.time("store.format.encode", id, None, || {
                encode_release(&arena, None)
            });
            let path = self.dir.join(format!("epoch-{e}.ptbin"));
            let (written, _) =
                tracer.time("publish.write", id, None, || std::fs::write(&path, &bytes));
            if let Err(err) = written {
                log.error = Some(format!("write {}: {err}", path.display()));
                break;
            }
            let sent = Instant::now();
            let command = format!("swap {} {}", self.key, path.display());
            let (reply, _) = tracer.time("engine.swap_verb", id, None, || conn.command(&command));
            let done = Instant::now();
            let _ = std::fs::remove_file(&path);
            let (ok, reply) = match reply {
                Ok(line) => (line.starts_with("ok "), line),
                Err(err) => {
                    log.error = Some(format!("swap: {err}"));
                    (false, String::new())
                }
            };
            log.publishes.push(Publish {
                scheduled_ns: ns(scheduled),
                start_ns: ns(start),
                sent_ns: ns(sent),
                done_ns: ns(done),
                ok,
                reply,
                bytes: bytes.len(),
                nodes: arena.node_count(),
                depth,
                steal_pct: steal::pct(ticks, steal::ticks()),
            });
            if self.keep_arenas {
                log.arenas.push(Arc::new(arena));
            }
            log.last_bytes = bytes;
            if log.error.is_some() {
                break;
            }
        }
        conn.quit();
        log.spans = tracer.spans;
        log
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The epoch directory under a run directory.
pub fn epoch_dir(run_dir: &Path) -> PathBuf {
    run_dir.join("epochs")
}
