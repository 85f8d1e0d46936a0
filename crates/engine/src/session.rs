//! The serving protocols as a sans-IO state machine: a [`Session`]
//! takes the bytes a peer sent and hands back the bytes to send it — no
//! sockets and no blocking.
//!
//! A session negotiates its protocol on the first byte (the wire
//! preamble's `0xB7` means `privtree-wire v1` frames, anything else the
//! text line protocol), decodes complete lines and frames into a job
//! queue, and renders every reply into one output buffer.
//! [`run_jobs`] executes the leading jobs of any number of sessions,
//! coalescing their queries into **one pooled dispatch** — one `Vec` of
//! the round's queries, with each job's span of it in its `QueryMeta` —
//! and scattering each session's answers back into its own output by
//! those spans. The TCP reactor drives every
//! connection of a listener through one [`run_jobs`] call per tick;
//! [`crate::serve::serve_lines`] drives a single session over a
//! blocking reader. Both record the same request telemetry
//! (`request_us`, `coalesced_*`, `wire_frames_*`, `line_resyncs_total`,
//! the slow-query log); transport telemetry stays in the reactor.
//!
//! Correctness invariants, all pinned by the serve test suites:
//!
//! * **Per-session order** — jobs execute strictly in arrival order:
//!   queries queued before a mutation are answered from the
//!   pre-mutation snapshot taken when their dispatch ran, and their
//!   replies are rendered before the mutation's `ok`.
//! * **Bit identity** — coalescing is pure concatenation and the batch
//!   answerers are per-item, so a coalesced answer is bit-identical to
//!   a solo dispatch of the same query (and to the text protocol's
//!   `%.17e` rendering of it).
//! * **Panic isolation** — every dispatch and control verb runs under
//!   `catch_unwind`, so one panicking command answers
//!   `err internal ...` (text) or an `ERRF` frame (binary) while every
//!   session keeps serving; a panicking decoder ends only its session.
//! * **Journal-before-ack** — control verbs execute through
//!   [`control_reply`], whose `ok` line exists only after the catalog
//!   persist completed, and it is rendered after every earlier reply.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use privtree_runtime::telemetry::{Stage, TickTrace};
use privtree_spatial::query::RangeQuery;
use privtree_store::frame::{parse_header, payload, FrameError, FrameHeader};

use crate::serve::{
    control_reply, exposition_lines, parse_query, ServeContext, MAX_BATCH, MAX_LINE,
};
use crate::wire;

/// What protocol a session speaks, decided by its first byte.
#[derive(Default)]
enum Proto {
    /// Nothing read yet.
    #[default]
    Pending,
    /// The line protocol, with its incremental decode state.
    Text(TextState),
    /// `privtree-wire v1` frames.
    Wire,
}

/// Incremental text-protocol decode state.
#[derive(Default)]
struct TextState {
    /// Discarding an oversized line up to its newline (the resync the
    /// line cap promises).
    skipping: bool,
    /// Bytes of the current partial line already searched for its
    /// newline, so a line that arrives in k pieces is scanned once
    /// rather than k times.
    scanned: usize,
    /// An open `batch <n>` still collecting its query lines.
    batch: Option<BatchState>,
}

/// A `batch <n>` mid-collection.
struct BatchState {
    /// Query lines still owed.
    remaining: usize,
    /// Parsed queries so far (abandoned once `problem` is set).
    queries: Vec<RangeQuery>,
    /// First failure; the batch still drains all `n` lines so the
    /// stream stays aligned, then answers this one `err`.
    problem: Option<String>,
    /// When the `batch` command decoded (request latency starts at the
    /// command, not its last query line). `None` when nothing clocks.
    created: Option<Instant>,
}

/// How to render a dispatch's answers back to the session.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One `%.17e` line per answer (`count`, `batch`).
    Text,
    /// One `ANSV` frame, CRC'd iff the request was.
    Wire { crc: bool },
}

/// One unit of work a session has queued, in arrival order.
enum Job {
    /// Queries awaiting a (coalesced) pooled dispatch.
    Queries {
        queries: Vec<RangeQuery>,
        shape: Shape,
        /// Decode time, for the per-protocol request-latency histogram
        /// and the slow-query log. `None` when nothing clocks.
        created: Option<Instant>,
    },
    /// A control verb line for [`control_reply`].
    Control(String),
    /// Bytes already rendered at decode time (errors, `HELO`).
    Reply(Vec<u8>),
    /// Render everything queued before this, then close.
    Quit,
}

/// What one scan of the text input produced.
enum TextEvent {
    /// A complete line, as its range of `inbuf` without the newline and
    /// any trailing `\r` (already consumed: `inpos` is past it).
    Line(std::ops::Range<usize>),
    /// An oversized line was discarded through its newline.
    TooLong,
    /// Need more bytes.
    Incomplete,
}

/// One peer's protocol state: undecoded input, queued jobs, and
/// rendered output. The driver [`feed`](Session::feed)s bytes, calls
/// [`ingest`](Session::ingest), runs [`run_jobs`], and sends
/// [`output`](Session::output) until the session is
/// [`done`](Session::done).
#[derive(Default)]
pub(crate) struct Session {
    proto: Proto,
    /// Raw undecoded input. Bounded: complete lines and frames leave it
    /// on every ingest, so it holds at most one incomplete line/frame
    /// plus what was fed since.
    inbuf: Vec<u8>,
    /// How much of `inbuf` has been decoded this pass. A cursor rather
    /// than per-event `drain`: draining the buffer once per line would
    /// memmove the whole remaining batch payload every line (quadratic
    /// in the buffered bytes); instead the consumed prefix is compacted
    /// once after each ingest pass.
    inpos: usize,
    jobs: VecDeque<Job>,
    /// Rendered replies not yet sent, in reply order.
    outbuf: Vec<u8>,
    /// How much of `outbuf` has been sent.
    outpos: usize,
    /// Send the output, then close (a `quit`, or a fatal protocol
    /// error whose reply is already rendered).
    closing: bool,
    /// The peer's input ended; finalize once `inbuf` is decoded.
    eof: bool,
    /// EOF finalization already ran.
    eof_done: bool,
}

impl AsMut<Session> for Session {
    fn as_mut(&mut self) -> &mut Session {
        self
    }
}

impl Session {
    /// Append bytes the peer sent, for [`Session::ingest`] to decode;
    /// an empty slice means the peer's input ended.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.eof |= bytes.is_empty();
        self.inbuf.extend_from_slice(bytes);
    }

    /// Whether the session still reads input (not closing, no EOF).
    pub(crate) fn wants_input(&self) -> bool {
        !self.closing && !self.eof
    }

    /// Whether nothing more will be rendered (closing, or the input
    /// ended and its jobs ran): close once the output is sent.
    pub(crate) fn done(&self) -> bool {
        self.closing || (self.eof_done && self.jobs.is_empty())
    }

    /// Jobs decoded but not yet run.
    pub(crate) fn queued(&self) -> usize {
        self.jobs.len()
    }

    /// The negotiated protocol, `"text"` or `"wire"`.
    pub(crate) fn protocol(&self) -> Option<&'static str> {
        match self.proto {
            Proto::Pending => None,
            Proto::Text(_) => Some("text"),
            Proto::Wire => Some("wire"),
        }
    }

    /// Rendered bytes not yet sent.
    pub(crate) fn output(&self) -> &[u8] {
        &self.outbuf[self.outpos..]
    }

    /// Mark the first `n` bytes of [`Session::output`] as sent.
    pub(crate) fn consume_output(&mut self, n: usize) {
        self.outpos += n;
        if self.outpos >= self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        }
    }

    /// Decode everything decodable in the input into jobs, negotiating
    /// the protocol on the first byte, then finalize EOF once the input
    /// is spent. Returns `false` if the decoder panicked: the queued
    /// jobs are dropped and the driver should close the session — a
    /// decode bug ends one session, never the server.
    pub(crate) fn ingest(&mut self, ctx: &ServeContext) -> bool {
        if catch_unwind(AssertUnwindSafe(|| self.ingest_negotiated(ctx))).is_err() {
            self.jobs.clear();
            return false;
        }
        // compact the consumed prefix once per pass (see `inpos`)
        self.inbuf.drain(..self.inpos.min(self.inbuf.len()));
        self.inpos = 0;
        true
    }

    /// Queue a text reply line.
    fn push_line(&mut self, line: &str) {
        self.jobs
            .push_back(Job::Reply(format!("{line}\n").into_bytes()));
    }

    /// Queue an `ERRF` frame; `close` also queues the quit that makes
    /// it the session's last words.
    fn push_err_frame(&mut self, ctx: &ServeContext, code: u16, message: &str, close: bool) {
        let mut bytes = Vec::new();
        wire::encode_err_frame_into(&mut bytes, code, message);
        ctx.metrics.wire_frames_out.inc();
        self.jobs.push_back(Job::Reply(bytes));
        if close {
            self.jobs.push_back(Job::Quit);
        }
    }

    /// [`Session::ingest`]'s body: negotiate, then decode via the
    /// cursor.
    fn ingest_negotiated(&mut self, ctx: &ServeContext) {
        if matches!(self.proto, Proto::Pending) {
            if self.inbuf.is_empty() {
                self.eof_done = self.eof;
                return;
            }
            if self.inbuf[0] == wire::PREAMBLE[0] {
                if self.inbuf.len() < wire::PREAMBLE.len() {
                    self.eof_done = self.eof; // a truncated preamble closes
                    return;
                }
                if self.inbuf[..4] == wire::PREAMBLE {
                    self.inbuf.drain(..4);
                    self.proto = Proto::Wire;
                    let mut hello = Vec::new();
                    wire::encode_hello_frame_into(&mut hello, ctx.store.dims());
                    ctx.metrics.wire_frames_out.inc();
                    self.jobs.push_back(Job::Reply(hello));
                } else {
                    self.proto = Proto::Wire; // it tried to speak binary
                    self.push_err_frame(ctx, wire::ERR_BAD_FRAME, "bad preamble", true);
                    self.inbuf.clear();
                    return;
                }
            } else {
                self.proto = Proto::Text(TextState::default());
            }
        }
        match self.proto {
            Proto::Pending => unreachable!("negotiated above"),
            Proto::Text(_) => self.ingest_text(ctx),
            Proto::Wire => self.ingest_wire(ctx),
        }
    }

    /// Extract the next line event from the input, honoring
    /// skip-to-newline resync and the line cap.
    fn next_text_event(&mut self) -> TextEvent {
        let Proto::Text(state) = &mut self.proto else {
            return TextEvent::Incomplete;
        };
        if state.skipping {
            match find_newline(&self.inbuf[self.inpos..]) {
                Some(pos) => {
                    self.inpos += pos + 1;
                    state.skipping = false;
                    return TextEvent::TooLong;
                }
                None => {
                    self.inbuf.clear(); // keep discarding, stay bounded
                    self.inpos = 0;
                    return TextEvent::Incomplete;
                }
            }
        }
        let scanned = state.scanned;
        let newline = find_newline(&self.inbuf[self.inpos + scanned..]).map(|pos| scanned + pos);
        state.scanned = 0;
        match newline {
            Some(pos) if pos > MAX_LINE => {
                self.inpos += pos + 1;
                TextEvent::TooLong
            }
            Some(pos) => {
                let start = self.inpos;
                let mut end = start + pos;
                self.inpos = end + 1;
                while end > start && self.inbuf[end - 1] == b'\r' {
                    end -= 1;
                }
                TextEvent::Line(start..end)
            }
            None if self.inbuf.len() - self.inpos > MAX_LINE => {
                self.inbuf.clear();
                self.inpos = 0;
                state.skipping = true;
                TextEvent::Incomplete
            }
            None => {
                state.scanned = self.inbuf.len() - self.inpos;
                TextEvent::Incomplete
            }
        }
    }

    /// Decode complete text lines into jobs until the input runs dry,
    /// then finalize EOF (unterminated final line, truncated batch,
    /// quit).
    fn ingest_text(&mut self, ctx: &ServeContext) {
        loop {
            match self.next_text_event() {
                TextEvent::Incomplete => break,
                TextEvent::TooLong => self.line_too_long(ctx),
                TextEvent::Line(range) => {
                    // decode the line where it lies: the line handlers
                    // never touch `inbuf`, so it steps aside for the call
                    // instead of the line being copied out
                    let inbuf = std::mem::take(&mut self.inbuf);
                    self.text_line(ctx, &inbuf[range]);
                    self.inbuf = inbuf;
                }
            }
        }
        if !self.eof || self.eof_done {
            return;
        }
        let Proto::Text(state) = &mut self.proto else {
            return;
        };
        if state.skipping {
            state.skipping = false;
            self.line_too_long(ctx);
        } else if self.inpos < self.inbuf.len() {
            // an unterminated final line still counts as a line
            state.scanned = 0;
            let inbuf = std::mem::take(&mut self.inbuf);
            let start = std::mem::take(&mut self.inpos);
            self.text_line(ctx, &inbuf[start..]);
        }
        if let Proto::Text(state) = &mut self.proto {
            if state.batch.take().is_some() {
                self.push_line("err unexpected end of input inside batch");
            }
        }
        self.jobs.push_back(Job::Quit);
        self.eof_done = true;
    }

    /// An oversized line was discarded through its newline: one `err`
    /// reply, or the open batch's failure.
    fn line_too_long(&mut self, ctx: &ServeContext) {
        ctx.metrics.line_resyncs.inc();
        let problem = format!("line too long (max {MAX_LINE} bytes)");
        if matches!(&self.proto, Proto::Text(s) if s.batch.is_some()) {
            self.batch_line(Err(problem));
        } else {
            self.push_line(&format!("err {problem}"));
        }
    }

    /// Count one query line toward the open batch: a parsed query joins
    /// it unless an earlier line failed, and only the first failure is
    /// kept. The batch drains all `n` lines so the stream stays
    /// aligned, then closes out into its job (queries or one `err`).
    fn batch_line(&mut self, line: Result<RangeQuery, String>) {
        let Proto::Text(state) = &mut self.proto else {
            return;
        };
        let Some(batch) = &mut state.batch else {
            return;
        };
        match line {
            Ok(q) if batch.problem.is_none() => batch.queries.push(q),
            Ok(_) => {}
            Err(e) => {
                batch.problem.get_or_insert(e);
            }
        }
        batch.remaining -= 1;
        if batch.remaining > 0 {
            return;
        }
        let Some(batch) = state.batch.take() else {
            return;
        };
        match batch.problem {
            Some(e) => self.push_line(&format!("err {e}")),
            None => self.jobs.push_back(Job::Queries {
                queries: batch.queries,
                shape: Shape::Text,
                created: batch.created,
            }),
        }
    }

    /// Route one complete text line: a batch query line if a batch is
    /// open, a command otherwise.
    fn text_line(&mut self, ctx: &ServeContext, raw: &[u8]) {
        if matches!(&self.proto, Proto::Text(s) if s.batch.is_some()) {
            self.batch_line(batch_query(ctx.store.dims(), raw));
            return;
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            self.push_line("err line is not valid utf-8");
            return;
        };
        let mut fields = Fields(line);
        let Some(command) = fields.next() else {
            return; // a blank line
        };
        match command {
            "count" => match (fields.next(), fields.next()) {
                (Some(lo), Some(hi)) => match parse_query(ctx.store.dims(), lo, hi) {
                    Ok(q) => self.jobs.push_back(Job::Queries {
                        queries: vec![q],
                        shape: Shape::Text,
                        created: ctx.clocked().then(Instant::now),
                    }),
                    Err(e) => self.push_line(&format!("err {e}")),
                },
                _ => self.push_line("err count needs <lo> <hi>"),
            },
            "batch" => {
                let n: usize = match fields.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n <= MAX_BATCH => n,
                    Some(n) => {
                        self.push_line(&format!(
                            "err batch of {n} exceeds the {MAX_BATCH}-query cap"
                        ));
                        return;
                    }
                    None => {
                        self.push_line("err batch needs a query count");
                        return;
                    }
                };
                let created = ctx.clocked().then(Instant::now);
                if n == 0 {
                    self.jobs.push_back(Job::Queries {
                        queries: Vec::new(),
                        shape: Shape::Text,
                        created,
                    });
                    return;
                }
                if let Proto::Text(state) = &mut self.proto {
                    state.batch = Some(BatchState {
                        remaining: n,
                        queries: Vec::with_capacity(n.min(1 << 16)),
                        problem: None,
                        created,
                    });
                }
            }
            "quit" => self.jobs.push_back(Job::Quit),
            _ => self.jobs.push_back(Job::Control(line.trim().to_string())),
        }
    }

    /// Decode complete binary frames into jobs until the input runs
    /// dry, then finalize EOF (a truncated frame is a clean close — no
    /// reply target exists for half a frame).
    fn ingest_wire(&mut self, ctx: &ServeContext) {
        loop {
            let header = match parse_header(&self.inbuf[self.inpos..], wire::MAX_FRAME) {
                Ok(None) => break,
                Ok(Some(header)) => header,
                Err(e) => {
                    ctx.metrics.wire_frames_in.inc();
                    let code = match e {
                        FrameError::Oversized { .. } => wire::ERR_OVERSIZED,
                        _ => wire::ERR_BAD_FRAME,
                    };
                    self.push_err_frame(ctx, code, &e.to_string(), true);
                    self.inbuf.clear();
                    self.inpos = 0;
                    return;
                }
            };
            if self.inbuf.len() - self.inpos < header.total_len() {
                break; // bounded: len already validated against MAX_FRAME
            }
            let start = self.inpos;
            self.inpos += header.total_len();
            ctx.metrics.wire_frames_in.inc();
            // decode the frame where it lies: the frame handler never
            // touches `inbuf`, so it steps aside for the call instead of
            // the frame being copied out
            let inbuf = std::mem::take(&mut self.inbuf);
            let closed = self.wire_frame(ctx, &header, &inbuf[start..self.inpos]);
            self.inbuf = inbuf;
            if closed {
                self.inbuf.clear();
                self.inpos = 0;
                return;
            }
        }
        if self.eof && !self.eof_done {
            self.jobs.push_back(Job::Quit);
            self.eof_done = true;
        }
    }

    /// Queue the reply or job for one complete binary frame. Returns
    /// whether the frame closes the session (`QUIT`, or a tag the
    /// protocol does not define), after which nothing more is decoded.
    fn wire_frame(&mut self, ctx: &ServeContext, header: &FrameHeader, frame: &[u8]) -> bool {
        let body = match payload(header, frame) {
            Ok(body) => body,
            Err(e) => {
                // the full frame was consumed, so the stream is still
                // aligned: a corrupted payload keeps the session alive
                self.push_err_frame(ctx, wire::ERR_CHECKSUM, &e.to_string(), false);
                return false;
            }
        };
        match header.tag {
            wire::TAG_QUERY => match wire::decode_query_payload(body, ctx.store.dims()) {
                Ok(queries) => self.jobs.push_back(Job::Queries {
                    queries,
                    shape: Shape::Wire {
                        crc: header.has_crc(),
                    },
                    created: ctx.clocked().then(Instant::now),
                }),
                Err(e) => self.push_err_frame(ctx, wire::ERR_BAD_QUERY, &e, false),
            },
            wire::TAG_METRICS => {
                // the binary `metrics` verb: rendered at decode time
                // (like `HELO`) and queued as a reply, so it lands in
                // per-session order behind earlier frames
                let mut text = exposition_lines(ctx).join("\n");
                text.push('\n');
                let mut bytes = Vec::new();
                wire::encode_metrics_frame_into(&mut bytes, &text, header.has_crc());
                ctx.metrics.wire_frames_out.inc();
                self.jobs.push_back(Job::Reply(bytes));
            }
            wire::TAG_QUIT => {
                self.jobs.push_back(Job::Quit);
                return true;
            }
            other => {
                let msg = format!("unexpected frame {:?}", String::from_utf8_lossy(&other));
                self.push_err_frame(ctx, wire::ERR_BAD_FRAME, &msg, true);
                return true;
            }
        }
        false
    }
}

/// Index of the first byte of `bytes` that `hit` accepts, eight bytes at
/// a time: `flags` maps a little-endian word to a mask with the high bit
/// of every hit byte set. It may also flag bytes *above* a hit (a SWAR
/// borrow), never below one, so its lowest flag is always exact; the
/// tail shorter than a word is tested with `hit` directly.
fn find_byte(bytes: &[u8], flags: impl Fn(u64) -> u64, hit: impl Fn(u8) -> bool) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let found = flags(u64::from_le_bytes(
            word.try_into().expect("an 8-byte chunk"),
        ));
        if found != 0 {
            return Some(i * 8 + found.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let base = bytes.len() - tail.len();
    tail.iter().position(|&b| hit(b)).map(|pos| base + pos)
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte of a word.
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// Index of the first `\n` in `bytes`: a word XORed with `\n` in every
/// byte has a zero byte exactly where the word has a newline, and the
/// SWAR zero-byte test `(x - 0x01..) & !x & 0x80..` flags it.
pub(crate) fn find_newline(bytes: &[u8]) -> Option<usize> {
    find_byte(
        bytes,
        |word| {
            let x = word ^ (ONES * u64::from(b'\n'));
            x.wrapping_sub(ONES) & !x & HIGHS
        },
        |b| b == b'\n',
    )
}

/// Length of the leading run of bytes in `0x21..=0x7F` — ASCII that is
/// neither whitespace nor a control char below space — which no field
/// boundary can fall inside. A byte under `0x21` borrows in
/// `x - 0x21..` and a non-ASCII byte has its high bit set, so
/// `(x - 0x21..) | x` flags both.
fn plain_run(bytes: &[u8]) -> usize {
    find_byte(
        bytes,
        |x| (x.wrapping_sub(ONES * 0x21) | x) & HIGHS,
        |b| !(0x21..0x80).contains(&b),
    )
    .unwrap_or(bytes.len())
}

/// The fields of a protocol line, split exactly where
/// `char::is_whitespace` splits (the rule of `str::split_whitespace`,
/// without its per-char decode). A field's plain ASCII is skipped a word
/// at a time; any other byte is tested against TAB, LF, VT, FF, CR and
/// space (`u8::is_ascii_whitespace` leaves out VT), and a non-ASCII
/// char is decoded in place and asked.
struct Fields<'a>(&'a str);

/// Whether the char at byte `i` of `line` (a char boundary) is
/// whitespace, and its length in bytes.
fn whitespace_at(line: &str, i: usize) -> (bool, usize) {
    let b = line.as_bytes()[i];
    if b.is_ascii() {
        (
            matches!(b, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' '),
            1,
        )
    } else {
        let c = line[i..].chars().next().expect("a char boundary");
        (c.is_whitespace(), c.len_utf8())
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let line = self.0;
        let mut i = 0;
        let start = loop {
            if i == line.len() {
                self.0 = "";
                return None;
            }
            match whitespace_at(line, i) {
                (true, len) => i += len,
                (false, _) => break i,
            }
        };
        loop {
            i += plain_run(&line.as_bytes()[i..]);
            if i == line.len() {
                break;
            }
            match whitespace_at(line, i) {
                (false, len) => i += len,
                (true, _) => break,
            }
        }
        self.0 = &line[i..];
        Some(&line[start..i])
    }
}

/// Decode one batch query line, `<lo> <hi>` (fields past the second
/// are ignored).
fn batch_query(dims: usize, raw: &[u8]) -> Result<RangeQuery, String> {
    let qline =
        std::str::from_utf8(raw).map_err(|_| "batch line is not valid utf-8".to_string())?;
    let mut fields = Fields(qline);
    match (fields.next(), fields.next()) {
        (Some(lo), Some(hi)) => parse_query(dims, lo, hi),
        _ => Err(format!("bad batch line: {qline}")),
    }
}

/// `internal: <panic message>` — the failure a panicking command
/// answers (after `err ` on text, in an `ERRF` frame on the wire). The
/// message is rendered on one line: a multi-line payload (an
/// `assert_eq!` failure spans three) would otherwise hand a text
/// client extra reply lines and desynchronize its replies.
fn internal_error(payload: &(dyn std::any::Any + Send)) -> String {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        *s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    let words: Vec<&str> = message.split_whitespace().collect();
    format!("internal: {}", words.join(" "))
}

/// Run every queued job of every session to completion, in per-session
/// order, in rounds: first every session's *leading* query jobs
/// coalesce into one pooled dispatch (the cross-session batching the
/// reactor exists for), then leading non-query jobs execute, until no
/// job remains. A session's query queued before its mutation is always
/// dispatched — and its reply rendered — before the mutation runs. The
/// `coalesce`, `dispatch` and `scatter` stages are charged to `trace`.
pub(crate) fn run_jobs<S: AsMut<Session>>(
    sessions: &mut [S],
    ctx: &ServeContext,
    trace: &mut TickTrace,
) {
    loop {
        let mut progressed = false;

        // gather leading query jobs across every session (the
        // `coalesce` stage, charged only when something gathered)
        let gather_start = trace.capturing().then(Instant::now);
        let mut queries: Vec<RangeQuery> = Vec::new();
        let mut metas: Vec<QueryMeta> = Vec::new();
        for (i, session) in sessions.iter_mut().enumerate() {
            let session = session.as_mut();
            if session.closing {
                continue;
            }
            while let Some(Job::Queries { .. }) = session.jobs.front() {
                let Some(Job::Queries {
                    queries: batch,
                    shape,
                    created,
                }) = session.jobs.pop_front()
                else {
                    unreachable!("front was a query job");
                };
                // an empty batch still gets a span: its (empty) reply
                // renders in turn
                metas.push(QueryMeta {
                    session: i,
                    shape,
                    created,
                    offset: queries.len(),
                    len: batch.len(),
                });
                queries.extend(batch);
                progressed = true;
            }
        }
        if !metas.is_empty() {
            if let Some(t) = gather_start {
                trace.add_us(Stage::Coalesce, t.elapsed().as_micros() as u64);
            }
            dispatch(sessions, ctx, &queries, &metas, trace);
        }

        // leading non-query jobs: control verbs, rendered replies, quit
        for session in sessions.iter_mut() {
            let session = session.as_mut();
            if session.closing {
                continue;
            }
            while !matches!(session.jobs.front(), None | Some(Job::Queries { .. })) {
                let job = session.jobs.pop_front().expect("front checked");
                progressed = true;
                match job {
                    Job::Queries { .. } => unreachable!("filtered above"),
                    Job::Reply(bytes) => session.outbuf.extend_from_slice(&bytes),
                    Job::Control(line) => {
                        // panic isolation per verb
                        let reply = catch_unwind(AssertUnwindSafe(|| control_reply(ctx, &line)))
                            .unwrap_or_else(|payload| {
                                format!("err {}", internal_error(payload.as_ref()))
                            });
                        session.outbuf.extend_from_slice(reply.as_bytes());
                        session.outbuf.push(b'\n');
                    }
                    Job::Quit => {
                        session.closing = true;
                        session.jobs.clear();
                        break;
                    }
                }
            }
        }

        if !progressed {
            return;
        }
    }
}

/// One query job's bookkeeping through a pooled dispatch: whose it is,
/// where its queries sit in the round's batch, and when it decoded.
struct QueryMeta {
    /// Index of the session that queued the job.
    session: usize,
    shape: Shape,
    created: Option<Instant>,
    /// Start of this job's queries in the round's batch.
    offset: usize,
    len: usize,
}

impl QueryMeta {
    /// This job's queries (and answers) in the round's batch.
    fn span(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// One pooled dispatch for every leading query job this round, with
/// results scattered back per session by each job's span (bit-identical
/// to solo dispatches — the batch answerers are per-item and the merge
/// is pure concatenation).
fn dispatch<S: AsMut<Session>>(
    sessions: &mut [S],
    ctx: &ServeContext,
    queries: &[RangeQuery],
    metas: &[QueryMeta],
    trace: &mut TickTrace,
) {
    let m = &ctx.metrics;
    m.coalesced_dispatches.inc();
    m.coalesced_queries.add(queries.len() as u64);
    m.coalesced_spans.add(metas.len() as u64);
    let snap = ctx.store.snapshot();
    let clock = trace.capturing() || metas.iter().any(|meta| meta.created.is_some());
    let pool_start = clock.then(Instant::now);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let answers = snap
            .synopsis()
            .answer_batch_with_pool(queries, privtree_runtime::global());
        assert_eq!(
            answers.len(),
            queries.len(),
            "batch dispatch must return one result per query"
        );
        answers
    }));
    let dispatch_us = pool_start.map_or(0, |t| t.elapsed().as_micros() as u64);
    trace.add_us(Stage::Dispatch, dispatch_us);
    match outcome {
        Ok(answers) => {
            trace.time(Stage::Scatter, || {
                for meta in metas {
                    let session = sessions[meta.session].as_mut();
                    append_answers(session, meta.shape, &answers[meta.span()], ctx);
                }
            });
            // per-job latency (decode to reply rendered) and the
            // slow-query log; the pooled batch cost is shared, so each
            // job charges the same dispatch span
            for meta in metas {
                let Some(created) = meta.created else {
                    continue;
                };
                let proto = match meta.shape {
                    Shape::Wire { .. } => "wire",
                    Shape::Text => "text",
                };
                ctx.observe_request(
                    &snap,
                    proto,
                    &queries[meta.span()],
                    created.elapsed().as_micros() as u64,
                    dispatch_us,
                );
            }
        }
        Err(payload) => {
            // every participant learns of the failure; each session
            // keeps serving
            let problem = internal_error(payload.as_ref());
            for meta in metas {
                let out = &mut sessions[meta.session].as_mut().outbuf;
                match meta.shape {
                    Shape::Text => out.extend_from_slice(format!("err {problem}\n").as_bytes()),
                    Shape::Wire { .. } => {
                        wire::encode_err_frame_into(out, wire::ERR_INTERNAL, &problem);
                        m.wire_frames_out.inc();
                    }
                }
            }
        }
    }
}

/// Render one reply unit's answers into the session's output.
fn append_answers(session: &mut Session, shape: Shape, answers: &[f64], ctx: &ServeContext) {
    match shape {
        Shape::Text => {
            // the whole reply renders into one buffer: a batch of a
            // million answers is one write stream, not a million
            let mut rendered = String::with_capacity(answers.len() * 26);
            for a in answers {
                let _ = writeln!(rendered, "{a:.17e}");
            }
            session.outbuf.extend_from_slice(rendered.as_bytes());
        }
        Shape::Wire { crc } => {
            wire::encode_answer_frame_into(&mut session.outbuf, answers, crc);
            ctx.metrics.wire_frames_out.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReleaseStore;
    use privtree_spatial::{FrozenSynopsis, Rect};
    use proptest::prelude::*;

    /// The `split_whitespace` + `Vec` text decoder this module replaced,
    /// kept verbatim as the reference the in-place one must match reply
    /// for reply.
    mod reference {
        use privtree_spatial::query::RangeQuery;
        use privtree_spatial::Rect;

        pub fn parse_query(dims: usize, lo: &str, hi: &str) -> Result<RangeQuery, String> {
            let parse_coords = |csv: &str| -> Result<Vec<f64>, String> {
                csv.split(',')
                    .map(|x| {
                        x.parse::<f64>()
                            .map_err(|_| format!("bad coordinate {x}"))
                            .and_then(|v| {
                                v.is_finite()
                                    .then_some(v)
                                    .ok_or_else(|| format!("non-finite coordinate {x}"))
                            })
                    })
                    .collect()
            };
            let lo = parse_coords(lo)?;
            let hi = parse_coords(hi)?;
            if lo.len() != dims || hi.len() != dims {
                return Err(format!(
                    "expected {dims} coordinates per corner, got {}/{}",
                    lo.len(),
                    hi.len()
                ));
            }
            for k in 0..dims {
                if lo[k] > hi[k] {
                    return Err(format!("lo > hi along dimension {k}"));
                }
            }
            Ok(RangeQuery::new(Rect::new(&lo, &hi)))
        }

        /// A line as the line splitter handed it over: copied, with its
        /// trailing `\r`s popped.
        fn line(raw: &[u8]) -> Vec<u8> {
            let mut line = raw.to_vec();
            while matches!(line.last(), Some(b'\r')) {
                line.pop();
            }
            line
        }

        /// A query line read inside an open batch.
        pub fn batch_line(dims: usize, raw: &[u8]) -> Result<RangeQuery, String> {
            let raw = line(raw);
            match std::str::from_utf8(&raw) {
                Err(_) => Err("batch line is not valid utf-8".to_string()),
                Ok(qline) => {
                    let mut parts = qline.split_whitespace();
                    match (parts.next(), parts.next()) {
                        (Some(lo), Some(hi)) => parse_query(dims, lo, hi),
                        _ => Err(format!("bad batch line: {qline}")),
                    }
                }
            }
        }

        /// A command line whose first field is `count`.
        pub fn count_line(dims: usize, raw: &[u8]) -> Result<RangeQuery, String> {
            let raw = line(raw);
            let Ok(line) = std::str::from_utf8(&raw) else {
                return Err("line is not valid utf-8".to_string());
            };
            let line = line.trim();
            let mut fields = line.split_whitespace();
            assert_eq!(fields.next(), Some("count"));
            match (fields.next(), fields.next()) {
                (Some(lo), Some(hi)) => parse_query(dims, lo, hi),
                _ => Err("count needs <lo> <hi>".to_string()),
            }
        }
    }

    /// The pieces fuzzed lines are drawn from: number syntax, ASCII
    /// whitespace (VT included), three non-ASCII whitespace chars, and
    /// one multibyte char that is not whitespace.
    const PIECES: [&str; 27] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", ".", "e", "E", "+", "-", ",", "inf",
        "nan", " ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{2003}", "\u{3000}", "é",
    ];

    /// Field separators for the well-formed lines.
    const SEPARATORS: [&str; 7] = [" ", "\t", "\x0b", "\x0c", "\u{a0}", "\u{2003}", "\u{3000}"];

    /// A one-release store serving `dims` dimensions.
    fn context(dims: usize) -> ServeContext {
        let region = Rect::unit(dims);
        let tree = privtree_core::tree::Tree::with_root(region);
        let leaf = FrozenSynopsis::from_tree(&tree, &[7.0], "leaf");
        ServeContext::new(ReleaseStore::open([("main", leaf)]).unwrap())
    }

    /// Feed `input` to a fresh session and return its one decoded job:
    /// the query's corner bits, or the rendered `err` reply.
    fn decode_one(ctx: &ServeContext, input: &[u8]) -> Result<Vec<u64>, String> {
        let mut session = Session::default();
        session.feed(input);
        assert!(session.ingest(ctx));
        assert_eq!(session.jobs.len(), 1, "one job from {input:?}");
        match session.jobs.pop_front() {
            Some(Job::Queries { queries, .. }) if queries.len() == 1 => Ok(bits(&queries[0])),
            Some(Job::Reply(bytes)) => Err(String::from_utf8(bytes).unwrap()),
            _ => panic!("neither one query nor a reply from {input:?}"),
        }
    }

    /// A query's `lo` then `hi` corner, as bits.
    fn bits(q: &RangeQuery) -> Vec<u64> {
        q.rect
            .lo()
            .iter()
            .chain(q.rect.hi())
            .map(|c| c.to_bits())
            .collect()
    }

    /// The reference's outcome in [`decode_one`]'s terms.
    fn rendered(outcome: Result<RangeQuery, String>) -> Result<Vec<u64>, String> {
        outcome.as_ref().map(bits).map_err(|e| format!("err {e}\n"))
    }

    /// `line` decodes to the same query bits or the same `err` reply as
    /// the reference, as a `count` and as a batch line, at `dims`.
    fn check_line(ctx: &ServeContext, dims: usize, line: &str) -> Result<(), TestCaseError> {
        let fields: Vec<&str> = Fields(line).collect();
        prop_assert_eq!(fields, line.split_whitespace().collect::<Vec<_>>());
        let count = format!("count {line}");
        prop_assert_eq!(
            decode_one(ctx, format!("{count}\n").as_bytes()),
            rendered(reference::count_line(dims, count.as_bytes()))
        );
        prop_assert_eq!(
            decode_one(ctx, format!("batch 1\n{line}\n").as_bytes()),
            rendered(reference::batch_line(dims, line.as_bytes()))
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn text_decode_matches_the_split_whitespace_reference(
            lines in collection::vec(collection::vec(0usize..PIECES.len(), 0..24), 16..17),
            coords in collection::vec(-2.0f64..2.0, 6..7),
            seps in collection::vec(0usize..SEPARATORS.len(), 2..3),
            junk_at in 0usize..3,
        ) {
            let junk: String = lines[0].iter().map(|&i| PIECES[i]).collect();
            for dims in 1..=3 {
                let ctx = context(dims);
                for pieces in &lines {
                    let line: String = pieces.iter().map(|&i| PIECES[i]).collect();
                    check_line(&ctx, dims, &line)?;
                }
                // a well-formed query (shortest round-trip coordinates,
                // or `%.17e`), bare, reversed, and with the junk spliced
                // in
                let corner = |pick: fn(f64, f64) -> f64| {
                    (0..dims)
                        .map(|k| {
                            let c = pick(coords[k], coords[3 + k]);
                            if k % 2 == 0 { format!("{c}") } else { format!("{c:.17e}") }
                        })
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let (lo, hi) = (corner(f64::min), corner(f64::max));
                let (sep, lead) = (SEPARATORS[seps[0]], SEPARATORS[seps[1]]);
                check_line(&ctx, dims, &format!("{lo}{sep}{hi}"))?;
                check_line(&ctx, dims, &format!("{hi}{sep}{lo}"))?;
                let spliced = match junk_at {
                    0 => format!("{lead}{junk}{lo}{sep}{hi}"),
                    1 => format!("{lo}{junk}{sep}{hi}{lead}"),
                    _ => format!("{lead}{lo}{sep}{hi}{sep}{junk}"),
                };
                check_line(&ctx, dims, &spliced)?;
            }
        }
    }

    #[test]
    fn plain_runs_end_at_the_first_byte_outside_0x21_to_0x7f() {
        // a run of plain bytes, then one byte on either side of each
        // bound, at every offset of a word and its tail
        for stop in [0x00u8, 0x09, 0x20, 0x80, 0xc2, 0xff] {
            for len in 0..=40 {
                for at in 0..len {
                    let mut buf = vec![b'7'; len];
                    buf[at] = stop;
                    assert_eq!(plain_run(&buf), at, "stop {stop:#x}, len {len}");
                    buf[..at].fill(0x21);
                    assert_eq!(plain_run(&buf), at, "stop {stop:#x}, len {len}");
                    buf[..at].fill(0x7f);
                    assert_eq!(plain_run(&buf), at, "stop {stop:#x}, len {len}");
                }
                assert_eq!(plain_run(&vec![b'~'; len]), len);
            }
        }
    }

    #[test]
    fn word_at_a_time_newline_search_matches_position() {
        // fills next to `\n` in every way the SWAR test could misread:
        // one below, one above (the borrow), its high-bit twin, all ones
        for fill in [0x09u8, 0x0b, 0x8a, 0xff] {
            for len in 0..=40 {
                let mut buf = vec![fill; len];
                assert_eq!(find_newline(&buf), None);
                for at in 0..len {
                    buf.fill(fill);
                    buf[at] = b'\n';
                    let expected = buf.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&buf), expected, "fill {fill:#x}, len {len}");
                    // a second newline later never shadows the first
                    buf[len - 1] = b'\n';
                    assert_eq!(find_newline(&buf), Some(at), "fill {fill:#x}, len {len}");
                }
            }
        }
    }

    #[test]
    fn internal_errors_render_on_one_line() {
        // the payload shape of an `assert_eq!` failure: three lines
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from(
            "assertion `left == right` failed: dims\n  left: 2\n right: 3",
        ));
        assert_eq!(
            internal_error(payload.as_ref()),
            "internal: assertion `left == right` failed: dims left: 2 right: 3"
        );
        let payload: Box<dyn std::any::Any + Send> = Box::new("torn\r\nmessage\n");
        assert_eq!(internal_error(payload.as_ref()), "internal: torn message");
    }
}
