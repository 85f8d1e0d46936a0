//! Answer checks, run after the window on the replies the readers kept.
//!
//! Wire answers must equal the library's answers bit for bit; text
//! answers must be the exact `%.17e` rendering of them. While
//! `text-publish` swaps epochs in, an answer is correct when it matches
//! the answer on any snapshot that was live during its request.

use std::collections::HashMap;
use std::sync::Arc;

use privtree_engine::wire::{decode_answer_payload, decode_err_payload, MAX_FRAME, TAG_ANSWERS};
use privtree_spatial::sharded::{ShardHandle, ShardedSynopsis};
use privtree_spatial::FrozenSynopsis;
use privtree_store::frame::{parse_header, payload};

use crate::inputs::{strip_region, Stream};
use crate::load::{Publish, ReaderLog};

/// Decode one reply frame into its answers (an `ERRF` is an error).
pub fn wire_answers(frame: &[u8]) -> Result<Vec<f64>, String> {
    let header = parse_header(frame, MAX_FRAME)
        .map_err(|e| e.to_string())?
        .ok_or("truncated reply frame")?;
    let body = payload(&header, frame).map_err(|e| e.to_string())?;
    if header.tag != TAG_ANSWERS {
        let (code, message) = decode_err_payload(body);
        return Err(format!("server replied ERRF {code}: {message}"));
    }
    decode_answer_payload(body)
}

/// What the checks found.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub requests: u64,
    pub failed_requests: u64,
    pub correct_answers: u64,
    pub first_failure: Option<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed_requests += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.requests += other.requests;
        self.failed_requests += other.failed_requests;
        self.correct_answers += other.correct_answers;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Per request: whether it succeeded, and how many of its answers were
/// correct.
pub type Checked = Vec<(bool, u32)>;

/// Check every kept wire reply against `reference`.
pub fn check_wire(
    log: &ReaderLog,
    stream: &Stream,
    reference: &ShardedSynopsis,
) -> (Outcome, Checked) {
    let expected: Vec<Vec<f64>> = stream
        .queries
        .iter()
        .map(|qs| reference.answer_batch_sequential(qs))
        .collect();
    let mut out = Outcome::default();
    let mut ok = Vec::with_capacity(log.requests.len());
    for r in &log.requests {
        out.requests += 1;
        let failed_before = out.failed_requests;
        let mut correct = 0;
        let Some(reply) = log.reply(r) else {
            out.fail(format!("request {} failed at the socket", r.index));
            ok.push((false, 0));
            continue;
        };
        match wire_answers(reply) {
            Err(e) => out.fail(e),
            Ok(got) => {
                let want = &expected[r.index];
                let matching = got
                    .iter()
                    .zip(want)
                    .filter(|(g, w)| g.to_bits() == w.to_bits())
                    .count();
                correct = matching as u32;
                out.correct_answers += matching as u64;
                if got.len() != want.len() || matching != want.len() {
                    out.fail(format!(
                        "request {}: {matching} of {} answers match the library",
                        r.index,
                        want.len()
                    ));
                }
            }
        }
        ok.push((out.failed_requests == failed_before, correct));
    }
    (out, ok)
}

/// The epochs `text-publish` served: epoch 0 is the set-up release of
/// the published strip, epoch `e + 1` is publish `e`'s.
pub struct Epochs<'a> {
    /// Epoch 0's engine (the set-up reference).
    base: &'a ShardedSynopsis,
    /// The set-up handles, in key order; slot 0 is the published strip.
    handles: &'a [ShardHandle],
    arenas: &'a [Arc<FrozenSynopsis>],
    /// When each epoch may have been serving: `[from_ns, until_ns]`.
    live: Vec<(u64, u64)>,
    engines: HashMap<usize, ShardedSynopsis>,
    answers: HashMap<(usize, usize), Vec<f64>>,
}

impl<'a> Epochs<'a> {
    pub fn new(
        base: &'a ShardedSynopsis,
        handles: &'a [ShardHandle],
        arenas: &'a [Arc<FrozenSynopsis>],
        publishes: &[Publish],
    ) -> Self {
        // epoch e+1 goes live once its swap is on the wire and is
        // certainly gone once a later swap is acknowledged; a refused
        // swap never goes live, one with no reply may have
        let acked = |after: usize| {
            publishes[after..]
                .iter()
                .find(|p| p.ok)
                .map_or(u64::MAX, |p| p.done_ns)
        };
        let mut live = vec![(0, acked(0))];
        for (e, p) in publishes.iter().enumerate() {
            let refused = !p.ok && !p.reply.is_empty();
            live.push(if refused {
                (u64::MAX, 0)
            } else {
                (p.sent_ns, acked(e + 1))
            });
        }
        Self {
            base,
            handles,
            arenas,
            live,
            engines: HashMap::new(),
            answers: HashMap::new(),
        }
    }

    /// Epochs that may have served a request running over `[start, end]`.
    fn candidates(&self, start: u64, end: u64) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.live.len())
            .filter(|&e| self.live[e].0 <= end && self.live[e].1 >= start)
            .collect();
        out.reverse(); // newest first: the likeliest match
        out
    }

    /// Epoch `epoch`'s answers to request `index` of `stream`. Queries
    /// clear of the published strip answer identically in every epoch,
    /// so only the ones touching it are recomputed.
    fn answers(&mut self, epoch: usize, index: usize, stream: &Stream) -> &[f64] {
        if !self.answers.contains_key(&(0, index)) {
            let a = self.base.answer_batch_sequential(&stream.queries[index]);
            self.answers.insert((0, index), a);
        }
        if epoch > 0 && !self.answers.contains_key(&(epoch, index)) {
            let engine = self.engines.entry(epoch).or_insert_with(|| {
                let mut strip = ShardHandle::from_arc(Arc::clone(&self.arenas[epoch - 1]));
                strip
                    .ensure_grid(Some(privtree_runtime::global()))
                    .expect("epochs are griddable");
                let mut shards = self.handles.to_vec();
                shards[0] = strip;
                ShardedSynopsis::from_handles(shards).expect("strips tile the domain")
            });
            let strip_hi = strip_region(0).hi()[0];
            let queries = &stream.queries[index];
            let touching: Vec<usize> = (0..queries.len())
                .filter(|&j| queries[j].rect.lo()[0] <= strip_hi)
                .collect();
            let picked: Vec<_> = touching.iter().map(|&j| queries[j]).collect();
            let fresh = engine.answer_batch_sequential(&picked);
            let mut a = self.answers[&(0, index)].clone();
            for (&j, v) in touching.iter().zip(fresh) {
                a[j] = v;
            }
            self.answers.insert((epoch, index), a);
        }
        &self.answers[&(epoch, index)]
    }
}

/// Check every kept text round: each reply line must be the exact
/// `%.17e` rendering of the query's answer on a snapshot live during
/// the round.
pub fn check_text(log: &ReaderLog, stream: &Stream, epochs: &mut Epochs) -> (Outcome, Checked) {
    let mut out = Outcome::default();
    let mut ok = Vec::with_capacity(log.requests.len());
    for r in &log.requests {
        out.requests += 1;
        let Some(reply) = log.reply(r) else {
            out.fail(format!("round {} failed at the socket", r.index));
            ok.push((false, 0));
            continue;
        };
        let candidates = epochs.candidates(r.start_ns, r.end_ns);
        let lines: Vec<&[u8]> = reply
            .split(|&b| b == b'\n')
            .take(stream.reply_lines)
            .collect();
        let mut bad: Option<String> = None;
        let mut correct = 0;
        for (j, line) in lines.iter().enumerate() {
            let text = std::str::from_utf8(line).unwrap_or("<not utf-8>");
            let value = text
                .parse::<f64>()
                .ok()
                .filter(|v| format!("{v:.17e}") == text);
            let matched = value.is_some_and(|v| {
                candidates
                    .iter()
                    .any(|&e| epochs.answers(e, r.index, stream)[j].to_bits() == v.to_bits())
            });
            if matched {
                correct += 1;
            } else if bad.is_none() {
                bad = Some(format!("round {} line {j}: {text:?}", r.index));
            }
        }
        if lines.len() != stream.reply_lines && bad.is_none() {
            bad = Some(format!("round {}: {} reply lines", r.index, lines.len()));
        }
        out.correct_answers += u64::from(correct);
        ok.push((bad.is_none(), correct));
        if let Some(why) = bad {
            out.fail(why);
        }
    }
    (out, ok)
}
