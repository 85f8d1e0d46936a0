//! One protocol session behind `serve_lines`, whatever the reader: the
//! same script must produce byte-identical replies whether its bytes
//! arrive one at a time, in 7-byte reads, or all at once — including
//! the hostile lines (oversized, invalid UTF-8, a malformed batch, a
//! batch cut off by EOF) — and the binary `privtree-wire v1` protocol
//! negotiates over the blocking driver exactly as it does over TCP.

use std::io::{BufReader, Cursor};

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::serve::{serve_lines, ServeContext, MAX_LINE};
use privtree_engine::wire;
use privtree_engine::ReleaseStore;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::FrozenSynopsis;
use privtree_store::frame::{encode_frame, parse_header, payload, FRAME_HEADER_LEN};
use rand::RngExt;

fn sample_release(seed: u64, points: usize) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..points {
        ps.push(&[rng.random::<f64>(), rng.random::<f64>().powi(2)]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x7777),
    )
    .unwrap()
    .freeze()
}

fn workload(n: usize, seed: u64) -> Vec<RangeQuery> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
            let (c, d) = (rng.random::<f64>(), rng.random::<f64>());
            RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]))
        })
        .collect()
}

fn query_line(q: &RangeQuery) -> String {
    let csv = |c: &[f64]| {
        c.iter()
            .map(|x| format!("{x:.17e}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!("{} {}", csv(q.rect.lo()), csv(q.rect.hi()))
}

fn test_context(seed: u64) -> ServeContext {
    let store = ReleaseStore::open([("main", sample_release(seed, 800))]).unwrap();
    ServeContext::new(store)
}

/// Serve `input` through a reader that hands out at most `k` bytes per
/// read.
fn serve_split(ctx: &ServeContext, input: &[u8], k: usize) -> Vec<u8> {
    let mut out = Vec::new();
    serve_lines(
        ctx,
        BufReader::with_capacity(k, Cursor::new(input)),
        &mut out,
    )
    .unwrap();
    out
}

/// Every text-protocol path — plain and `\r\n` commands, an empty
/// batch, a batch with a bad line, an unknown verb, an empty line, a
/// malformed `count`, an oversized line, invalid UTF-8, fields split by
/// any Unicode whitespace (VT, FF, TAB, NBSP; leading, and a third field
/// ignored), every coordinate error (too many, overflow to infinity,
/// `nan`, empty, `lo > hi`), and a batch truncated by EOF — replies
/// identically under every read split.
#[test]
fn text_replies_are_identical_under_any_read_split() {
    let ctx = test_context(1201);
    let snap = ctx.store.snapshot();
    let qs = workload(14, 1202);
    let mut input = Vec::new();
    input.extend_from_slice(b"keys\n");
    input.extend_from_slice(format!("count {}\r\n", query_line(&qs[0])).as_bytes());
    // an empty batch between two counts: no answer lines, and the second
    // count still answers in turn
    input.extend_from_slice(b"batch 0\n");
    input.extend_from_slice(format!("count {}\r\n", query_line(&qs[1])).as_bytes());
    input.extend_from_slice(
        format!(
            "batch 3\n{}\nnonsense\n{}\n",
            query_line(&qs[2]),
            query_line(&qs[3])
        )
        .as_bytes(),
    );
    input.extend_from_slice(b"frobnicate now\n\ncount 1\n");
    input.extend_from_slice(&vec![b'x'; MAX_LINE + 10]);
    input.extend_from_slice(b"\n\xff\xfe\xfd\n");
    // fields split wherever `char::is_whitespace` does: VT, FF, TAB and
    // NBSP separate `count` and batch fields alike
    let corners = |q: &RangeQuery, sep: &str| query_line(q).replace(' ', sep);
    for (q, sep) in qs[5..9].iter().zip(["\x0b", "\x0c", "\t", "\u{a0}"]) {
        input.extend_from_slice(format!("count{sep}{}\n", corners(q, sep)).as_bytes());
    }
    input.extend_from_slice(b"batch 5\n");
    for (q, sep) in qs[5..9].iter().zip(["\x0b", "\x0c", "\t", "\u{a0}"]) {
        input.extend_from_slice(format!("{}\n", corners(q, sep)).as_bytes());
    }
    input.extend_from_slice(format!(" \t{}\n", query_line(&qs[9])).as_bytes());
    input.extend_from_slice(format!("count {} extra\n", query_line(&qs[10])).as_bytes());
    input.extend_from_slice(b"count 1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9\n");
    input.extend_from_slice(b"count 0,0 1e400,1\n");
    input.extend_from_slice(b"count nan,0 1,1\n");
    input.extend_from_slice(b"count , ,\n");
    input.extend_from_slice(b"count 0.5,0.25 0.25,0.75\n");
    input.extend_from_slice(format!("batch 2\n{}\n", query_line(&qs[4])).as_bytes());

    let expected = [
        "keys main".to_string(),
        format!("{:.17e}", snap.answer(&qs[0])),
        format!("{:.17e}", snap.answer(&qs[1])),
        "err bad batch line: nonsense".to_string(),
        "err unknown command frobnicate".to_string(),
        "err count needs <lo> <hi>".to_string(),
        format!("err line too long (max {MAX_LINE} bytes)"),
        "err line is not valid utf-8".to_string(),
    ];
    let expected: Vec<String> = expected
        .into_iter()
        .chain(qs[5..9].iter().map(|q| format!("{:.17e}", snap.answer(q))))
        .chain(qs[5..10].iter().map(|q| format!("{:.17e}", snap.answer(q))))
        .chain([
            format!("{:.17e}", snap.answer(&qs[10])),
            "err expected 2 coordinates per corner, got 9/9".to_string(),
            "err non-finite coordinate 1e400".to_string(),
            "err non-finite coordinate nan".to_string(),
            "err bad coordinate ".to_string(),
            "err lo > hi along dimension 0".to_string(),
            "err unexpected end of input inside batch".to_string(),
        ])
        .collect();
    let whole = serve_split(&ctx, &input, input.len());
    let lines: Vec<&str> = std::str::from_utf8(&whole).unwrap().lines().collect();
    assert_eq!(lines, expected);
    for k in [1, 7] {
        assert_eq!(
            serve_split(&ctx, &input, k),
            whole,
            "replies diverged at {k}-byte reads"
        );
    }
}

/// A `0xB7` first byte negotiates `privtree-wire v1` over the blocking
/// driver: `HELO`, then an `ANSV` frame whose answers are bit-identical
/// to `Snapshot::answer`, an `ERRF` (`ERR_CHECKSUM`) for a frame whose
/// payload no longer matches its CRC — the session stays aligned and
/// alive — then a second `ANSV` for a frame sent without a CRC, and a
/// clean close on `QUIT` — under every read split.
#[test]
fn wire_protocol_negotiates_over_serve_lines() {
    let ctx = test_context(1203);
    let snap = ctx.store.snapshot();
    let qs = workload(40, 1204);
    let qs2 = workload(24, 1205);
    let mut corrupt = wire::encode_query_frame(&qs2, 2, true);
    corrupt[FRAME_HEADER_LEN + 9] ^= 0x10;
    let mut input = wire::PREAMBLE.to_vec();
    input.extend_from_slice(&wire::encode_query_frame(&qs, 2, true));
    input.extend_from_slice(&corrupt);
    input.extend_from_slice(&wire::encode_query_frame(&qs2, 2, false));
    input.extend_from_slice(&encode_frame(wire::TAG_QUIT, &[], false));

    for k in [1, 3, 7, 64, input.len()] {
        let out = serve_split(&ctx, &input, k);
        let mut frames = Vec::new();
        let mut rest = out.as_slice();
        while !rest.is_empty() {
            let header = parse_header(rest, wire::MAX_FRAME)
                .unwrap()
                .expect("complete frame");
            let (frame, tail) = rest.split_at(header.total_len());
            frames.push((header.tag, payload(&header, frame).unwrap().to_vec()));
            rest = tail;
        }
        let tags: Vec<[u8; 4]> = frames.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(
            tags,
            [
                wire::TAG_HELLO,
                wire::TAG_ANSWERS,
                wire::TAG_ERR,
                wire::TAG_ANSWERS
            ],
            "at {k}-byte reads"
        );
        assert_eq!(
            wire::decode_hello_payload(&frames[0].1).unwrap(),
            (wire::WIRE_VERSION, 2)
        );
        assert_eq!(
            wire::decode_err_payload(&frames[2].1).0,
            wire::ERR_CHECKSUM,
            "at {k}-byte reads"
        );
        for (set, answers) in [(&qs, &frames[1].1), (&qs2, &frames[3].1)] {
            let answers = wire::decode_answer_payload(answers).unwrap();
            assert_eq!(answers.len(), set.len());
            for (q, a) in set.iter().zip(&answers) {
                assert_eq!(a.to_bits(), snap.answer(q).to_bits(), "at {k}-byte reads");
            }
        }
    }
}
