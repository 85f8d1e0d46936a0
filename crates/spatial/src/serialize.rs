//! Plain-text serialization of released synopses.
//!
//! A differentially private release is only useful if it can leave the
//! process that computed it. The format is line-oriented and
//! self-describing: a **manifest** line announces which sections the file
//! carries, then each section follows with its own header:
//!
//! ```text
//! privtree-manifest v1 sections=synopsis
//! privtree-synopsis v1 dims=2 nodes=5 label=PrivTree
//! node 0 parent=- lo=0,0 hi=1,1 count=1000.5
//! node 1 parent=0 lo=0,0 hi=0.5,0.5 count=250.25
//! …
//! ```
//!
//! Children must appear after their parents (the arena order the builders
//! produce), and each parent's children must be contiguous.
//!
//! A release that ships its [`crate::grid_route::CellGrid`] declares
//! `sections=synopsis,grid` and appends a `privtree-grid v1` section
//! after the node lines — per-cell anchors and exact contributions in
//! row-major order — so the accelerator's precomputation ships with the
//! release instead of being redone at load time (the summed-area table
//! is rebuilt deterministically from the values, so a round trip answers
//! bit-identically).
//!
//! [`release_to_text`] and [`release_from_text`] are the one codec pair:
//! an arena plus its optional grid in, the same pair out.
//!
//! The parser accepts files without a manifest (the pre-manifest v1 format);
//! when a manifest is present, the declared and actual sections must
//! agree. Every [`ParseError`] names the section it arose in and the
//! 1-based line number within the whole file, so a corrupt byte in a
//! million-line release is localizable.

use crate::frozen::FrozenSynopsis;
use crate::geom::Rect;
use crate::grid_route::CellGrid;
use crate::query::RangeCountSynopsis;
use crate::synopsis::SpatialSynopsis;
use privtree_core::tree::{NodeId, Tree};

/// Serialization failures. Each variant carries the section name
/// (`manifest`, `synopsis`, or `grid`) and, where one exists, the 1-based
/// line number **within the whole file** where the problem was found.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A section header line is missing required fields or malformed.
    BadHeader {
        section: &'static str,
        line: usize,
        reason: String,
    },
    /// A record line inside a section could not be parsed or violates the
    /// section's invariants.
    BadRecord {
        section: &'static str,
        line: usize,
        reason: String,
    },
    /// A section's header promised a different number of records than its
    /// body carries (`line` points at the header).
    CountMismatch {
        section: &'static str,
        line: usize,
        expected: usize,
        found: usize,
    },
    /// A section the caller (or the manifest) requires is absent.
    MissingSection {
        section: &'static str,
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader {
                section,
                line,
                reason,
            } => {
                write!(f, "bad {section} header at line {line}: {reason}")
            }
            ParseError::BadRecord {
                section,
                line,
                reason,
            } => {
                write!(f, "bad {section} record at line {line}: {reason}")
            }
            ParseError::CountMismatch {
                section,
                line,
                expected,
                found,
            } => write!(
                f,
                "{section} section (header at line {line}): expected {expected} records, \
                 found {found}"
            ),
            ParseError::MissingSection { section, reason } => {
                write!(f, "missing {section} section: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Section names as they appear in the manifest and in errors.
const MANIFEST: &str = "manifest";
const SYNOPSIS: &str = "synopsis";
const GRID: &str = "grid";

/// A line tagged with its 1-based number in the whole file.
type NumberedLine<'a> = (usize, &'a str);

/// A section's header line plus its record lines.
type SectionLines<'a> = (NumberedLine<'a>, Vec<NumberedLine<'a>>);

/// The file cut into sections, each line tagged with its 1-based number.
struct Sections<'a> {
    /// Synopsis header (line number, text).
    synopsis_header: NumberedLine<'a>,
    /// Node records of the synopsis section.
    synopsis: Vec<NumberedLine<'a>>,
    /// Grid section, when present: header + records.
    grid: Option<SectionLines<'a>>,
}

/// Split a release file into its sections, validating the manifest (when
/// present) against the sections actually found.
fn split_sections(text: &str) -> Result<Sections<'_>, ParseError> {
    let mut declared: Option<(usize, Vec<&str>)> = None;
    let mut synopsis_header: Option<NumberedLine<'_>> = None;
    let mut synopsis: Vec<NumberedLine<'_>> = Vec::new();
    let mut grid: Option<SectionLines<'_>> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("privtree-manifest v1") {
            if declared.is_some() || synopsis_header.is_some() {
                return Err(ParseError::BadRecord {
                    section: MANIFEST,
                    line: line_no,
                    reason: "manifest must be the first line and appear once".into(),
                });
            }
            let sections = line
                .split_whitespace()
                .find_map(|f| f.strip_prefix("sections="))
                .ok_or_else(|| ParseError::BadHeader {
                    section: MANIFEST,
                    line: line_no,
                    reason: format!("no sections= field in: {line}"),
                })?;
            let names: Vec<&str> = sections.split(',').collect();
            for name in &names {
                if *name != SYNOPSIS && *name != GRID {
                    return Err(ParseError::BadHeader {
                        section: MANIFEST,
                        line: line_no,
                        reason: format!("unknown section name {name}"),
                    });
                }
            }
            declared = Some((line_no, names));
        } else if line.starts_with("privtree-synopsis v1") {
            if synopsis_header.is_some() {
                return Err(ParseError::BadRecord {
                    section: SYNOPSIS,
                    line: line_no,
                    reason: "duplicate synopsis header".into(),
                });
            }
            synopsis_header = Some((line_no, line));
        } else if line.starts_with("privtree-grid v1") {
            if grid.is_some() {
                return Err(ParseError::BadRecord {
                    section: GRID,
                    line: line_no,
                    reason: "duplicate grid header".into(),
                });
            }
            grid = Some(((line_no, line), Vec::new()));
        } else if let Some((_, records)) = &mut grid {
            records.push((line_no, line));
        } else if synopsis_header.is_some() {
            synopsis.push((line_no, line));
        } else {
            return Err(ParseError::BadHeader {
                section: SYNOPSIS,
                line: line_no,
                reason: format!("expected a synopsis header, found: {line}"),
            });
        }
    }
    let synopsis_header = synopsis_header.ok_or_else(|| ParseError::MissingSection {
        section: SYNOPSIS,
        reason: "no privtree-synopsis header in input".into(),
    })?;
    if let Some((line, names)) = declared {
        if !names.contains(&SYNOPSIS) {
            return Err(ParseError::BadHeader {
                section: MANIFEST,
                line,
                reason: "manifest does not declare the synopsis section".into(),
            });
        }
        match (names.contains(&GRID), &grid) {
            (true, None) => {
                return Err(ParseError::MissingSection {
                    section: GRID,
                    reason: format!("declared by the manifest at line {line} but absent"),
                })
            }
            (false, Some(((grid_line, _), _))) => {
                return Err(ParseError::BadRecord {
                    section: MANIFEST,
                    line,
                    reason: format!("grid section at line {grid_line} is not declared"),
                })
            }
            _ => {}
        }
    }
    Ok(Sections {
        synopsis_header,
        synopsis,
        grid,
    })
}

/// The manifest line announcing `sections`.
fn manifest_line(sections: &[&str]) -> String {
    format!("privtree-manifest v1 sections={}\n", sections.join(","))
}

/// The synopsis section (header + node records) without a manifest.
fn synopsis_section(synopsis: &SpatialSynopsis) -> String {
    let tree = synopsis.tree();
    let dims = tree.payload(tree.root()).dims();
    let mut out = String::new();
    out.push_str(&format!(
        "privtree-synopsis v1 dims={} nodes={} label={}\n",
        dims,
        tree.len(),
        synopsis.label()
    ));
    for id in tree.ids() {
        let rect = tree.payload(id);
        let parent = match tree.parent(id) {
            Some(p) => p.index().to_string(),
            None => "-".to_string(),
        };
        let fmt_coords = |c: &[f64]| {
            c.iter()
                .map(|x| format!("{x:.17e}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!(
            "node {} parent={} lo={} hi={} count={:.17e}\n",
            id.index(),
            parent,
            fmt_coords(rect.lo()),
            fmt_coords(rect.hi()),
            synopsis.counts()[id.index()]
        ));
    }
    out
}

/// The `privtree-grid v1` section (header + cell records) for `grid`.
fn grid_section(grid: &CellGrid) -> String {
    let bins = grid
        .bins()
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut out = format!("privtree-grid v1 bins={bins}\n");
    for (i, (&a, v)) in grid.anchors().iter().zip(grid.values()).enumerate() {
        out.push_str(&format!("cell {i} anchor={a} value={v:.17e}\n"));
    }
    out
}

/// Serialize an arena plus an optional shipped grid: a manifest naming
/// the sections present, the synopsis text (the arena thawed to its
/// tree view, lossless and in arena order), then — with a grid — a
/// `privtree-grid v1` section carrying every cell's anchor and exact
/// contribution (17 significant digits, so values round-trip
/// bit-exactly). The exact inverse of [`release_from_text`].
pub fn release_to_text(arena: &FrozenSynopsis, grid: Option<&CellGrid>) -> String {
    let mut out = match grid {
        None => manifest_line(&[SYNOPSIS]),
        Some(_) => manifest_line(&[SYNOPSIS, GRID]),
    };
    out.push_str(&synopsis_section(&arena.thaw()));
    if let Some(grid) = grid {
        out.push_str(&grid_section(grid));
    }
    out
}

/// Parse a release in a single pass, whatever sections it carries: the
/// frozen arena plus the shipped [`CellGrid`] when a grid section is
/// present (`None` otherwise). A grid section is validated (cell count,
/// anchors in range and covering their cells) and its tables rebuilt
/// deterministically, so the result answers bit-identically to the
/// release that was written.
pub fn release_from_text(text: &str) -> Result<(FrozenSynopsis, Option<CellGrid>), ParseError> {
    let sections = split_sections(text)?;
    let frozen = parse_synopsis(&sections)?.freeze();
    let grid = match &sections.grid {
        Some(section) => Some(parse_grid(&frozen, section)?),
        None => None,
    };
    Ok((frozen, grid))
}

/// Parse a grid section (header + cell records) against the arena it
/// ships with.
fn parse_grid(frozen: &FrozenSynopsis, section: &SectionLines<'_>) -> Result<CellGrid, ParseError> {
    let ((header_line, header), records) = section;
    let header_line = *header_line;
    let bins: Vec<usize> = header
        .split_whitespace()
        .find_map(|f| f.strip_prefix("bins="))
        .ok_or_else(|| ParseError::BadHeader {
            section: GRID,
            line: header_line,
            reason: format!("no bins= field in: {header}"),
        })?
        .split(',')
        .map(|b| {
            b.parse::<usize>().map_err(|_| ParseError::BadHeader {
                section: GRID,
                line: header_line,
                reason: format!("bad bin count {b}"),
            })
        })
        .collect::<Result<_, _>>()?;
    let cells: usize = bins.iter().product();
    let mut anchors = Vec::with_capacity(cells);
    let mut values = Vec::with_capacity(cells);
    for &(line_no, line) in records {
        let bad = |reason: String| ParseError::BadRecord {
            section: GRID,
            line: line_no,
            reason,
        };
        let mut fields = line.split_whitespace();
        if fields.next() != Some("cell") {
            return Err(bad("expected a cell record".into()));
        }
        let index: usize = fields
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad cell index".into()))?;
        if index != anchors.len() {
            return Err(bad(format!("cell {index} out of order")));
        }
        let mut anchor: Option<u32> = None;
        let mut value: Option<f64> = None;
        for field in fields {
            if let Some(v) = field.strip_prefix("anchor=") {
                anchor = Some(v.parse().map_err(|_| bad(format!("bad anchor {v}")))?);
            } else if let Some(v) = field.strip_prefix("value=") {
                value = Some(v.parse().map_err(|_| bad(format!("bad value {v}")))?);
            }
        }
        anchors.push(anchor.ok_or_else(|| bad("missing anchor".into()))?);
        values.push(value.ok_or_else(|| bad("missing value".into()))?);
    }
    if anchors.len() != cells {
        return Err(ParseError::CountMismatch {
            section: GRID,
            line: header_line,
            expected: cells,
            found: anchors.len(),
        });
    }
    CellGrid::from_parts(frozen, &bins, anchors, values).map_err(|e| ParseError::BadRecord {
        section: GRID,
        line: header_line,
        reason: e.to_string(),
    })
}

/// Parse the synopsis section of an already-split file.
fn parse_synopsis(sections: &Sections<'_>) -> Result<SpatialSynopsis, ParseError> {
    let (header_line, header) = sections.synopsis_header;
    let mut dims = 0usize;
    let mut nodes = 0usize;
    for field in header.split_whitespace().skip(2) {
        if let Some(v) = field.strip_prefix("dims=") {
            dims = v.parse().map_err(|_| ParseError::BadHeader {
                section: SYNOPSIS,
                line: header_line,
                reason: format!("bad dims field in: {header}"),
            })?;
        } else if let Some(v) = field.strip_prefix("nodes=") {
            nodes = v.parse().map_err(|_| ParseError::BadHeader {
                section: SYNOPSIS,
                line: header_line,
                reason: format!("bad nodes field in: {header}"),
            })?;
        }
    }
    if dims == 0 || nodes == 0 {
        return Err(ParseError::BadHeader {
            section: SYNOPSIS,
            line: header_line,
            reason: format!("dims and nodes must both be positive in: {header}"),
        });
    }

    // collect raw node records first
    struct Raw {
        line: usize,
        parent: Option<usize>,
        rect: Rect,
        count: f64,
    }
    let mut raw: Vec<Raw> = Vec::with_capacity(nodes);
    for &(line_no, line) in &sections.synopsis {
        let mut parent = None;
        let mut lo: Option<Vec<f64>> = None;
        let mut hi: Option<Vec<f64>> = None;
        let mut count: Option<f64> = None;
        let bad = |reason: String| ParseError::BadRecord {
            section: SYNOPSIS,
            line: line_no,
            reason,
        };
        let parse_coords = |v: &str| -> Result<Vec<f64>, ParseError> {
            v.split(',')
                .map(|x| {
                    x.parse::<f64>().map_err(|_| ParseError::BadRecord {
                        section: SYNOPSIS,
                        line: line_no,
                        reason: format!("bad coordinate {x}"),
                    })
                })
                .collect()
        };
        for field in line.split_whitespace().skip(2) {
            if let Some(v) = field.strip_prefix("parent=") {
                if v != "-" {
                    parent = Some(
                        v.parse::<usize>()
                            .map_err(|_| bad(format!("bad parent {v}")))?,
                    );
                }
            } else if let Some(v) = field.strip_prefix("lo=") {
                lo = Some(parse_coords(v)?);
            } else if let Some(v) = field.strip_prefix("hi=") {
                hi = Some(parse_coords(v)?);
            } else if let Some(v) = field.strip_prefix("count=") {
                count = Some(
                    v.parse::<f64>()
                        .map_err(|_| bad(format!("bad count {v}")))?,
                );
            }
        }
        let lo = lo.ok_or_else(|| bad("missing lo".into()))?;
        let hi = hi.ok_or_else(|| bad("missing hi".into()))?;
        if lo.len() != dims || hi.len() != dims {
            return Err(bad("coordinate dimensionality mismatch".into()));
        }
        raw.push(Raw {
            line: line_no,
            parent,
            rect: Rect::new(&lo, &hi),
            count: count.ok_or_else(|| bad("missing count".into()))?,
        });
    }
    if raw.len() != nodes {
        return Err(ParseError::CountMismatch {
            section: SYNOPSIS,
            line: header_line,
            expected: nodes,
            found: raw.len(),
        });
    }

    // rebuild the tree: arena order guarantees parents come first and
    // children of one parent are contiguous
    let mut tree = Tree::with_root(raw[0].rect);
    let mut i = 1usize;
    while i < raw.len() {
        let parent = raw[i].parent.ok_or(ParseError::BadRecord {
            section: SYNOPSIS,
            line: raw[i].line,
            reason: "non-root node without parent".into(),
        })?;
        let mut group = vec![raw[i].rect];
        let mut j = i + 1;
        while j < raw.len() && raw[j].parent == Some(parent) {
            group.push(raw[j].rect);
            j += 1;
        }
        if parent >= i {
            return Err(ParseError::BadRecord {
                section: SYNOPSIS,
                line: raw[i].line,
                reason: "parent appears after child".into(),
            });
        }
        tree.add_children(NodeId::from_index(parent), group);
        i = j;
    }
    let counts: Vec<f64> = raw.iter().map(|r| r.count).collect();
    Ok(SpatialSynopsis::from_parts(tree, counts, "imported"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PointSet;
    use crate::quadtree::SplitConfig;
    use crate::query::{RangeCountSynopsis, RangeQuery};
    use crate::sharded::{ShardHandle, ShardedSynopsis};
    use crate::synopsis::privtree_synopsis;
    use privtree_dp::budget::Epsilon;
    use privtree_dp::rng::seeded;
    use rand::RngExt;

    fn sample_synopsis() -> SpatialSynopsis {
        let mut rng = seeded(1);
        let mut ps = PointSet::new(2);
        for _ in 0..5000 {
            ps.push(&[rng.random::<f64>() * 0.3, rng.random::<f64>() * 0.3]);
        }
        privtree_synopsis(
            &ps,
            Rect::unit(2),
            SplitConfig::full(2),
            Epsilon::new(1.0).unwrap(),
            &mut seeded(2),
        )
        .unwrap()
    }

    /// `syn` written without a grid section.
    fn plain_text(syn: &SpatialSynopsis) -> String {
        release_to_text(&syn.freeze(), None)
    }

    /// A grid of `bins` over `frozen`, built on the shared pool.
    fn build_grid(frozen: &FrozenSynopsis, bins: &[usize]) -> CellGrid {
        CellGrid::build(frozen, bins, Some(privtree_runtime::global())).unwrap()
    }

    /// `frozen` and its grid served the way the engine serves them: one
    /// gridded shard.
    fn served(frozen: &FrozenSynopsis, grid: &CellGrid) -> ShardedSynopsis {
        let handle = ShardHandle::from_release(frozen.clone(), Some(grid.clone()));
        ShardedSynopsis::from_handles(vec![handle]).unwrap()
    }

    #[test]
    fn round_trip_preserves_answers() {
        let syn = sample_synopsis();
        let text = plain_text(&syn);
        let (back, grid) = release_from_text(&text).unwrap();
        assert!(grid.is_none());
        assert_eq!(back.node_count(), syn.node_count());
        for q in [
            Rect::new(&[0.0, 0.0], &[0.3, 0.3]),
            Rect::new(&[0.1, 0.05], &[0.77, 0.5]),
            Rect::unit(2),
        ] {
            let q = RangeQuery::new(q);
            assert!(
                (syn.answer(&q) - back.answer(&q)).abs() < 1e-9,
                "answers diverge on {}",
                q.rect
            );
        }
    }

    #[test]
    fn header_is_self_describing() {
        let text = plain_text(&sample_synopsis());
        let mut lines = text.lines();
        let manifest = lines.next().unwrap();
        assert_eq!(manifest, "privtree-manifest v1 sections=synopsis");
        let header = lines.next().unwrap();
        assert!(header.contains("dims=2"));
        assert!(header.contains("label=PrivTree"));
    }

    #[test]
    fn manifestless_input_still_parses() {
        // the pre-manifest v1 format: synopsis header first
        let text = plain_text(&sample_synopsis());
        let without: String = text.lines().skip(1).fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
        let (back, _) = release_from_text(&without).unwrap();
        assert_eq!(back.node_count(), sample_synopsis().node_count());
    }

    #[test]
    fn manifest_must_match_sections() {
        let text = plain_text(&sample_synopsis());
        // declare a grid that is not there
        let lying = text.replacen("sections=synopsis", "sections=synopsis,grid", 1);
        assert!(matches!(
            release_from_text(&lying),
            Err(ParseError::MissingSection {
                section: "grid",
                ..
            })
        ));
        // unknown section name
        let unknown = text.replacen("sections=synopsis", "sections=synopsis,bogus", 1);
        assert!(matches!(
            release_from_text(&unknown),
            Err(ParseError::BadHeader {
                section: "manifest",
                line: 1,
                ..
            })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            release_from_text(""),
            Err(ParseError::MissingSection {
                section: "synopsis",
                ..
            })
        ));
        assert!(matches!(
            release_from_text("not a synopsis\n"),
            Err(ParseError::BadHeader {
                section: "synopsis",
                line: 1,
                ..
            })
        ));
        let bad_body =
            "privtree-synopsis v1 dims=2 nodes=2\nnode 0 parent=- lo=0,0 hi=1,1 count=5\n";
        match release_from_text(bad_body) {
            Err(ParseError::CountMismatch {
                section: "synopsis",
                line: 1,
                expected: 2,
                found: 1,
            }) => {}
            other => panic!("expected a localized count mismatch, got {other:?}"),
        }
    }

    #[test]
    fn errors_name_section_and_line() {
        let text = "privtree-manifest v1 sections=synopsis\n\
                    privtree-synopsis v1 dims=2 nodes=2\n\
                    node 0 parent=- lo=0,0 hi=1,1 count=5\n\
                    node 1 parent=0 lo=0,zz hi=1,1 count=5\n";
        match release_from_text(text) {
            Err(ParseError::BadRecord {
                section: "synopsis",
                line: 4,
                reason,
            }) => assert!(reason.contains("zz"), "reason: {reason}"),
            other => panic!("expected a localized record error, got {other:?}"),
        }
        assert_eq!(
            release_from_text(text).unwrap_err().to_string(),
            "bad synopsis record at line 4: bad coordinate zz"
        );
    }

    #[test]
    fn frozen_round_trip_preserves_answers() {
        let frozen = sample_synopsis().freeze();
        let text = release_to_text(&frozen, None);
        let (back, grid) = release_from_text(&text).unwrap();
        assert!(grid.is_none());
        assert_eq!(back.node_count(), frozen.node_count());
        let q = RangeQuery::new(Rect::new(&[0.05, 0.1], &[0.4, 0.33]));
        assert!((back.answer(&q) - frozen.answer(&q)).abs() < 1e-9);
    }

    #[test]
    fn grid_routed_round_trip_is_bit_exact() {
        let frozen = sample_synopsis().freeze();
        let grid = build_grid(&frozen, &[9, 7]);
        let text = release_to_text(&frozen, Some(&grid));
        assert!(text.starts_with("privtree-manifest v1 sections=synopsis,grid\n"));
        assert!(text.contains("privtree-grid v1 bins=9,7"));
        let (arena, back) = release_from_text(&text).unwrap();
        let back = back.expect("grid section shipped");
        assert_eq!(back.bins(), grid.bins());
        assert_eq!(back.anchors(), grid.anchors());
        let (sent, received) = (served(&frozen, &grid), served(&arena, &back));
        let mut rng = seeded(40);
        for _ in 0..100 {
            let a: f64 = rng.random();
            let b: f64 = rng.random();
            let c: f64 = rng.random();
            let d: f64 = rng.random();
            let q = RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]));
            assert_eq!(
                sent.answer(&q).to_bits(),
                received.answer(&q).to_bits(),
                "round-tripped grid diverged on {}",
                q.rect
            );
        }
    }

    #[test]
    fn release_from_text_loads_both_shapes_in_one_pass() {
        let frozen = sample_synopsis().freeze();
        // a plain file: arena, no grid
        let (plain, grid) = release_from_text(&release_to_text(&frozen, None)).unwrap();
        assert!(grid.is_none());
        assert_eq!(plain.node_count(), frozen.node_count());
        // a gridded file: arena plus the shipped grid, bit-exact
        let shipped = build_grid(&frozen, &[6, 4]);
        let (arena, grid) = release_from_text(&release_to_text(&frozen, Some(&shipped))).unwrap();
        let grid = grid.expect("grid section shipped");
        assert_eq!(grid.bins(), shipped.bins());
        assert_eq!(grid.anchors(), shipped.anchors());
        assert_eq!(arena.node_count(), frozen.node_count());
    }

    #[test]
    fn grid_section_is_validated() {
        let frozen = sample_synopsis().freeze();
        let text = release_to_text(&frozen, Some(&build_grid(&frozen, &[3, 3])));
        // truncated cell list: the mismatch is reported against the grid
        // header's line
        let truncated =
            text.lines()
                .take(text.lines().count() - 1)
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        match release_from_text(&truncated) {
            Err(ParseError::CountMismatch {
                section: "grid",
                expected: 9,
                found: 8,
                ..
            }) => {}
            other => panic!("expected a grid count mismatch, got {other:?}"),
        }
        // an anchor that is out of range (or unparseable once mangled)
        let corrupted = text.replacen("anchor=", "anchor=999999", 1);
        assert!(matches!(
            release_from_text(&corrupted),
            Err(ParseError::BadRecord {
                section: "grid",
                ..
            })
        ));
    }

    #[test]
    fn single_node_synopsis() {
        let tree = privtree_core::tree::Tree::with_root(Rect::unit(2));
        let syn = SpatialSynopsis::from_parts(tree, vec![42.0], "tiny");
        let (back, _) = release_from_text(&plain_text(&syn)).unwrap();
        let q = RangeQuery::new(Rect::unit(2));
        assert_eq!(back.answer(&q), 42.0);
    }
}
