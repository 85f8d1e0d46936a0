//! Umbrella crate for the PrivTree reproduction workspace.
//!
//! Re-exports every sub-crate under one roof so the examples and
//! integration tests (and downstream users who just want "the paper") can
//! depend on a single package:
//!
//! * [`dp`] — differential-privacy primitives (Laplace mechanism, budgets,
//!   exponential mechanism, the ρ/ρ⊤ analysis of Section 3.2).
//! * [`core`] — decomposition trees, PrivTree (Algorithm 2), SimpleTree
//!   (Algorithm 1), the noise-free tree `T*`, and exact privacy audits.
//!   Both private builders are **level-synchronous**: each frontier level
//!   is scored and noised in one deterministic pass and then split as one
//!   `TreeDomain::split_frontier` batch (bit-identical to the sequential
//!   reference loops, which are kept as `build_*_sequential`).
//! * [`spatial`] — points, rectangles, quadtree domains, private spatial
//!   synopses, and range-count query answering (Sections 2.2 and 3).
//!   Domains own their scratch permutation directly (no `RefCell`, so
//!   they are `Send`), and releases can be frozen into the
//!   structure-of-arrays `FrozenSynopsis` whose `answer_batch` serves
//!   query-heavy workloads without pointer chasing.
//! * [`baselines`] — UG, AG, Hierarchy, a Privelet*-style wavelet
//!   mechanism, and a DAWA-style two-stage method (Section 6.1).
//! * [`markov`] — prediction suffix trees and the PrivTree extension for
//!   sequence data, plus the N-gram and EM baselines (Sections 4 and 6.2).
//! * [`runtime`] — the persistent deterministic worker pool both hot
//!   paths run on: fixed worker threads, channel-fed chunked tasks,
//!   ordered result collection (pooled builds and batch answers are
//!   bit-identical to sequential for every worker count) — plus
//!   `ArcCell`, the atomic snapshot-publication slot the engine swaps
//!   epochs through.
//! * [`engine`] — the epoch-aware serving layer: `ReleaseStore` holds
//!   named releases (epoch/region key → frozen arena + optional cell
//!   grid), publishes immutable `Snapshot`s readers load in two atomic
//!   ops, and swaps/retires releases by reusing every untouched shard
//!   and building only the touched shard's grid. The `privtree-serve`
//!   binary serves a store over stdin or TCP, warm-starts from an
//!   on-disk catalog (`--catalog`), and persists releases back to it.
//! * [`store`] — release persistence: the `privtree-bin v1` binary
//!   columnar format (length-prefixed, CRC-checksummed little-endian
//!   sections; decodes in one validated pass with no per-line parsing)
//!   and the on-disk release catalog (`catalog.toml` manifest, atomic
//!   write-temp-then-rename publish). Binary and text loads of the same
//!   release answer bit-identically.
//! * [`svt`] — the four Sparse Vector Technique variants and the privacy
//!   audits reproducing Lemma 5.1 and Appendix A.
//! * [`datagen`] — seeded synthetic datasets standing in for the paper's
//!   road/Gowalla/NYC/Beijing/mooc/msnbc data (see DESIGN.md §3).
//! * [`eval`] — relative error, precision@k, total variation distance, and
//!   the experiment runner.
//!
//! # Example
//!
//! Release an ε-differentially private spatial synopsis and answer a
//! range-count query from the release alone:
//!
//! ```
//! use privtree_suite::dp::budget::Epsilon;
//! use privtree_suite::dp::rng::seeded;
//! use privtree_suite::spatial::dataset::PointSet;
//! use privtree_suite::spatial::geom::Rect;
//! use privtree_suite::spatial::quadtree::SplitConfig;
//! use privtree_suite::spatial::query::{RangeCountSynopsis, RangeQuery};
//! use privtree_suite::spatial::synopsis::privtree_synopsis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut data = PointSet::new(2);
//! for i in 0..1000 {
//!     let t = i as f64 / 1000.0;
//!     data.push(&[0.2 + 0.1 * t, 0.3 + 0.05 * t]); // a dense street
//! }
//! let synopsis = privtree_synopsis(
//!     &data,
//!     Rect::unit(2),
//!     SplitConfig::full(2),
//!     Epsilon::new(1.0)?,
//!     &mut seeded(42),
//! )?;
//! let q = RangeQuery::new(Rect::new(&[0.0, 0.0], &[0.5, 0.5]));
//! let estimate = synopsis.answer(&q);
//! assert!((estimate - 1000.0).abs() < 200.0);
//! # Ok(())
//! # }
//! ```

pub use privtree_baselines as baselines;
pub use privtree_core as core;
pub use privtree_datagen as datagen;
pub use privtree_dp as dp;
pub use privtree_engine as engine;
pub use privtree_eval as eval;
pub use privtree_markov as markov;
pub use privtree_runtime as runtime;
pub use privtree_spatial as spatial;
pub use privtree_store as store;
pub use privtree_svt as svt;
