//! Shared harness for the per-figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). They share:
//!
//! * [`Cli`] — a tiny flag parser (`--reps`, `--queries`, `--seed`,
//!   `--quick`, `--full`, `--scale`);
//! * [`SpatialMethod`] — the method registry for Figure 5-style sweeps;
//! * dataset construction at paper or scaled cardinalities;
//! * exact ground-truth evaluation and average-relative-error scoring.

use privtree_baselines::{
    ag_synopsis, dawa_synopsis, hierarchy_synopsis, privelet_synopsis, ug_synopsis,
};
use privtree_datagen::spatial::{self, SpatialSpec};
use privtree_datagen::workload::QuerySize;
use privtree_dp::budget::Epsilon;
use privtree_dp::rng::derive_seed;
use privtree_eval::error::{average_relative_error, smoothing_factor};
use privtree_eval::runner::repeat_mean;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::index::GridIndex;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::synopsis::privtree_synopsis;

/// Command-line options shared by every benchmark binary.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Repetitions per configuration (paper: 100; default here: 3).
    pub reps: usize,
    /// Queries per workload (paper: 10,000; default here: 1,000).
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
    /// Dataset cardinality scale relative to Table 2/3 (default 1.0).
    pub scale: f64,
}

impl Cli {
    /// Parse `--reps N --queries N --seed N --scale F --quick --full`
    /// from `std::env::args`.
    pub fn parse() -> Self {
        Self::parse_from(&std::env::args().collect::<Vec<String>>())
    }

    /// Parse from an explicit argument vector (element 0 is skipped as
    /// the program name).
    pub fn parse_from(args: &[String]) -> Self {
        let mut cli = Cli {
            reps: 3,
            queries: 1000,
            seed: 20160115, // the paper's arXiv date
            scale: 1.0,
        };
        let mut i = 1;
        while i < args.len() {
            match (args[i].as_str(), args.get(i + 1)) {
                ("--reps", Some(value)) => {
                    cli.reps = value.parse().expect("--reps N");
                    i += 1;
                }
                ("--queries", Some(value)) => {
                    cli.queries = value.parse().expect("--queries N");
                    i += 1;
                }
                ("--seed", Some(value)) => {
                    cli.seed = value.parse().expect("--seed N");
                    i += 1;
                }
                ("--scale", Some(value)) => {
                    cli.scale = value.parse().expect("--scale F");
                    i += 1;
                }
                (flag @ ("--reps" | "--queries" | "--seed" | "--scale"), None) => {
                    eprintln!("warning: flag {flag} has no value; keeping its default");
                }
                ("--quick", _) => {
                    cli.reps = 1;
                    cli.queries = 200;
                    cli.scale = 0.05;
                }
                ("--full", _) => {
                    cli.reps = 20;
                    cli.queries = 10_000;
                    cli.scale = 1.0;
                }
                (other, _) => {
                    eprintln!("warning: unknown flag {other}");
                }
            }
            i += 1;
        }
        cli
    }

    /// Scaled cardinality for a dataset spec.
    pub fn n_for(&self, spec: &SpatialSpec) -> usize {
        ((spec.default_n as f64 * self.scale) as usize).max(1000)
    }
}

/// The Figure 5 method registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialMethod {
    /// PrivTree (this paper), Section 3.4 pipeline.
    PrivTree,
    /// Uniform Grid.
    Ug,
    /// Adaptive Grid (2-d only).
    Ag,
    /// Hierarchical decomposition with mean consistency.
    Hierarchy,
    /// DAWA-style two-stage mechanism.
    Dawa,
    /// Privelet*-style wavelet mechanism.
    Privelet,
}

impl SpatialMethod {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            SpatialMethod::PrivTree => "PrivTree",
            SpatialMethod::Ug => "UG",
            SpatialMethod::Ag => "AG",
            SpatialMethod::Hierarchy => "Hierarchy",
            SpatialMethod::Dawa => "DAWA",
            SpatialMethod::Privelet => "Privelet*",
        }
    }

    /// The methods the paper runs on a dataset of dimensionality `d`
    /// (AG and Hierarchy are omitted on 4-d data, Section 6.1).
    pub fn roster(dims: usize) -> Vec<SpatialMethod> {
        if dims == 2 {
            vec![
                SpatialMethod::PrivTree,
                SpatialMethod::Ug,
                SpatialMethod::Ag,
                SpatialMethod::Hierarchy,
                SpatialMethod::Dawa,
                SpatialMethod::Privelet,
            ]
        } else {
            vec![
                SpatialMethod::PrivTree,
                SpatialMethod::Ug,
                SpatialMethod::Dawa,
                SpatialMethod::Privelet,
            ]
        }
    }

    /// Build a synopsis of this method on `data` at budget `eps`.
    ///
    /// PrivTree releases are frozen into the structure-of-arrays
    /// [`privtree_spatial::FrozenSynopsis`] before serving, matching how
    /// a query-heavy deployment would hold them.
    pub fn build(
        self,
        data: &PointSet,
        domain: &Rect,
        eps: f64,
        rng: &mut privtree_dp::rng::SeededRng,
    ) -> Box<dyn RangeCountSynopsis> {
        let eps = Epsilon::new(eps).expect("positive epsilon");
        let d = data.dims();
        match self {
            SpatialMethod::PrivTree => Box::new(
                privtree_synopsis(data, *domain, SplitConfig::full(d), eps, rng)
                    .expect("privtree synopsis")
                    .freeze(),
            ),
            SpatialMethod::Ug => Box::new(ug_synopsis(data, domain, eps, 1.0, rng)),
            SpatialMethod::Ag => Box::new(ag_synopsis(data, domain, eps, 1.0, rng)),
            SpatialMethod::Hierarchy => {
                // [42]'s 2-d recommendation: h = 3, 64×64 leaves; for 4-d
                // use a small leaf grid (the full heuristic is infeasible,
                // as Section 6.1 notes)
                let leaf = if d == 2 { 64 } else { 9 };
                Box::new(hierarchy_synopsis(data, domain, eps, 3, leaf, rng))
            }
            SpatialMethod::Dawa => Box::new(dawa_synopsis(data, domain, eps, 20, rng)),
            SpatialMethod::Privelet => Box::new(privelet_synopsis(data, domain, eps, 20, rng)),
        }
    }
}

/// Generate a spatial dataset at the CLI's scale.
pub fn make_dataset(spec: &SpatialSpec, cli: &Cli) -> PointSet {
    spatial::generate(spec, cli.n_for(spec), cli.seed)
}

/// Exact answers for a workload (via the bucket-grid index).
pub fn exact_answers(data: &PointSet, domain: &Rect, queries: &[RangeQuery]) -> Vec<f64> {
    let index = GridIndex::build(data, domain);
    queries
        .iter()
        .map(|q| index.count(data, &q.rect) as f64)
        .collect()
}

/// Average relative error of a synopsis on a pre-evaluated workload,
/// answered through the batched entry point.
pub fn avg_relative_error(
    syn: &dyn RangeCountSynopsis,
    queries: &[RangeQuery],
    truth: &[f64],
    cardinality: usize,
) -> f64 {
    let estimates = syn.answer_batch(queries);
    average_relative_error(&estimates, truth, smoothing_factor(cardinality))
}

/// One full Figure 5 cell: mean (over reps) of the average relative error
/// of `method` on `data` for `queries`, at privacy budget `eps`.
#[allow(clippy::too_many_arguments)]
pub fn method_error(
    method: SpatialMethod,
    data: &PointSet,
    domain: &Rect,
    queries: &[RangeQuery],
    truth: &[f64],
    eps: f64,
    reps: usize,
    seed: u64,
) -> f64 {
    repeat_mean(reps, derive_seed(seed, 0x5eed), |rng| {
        let syn = method.build(data, domain, eps, rng);
        avg_relative_error(syn.as_ref(), queries, truth, data.len())
    })
}

/// The standard query workload for a dataset: `count` queries in each
/// size class, with exact answers.
pub fn workload_with_truth(
    data: &PointSet,
    domain: &Rect,
    size: QuerySize,
    count: usize,
    seed: u64,
) -> (Vec<RangeQuery>, Vec<f64>) {
    let queries = privtree_datagen::workload::range_queries(domain, size, count, seed);
    let truth = exact_answers(data, domain, &queries);
    (queries, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privtree_datagen::spatial::GOWALLA;

    fn tiny_cli() -> Cli {
        Cli {
            reps: 1,
            queries: 50,
            seed: 7,
            scale: 0.01,
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("prog".to_string())
            .chain(list.iter().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn cli_defaults() {
        // a value flag passed last warns and keeps its default
        for list in [&[][..], &["--reps"], &["--scale"]] {
            let cli = Cli::parse_from(&args(list));
            assert_eq!(cli.reps, 3);
            assert_eq!(cli.queries, 1000);
            assert_eq!(cli.scale, 1.0);
        }
    }

    #[test]
    fn cli_flags_override() {
        let cli = Cli::parse_from(&args(&["--reps", "7", "--queries", "42", "--seed", "5"]));
        assert_eq!(cli.reps, 7);
        assert_eq!(cli.queries, 42);
        assert_eq!(cli.seed, 5);
    }

    #[test]
    fn cli_quick_and_full_presets() {
        let quick = Cli::parse_from(&args(&["--quick"]));
        assert_eq!(quick.reps, 1);
        assert!(quick.scale < 0.1);
        let full = Cli::parse_from(&args(&["--full"]));
        assert_eq!(full.reps, 20);
        assert_eq!(full.queries, 10_000);
    }

    #[test]
    fn cli_scaled_cardinality_floor() {
        let cli = Cli::parse_from(&args(&["--scale", "0.000001"]));
        assert_eq!(cli.n_for(&GOWALLA), 1000, "scaled n is floored");
    }

    #[test]
    fn roster_respects_dimensionality() {
        assert_eq!(SpatialMethod::roster(2).len(), 6);
        let four = SpatialMethod::roster(4);
        assert!(!four.contains(&SpatialMethod::Ag));
        assert!(!four.contains(&SpatialMethod::Hierarchy));
    }

    #[test]
    fn every_method_builds_and_answers() {
        let cli = tiny_cli();
        let data = make_dataset(&GOWALLA, &cli);
        let domain = Rect::unit(2);
        let (queries, truth) = workload_with_truth(&data, &domain, QuerySize::Large, 20, cli.seed);
        for method in SpatialMethod::roster(2) {
            let err = method_error(method, &data, &domain, &queries, &truth, 1.0, 1, 3);
            assert!(
                err.is_finite() && err >= 0.0,
                "{}: err = {err}",
                method.name()
            );
        }
    }

    #[test]
    fn privtree_error_decreases_with_epsilon() {
        let cli = Cli {
            scale: 0.05,
            ..tiny_cli()
        };
        let data = make_dataset(&GOWALLA, &cli);
        let domain = Rect::unit(2);
        let (queries, truth) = workload_with_truth(&data, &domain, QuerySize::Large, 40, cli.seed);
        let hi = method_error(
            SpatialMethod::PrivTree,
            &data,
            &domain,
            &queries,
            &truth,
            0.05,
            3,
            11,
        );
        let lo = method_error(
            SpatialMethod::PrivTree,
            &data,
            &domain,
            &queries,
            &truth,
            1.6,
            3,
            11,
        );
        assert!(
            lo < hi,
            "error at ε=1.6 ({lo}) should be below ε=0.05 ({hi})"
        );
    }
}
