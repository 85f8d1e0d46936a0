//! Failure injection and boundary conditions across the public API.

use privtree_suite::baselines::{dawa_synopsis, privelet_synopsis, ug_synopsis};
use privtree_suite::core::params::{PrivTreeParams, SimpleTreeParams};
use privtree_suite::dp::budget::Epsilon;
use privtree_suite::dp::rng::seeded;
use privtree_suite::dp::DpError;
use privtree_suite::markov::data::SequenceDataset;
use privtree_suite::markov::private::private_pst;
use privtree_suite::markov::pst::SequenceModel;
use privtree_suite::markov::topk::{exact_topk, model_topk};
use privtree_suite::spatial::dataset::PointSet;
use privtree_suite::spatial::geom::Rect;
use privtree_suite::spatial::quadtree::SplitConfig;
use privtree_suite::spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_suite::spatial::serialize::{release_from_text, release_to_text};
use privtree_suite::spatial::synopsis::privtree_synopsis;

/// An empty dataset still yields a valid (if boring) ε-DP release.
#[test]
fn empty_spatial_dataset() {
    let data = PointSet::new(2);
    let syn = privtree_synopsis(
        &data,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(1),
    )
    .unwrap();
    let total = syn.answer(&RangeQuery::new(Rect::unit(2)));
    // pure noise around zero
    assert!(total.abs() < 50.0, "empty-data total = {total}");
}

/// A single-point dataset round-trips the whole pipeline.
#[test]
fn single_point_dataset() {
    let mut data = PointSet::new(2);
    data.push(&[0.5, 0.5]);
    let syn = privtree_synopsis(
        &data,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(2),
    )
    .unwrap();
    assert!(syn.answer(&RangeQuery::new(Rect::unit(2))).is_finite());
    // and serialization survives it
    let (back, _) = release_from_text(&release_to_text(&syn.freeze(), None)).unwrap();
    assert_eq!(back.node_count(), syn.node_count());
}

/// Coincident points cannot recurse forever: the depth floor holds.
#[test]
fn coincident_points_terminate() {
    let mut data = PointSet::new(2);
    for _ in 0..10_000 {
        data.push(&[0.123456, 0.654321]);
    }
    let syn = privtree_synopsis(
        &data,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.6).unwrap(),
        &mut seeded(3),
    )
    .unwrap();
    assert!(syn.max_depth() <= 60);
    let q = RangeQuery::new(Rect::new(&[0.12, 0.65], &[0.13, 0.66]));
    let est = syn.answer(&q);
    assert!((est - 10_000.0).abs() < 1_500.0, "est = {est}");
}

/// Degenerate privacy parameters are rejected, not silently accepted.
#[test]
fn invalid_parameters_error_out() {
    assert!(matches!(Epsilon::new(0.0), Err(DpError::InvalidEpsilon(_))));
    assert!(matches!(
        Epsilon::new(-2.0),
        Err(DpError::InvalidEpsilon(_))
    ));
    let e = Epsilon::new(1.0).unwrap();
    assert!(PrivTreeParams::from_epsilon(e, 0).is_err());
    assert!(PrivTreeParams::from_epsilon(e, 1).is_err());
    assert!(PrivTreeParams::from_epsilon_with_sensitivity(e, 4, f64::NAN).is_err());
    assert!(SimpleTreeParams::from_epsilon(e, 0, 0.0).is_err());
}

/// Empty sequence datasets and all-empty sequences behave.
#[test]
fn degenerate_sequence_data() {
    // all-empty sequences: every padded sequence is "$ &"
    let data = SequenceDataset::new(&vec![vec![]; 50], 3, 10);
    let model = private_pst(&data, Epsilon::new(1.0).unwrap(), &mut seeded(4)).unwrap();
    // estimates of any real symbol string should be (near) zero
    let est = model.estimate_count(&[0]);
    assert!(est < 30.0, "est = {est}");
    // sampling must terminate immediately or at the cap
    let mut rng = seeded(5);
    let s = model.sample_sequence(&mut rng, 10);
    assert!(s.len() <= 10);
    // top-k on the exact side of an empty-content dataset
    assert!(exact_topk(&data, 5, 4).is_empty());
    let got = model_topk(&model, 5, 4);
    assert!(got.len() <= 5);
}

/// One-sequence dataset: the PST pipeline holds.
#[test]
fn single_sequence_dataset() {
    let data = SequenceDataset::new(&[vec![0, 1, 0, 1]], 2, 10);
    let model = private_pst(&data, Epsilon::new(8.0).unwrap(), &mut seeded(6)).unwrap();
    assert!(model.node_count() >= 1);
    assert!(model.estimate_count(&[0, 1]).is_finite());
}

/// Baselines survive tiny datasets without panicking.
#[test]
fn baselines_on_tiny_data() {
    let mut data = PointSet::new(2);
    data.push(&[0.2, 0.8]);
    data.push(&[0.9, 0.1]);
    let dom = Rect::unit(2);
    let e = Epsilon::new(0.05).unwrap();
    let q = RangeQuery::new(Rect::new(&[0.0, 0.0], &[0.5, 1.0]));
    assert!(ug_synopsis(&data, &dom, e, 1.0, &mut seeded(7))
        .answer(&q)
        .is_finite());
    assert!(dawa_synopsis(&data, &dom, e, 8, &mut seeded(8))
        .answer(&q)
        .is_finite());
    assert!(privelet_synopsis(&data, &dom, e, 8, &mut seeded(9))
        .answer(&q)
        .is_finite());
}

/// Queries that degenerate to zero volume return finite answers.
#[test]
fn zero_volume_query() {
    let mut data = PointSet::new(2);
    for i in 0..100 {
        data.push(&[i as f64 / 100.0, 0.5]);
    }
    let syn = privtree_synopsis(
        &data,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(10),
    )
    .unwrap();
    let q = RangeQuery::new(Rect::new(&[0.3, 0.5], &[0.3, 0.5]));
    let est = syn.answer(&q);
    assert!(est.is_finite());
    assert!(
        est.abs() < 1e-6,
        "zero-volume query should be ~0, got {est}"
    );
}

/// l⊤ = 1 truncates everything down to single symbols.
#[test]
fn minimal_l_top() {
    let data = SequenceDataset::new(&[vec![0, 1, 2], vec![1]], 3, 1);
    assert_eq!(data.raw(0), &[0]);
    // a length-1 sequence measures 2 with its end marker, so it is cut too
    assert_eq!(data.raw(1), &[1]);
    assert_eq!(data.truncated_count(), 2);
    let model = private_pst(&data, Epsilon::new(4.0).unwrap(), &mut seeded(11)).unwrap();
    assert!(model.node_count() >= 1);
}
