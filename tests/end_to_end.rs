//! End-to-end integration tests over the paper's evaluation datasets:
//! generation → streaming → sampling → accuracy metrics, spanning all
//! workspace crates.

use rds_core::{DistinctSampler, RobustL0Sampler, SamplerConfig};
use rds_datasets::{partition, PaperDataset};
use rds_hashing::point_identity;
use rds_metrics::SampleHistogram;
use std::collections::HashMap;

/// Builds an identity → group lookup for a dataset.
fn lookup(ds: &rds_datasets::Dataset) -> HashMap<u64, usize> {
    ds.points
        .iter()
        .map(|lp| (point_identity(lp.point.coords(), 0), lp.group))
        .collect()
}

#[test]
fn seeds_dataset_full_pipeline_is_uniformish() {
    // the smallest paper dataset end to end, with a few hundred runs
    let ds = PaperDataset::Seeds.generate(7);
    let map = lookup(&ds);
    let runs = 400u64;
    let mut hist = SampleHistogram::new(ds.n_groups);
    for run in 0..runs {
        let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
            .seed(run * 77 + 5)
            .expected_len(ds.len() as u64)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        for lp in &ds.points {
            s.process(&lp.point);
        }
        let q = s.query().expect("non-empty").clone();
        hist.record(map[&point_identity(q.coords(), 0)]);
    }
    // pure sampling noise at this scale is stdDevNm ~ sqrt(210/400) ~ 0.72;
    // a biased sampler (e.g. point-uniform) would be several times that.
    assert!(
        hist.std_dev_nm() < 1.1,
        "stdDevNm {} indicates bias",
        hist.std_dev_nm()
    );
    // every sampled point must be a real stream point
    assert_eq!(hist.runs(), runs);
}

#[test]
fn every_paper_dataset_streams_through_the_sampler() {
    for which in PaperDataset::ALL {
        let ds = which.generate(3);
        let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
            .seed(11)
            .expected_len(ds.len() as u64)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        for lp in &ds.points {
            s.process(&lp.point);
        }
        let q = s
            .query()
            .unwrap_or_else(|| panic!("{}: empty sample", ds.name));
        assert_eq!(q.dim(), ds.dim, "{}", ds.name);
        // space must stay far below the stream length (O(log m) words vs
        // m * d words for storing the stream); the small power-law
        // datasets only beat the stream by a small factor because the
        // kappa_0 log m constant dominates at m ~ 4000
        let stream_words = ds.len() * ds.dim;
        let factor = if ds.len() > 10_000 { 10 } else { 2 };
        assert!(
            s.peak_words() < stream_words / factor,
            "{}: peak {} words vs stream {}",
            ds.name,
            s.peak_words(),
            stream_words
        );
    }
}

#[test]
fn datasets_are_well_separated_under_their_alpha() {
    // spot-check the generation invariant on the two smallest datasets
    for which in [PaperDataset::Seeds, PaperDataset::Yacht] {
        let ds = which.generate(5);
        // subsample points for the O(n^2) check
        let pts: Vec<_> = ds
            .points
            .iter()
            .step_by(7)
            .map(|lp| lp.point.clone())
            .collect();
        assert!(
            partition::is_well_separated(&pts, ds.alpha),
            "{} violates well-separation",
            ds.name
        );
    }
}

#[test]
fn connected_partition_recovers_ground_truth_groups() {
    let ds = PaperDataset::Seeds.generate(9);
    let pts: Vec<_> = ds.points.iter().map(|lp| lp.point.clone()).collect();
    // on a prefix (the full O(n^2) pass is slow in debug builds)
    let n = 2000.min(pts.len());
    let labels = partition::connected_partition(&pts[..n], ds.alpha);
    // two points get the same label iff they share a ground-truth group
    for i in (0..n).step_by(97) {
        for j in (0..n).step_by(89) {
            let same_truth = ds.points[i].group == ds.points[j].group;
            let same_found = labels[i] == labels[j];
            assert_eq!(same_truth, same_found, "pair ({i},{j})");
        }
    }
}

#[test]
fn reservoir_representative_matches_group_of_first_point() {
    let ds = PaperDataset::Yacht.generate(13);
    let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
        .seed(21)
        .expected_len(ds.len() as u64)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for lp in &ds.points {
        s.process(&lp.point);
    }
    let rec = s.query_record().expect("non-empty");
    assert!(rec.rep.within(&rec.reservoir, ds.alpha));
    assert!(rec.count >= 1);
}
