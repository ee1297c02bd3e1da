//! Integration tests of the sliding-window samplers against brute-force
//! window recomputation, in both window models (Theorem 2.7 end to end).

use rds_core::{FixedRateWindowSampler, SamplerConfig, SlidingWindowSampler};
use rds_datasets::{rand_cloud, uniform_dups};
use rds_stream::{Stamp, StreamItem, Window};

/// Noisy labelled stream: groups cycle, several near-duplicates each.
fn noisy_stream(seed: u64, len: usize) -> (Vec<StreamItem>, Vec<usize>, f64) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let base = rand_cloud(24, 3, &mut rng);
    let mut ds = uniform_dups("sw", &base, 6, &mut rng);
    ds.shuffle(&mut rng);
    // tile the dataset until `len`
    let mut items = Vec::with_capacity(len);
    let mut labels = Vec::with_capacity(len);
    let mut i = 0usize;
    while items.len() < len {
        let lp = &ds.points[i % ds.len()];
        items.push(StreamItem::new(
            lp.point.clone(),
            Stamp::at(items.len() as u64),
        ));
        labels.push(lp.group);
        i += 1;
    }
    (items, labels, ds.alpha)
}

/// Ground-truth set of groups with a live point in the sequence window.
fn live_groups(labels: &[usize], now: usize, w: u64) -> Vec<usize> {
    let lo = (now + 1).saturating_sub(w as usize);
    let mut gs: Vec<usize> = labels[lo..=now].to_vec();
    gs.sort_unstable();
    gs.dedup();
    gs
}

#[test]
fn hierarchical_sampler_tracks_only_live_groups() {
    let (items, labels, alpha) = noisy_stream(1, 600);
    let w = 64u64;
    let cfg = SamplerConfig::builder(3, alpha)
        .seed(5)
        .expected_len(items.len() as u64)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(w)).unwrap();
    for (i, it) in items.iter().enumerate() {
        s.process(it);
        if i % 17 == 0 {
            let live = live_groups(&labels, i, w);
            let q = s.query().expect("window non-empty");
            // the sampled latest point must belong to a live group:
            // find its stream position by exact identity
            let pos = items[..=i]
                .iter()
                .rposition(|x| x.point == q.latest)
                .expect("sample from stream");
            assert!(
                live.contains(&labels[pos]),
                "sampled dead group at step {i}"
            );
            assert!(
                items[pos].stamp.seq + w > i as u64,
                "sampled expired point at step {i}"
            );
        }
    }
}

#[test]
fn fixed_rate_level0_equals_brute_force_group_set() {
    // At rate 1, Algorithm 2 tracks *exactly* the live groups.
    let (items, labels, alpha) = noisy_stream(2, 400);
    let w = 48u64;
    let cfg = SamplerConfig::builder(3, alpha)
        .seed(7)
        .expected_len(items.len() as u64)
        .build()
        .unwrap();
    let mut s = FixedRateWindowSampler::new(cfg, Window::Sequence(w), 0);
    for (i, it) in items.iter().enumerate() {
        s.process(it);
        let live = live_groups(&labels, i, w);
        assert_eq!(
            s.entries().len(),
            live.len(),
            "tracked {} vs live {} at step {i}",
            s.entries().len(),
            live.len()
        );
        assert_eq!(s.accepted_len(), live.len(), "rate 1 accepts everything");
    }
}

#[test]
fn time_window_expires_by_timestamp_not_position() {
    let (items, _, alpha) = noisy_stream(3, 200);
    // re-stamp: 10 items per second
    let timed: Vec<StreamItem> = items
        .iter()
        .enumerate()
        .map(|(i, it)| StreamItem::new(it.point.clone(), Stamp::new(i as u64, (i / 10) as u64)))
        .collect();
    let cfg = SamplerConfig::builder(3, alpha)
        .seed(9)
        .expected_len(timed.len() as u64)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Time(3)).unwrap();
    for it in &timed {
        s.process(it);
    }
    let now = timed.last().expect("non-empty").stamp;
    let q = s.query().expect("non-empty");
    // locate the sampled point and check its timestamp liveness
    let pos = timed
        .iter()
        .rposition(|x| x.point == q.latest)
        .expect("from stream");
    assert!(timed[pos].stamp.time + 3 > now.time);
}

#[test]
fn window_of_one_returns_the_last_point() {
    let (items, _, alpha) = noisy_stream(4, 100);
    let cfg = SamplerConfig::builder(3, alpha)
        .seed(11)
        .expected_len(items.len() as u64)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(1)).unwrap();
    for it in &items {
        s.process(it);
        let q = s.query().expect("non-empty");
        assert_eq!(
            q.latest, it.point,
            "window of 1 must return the newest point"
        );
    }
}

#[test]
fn massive_window_behaves_like_infinite_window() {
    // a window larger than the stream: the sliding sampler must cover the
    // same candidate groups as Algorithm 1 reaches (both track all groups
    // here thanks to the generous threshold)
    let (items, labels, alpha) = noisy_stream(5, 300);
    let cfg = SamplerConfig::builder(3, alpha)
        .seed(13)
        .expected_len(items.len() as u64)
        .build()
        .unwrap();
    let mut sw = SlidingWindowSampler::try_new(cfg, Window::Sequence(1 << 20)).unwrap();
    for it in &items {
        sw.process(it);
    }
    let truth: std::collections::BTreeSet<usize> = labels.iter().copied().collect();
    assert_eq!(sw.f0_estimate() as usize, truth.len());
}

#[test]
fn stressed_sampler_never_misses_a_query() {
    // Lemma 2.10 under cascades: tight thresholds, many groups cycling
    let (items, _, alpha) = noisy_stream(6, 1500);
    let cfg = SamplerConfig::builder(3, alpha)
        .seed(17)
        .expected_len(items.len() as u64)
        .kappa0(0.5)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(128)).unwrap();
    for it in &items {
        s.process(it);
        assert!(s.query().is_some(), "query failed mid-stream");
    }
}
