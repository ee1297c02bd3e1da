//! Sliding-window boundary behaviour: expiry at exactly `width`,
//! degenerate `width == 1`, and the de-facto-infinite `width == u64::MAX`
//! (regression for the `Window::live` saturating-add fix and the level
//! hierarchy's `2^level` arithmetic), for both [`SlidingWindowSampler`]
//! and [`SlidingWindowF0`].

use rds_core::{RobustL0Sampler, SamplerConfig, SlidingWindowF0, SlidingWindowSampler};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};

fn item(x: f64, seq: u64) -> StreamItem {
    StreamItem::new(Point::new(vec![x]), Stamp::at(seq))
}

fn cfg(seed: u64) -> SamplerConfig {
    SamplerConfig::builder(1, 0.5)
        .seed(seed)
        .expected_len(1 << 10)
        .build()
        .unwrap()
}

#[test]
fn window_live_saturates_at_u64_max_width() {
    // Regression for the PR 1 saturating fix: a width near u64::MAX must
    // never overflow `stamp + w` and wrongly expire everything.
    let w = Window::Sequence(u64::MAX);
    assert!(w.live(Stamp::at(0), Stamp::at(u64::MAX - 1)));
    assert!(w.live(Stamp::at(u64::MAX - 1), Stamp::at(u64::MAX - 1)));
    let t = Window::Time(u64::MAX);
    assert!(t.live(Stamp::new(0, 0), Stamp::new(0, u64::MAX - 1)));
}

#[test]
fn item_expires_at_exactly_width_steps() {
    // Window::Sequence(w) keeps seq > now - w: an item is live for the w
    // arrivals starting with its own, and expires on arrival w.
    let w = 8u64;
    let mut s = SlidingWindowSampler::try_new(cfg(1), Window::Sequence(w)).unwrap();
    s.process(&item(0.0, 0)); // group 0
                              // arrivals 1..w-1 of a far-away group: group 0 must stay sampled-able
    for seq in 1..w {
        s.process(&item(500.0, seq));
        let some_zero = (0..20).any(|_| {
            s.query()
                .is_some_and(|q| q.latest.within(&Point::new(vec![0.0]), 0.5))
        });
        assert!(some_zero, "group 0 expired early at arrival {seq}");
    }
    // arrival seq = w: the seq-0 item leaves the window exactly now
    s.process(&item(500.0, w));
    for _ in 0..20 {
        let q = s.query().expect("window non-empty");
        assert!(
            q.latest.within(&Point::new(vec![500.0]), 0.5),
            "expired group 0 still sampled at the width boundary"
        );
    }
}

#[test]
fn width_one_window_tracks_only_the_newest_item() {
    let mut s = SlidingWindowSampler::try_new(cfg(2), Window::Sequence(1)).unwrap();
    for seq in 0..40u64 {
        let x = (seq % 7) as f64 * 10.0;
        s.process(&item(x, seq));
        let q = s.query().expect("a width-1 window holds the newest item");
        assert!(
            q.latest.within(&Point::new(vec![x]), 0.5),
            "width-1 window sampled a stale item at seq {seq}"
        );
        assert!(s.f0_estimate() >= 1.0);
    }
}

#[test]
fn width_one_f0_estimates_one_entity() {
    let mut est = SlidingWindowF0::try_new(cfg(3), Window::Sequence(1), 1.0).unwrap();
    for seq in 0..32u64 {
        est.process(&item((seq % 5) as f64 * 10.0, seq));
    }
    assert_eq!(est.estimate(), 1.0, "exactly the newest entity is live");
}

#[test]
fn u64_max_width_behaves_like_the_infinite_window() {
    // Regression: building the hierarchy for w = u64::MAX used to push a
    // level-64 instance into `2^level` shift overflow territory.
    let n_entities = 24u64;
    let mut sw = SlidingWindowSampler::try_new(cfg(4), Window::Sequence(u64::MAX)).unwrap();
    let mut inf = RobustL0Sampler::try_new(cfg(4)).unwrap();
    for seq in 0..480u64 {
        let x = (seq % n_entities) as f64 * 10.0 + 0.01 * ((seq / n_entities) % 3) as f64;
        sw.process(&item(x, seq));
        inf.process(&Point::new(vec![x]));
    }
    // nothing ever expires, so the window holds every entity, like the
    // infinite-window sampler (generous default threshold: no levels
    // beyond 0 are occupied and both estimates are exact)
    assert_eq!(sw.f0_estimate(), inf.f0_estimate());
    assert_eq!(sw.f0_estimate(), n_entities as f64);
    assert!(sw.query().is_some());
}

#[test]
fn u64_max_width_f0_matches_the_infinite_estimator() {
    let n_entities = 16u64;
    let mut sw = SlidingWindowF0::try_new(cfg(5), Window::Sequence(u64::MAX), 1.0).unwrap();
    for seq in 0..256u64 {
        sw.process(&item((seq % n_entities) as f64 * 10.0, seq));
    }
    assert_eq!(sw.estimate(), n_entities as f64);
    assert!(sw.fm_estimate() > 0.0);
}

#[test]
fn u64_max_time_window_also_works() {
    let mut s = SlidingWindowSampler::try_new(cfg(6), Window::Time(u64::MAX)).unwrap();
    for seq in 0..64u64 {
        s.process(&StreamItem::new(
            Point::new(vec![(seq % 4) as f64 * 10.0]),
            Stamp::new(seq, seq * 1000),
        ));
    }
    assert_eq!(s.f0_estimate(), 4.0);
}

#[test]
fn time_window_expires_at_exactly_width_time_steps() {
    // Window::Time(w) keeps time > now - w.
    let w = 5u64;
    let mut s = SlidingWindowSampler::try_new(cfg(7), Window::Time(w)).unwrap();
    s.process(&StreamItem::new(Point::new(vec![0.0]), Stamp::new(0, 10)));
    // now = 14: time 10 > 14 - 5 holds, still live
    s.process(&StreamItem::new(Point::new(vec![500.0]), Stamp::new(1, 14)));
    let live_groups: Vec<f64> = s.all_entries().map(|e| e.last.get(0)).collect();
    assert!(
        live_groups.iter().any(|&x| x < 1.0),
        "group 0 expired early"
    );
    // now = 15: time 10 == 15 - 5 fails, expires exactly now
    s.process(&StreamItem::new(Point::new(vec![500.0]), Stamp::new(2, 15)));
    let live_groups: Vec<f64> = s.all_entries().map(|e| e.last.get(0)).collect();
    assert!(
        live_groups.iter().all(|&x| x > 400.0),
        "group 0 survived past the width boundary: {live_groups:?}"
    );
}
