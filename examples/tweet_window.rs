//! Trending-topics over a time-based sliding window.
//!
//! "Numerous tweets are re-sent with small edits" (paper, Section 1). We
//! stream tweet embeddings with timestamps; each topic produces bursts of
//! re-posts with small edits. A time-based sliding window keeps the last
//! hour; the robust sliding-window sampler (Algorithm 3) answers
//! "pick a random topic currently being discussed" — unbiased by how
//! often each topic is re-posted — and the Section 5 estimator counts the
//! live topics.
//!
//! Run with: `cargo run --release --example tweet_window`

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use robust_distinct_sampling::geometry::Point;
use robust_distinct_sampling::stream::{Stamp, StreamItem, Window};
use robust_distinct_sampling::Rds;

const DIM: usize = 6;
const ALPHA: f64 = 0.1; // edits stay within alpha of the original
const HOUR: u64 = 3600; // window length in seconds

fn main() {
    let mut rng = StdRng::seed_from_u64(11);

    // 30 topics; topic t trends during a random interval of the day and
    // is re-posted with edits while trending.
    let n_topics = 30usize;
    let topics: Vec<(Point, u64, u64)> = (0..n_topics)
        .map(|_| {
            let center = Point::new((0..DIM).map(|_| rng.random_range(0.0..50.0)).collect());
            let start = rng.random_range(0..20 * HOUR);
            let duration = rng.random_range(HOUR..6 * HOUR);
            (center, start, start + duration)
        })
        .collect();

    // Build the tweet stream: one tweet per topic-second with prob ~ 1/200.
    let mut tweets: Vec<(Point, u64)> = Vec::new();
    for second in 0..24 * HOUR {
        for (center, start, end) in &topics {
            if second >= *start && second < *end && rng.random_range(0..200) == 0 {
                let edited: Vec<f64> = center
                    .coords()
                    .iter()
                    .map(|c| c + rng.random_range(-0.03..0.03))
                    .collect();
                tweets.push((Point::new(edited), second));
            }
        }
    }
    tweets.sort_by_key(|&(_, t)| t);
    println!(
        "simulated {} tweets across {n_topics} topics over 24h",
        tweets.len()
    );

    // The facade handles the time-based window; add .shards(n) to spread
    // a heavier feed across workers with the same calls.
    let mut sampler = Rds::builder()
        .dim(DIM)
        .alpha(ALPHA)
        .seed(99)
        .expected_len(tweets.len() as u64)
        .window(Window::Time(HOUR))
        .build()
        .expect("valid configuration");

    let mut next_report = 4 * HOUR;
    for (seq, (p, t)) in tweets.iter().enumerate() {
        sampler.process_item(StreamItem::new(p.clone(), Stamp::new(seq as u64, *t)));
        if *t >= next_report {
            let live = topics
                .iter()
                .filter(|(_, s, e)| *t < e + HOUR && t + HOUR > *s)
                .count();
            match sampler.query() {
                Some(sample) => println!(
                    "t={:>2}h  ~{:>2} topics trending (estimate {:>5.1}); random live topic seen {} times in the last hour",
                    t / HOUR,
                    live,
                    sampler.f0_estimate(),
                    sample.count
                ),
                None => println!("t={:>2}h  window empty", t / HOUR),
            }
            next_report += 4 * HOUR;
        }
    }

    println!(
        "\nprocessed {} tweets over a {}-second window ({} live-topic estimate at the end)",
        sampler.seen(),
        HOUR,
        sampler.f0_estimate()
    );
}
