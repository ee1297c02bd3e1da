//! Quickstart: robust distinct sampling in five minutes.
//!
//! A stream of noisy points arrives; points within `alpha` of each other
//! are near-duplicates of the same entity. We draw a uniform sample over
//! *entities* (not points) and estimate how many entities there are.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use robust_distinct_sampling::core::{RobustF0Estimator, SamplerConfig};
use robust_distinct_sampling::geometry::Point;
use robust_distinct_sampling::Rds;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Twenty entities in R^3, each emitting 5..80 noisy observations.
    let dim = 3;
    let alpha = 0.1; // near-duplicate threshold
    let mut stream: Vec<(Point, usize)> = Vec::new();
    for entity in 0..20usize {
        let center: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..100.0)).collect();
        let copies = rng.random_range(5..80);
        for _ in 0..copies {
            let noisy: Vec<f64> = center
                .iter()
                .map(|c| c + rng.random_range(-0.02..0.02))
                .collect();
            stream.push((Point::new(noisy), entity));
        }
    }
    // Shuffle so duplicates are interleaved, as in a real stream.
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.random_range(0..=i));
    }
    println!(
        "stream: {} points from 20 entities (entity sizes vary 5..80)",
        stream.len()
    );

    // --- Robust l0-sampling through the facade --------------------------
    // Rds::builder() is the one entry point: change .window(...) or
    // .shards(...) and the same handle serves every regime.
    let mut rds = Rds::builder()
        .dim(dim)
        .alpha(alpha)
        .seed(42)
        .expected_len(stream.len() as u64)
        .build()
        .expect("valid configuration");
    for (p, _) in &stream {
        rds.process(p.clone());
    }
    let sample = rds.query().expect("stream is non-empty");
    let entity = stream
        .iter()
        .find(|(p, _)| *p == sample.rep)
        .map(|(_, e)| *e)
        .expect("sample comes from the stream");
    println!(
        "sampled entity {entity} (uniform over entities, not points; seen {} times)",
        sample.count
    );
    println!("estimated distinct entities: {:.1}", rds.f0_estimate());

    // The same stream, sharded across 4 worker threads — identical calls.
    let mut sharded = Rds::builder()
        .dim(dim)
        .alpha(alpha)
        .seed(42)
        .expected_len(stream.len() as u64)
        .shards(4)
        .build()
        .expect("valid configuration");
    for (p, _) in &stream {
        sharded.process(p.clone());
    }
    println!(
        "sharded across {} workers: estimate {:.1}",
        sharded.shards(),
        sharded.f0_estimate()
    );

    let cfg = SamplerConfig::builder(dim, alpha)
        .seed(42)
        .expected_len(stream.len() as u64)
        .build()
        .unwrap();

    // --- Robust F0 estimation (Section 5) -------------------------------
    let mut f0 = RobustF0Estimator::try_new(cfg, 0.3, 5).unwrap();
    for (p, _) in &stream {
        f0.process(p);
    }
    println!(
        "estimated distinct entities: {:.1} (truth: 20; raw points: {})",
        f0.estimate(),
        stream.len()
    );
}
