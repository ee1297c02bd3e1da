//! Video-catalogue deduplication — the paper's opening motivation.
//!
//! "YouTube contains many videos of almost the same content; they appear
//! to be slightly different due to cuts, compression and change of
//! resolutions." We simulate a stream of video *fingerprints* (feature
//! vectors) where popular videos are re-uploaded many times with small
//! perturbations, then compare:
//!
//! * a standard min-rank ℓ0-sampler — biased toward heavily re-uploaded
//!   videos;
//! * the robust sampler — uniform over *distinct videos*.
//!
//! Run with: `cargo run --release --example video_dedup`

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use robust_distinct_sampling::baselines::PointMinRankSampler;
use robust_distinct_sampling::core::{RobustL0Sampler, SamplerConfig};
use robust_distinct_sampling::geometry::Point;
use robust_distinct_sampling::metrics::SampleHistogram;

const DIM: usize = 8; // fingerprint dimension
const ALPHA: f64 = 0.05; // two uploads of the same video differ by < alpha

struct Catalogue {
    stream: Vec<(Point, usize)>,
    n_videos: usize,
}

/// 40 videos; video v is re-uploaded `ceil(200 / (v+1))` times — a
/// power-law popularity curve (like the paper's `-pl` datasets).
fn simulate_catalogue(seed: u64) -> Catalogue {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_videos = 40;
    let mut stream = Vec::new();
    for v in 0..n_videos {
        let master: Vec<f64> = (0..DIM).map(|_| rng.random_range(0.0..10.0)).collect();
        let uploads = 200usize.div_ceil(v + 1);
        for _ in 0..uploads {
            // re-encode: tiny perturbation of the fingerprint
            let fp: Vec<f64> = master
                .iter()
                .map(|c| c + rng.random_range(-0.01..0.01))
                .collect();
            stream.push((Point::new(fp), v));
        }
    }
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.random_range(0..=i));
    }
    Catalogue { stream, n_videos }
}

fn main() {
    let trials = 400;
    let cat = simulate_catalogue(1);
    println!(
        "catalogue: {} uploads of {} distinct videos (most popular: {} uploads)",
        cat.stream.len(),
        cat.n_videos,
        200
    );

    let mut robust_hist = SampleHistogram::new(cat.n_videos);
    let mut naive_hist = SampleHistogram::new(cat.n_videos);

    for t in 0..trials {
        // robust sampler: uniform over videos
        let cfg = SamplerConfig::builder(DIM, ALPHA)
            .seed(1000 + t)
            .expected_len(cat.stream.len() as u64)
            .build()
            .unwrap();
        let mut robust = RobustL0Sampler::try_new(cfg).unwrap();
        // naive baseline: uniform over uploads
        let mut naive = PointMinRankSampler::new(2000 + t);
        for (p, _) in &cat.stream {
            robust.process(p);
            naive.process(p);
        }
        let vid_of = |q: &Point| {
            cat.stream
                .iter()
                .find(|(p, _)| p == q)
                .map(|(_, v)| *v)
                .expect("sample from stream")
        };
        robust_hist.record(vid_of(robust.query().expect("non-empty")));
        naive_hist.record(vid_of(naive.sample().expect("non-empty")));
    }

    println!("\nsampling frequency of video 0 (the most re-uploaded):");
    println!(
        "  robust sampler:   {:.1}% of queries (fair share: {:.1}%)",
        100.0 * robust_hist.frequencies()[0],
        100.0 / cat.n_videos as f64
    );
    println!(
        "  min-rank baseline: {:.1}% of queries — biased toward popular videos",
        100.0 * naive_hist.frequencies()[0]
    );
    println!("\nuniformity (maxDevNm; lower is better):");
    println!("  robust sampler:    {:.2}", robust_hist.max_dev_nm());
    println!("  min-rank baseline: {:.2}", naive_hist.max_dev_nm());
}
