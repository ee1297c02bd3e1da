//! Golden-output suite for freshly built writers: a fixed mixed call
//! sequence (per-item ingest, batches under every publication cadence,
//! clock advances, publishes) must produce checkpoint containers and
//! snapshot JSON **byte-identical** to the files under
//! `tests/fixtures/writer_paths/`.
//!
//! `serde_compat.rs` only restores and re-serializes, so it cannot see
//! how a fresh writer feeds its samplers. These fixtures can: the
//! checkpointed sampler state includes `peak_words`, which depends on
//! whether items reached the sampler one at a time or in batches, and on
//! where the batch boundaries fell. The fixtures were captured before the
//! facade's unsharded backends were folded into the one-shard engine, so
//! they pin that both feed the samplers identically.

use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use robust_distinct_sampling::{PublishCadence, Rds, RdsWriter};

const N_ENTITIES: u64 = 96;

/// Entity `i * 7 mod 96` with near-duplicate jitter: more entities than
/// the default threshold, so the infinite-window sampler doubles its rate.
fn point(i: u64) -> Point {
    let e = (i * 7) % N_ENTITIES;
    let jitter = 0.01 * ((i / N_ENTITIES) % 5) as f64;
    Point::new(vec![e as f64 * 10.0 + jitter, e as f64])
}

fn points(range: std::ops::Range<u64>) -> impl Iterator<Item = Point> {
    range.map(point)
}

fn variants() -> Vec<(&'static str, Window, usize)> {
    vec![
        ("infinite-1", Window::Infinite, 1),
        ("infinite-3", Window::Infinite, 3),
        ("seq64-1", Window::Sequence(64), 1),
        ("seq64-3", Window::Sequence(64), 3),
        ("time16-1", Window::Time(16), 1),
        ("time16-3", Window::Time(16), 3),
    ]
}

/// Runs the fixed call sequence and returns the final checkpoint
/// container and the JSON of the snapshot readers see.
fn run(window: Window, shards: usize) -> (String, String) {
    let (mut w, r) = Rds::builder()
        .dim(2)
        .alpha(0.5)
        .seed(23)
        .expected_len(1 << 11)
        .window(window)
        .shards(shards)
        .publish_cadence(PublishCadence::Manual)
        .build_split()
        .expect("valid configuration");
    let feed_items = |w: &mut RdsWriter, range: std::ops::Range<u64>, lag: u64| {
        for i in range {
            w.process_item(StreamItem::new(point(i), Stamp::new(i, i / 4 + lag)));
        }
    };
    feed_items(&mut w, 0..40, 0);
    w.advance(Stamp::new(40, 24));
    // 300 points: one full 256-point chunk plus a partial one
    w.process_batch(points(40..340));
    w.advance(Stamp::new(340, 350));
    w.set_cadence(PublishCadence::EveryBatch);
    w.process_batch(points(340..380));
    w.process_batch(points(380..400));
    w.set_cadence(PublishCadence::EveryN(7));
    w.process_batch(points(400..450));
    feed_items(&mut w, 450..455, 350);
    w.advance(Stamp::new(455, 470));
    w.publish();
    let checkpoint = w.checkpoint().to_container_json();
    let snapshot = serde_json::to_string(&*r.snapshot()).expect("snapshot serializes");
    (checkpoint, snapshot)
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/writer_paths")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

#[test]
fn fresh_writers_reproduce_the_golden_checkpoints_and_snapshots() {
    for (name, window, shards) in variants() {
        let (checkpoint, snapshot) = run(window, shards);
        assert!(
            checkpoint == fixture(&format!("checkpoint-{name}.json")),
            "{name}: checkpoint container differs from the golden fixture"
        );
        assert!(
            snapshot == fixture(&format!("snapshot-{name}.json")),
            "{name}: snapshot JSON differs from the golden fixture"
        );
    }
}
