//! Crash-recovery acceptance suite for the checkpoint/restore subsystem:
//! `checkpoint → drop → restore → continue ingesting` must produce
//! **bit-identical** `query_k`/`f0_estimate` results to an uninterrupted
//! run, for every (window, shards) backend variant; and damaged or
//! mismatched checkpoint files must surface as typed
//! [`RdsError::Checkpoint`] errors, never panics or corrupt estimates.

use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use robust_distinct_sampling::core::{GroupRecord, RdsError};
use robust_distinct_sampling::{
    fnv1a64, PublishCadence, Rds, RdsReader, RdsWriter, WriterCheckpoint,
};

/// Deterministic mixed stream: `n_entities` well-separated entities with
/// near-duplicate jitter, stamped so that sequence- and time-based
/// windows both exercise expiry (4 items per time step).
fn item(i: u64, n_entities: u64) -> StreamItem {
    let e = i % n_entities;
    let jitter = 0.01 * ((i / n_entities) % 5) as f64;
    StreamItem::new(
        Point::new(vec![e as f64 * 10.0 + jitter, e as f64]),
        Stamp::new(i, i / 4),
    )
}

fn pair(window: Window, shards: usize) -> (RdsWriter, RdsReader) {
    Rds::builder()
        .dim(2)
        .alpha(0.5)
        .seed(23)
        .expected_len(1 << 11)
        .window(window)
        .shards(shards)
        .publish_cadence(PublishCadence::Manual)
        .build_split()
        .expect("valid configuration")
}

fn backends() -> Vec<(Window, usize)> {
    vec![
        (Window::Infinite, 1),
        (Window::Infinite, 3),
        (Window::Sequence(64), 1),
        (Window::Sequence(64), 3),
        (Window::Time(16), 1),
        (Window::Time(16), 3),
    ]
}

fn assert_same_records(a: &[GroupRecord], b: &[GroupRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sample count diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.rep, y.rep, "{what}: representative diverged");
        assert_eq!(x.count, y.count, "{what}: group count diverged");
        assert_eq!(x.cell_hash, y.cell_hash, "{what}: cell hash diverged");
        assert_eq!(
            x.reservoir, y.reservoir,
            "{what}: reservoir member diverged"
        );
    }
}

#[test]
fn crash_recovery_is_bit_identical_across_all_backends() {
    let total = 600u64;
    let crash_at = 300u64;
    let n_entities = 24u64;
    let dir = std::env::temp_dir().join(format!("rds-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    for (variant, (window, shards)) in backends().into_iter().enumerate() {
        let what = format!("(window {window:?}, shards {shards})");
        // The uninterrupted reference run.
        let (mut uw, ur) = pair(window, shards);
        for i in 0..total {
            uw.process_item(item(i, n_entities));
        }
        uw.publish();
        let reference = ur.snapshot();

        // The crashing run: first half, checkpoint to disk, drop.
        let path = dir.join(format!("variant-{variant}.chk"));
        let (mut cw, _cr) = pair(window, shards);
        for i in 0..crash_at {
            cw.process_item(item(i, n_entities));
        }
        cw.checkpoint_to(&path).expect("checkpoint writes");
        drop(cw); // the "crash": every in-memory structure is gone

        // Restore from the container and continue with the second half.
        let (mut rw, rr) = Rds::builder()
            .publish_cadence(PublishCadence::Manual)
            .restore_from(&path)
            .unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
        assert_eq!(rw.seen(), crash_at, "{what}: restored arrival counter");
        assert_eq!(rw.window(), window, "{what}: restored window model");
        assert_eq!(rw.shards(), shards, "{what}: restored shard count");
        for i in crash_at..total {
            rw.process_item(item(i, n_entities));
        }
        rw.publish();
        let recovered = rr.snapshot();

        // Bit-identical estimates and samples, including replayed draws.
        assert_eq!(recovered.seen(), reference.seen(), "{what}: seen");
        assert_eq!(
            recovered.f0_estimate(),
            reference.f0_estimate(),
            "{what}: f0 must match an uninterrupted run exactly"
        );
        for draw in [1u64, 7, 42, 1 << 33] {
            assert_same_records(
                &recovered.query_k_at(5, draw),
                &reference.query_k_at(5, draw),
                &format!("{what} draw {draw}"),
            );
            assert_eq!(
                recovered.query_at(draw).map(|r| r.rep),
                reference.query_at(draw).map(|r| r.rep),
                "{what}: single draw {draw}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_window_keeps_sliding_and_expiring() {
    // After a restore, window expiry (including `advance` with no new
    // items) must keep working exactly as before the crash.
    for shards in [1usize, 2] {
        let (mut cw, _) = pair(Window::Time(16), shards);
        for i in 0..200u64 {
            cw.process_item(item(i, 20));
        }
        let chk = cw.checkpoint();
        drop(cw);
        let (mut rw, rr) = Rds::builder()
            .publish_cadence(PublishCadence::Manual)
            .restore(chk)
            .expect("restores");
        assert!(
            rr.f0_estimate() > 0.0,
            "warm snapshot serves pre-crash state"
        );
        // the clock moves far past the window with no new items
        rw.advance(Stamp::new(200, 10_000));
        rw.publish();
        assert_eq!(
            rr.f0_estimate(),
            0.0,
            "shards {shards}: everything must expire after the restored advance"
        );
    }
}

#[test]
fn restore_with_mismatched_config_is_a_typed_error() {
    let (mut cw, _) = pair(Window::Sequence(64), 2);
    for i in 0..100u64 {
        cw.process_item(item(i, 10));
    }
    let chk = cw.checkpoint();
    // matching explicit parameters restore fine
    assert!(Rds::builder()
        .dim(2)
        .alpha(0.5)
        .seed(23)
        .window(Window::Sequence(64))
        .shards(2)
        .restore(chk.clone())
        .is_ok());
    // each conflicting parameter is a typed checkpoint error
    let cases: Vec<(&str, Result<_, RdsError>)> = vec![
        ("alpha", Rds::builder().alpha(0.9).restore(chk.clone())),
        ("dim", Rds::builder().dim(3).restore(chk.clone())),
        ("seed", Rds::builder().seed(1).restore(chk.clone())),
        (
            "window model",
            Rds::builder().window(Window::Time(64)).restore(chk.clone()),
        ),
        (
            "window width",
            Rds::builder()
                .window(Window::Sequence(32))
                .restore(chk.clone()),
        ),
        ("shards", Rds::builder().shards(3).restore(chk.clone())),
        (
            "expected_len",
            Rds::builder().expected_len(4).restore(chk.clone()),
        ),
        ("k", Rds::builder().k(5).restore(chk.clone())),
        ("kappa0", Rds::builder().kappa0(1.0).restore(chk.clone())),
        ("eps", Rds::builder().count_accuracy(0.25).restore(chk)),
    ];
    for (name, result) in cases {
        match result {
            Err(RdsError::Checkpoint { reason }) => {
                assert!(
                    reason.contains("config mismatch"),
                    "{name}: unexpected reason `{reason}`"
                );
            }
            other => panic!("{name}: expected RdsError::Checkpoint, got {other:?}"),
        }
    }
}

#[test]
fn damaged_checkpoint_files_are_typed_errors_never_panics() {
    let dir = std::env::temp_dir().join(format!("rds-damaged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("good.chk");
    let (mut cw, _) = pair(Window::Sequence(64), 2);
    for i in 0..100u64 {
        cw.process_item(item(i, 10));
    }
    cw.checkpoint_to(&path).expect("writes");
    let good = std::fs::read_to_string(&path).expect("reads");

    let restore_text = |text: &str| -> Result<(), RdsError> {
        let p = dir.join("case.chk");
        std::fs::write(&p, text).expect("writes case");
        Rds::builder().restore_from(&p).map(|_| ())
    };

    // a pristine container restores
    assert!(restore_text(&good).is_ok());
    // missing file
    assert!(matches!(
        Rds::builder().restore_from(dir.join("missing.chk")),
        Err(RdsError::Checkpoint { .. })
    ));
    // truncations at several depths (header, payload, mid-number)
    for frac in [1usize, 3, 10, 17, 50, 90] {
        let cut = good.len() * frac / 100;
        assert!(
            matches!(restore_text(&good[..cut]), Err(RdsError::Checkpoint { .. })),
            "truncation at {frac}% must be a typed error"
        );
    }
    // bit rot in the payload fails the checksum
    let rotted = good.replacen("\"fed\":100", "\"fed\":101", 1);
    assert_ne!(rotted, good, "fixture: the fed field must exist");
    match restore_text(&rotted) {
        Err(RdsError::Checkpoint { reason }) => {
            assert!(reason.contains("checksum"), "reason: {reason}")
        }
        other => panic!("expected checksum failure, got {other:?}"),
    }
    // foreign magic and future version are named in the error
    match restore_text(&good.replacen("rds-checkpoint", "other-format", 1)) {
        Err(RdsError::Checkpoint { reason }) => {
            assert!(reason.contains("magic"), "reason: {reason}")
        }
        other => panic!("expected magic failure, got {other:?}"),
    }
    match restore_text(&good.replacen("\"version\":1", "\"version\":2", 1)) {
        Err(RdsError::Checkpoint { reason }) => {
            assert!(reason.contains("version"), "reason: {reason}")
        }
        other => panic!("expected version failure, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_engine_batch_size_is_a_typed_error_not_an_abort() {
    // Regression: restore checked only `batch_size != 0`, so a re-sealed
    // container asking for 2^40-item batches restored Ok, and the first
    // publish aborted the process preallocating the shard buffers.
    let (mut cw, _) = pair(Window::Infinite, 2);
    for i in 0..100u64 {
        cw.process_item(item(i, 10));
    }
    let good = cw.checkpoint().to_container_json();
    let (_, payload) = good.split_once("\"payload\":").expect("container layout");
    let payload = &payload[..payload.len() - 1];
    let forged_payload = payload.replacen("\"batch_size\":256", "\"batch_size\":1099511627776", 1);
    assert_ne!(
        forged_payload, payload,
        "fixture: the batch_size field must exist"
    );
    // a valid checksum: this is a hostile writer, not bit rot
    let forged = format!(
        "{{\"magic\":\"rds-checkpoint\",\"version\":1,\"checksum\":{},\"payload\":{forged_payload}}}",
        fnv1a64(forged_payload.as_bytes())
    );
    let chk =
        WriterCheckpoint::from_container_json(&forged).expect("the container itself verifies");
    match Rds::builder().restore(chk) {
        Err(RdsError::Checkpoint { reason }) => {
            assert!(reason.contains("batch size"), "reason: {reason}")
        }
        Err(other) => panic!("expected a typed checkpoint error, got {other:?}"),
        Ok(_) => panic!("a 2^40-item batch size must not restore"),
    }
}

#[test]
fn a_reformatted_payload_fails_the_checksum() {
    // The checksum covers the payload bytes as stored: a container whose
    // payload gained one space no longer verifies, although it parses to
    // the same tree.
    let (mut cw, _) = pair(Window::Infinite, 2);
    for i in 0..100u64 {
        cw.process_item(item(i, 10));
    }
    let good = cw.checkpoint().to_container_json();
    assert!(WriterCheckpoint::from_container_json(&good).is_ok());
    let spaced = good.replacen("\"fed\":", "\"fed\": ", 1);
    assert_ne!(spaced, good, "fixture: the fed field must exist");
    match WriterCheckpoint::from_container_json(&spaced) {
        Err(RdsError::Checkpoint { reason }) => {
            assert!(reason.contains("checksum"), "reason: {reason}")
        }
        other => panic!("expected a checksum failure, got {other:?}"),
    }
    // whitespace around the payload is not part of it
    let padded = good.replacen("\"payload\":", "\"payload\": \n", 1);
    assert!(WriterCheckpoint::from_container_json(&padded).is_ok());
}

#[test]
fn a_deeply_nested_container_is_a_typed_error_not_a_stack_overflow() {
    // Run on a thread with a small stack: a parser that recursed once
    // per `[` would overflow it and abort the whole test binary.
    let outcome = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let deep = format!(
                "{{\"magic\":\"rds-checkpoint\",\"version\":1,\"checksum\":0,\"payload\":{}}}",
                "[".repeat(100_000)
            );
            WriterCheckpoint::from_container_json(&deep).map(|_| ())
        })
        .expect("spawn")
        .join()
        .expect("the parse must not panic");
    match outcome {
        Err(RdsError::Checkpoint { reason }) => {
            assert!(reason.contains("nest deeper"), "reason: {reason}")
        }
        other => panic!("expected a typed checkpoint error, got {other:?}"),
    }
}

#[test]
fn container_json_round_trips_the_checkpoint() {
    let (mut cw, _) = pair(Window::Infinite, 1);
    for i in 0..80u64 {
        cw.process_item(item(i, 8));
    }
    cw.publish();
    let chk = cw.checkpoint();
    let wire = chk.to_container_json();
    let back = WriterCheckpoint::from_container_json(&wire).expect("verifies");
    assert_eq!(back.seen(), chk.seen());
    assert_eq!(back.epoch(), chk.epoch());
    assert_eq!(back.window(), chk.window());
    assert_eq!(back.shards(), chk.shards());
    assert_eq!(back.cfg(), chk.cfg());
    // canonical serialization: re-serializing the parsed container is
    // byte-stable (what makes the checksum meaningful)
    assert_eq!(back.to_container_json(), wire);
}

#[test]
fn restore_never_reuses_an_epoch_for_different_content() {
    // Epochs version content. A checkpoint taken mid-interval (items
    // processed after the last publication) must surface its warm
    // snapshot as a NEW epoch — a pre-crash consumer that cached the
    // old epoch's answers would otherwise see the same epoch serve
    // different results.
    let (mut cw, cr) = Rds::builder()
        .dim(2)
        .alpha(0.5)
        .seed(23)
        .publish_every(50)
        .build_split()
        .expect("valid");
    for i in 0..80u64 {
        cw.process_item(item(i, 60));
    }
    // epoch 1 published at item 50, covering 50 items
    assert_eq!(cr.epoch(), 1);
    assert_eq!(cr.seen(), 50);
    let pre_crash_f0 = cr.f0_estimate();
    let chk = cw.checkpoint(); // 30 unpublished items beyond epoch 1
    drop(cw);
    let (_rw, rr) = Rds::builder()
        .publish_cadence(PublishCadence::Manual)
        .restore(chk)
        .expect("restores");
    assert_eq!(rr.seen(), 80, "warm snapshot covers the full state");
    assert_eq!(
        rr.epoch(),
        2,
        "content beyond epoch 1 must not be served under epoch 1"
    );
    assert_ne!(
        rr.f0_estimate(),
        pre_crash_f0,
        "fixture: the content differs"
    );

    // ...and a checkpoint that coincides with a publication keeps its
    // epoch (identical content, identical number).
    let (mut cw, _) = pair(Window::Infinite, 1);
    for i in 0..50u64 {
        cw.process_item(item(i, 25));
    }
    cw.publish();
    let chk = cw.checkpoint();
    let (_rw, rr) = Rds::builder().restore(chk).expect("restores");
    assert_eq!(rr.epoch(), 1, "published content keeps its epoch");

    // ...but an `advance` between publish and checkpoint dirties window
    // content without processing an item — the restored snapshot must
    // not reuse the epoch that served the pre-advance entries.
    let (mut cw, cr) = pair(Window::Time(16), 1);
    for i in 0..50u64 {
        cw.process_item(item(i, 25));
    }
    cw.publish();
    assert!(cr.f0_estimate() > 0.0);
    cw.advance(Stamp::new(50, 10_000)); // expires everything, no items
    let chk = cw.checkpoint();
    drop(cw);
    let (_rw, rr) = Rds::builder()
        .publish_cadence(PublishCadence::Manual)
        .restore(chk)
        .expect("restores");
    assert_eq!(
        rr.epoch(),
        2,
        "advance-expired content must not be served under the old epoch"
    );
    assert_eq!(rr.f0_estimate(), 0.0);
}

#[test]
fn restored_pair_publishes_on_cadence_from_the_builder() {
    // Cadence is a runtime preference, not checkpointed state: the
    // restoring builder chooses it.
    let (mut cw, _) = pair(Window::Infinite, 1);
    for i in 0..10u64 {
        cw.process_item(item(i, 5));
    }
    let chk = cw.checkpoint();
    let (mut rw, rr) = Rds::builder()
        .publish_every(4)
        .restore(chk)
        .expect("restores");
    let epoch = rr.epoch();
    for i in 10..14u64 {
        rw.process_item(item(i, 5));
    }
    assert_eq!(
        rr.epoch(),
        epoch + 1,
        "EveryN(4) cadence applies after restore"
    );
}
