//! The concurrency contract of the writer/reader split (ISSUE 4
//! acceptance): a writer ingesting at full speed while cloned readers
//! query in a loop, with
//!
//! * **no lost updates** — every published snapshot covers the exact
//!   prefix the writer had processed (`f0 == min(seen, entities)` under
//!   exact-counting thresholds, and the final snapshot covers the whole
//!   stream);
//! * **monotone epochs** — no reader ever observes the epoch move
//!   backwards;
//! * **equivalence** — `publish(); reader.query_k(k)` returns exactly
//!   what an equivalent single-threaded [`Rds`] returns (proptest over
//!   seeds, stream lengths, entity counts and shard counts).

use proptest::prelude::*;
use robust_distinct_sampling::geometry::Point;
use robust_distinct_sampling::stream::Window;
use robust_distinct_sampling::{PublishCadence, Rds, Snapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Well-separated entities (spacing 10, jitter < alpha/2 = 0.25) so
/// exact-counting configurations count them exactly.
fn entity_point(i: u64, n_entities: u64) -> Point {
    Point::new(vec![
        (i % n_entities) as f64 * 10.0 + 0.01 * ((i / n_entities) % 5) as f64,
    ])
}

#[test]
fn writer_ingests_while_four_readers_query() {
    const N: u64 = 40_000;
    const ENTITIES: u64 = 100;
    const READERS: usize = 4;
    // count_accuracy(0.3) -> threshold ceil(16/0.09) = 178 > 100 entities:
    // nothing subsamples, so every snapshot's estimate is *exact* and any
    // deviation is a lost or phantom update.
    let (mut writer, reader) = Rds::builder()
        .dim(1)
        .alpha(0.5)
        .seed(11)
        .expected_len(N)
        .count_accuracy(0.3)
        .shards(4)
        .publish_every(512)
        .build_split()
        .expect("valid");

    let done = AtomicBool::new(false);
    let total_queries = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let reader = reader.clone();
            let done = &done;
            let total_queries = &total_queries;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut draws = 0u64;
                let mut queries = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = reader.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch moved backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    // Exact counting: the snapshot must cover precisely
                    // the prefix it claims — nothing lost, nothing
                    // invented.
                    let expected = snap.seen().min(ENTITIES) as f64;
                    assert_eq!(
                        snap.f0_estimate(),
                        expected,
                        "snapshot at seen {} (epoch {}) has a wrong count",
                        snap.seen(),
                        snap.epoch()
                    );
                    if snap.seen() > 0 {
                        draws += 1;
                        let q = snap.query_at(draws).expect("non-empty snapshot");
                        let entity = (q.rep.get(0) / 10.0).round();
                        assert!(
                            (0.0..ENTITIES as f64).contains(&entity),
                            "sample {q:?} is not an ingested entity"
                        );
                    }
                    queries += 1;
                }
                total_queries.fetch_add(queries, Ordering::Relaxed);
            });
        }
        // The writer ingests the whole stream while the readers hammer
        // the snapshot slot from other threads.
        for i in 0..N {
            writer.process(entity_point(i, ENTITIES));
        }
        writer.publish();
        done.store(true, Ordering::Relaxed);
    });

    // No lost updates end to end.
    assert_eq!(reader.seen(), N);
    assert_eq!(reader.f0_estimate(), ENTITIES as f64);
    assert!(
        total_queries.load(Ordering::Relaxed) > 0,
        "readers never got to query"
    );
}

#[test]
fn windowed_split_serves_live_estimates_concurrently() {
    const W: u64 = 256;
    let (mut writer, reader) = Rds::builder()
        .dim(1)
        .alpha(0.5)
        .seed(23)
        .expected_len(1 << 14)
        .window(Window::Sequence(W))
        .shards(3)
        .publish_every(128)
        .build_split()
        .expect("valid");

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader2 = reader.clone();
        let done_ref = &done;
        scope.spawn(move || {
            let mut last_epoch = 0u64;
            while !done_ref.load(Ordering::Relaxed) {
                let snap = reader2.snapshot();
                assert!(snap.epoch() >= last_epoch);
                last_epoch = snap.epoch();
                // 16 entities cycle through a window of 256: once warm,
                // every snapshot sees exactly the 16 live ones.
                if snap.seen() >= W {
                    assert_eq!(snap.f0_estimate(), 16.0, "at seen {}", snap.seen());
                }
            }
        });
        for i in 0..8192u64 {
            writer.process(entity_point(i, 16));
        }
        writer.publish();
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(reader.f0_estimate(), 16.0);
    assert_eq!(reader.seen(), 8192);
}

#[test]
fn panicking_writer_leaves_readers_a_coherent_snapshot() {
    // Regression: the snapshot slot used to be a `std::sync::RwLock`
    // with `PoisonError` recovery paths — a panicking writer poisoned
    // the lock and every reader path had to unwrap the poison. The slot
    // is now a lock-free epoch pointer with nothing to poison: a writer
    // that dies mid-stream leaves readers exactly the last *published*
    // snapshot, coherent and fully queryable, never a torn or
    // stale-epoch view.
    const N: u64 = 6_000;
    const ENTITIES: u64 = 100;
    let (mut writer, reader) = Rds::builder()
        .dim(1)
        .alpha(0.5)
        .seed(31)
        .expected_len(N)
        .count_accuracy(0.3) // exact counting: torn state is detectable
        .shards(2)
        .publish_every(256)
        .build_split()
        .expect("valid");

    // Keep the injected panic out of the test output without touching
    // anyone else's: forward everything that isn't ours.
    let original = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let ours = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected writer failure"));
        if !ours {
            original(info);
        }
    }));

    let done = AtomicBool::new(false);
    let observed = std::thread::scope(|scope| {
        let observer = {
            let reader = reader.clone();
            let done = &done;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = reader.snapshot();
                    assert!(snap.epoch() >= last_epoch, "stale epoch served");
                    last_epoch = snap.epoch();
                    assert_eq!(
                        snap.f0_estimate(),
                        snap.seen().min(ENTITIES) as f64,
                        "torn snapshot at epoch {}",
                        snap.epoch()
                    );
                }
                last_epoch
            })
        };
        let writer_thread = scope.spawn(move || {
            for i in 0..N {
                writer.process(entity_point(i, ENTITIES));
            }
            writer.publish();
            panic!("injected writer failure");
        });
        let crashed = writer_thread.join();
        assert!(crashed.is_err(), "the writer must have panicked");
        done.store(true, Ordering::Relaxed);
        observer
            .join()
            .expect("observer saw a torn or stale snapshot")
    });
    drop(std::panic::take_hook()); // restore the default hook

    // After the crash the cell still serves the final published state.
    assert!(observed >= 1, "the observer never saw a publication");
    let snap = reader.snapshot();
    assert_eq!(snap.seen(), N);
    assert_eq!(snap.f0_estimate(), ENTITIES as f64);
    assert!(snap.query_at(1).is_some(), "final snapshot is queryable");
    assert_eq!(reader.snapshot().epoch(), snap.epoch(), "epoch is stable");
}

#[test]
fn lock_free_cell_stress_is_epoch_monotone_with_no_torn_reads() {
    // Seeded repeated runs against the lock-free snapshot cell: a
    // writer publishing every 64 items races two readers that assert
    // (a) the epoch never moves backwards and (b) every snapshot is
    // internally consistent — under exact counting, `f0` must equal
    // `min(seen, entities)` in *every* observed snapshot, so any torn
    // publication (summary from one epoch, counters from another)
    // fails loudly.
    for seed in [3u64, 17, 59] {
        const N: u64 = 6_000;
        const ENTITIES: u64 = 60;
        let (mut writer, reader) = Rds::builder()
            .dim(1)
            .alpha(0.5)
            .seed(seed)
            .expected_len(N)
            .count_accuracy(0.3)
            .shards(2)
            .publish_every(64)
            .build_split()
            .expect("valid");
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let reader = reader.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let snap = reader.snapshot();
                        assert!(
                            snap.epoch() >= last_epoch,
                            "seed {seed}: epoch regressed to {}",
                            snap.epoch()
                        );
                        last_epoch = snap.epoch();
                        assert_eq!(
                            snap.f0_estimate(),
                            snap.seen().min(ENTITIES) as f64,
                            "seed {seed}: torn snapshot at epoch {}",
                            snap.epoch()
                        );
                    }
                });
            }
            for i in 0..N {
                writer.process(entity_point(i, ENTITIES));
            }
            writer.publish();
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(reader.seen(), N, "seed {seed}");
        assert_eq!(reader.f0_estimate(), ENTITIES as f64, "seed {seed}");
    }
}

/// Publication shares point coordinates instead of copying them: every
/// published point is one of the fed points' own buffers. Between two
/// publishes that add no group, every record is republished (its count
/// moved), yet an infinite-window representative keeps the very buffer
/// it had (a window record reports its group's latest point instead).
/// A regression to deep copies fails here even when it is fast enough
/// to clear every throughput floor.
#[test]
fn successive_publishes_share_unchanged_records_coordinates() {
    const ENTITIES: u64 = 16;
    for shards in [1usize, 2] {
        for window in [Window::Infinite, Window::Sequence(1 << 12)] {
            let (mut writer, reader) = Rds::builder()
                .dim(1)
                .alpha(0.5)
                .seed(7)
                .expected_len(512)
                .window(window)
                .shards(shards)
                .publish_cadence(PublishCadence::Manual)
                .build_split()
                .expect("valid");
            // The fed points stay alive, so no copy can reuse a buffer
            // address that one of them freed.
            let mut fed: Vec<Point> = Vec::new();
            let mut feed = |range: std::ops::Range<u64>| {
                for i in range {
                    let p = entity_point(i, ENTITIES);
                    fed.push(p.clone());
                    writer.process(p);
                }
                writer.publish();
                reader.snapshot().query_k_at(1_000, 0)
            };
            let before = feed(0..ENTITIES * 4);
            // Only duplicates of the groups above: no group is new.
            let after = feed(ENTITIES * 4..ENTITIES * 8);
            let case = format!("shards {shards}, {window:?}");
            assert!(!before.is_empty(), "{case}");
            assert_eq!(after.len(), before.len(), "{case}");
            for rec in &after {
                for p in [&rec.rep, &rec.reservoir] {
                    assert!(
                        fed.iter()
                            .any(|f| f.coords().as_ptr() == p.coords().as_ptr()),
                        "{case}: {p:?} is a copy, not a fed point"
                    );
                }
                let old = before
                    .iter()
                    .find(|r| r.cell_hash == rec.cell_hash)
                    .unwrap_or_else(|| panic!("{case}: a new group appeared"));
                assert!(rec.count > old.count, "{case}: record not republished");
                if window.is_infinite() {
                    assert_eq!(
                        rec.rep.coords().as_ptr(),
                        old.rep.coords().as_ptr(),
                        "{case}: the representative was copied"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `publish(); query_k` on a reader equals `query_k` on an equivalent
    /// single-threaded `Rds` — same records, same order, same counts —
    /// and the estimates agree, across shard counts and window models.
    #[test]
    fn published_reader_matches_single_threaded_rds(
        seed in 0u64..200,
        n_entities in 2u64..40,
        n in 10u64..400,
        k in 1usize..6,
        shards in 1usize..4,
        windowed in 0u8..2,
    ) {
        let window = if windowed == 1 {
            Window::Sequence(1 << 12)
        } else {
            Window::Infinite
        };
        let builder = || Rds::builder()
            .dim(1)
            .alpha(0.5)
            .seed(seed)
            .expected_len(512)
            .window(window)
            .shards(shards)
            .publish_cadence(PublishCadence::Manual);
        let (mut writer, reader) = builder().build_split().unwrap();
        let mut rds = builder().build().unwrap();
        for i in 0..n {
            let p = entity_point(i, n_entities);
            writer.process(p.clone());
            rds.process(p);
        }
        writer.publish();
        let from_reader = reader.query_k(k);
        let from_rds = rds.query_k(k);
        prop_assert_eq!(from_reader.len(), from_rds.len());
        for (a, b) in from_reader.iter().zip(from_rds.iter()) {
            prop_assert_eq!(&a.rep, &b.rep);
            prop_assert_eq!(a.count, b.count);
        }
        prop_assert_eq!(reader.f0_estimate(), rds.f0_estimate());
        prop_assert_eq!(reader.seen(), rds.seen());
    }

    /// Copy-on-write publication is invisible to queries: snapshots in
    /// a CoW chain `Arc`-share untouched levels with the writer's live
    /// state *and with each other*, yet every retained epoch must keep
    /// answering exactly like a from-scratch deep copy taken at that
    /// epoch — even after the writer mutates far past it. The deep
    /// copies go through the wire format (which materializes every
    /// shared level into private storage), so any aliasing bug where a
    /// later mutation bleeds into an already-published level diverges.
    #[test]
    fn cow_snapshot_chain_matches_from_scratch_deep_copies(
        seed in 0u64..100,
        n_entities in 2u64..30,
        steps in 3u64..8,
        shards in 1usize..4,
        windowed in 0u8..2,
    ) {
        const STEP: u64 = 40;
        let window = if windowed == 1 {
            Window::Sequence(1 << 12)
        } else {
            Window::Infinite
        };
        let builder = || Rds::builder()
            .dim(1)
            .alpha(0.5)
            .seed(seed)
            .expected_len(512)
            .window(window)
            .shards(shards)
            .publish_cadence(PublishCadence::Manual);
        let (mut writer, reader) = builder().build_split().unwrap();

        // Build the CoW chain, deep-copying each epoch as it appears.
        let mut chain: Vec<(u64, std::sync::Arc<Snapshot>, Snapshot)> = Vec::new();
        for s in 0..steps {
            for i in s * STEP..(s + 1) * STEP {
                writer.process(entity_point(i, n_entities));
            }
            writer.publish();
            let snap = reader.snapshot();
            let deep: Snapshot =
                serde_json::from_str(&serde_json::to_string(&*snap).unwrap()).unwrap();
            chain.push(((s + 1) * STEP, snap, deep));
        }
        // Mutate well past every retained epoch: different entity
        // layout, so aliased levels would visibly change.
        for i in 0..200u64 {
            writer.process(entity_point(i * 3 + 1, n_entities * 2 + 1));
        }
        writer.publish();

        for (k, (prefix, snap, deep)) in chain.iter().enumerate() {
            // Epoch monotonicity along the chain.
            prop_assert_eq!(snap.epoch(), (k + 1) as u64);
            // Retained CoW snapshot == deep copy taken at its epoch.
            prop_assert_eq!(snap.seen(), deep.seen());
            prop_assert_eq!(snap.f0_estimate(), deep.f0_estimate());
            for draw in [1u64, 5, 11] {
                let a = snap.query_k_at(3, draw);
                let b = deep.query_k_at(3, draw);
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(&x.rep, &y.rep);
                    prop_assert_eq!(x.count, y.count);
                    prop_assert_eq!(x.cell_hash, y.cell_hash);
                    // The reservoir is the one field a duplicate replaces
                    // in a published record's place; an in-place update
                    // of shared coordinates would show here.
                    prop_assert_eq!(&x.reservoir, &y.reservoir);
                }
            }
            // And both equal a from-scratch run over the same prefix.
            let mut rds = builder().build().unwrap();
            for i in 0..*prefix {
                rds.process(entity_point(i, n_entities));
            }
            prop_assert_eq!(snap.seen(), rds.seen());
            prop_assert_eq!(snap.f0_estimate(), rds.f0_estimate());
        }
    }
}
