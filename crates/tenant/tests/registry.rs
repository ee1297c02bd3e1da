//! Integration tests of the tenant registry: budget-bounded residency,
//! eviction invisibility (spilled tenants answer bit-identically to
//! never-evicted controls), restart durability, and request validation.

use rds_core::RdsError;
use rds_geometry::Point;
use rds_stream::{Stamp, Window};
use rds_tenant::{spill, TenantRegistry, TenantTemplate, MAX_TENANT_ID_LEN};

/// A fresh scratch spill directory unique to this test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rds-tenant-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn template() -> TenantTemplate {
    let mut t = TenantTemplate::new(1, 0.5);
    t.seed = 42;
    t.expected_len = 256;
    t
}

/// `n` points for tenant-local entity ids derived from `salt`.
fn batch(salt: u64, n: u64) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new(vec![((salt + i) % 7) as f64 * 10.0 + 0.01 * (i % 3) as f64]))
        .collect()
}

#[test]
fn tenants_are_created_on_first_touch_and_answer() {
    let reg = TenantRegistry::new(template(), usize::MAX, scratch("touch")).unwrap();
    let ack = reg.ingest("acme", &batch(0, 50), None).unwrap();
    assert_eq!(ack.seen, 50);
    assert!(ack.words > 0);
    assert!(reg.f0_estimate("acme").unwrap() >= 1.0);
    assert!(reg.query_at("acme", 0).unwrap().is_some());
    // an untouched tenant id is its own empty stream, not an error
    assert_eq!(reg.f0_estimate("fresh").unwrap(), 0.0);
    assert_eq!(reg.stats().tenants, 2);
}

#[test]
fn tenants_are_independent_and_individually_deterministic() {
    let reg = TenantRegistry::new(template(), usize::MAX, scratch("indep")).unwrap();
    reg.ingest("a", &batch(0, 80), None).unwrap();
    reg.ingest("b", &batch(3, 40), None).unwrap();
    assert_eq!(reg.snapshot("a").unwrap().seen(), 80);
    assert_eq!(reg.snapshot("b").unwrap().seen(), 40);

    // a second registry with the same template replays identically
    let reg2 = TenantRegistry::new(template(), usize::MAX, scratch("indep2")).unwrap();
    reg2.ingest("a", &batch(0, 80), None).unwrap();
    assert_eq!(
        reg.f0_estimate("a").unwrap().to_bits(),
        reg2.f0_estimate("a").unwrap().to_bits()
    );
}

#[test]
fn budget_bounds_resident_words_via_eviction() {
    // size the budget off one real tenant's footprint
    let probe = TenantRegistry::new(template(), usize::MAX, scratch("probe")).unwrap();
    probe.ingest("t", &batch(0, 60), None).unwrap();
    let one = probe.stats().resident_words as usize;
    assert!(one > 0);

    let budget = one * 3;
    let reg = TenantRegistry::new(template(), budget, scratch("budget")).unwrap();
    for t in 0..20u64 {
        reg.ingest(&format!("tenant-{t}"), &batch(t, 60), None)
            .unwrap();
        assert!(
            reg.resident_words() <= budget,
            "after tenant {t}: resident {} exceeds budget {budget}",
            reg.resident_words()
        );
    }
    let stats = reg.stats();
    assert_eq!(stats.tenants, 20);
    assert!(stats.resident < 20, "evictions must have happened");
    assert!(stats.spills > 0);
    // every tenant still answers — spilled ones restore transparently
    for t in 0..20u64 {
        assert!(reg.f0_estimate(&format!("tenant-{t}")).unwrap() >= 1.0);
    }
}

#[test]
fn eviction_is_invisible_bit_identical_answers() {
    let control = TenantRegistry::new(template(), usize::MAX, scratch("ctl")).unwrap();
    let squeezed = {
        let probe = TenantRegistry::new(template(), usize::MAX, scratch("sz")).unwrap();
        probe.ingest("t", &batch(0, 60), None).unwrap();
        let one = probe.stats().resident_words as usize;
        // room for roughly two tenants: constant churn across six
        TenantRegistry::new(template(), one * 2, scratch("sq")).unwrap()
    };
    let ids: Vec<String> = (0..6).map(|t| format!("t{t}")).collect();
    // interleaved traffic pattern: each round touches every tenant, so
    // the squeezed registry spills and restores continuously
    for round in 0..5u64 {
        for (t, id) in ids.iter().enumerate() {
            let pts = batch(round * 7 + t as u64, 30);
            control.ingest(id, &pts, None).unwrap();
            squeezed.ingest(id, &pts, None).unwrap();
        }
    }
    assert!(
        squeezed.stats().spills > 0,
        "the squeeze must actually evict"
    );
    assert!(squeezed.stats().restores > 0);
    for id in &ids {
        assert_eq!(
            control.f0_estimate(id).unwrap().to_bits(),
            squeezed.f0_estimate(id).unwrap().to_bits(),
            "tenant {id}: f0 diverged across eviction"
        );
        assert_eq!(
            control.snapshot(id).unwrap().seen(),
            squeezed.snapshot(id).unwrap().seen()
        );
        for draw in 0..4u64 {
            let a = control.query_at(id, draw).unwrap();
            let b = squeezed.query_at(id, draw).unwrap();
            assert_eq!(
                a.as_ref().map(|r| &r.rep),
                b.as_ref().map(|r| &r.rep),
                "tenant {id} draw {draw}: sample diverged across eviction"
            );
            assert_eq!(a.map(|r| r.count), b.map(|r| r.count));
        }
        let ka = control.query_k_at(id, 3, 9).unwrap();
        let kb = squeezed.query_k_at(id, 3, 9).unwrap();
        assert_eq!(ka.len(), kb.len());
        for (x, y) in ka.iter().zip(kb.iter()) {
            assert_eq!(x.rep, y.rep);
        }
    }
}

#[test]
fn spill_all_then_reopen_resumes_every_tenant() {
    let dir = scratch("reopen");
    let control = TenantRegistry::new(template(), usize::MAX, scratch("reopen-ctl")).unwrap();
    {
        let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
        for t in 0..5u64 {
            let id = format!("t{t}");
            reg.ingest(&id, &batch(t, 40), None).unwrap();
            control.ingest(&id, &batch(t, 40), None).unwrap();
        }
        assert_eq!(reg.spill_all().unwrap(), 5);
        assert_eq!(reg.resident_words(), 0);
    }
    // a new process pointed at the same directory
    let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    for t in 0..5u64 {
        let id = format!("t{t}");
        let pts = batch(t + 100, 25);
        reg.ingest(&id, &pts, None).unwrap();
        control.ingest(&id, &pts, None).unwrap();
        assert_eq!(
            reg.f0_estimate(&id).unwrap().to_bits(),
            control.f0_estimate(&id).unwrap().to_bits(),
            "tenant {id}: restart broke bit-identity"
        );
        assert_eq!(reg.snapshot(&id).unwrap().seen(), 65);
    }
}

#[test]
fn windowed_tenants_advance_and_expire() {
    let mut t = template();
    t.window = Window::Time(10);
    let reg = TenantRegistry::new(t, usize::MAX, scratch("window")).unwrap();
    let times: Vec<u64> = (0..30).collect();
    reg.ingest("w", &batch(0, 30), Some(&times)).unwrap();
    let live = reg.f0_estimate("w").unwrap();
    assert!(live >= 1.0);
    // advance far past the window: everything expires
    reg.advance("w", Stamp::new(30, 1_000)).unwrap();
    assert_eq!(reg.f0_estimate("w").unwrap(), 0.0);
}

#[test]
fn explicit_evict_and_residency_probes() {
    let reg = TenantRegistry::new(template(), usize::MAX, scratch("evict")).unwrap();
    reg.ingest("x", &batch(0, 20), None).unwrap();
    assert!(reg.is_resident("x"));
    assert!(reg.evict("x").unwrap());
    assert!(!reg.is_resident("x"));
    assert!(!reg.evict("x").unwrap(), "double evict is a no-op");
    // still answers (restores), and is resident again afterwards
    assert!(reg.f0_estimate("x").unwrap() >= 1.0);
    assert!(reg.is_resident("x"));
    assert!(!reg.evict("never-seen").unwrap());
}

#[test]
fn request_validation_rejects_bad_ids_and_mismatched_times() {
    let reg = TenantRegistry::new(template(), usize::MAX, scratch("validate")).unwrap();
    let bad = [
        String::new(),
        "a/b".to_owned(),
        "a b".to_owned(),
        "\u{e9}".to_owned(),
        "x".repeat(MAX_TENANT_ID_LEN + 1),
    ];
    for id in &bad {
        assert!(
            matches!(reg.f0_estimate(id), Err(RdsError::InvalidTenant { .. })),
            "id {id:?} should be rejected"
        );
    }
    // dots, dashes, underscores are tenant-namespace bread and butter
    for id in ["a.b-c_d", "UPPER", "0", &"y".repeat(MAX_TENANT_ID_LEN)] {
        assert!(reg.f0_estimate(id).is_ok(), "id {id:?} should be accepted");
    }
    let err = reg.ingest("ok", &batch(0, 3), Some(&[1, 2])).unwrap_err();
    assert!(matches!(err, RdsError::InvalidTenant { .. }));
}

#[test]
fn stats_track_lifecycle_counters() {
    let reg = TenantRegistry::new(template(), usize::MAX, scratch("stats")).unwrap();
    assert_eq!(reg.stats().tenants, 0);
    reg.ingest("a", &batch(0, 10), None).unwrap();
    reg.ingest("b", &batch(1, 10), None).unwrap();
    let s = reg.stats();
    assert_eq!((s.tenants, s.resident, s.creates), (2, 2, 2));
    assert_eq!((s.spills, s.restores), (0, 0));
    assert!(s.resident_words > 0);
    reg.evict("a").unwrap();
    reg.f0_estimate("a").unwrap();
    let s = reg.stats();
    assert_eq!((s.spills, s.restores), (1, 1));
    assert_eq!(s.creates, 2, "restore must not count as a create");
}

#[test]
fn concurrent_tenants_under_pressure_stay_consistent() {
    use std::sync::Arc;
    let probe = TenantRegistry::new(template(), usize::MAX, scratch("conc-probe")).unwrap();
    probe.ingest("t", &batch(0, 60), None).unwrap();
    let one = probe.stats().resident_words as usize;
    let reg = Arc::new(TenantRegistry::new(template(), one * 3, scratch("conc")).unwrap());
    let mut handles = Vec::new();
    for w in 0..4u64 {
        let reg = Arc::clone(&reg);
        handles.push(std::thread::spawn(move || {
            // each worker owns two tenants: per-tenant traffic is
            // single-writer, the budget pressure is cross-thread
            for round in 0..6u64 {
                for t in [w * 2, w * 2 + 1] {
                    let id = format!("c{t}");
                    reg.ingest(&id, &batch(round + t, 25), None).unwrap();
                    assert!(reg.f0_estimate(&id).unwrap() >= 1.0);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = reg.stats();
    assert_eq!(stats.tenants, 8);
    for t in 0..8u64 {
        assert_eq!(reg.snapshot(&format!("c{t}")).unwrap().seen(), 150);
    }
}

// ---- write-back eviction ---------------------------------------------

/// Asserts that tenant `id` answers bit-identically in both registries:
/// epoch, items seen, F0 estimate, single draws and a `query_k`.
fn assert_same_tenant(reg: &TenantRegistry, control: &TenantRegistry, id: &str) {
    let (a, b) = (reg.snapshot(id).unwrap(), control.snapshot(id).unwrap());
    assert_eq!(a.epoch(), b.epoch(), "tenant {id}: epoch");
    assert_eq!(a.seen(), b.seen(), "tenant {id}: seen");
    assert_eq!(
        reg.f0_estimate(id).unwrap().to_bits(),
        control.f0_estimate(id).unwrap().to_bits(),
        "tenant {id}: f0"
    );
    for draw in 0..4u64 {
        let (x, y) = (
            reg.query_at(id, draw).unwrap(),
            control.query_at(id, draw).unwrap(),
        );
        assert_eq!(
            x.as_ref().map(|r| (&r.rep, r.count, &r.reservoir)),
            y.as_ref().map(|r| (&r.rep, r.count, &r.reservoir)),
            "tenant {id} draw {draw}"
        );
    }
    let (ka, kb) = (
        reg.query_k_at(id, 3, 9).unwrap(),
        control.query_k_at(id, 3, 9).unwrap(),
    );
    let reps = |k: &[rds_core::GroupRecord]| k.iter().map(|r| r.rep.clone()).collect::<Vec<_>>();
    assert_eq!(reps(&ka), reps(&kb), "tenant {id}: query_k");
}

/// A container's bytes and modification time: a rewrite (temp sibling
/// plus rename) changes the time even when it writes the same bytes.
fn stored(dir: &std::path::Path, id: &str) -> (Vec<u8>, std::time::SystemTime) {
    let path = spill::container_path(dir, id);
    let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
    (std::fs::read(&path).unwrap(), modified)
}

#[test]
fn a_tenant_restored_only_to_read_is_evicted_without_a_write() {
    let dir = scratch("wb-read");
    let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    let control = TenantRegistry::new(template(), usize::MAX, scratch("wb-read-ctl")).unwrap();
    let pts = batch(3, 40);
    reg.ingest("r", &pts, None).unwrap();
    control.ingest("r", &pts, None).unwrap();
    assert!(reg.evict("r").unwrap());
    let written = stored(&dir, "r");
    let s = reg.stats();
    assert_eq!((s.spills, s.unchanged_evictions), (1, 0));
    for round in 0..3 {
        // a read restores the tenant; evicting it again writes nothing
        assert_same_tenant(&reg, &control, "r");
        assert!(reg.evict("r").unwrap(), "round {round}");
        assert!(!reg.is_resident("r"));
        assert!(
            stored(&dir, "r") == written,
            "round {round}: container rewritten"
        );
    }
    let s = reg.stats();
    assert_eq!((s.spills, s.unchanged_evictions), (1, 3));
    assert_eq!((s.restores, s.creates), (3, 1));
    assert_eq!((s.resident, s.resident_words), (0, 0));
    // the next ingest continues from exactly the evicted state
    let more = batch(11, 25);
    reg.ingest("r", &more, None).unwrap();
    control.ingest("r", &more, None).unwrap();
    assert_same_tenant(&reg, &control, "r");
}

#[test]
fn a_container_saved_dirty_restores_at_the_same_epoch_every_time() {
    // A container captured after items the writer had not published
    // restores under the next epoch. Dropping the unchanged writer and
    // restoring again must land on that same epoch, not one more.
    let dir = scratch("wb-dirty");
    let t = template();
    let (mut writer, _reader) = robust_distinct_sampling::Rds::builder()
        .dim(t.dim)
        .alpha(t.alpha)
        .window(t.window)
        .shards(1)
        .seed(t.tenant_seed("d"))
        .expected_len(t.expected_len)
        .publish_cadence(robust_distinct_sampling::PublishCadence::Manual)
        .build_split()
        .unwrap();
    for p in batch(5, 30) {
        writer.process(p);
    }
    let chk = writer.checkpoint();
    let saved_epoch = chk.epoch();
    spill::write_container(&dir, "d", &chk.to_container_json()).unwrap();
    let reg = TenantRegistry::new(t, usize::MAX, &dir).unwrap();
    let first = reg.snapshot("d").unwrap();
    assert_eq!(first.epoch(), saved_epoch + 1);
    for _ in 0..2 {
        assert!(reg.evict("d").unwrap());
        let again = reg.snapshot("d").unwrap();
        assert_eq!(again.epoch(), first.epoch());
        assert_eq!(again.f0_estimate().to_bits(), first.f0_estimate().to_bits());
    }
    assert_eq!(reg.stats().spills, 0);
}

#[test]
fn a_tenant_first_touched_by_a_read_leaves_no_container() {
    let dir = scratch("wb-fresh");
    let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    let control = TenantRegistry::new(template(), usize::MAX, scratch("wb-fresh-ctl")).unwrap();
    assert_eq!(reg.f0_estimate("q").unwrap(), 0.0);
    assert!(reg.evict("q").unwrap());
    assert!(!spill::container_path(&dir, "q").exists());
    let s = reg.stats();
    assert_eq!((s.creates, s.restores), (1, 0));
    assert_eq!((s.spills, s.unchanged_evictions), (0, 1));
    // its next touch builds it from the template again
    let pts = batch(1, 30);
    reg.ingest("q", &pts, None).unwrap();
    control.ingest("q", &pts, None).unwrap();
    assert_eq!(reg.stats().creates, 2);
    assert_same_tenant(&reg, &control, "q");
}

#[test]
fn a_change_after_a_restore_makes_the_next_eviction_write() {
    let dir = scratch("wb-change");
    let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    let control = TenantRegistry::new(template(), usize::MAX, scratch("wb-change-ctl")).unwrap();
    for (round, salt) in [0u64, 4, 9].into_iter().enumerate() {
        let pts = batch(salt, 20);
        // the first round creates the tenant, later ones restore it
        reg.ingest("c", &pts, None).unwrap();
        control.ingest("c", &pts, None).unwrap();
        let before = spill::container_path(&dir, "c")
            .exists()
            .then(|| stored(&dir, "c"));
        assert!(reg.evict("c").unwrap());
        assert!(Some(stored(&dir, "c")) != before, "round {round}: no write");
        let s = reg.stats();
        assert_eq!((s.spills, s.unchanged_evictions), (round as u64 + 1, 0));
    }
    // a new process on the same directory resumes the last write
    let reopened = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    assert_same_tenant(&reopened, &control, "c");

    // an advance after a restore is a change too
    let mut t = template();
    t.window = Window::Time(10);
    let dir = scratch("wb-advance");
    let reg = TenantRegistry::new(t.clone(), usize::MAX, &dir).unwrap();
    let times: Vec<u64> = (0..20).collect();
    reg.ingest("w", &batch(0, 20), Some(&times)).unwrap();
    assert!(reg.evict("w").unwrap());
    assert!(reg.f0_estimate("w").unwrap() >= 1.0);
    reg.advance("w", Stamp::new(20, 1_000)).unwrap();
    assert!(reg.evict("w").unwrap());
    assert_eq!(reg.stats().spills, 2);
    let reopened = TenantRegistry::new(t, usize::MAX, &dir).unwrap();
    assert_eq!(
        reopened.f0_estimate("w").unwrap(),
        0.0,
        "the advance was lost"
    );
}

#[test]
fn spill_all_after_read_only_traffic_still_resumes_every_tenant() {
    let dir = scratch("wb-reopen");
    let control = TenantRegistry::new(template(), usize::MAX, scratch("wb-reopen-ctl")).unwrap();
    let ids: Vec<String> = (0..5).map(|t| format!("t{t}")).collect();
    {
        let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
        for (t, id) in ids.iter().enumerate() {
            let pts = batch(t as u64, 30);
            reg.ingest(id, &pts, None).unwrap();
            control.ingest(id, &pts, None).unwrap();
        }
        assert_eq!(reg.spill_all().unwrap(), 5);
    }
    {
        // read-only traffic: every tenant restores, one more is created
        let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
        for id in &ids {
            assert_same_tenant(&reg, &control, id);
        }
        assert_eq!(reg.f0_estimate("reader-only").unwrap(), 0.0);
        assert_eq!(reg.spill_all().unwrap(), 6);
        let s = reg.stats();
        assert_eq!((s.restores, s.creates), (5, 1));
        assert_eq!((s.spills, s.unchanged_evictions), (0, 6));
        assert_eq!(reg.resident_words(), 0);
    }
    let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    for (t, id) in ids
        .iter()
        .chain(["reader-only".to_owned()].iter())
        .enumerate()
    {
        let pts = batch(t as u64 + 50, 15);
        reg.ingest(id, &pts, None).unwrap();
        control.ingest(id, &pts, None).unwrap();
        assert_same_tenant(&reg, &control, id);
    }
}
