//! Crash-safety matrix for the spill path: a process killed at any
//! point during an eviction must never lose the tenant's previous good
//! spill container. The spill protocol is write-temp-sibling + rename,
//! so the matrix simulates every observable intermediate state the
//! kill can leave on disk and proves each one recovers.

use rds_geometry::Point;
use rds_tenant::{spill, TenantRegistry, TenantTemplate};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rds-tenant-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn template() -> TenantTemplate {
    let mut t = TenantTemplate::new(1, 0.5);
    t.seed = 7;
    t.expected_len = 256;
    t
}

fn batch(salt: u64, n: u64) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new(vec![((salt + i) % 7) as f64 * 10.0]))
        .collect()
}

/// Every way a kill can interleave with the temp-sibling protocol,
/// expressed as what the next process finds on disk next to the good
/// container written by a completed earlier spill.
#[test]
fn kill_mid_spill_never_loses_the_previous_good_container() {
    let control = TenantRegistry::new(template(), usize::MAX, scratch("ctl")).unwrap();
    control.ingest("t", &batch(0, 40), None).unwrap();

    // debris: (tag, simulated temp-sibling content the kill left behind)
    let debris: [(&str, Option<&str>); 4] = [
        ("clean", None),                               // killed before the write began
        ("empty-tmp", Some("")),                       // killed right after create
        ("partial-tmp", Some("{\"magic\":\"rds-che")), // killed mid-write
        ("full-tmp", Some("not-even-json")),           // killed before the rename
    ];
    for (tag, tmp) in debris {
        let dir = scratch(tag);
        {
            let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
            reg.ingest("t", &batch(0, 40), None).unwrap();
            assert!(reg.evict("t").unwrap(), "complete one good spill");
        }
        let good_path = spill::container_path(&dir, "t");
        assert!(good_path.exists());
        if let Some(content) = tmp {
            // the temp sibling the killed process would have left
            let mut tmp_path = good_path.as_os_str().to_owned();
            tmp_path.push(".tmp-99999");
            std::fs::write(std::path::PathBuf::from(tmp_path), content).unwrap();
        }
        // next process: the tenant restores from the intact container,
        // bit-identical to the never-evicted control
        let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
        assert_eq!(
            reg.f0_estimate("t").unwrap().to_bits(),
            control.f0_estimate("t").unwrap().to_bits(),
            "debris case {tag}: restore diverged"
        );
        assert_eq!(reg.snapshot("t").unwrap().seen(), 40, "debris case {tag}");
    }
}

/// A kill that corrupts the container itself (torn rename on a broken
/// filesystem, bit rot) is detected by the checksum and surfaces as a
/// typed error — the registry refuses to resurrect a damaged tenant
/// rather than silently restarting it empty.
#[test]
fn corrupted_container_is_a_typed_error_not_a_silent_reset() {
    let dir = scratch("corrupt");
    {
        let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
        reg.ingest("t", &batch(0, 40), None).unwrap();
        reg.evict("t").unwrap();
    }
    let path = spill::container_path(&dir, "t");
    let good = std::fs::read_to_string(&path).unwrap();
    let mut bytes = good.into_bytes();
    let pos = bytes.len() / 2;
    bytes[pos] = bytes[pos].wrapping_add(1);
    std::fs::write(&path, bytes).unwrap();

    let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    let err = reg.f0_estimate("t").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("checkpoint rejected"), "got: {msg}");
    // other tenants are unaffected by one tenant's bad container
    assert!(reg.f0_estimate("other").is_ok());
}

/// A spill failure during budget eviction must leave the victim fully
/// serviceable (the sweep stops; the registry runs over budget rather
/// than dropping data).
#[test]
fn failed_spill_leaves_the_victim_resident_and_correct() {
    let dir = scratch("rofail");
    let reg = TenantRegistry::new(template(), usize::MAX, &dir).unwrap();
    reg.ingest("t", &batch(0, 40), None).unwrap();
    let expected = reg.f0_estimate("t").unwrap();
    // make the tenant's shard directory path un-creatable: a *file*
    // squats where the shard dir must go
    let shard_dir = spill::container_path(&dir, "t");
    let shard_dir = shard_dir.parent().unwrap();
    let _ = std::fs::remove_dir_all(shard_dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(shard_dir, b"squatter").unwrap();
    assert!(reg.evict("t").is_err(), "spill must report the failure");
    assert!(
        reg.is_resident("t"),
        "failed spill must not drop the sampler"
    );
    assert_eq!(reg.f0_estimate("t").unwrap().to_bits(), expected.to_bits());
}
