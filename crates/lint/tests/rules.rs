//! Fixture-driven integration tests: every rule gets at least one true
//! positive and one false-positive guard, the allow comment gets its
//! full matrix, and the lexer edge cases prove strings/comments/test
//! regions never leak findings.

use rds_lint::{check_file, Finding};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Scans a fixture as if it lived at `path` in the workspace.
fn scan_as(name: &str, path: &str) -> Vec<Finding> {
    check_file(path, &fixture(name))
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

const CORE_PATH: &str = "crates/core/src/fixture_under_test.rs";

#[test]
fn l1_flags_panicking_constructs_and_spares_the_guards() {
    let f = scan_as("l1_cases.rs", CORE_PATH);
    assert_eq!(
        lines_of(&f, "L1"),
        vec![5, 9, 13, 19, 24],
        "unwrap/expect/panic!/unreachable!/xs[0]: {f:?}"
    );
    // nothing else fires: the .get(0), the pattern, the array type and
    // the whole #[cfg(test)] mod are guards
    assert_eq!(f.len(), 5, "{f:?}");
}

#[test]
fn l1_is_scoped_to_core_engine_and_facade() {
    // same content in a non-serving crate or a test tree: silent
    assert!(scan_as("l1_cases.rs", "crates/hashing/src/lib.rs").is_empty());
    assert!(scan_as("l1_cases.rs", "tests/integration.rs").is_empty());
    assert!(scan_as("l1_cases.rs", "crates/core/benches/speed.rs").is_empty());
    // ... but the engine and the umbrella facade are serving paths
    assert_eq!(
        lines_of(&scan_as("l1_cases.rs", "crates/engine/src/lib.rs"), "L1").len(),
        5
    );
    assert_eq!(
        lines_of(&scan_as("l1_cases.rs", "src/facade.rs"), "L1").len(),
        5
    );
}

#[test]
fn allow_comments_suppress_bind_and_misfire_exactly_as_specified() {
    let f = scan_as("l1_allow_cases.rs", CORE_PATH);
    // trailing, standalone and multi-line-standalone allows suppress
    // their target; the empty-justification and unknown-rule allows are
    // themselves L0 findings AND leave the violation standing; an allow
    // for the wrong rule suppresses nothing
    assert_eq!(lines_of(&f, "L0"), vec![20, 25], "{f:?}");
    assert_eq!(lines_of(&f, "L1"), vec![21, 26, 31], "{f:?}");
    assert_eq!(f.len(), 5, "{f:?}");
}

#[test]
fn l2_flags_raw_writes_everywhere_but_the_blessed_module() {
    let f = scan_as("l2_cases.rs", CORE_PATH);
    assert_eq!(lines_of(&f, "L2"), vec![7, 11, 15, 19], "{f:?}");
    // the CLI is in scope for L2 even though it is exempt from L1
    assert_eq!(
        lines_of(&scan_as("l2_cases.rs", "crates/cli/src/lib.rs"), "L2").len(),
        4
    );
    // the blessed atomic-write helper is the one file allowed to do this
    assert!(scan_as("l2_cases.rs", "crates/core/src/persist.rs").is_empty());
}

#[test]
fn l3_flags_ambient_time_and_entropy() {
    let f = scan_as("l3_cases.rs", CORE_PATH);
    assert_eq!(lines_of(&f, "L3"), vec![6, 10, 14, 19], "{f:?}");
    // seeded RNGs, our own clock type and test timing are guards
    assert_eq!(f.len(), 4, "{f:?}");
}

#[test]
fn l4_requires_a_fallible_sibling_and_a_panic_free_body() {
    let missing = scan_as("l4_missing_sibling.rs", CORE_PATH);
    assert_eq!(lines_of(&missing, "L4"), vec![8], "{missing:?}");

    let with = scan_as("l4_with_sibling.rs", CORE_PATH);
    // the sibling exists, so only the assert! in the body fires; the
    // panic-free delegating new is a guard
    assert_eq!(lines_of(&with, "L4"), vec![10], "{with:?}");

    // L4 is a core-only contract
    assert!(scan_as("l4_missing_sibling.rs", "crates/engine/src/lib.rs").is_empty());
}

#[test]
fn l5_flags_literal_construction_but_not_patterns() {
    let f = scan_as("l5_cases.rs", CORE_PATH);
    assert_eq!(lines_of(&f, "L5"), vec![5, 9], "{f:?}");
    assert_eq!(f.len(), 2, "matches!/match-arm/if-let are guards: {f:?}");
    // the error module itself defines RdsError::checkpoint() and is blessed
    assert!(scan_as("l5_cases.rs", "crates/core/src/error.rs").is_empty());
}

#[test]
fn l6_flags_locks_in_frozen_impls_and_the_publication_path() {
    let f = scan_as("l6_cases.rs", CORE_PATH);
    // 11/25/26: locks inside frozen reader impls; 52/53: locks inside
    // impl SnapshotCell; 59/65/74: full-summary clones inside
    // SnapshotCell, fn freeze and RdsWriter::publish
    assert_eq!(
        lines_of(&f, "L6"),
        vec![11, 25, 26, 52, 53, 59, 65, 74],
        "{f:?}"
    );
    // guards: WriterCell::publish locks freely (not RdsWriter), and
    // summary clones outside the publication path never fire
    assert_eq!(f.len(), 8, "{f:?}");
}

#[test]
fn l6_reports_a_facade_without_a_publication_path_to_scan() {
    // the facade must hold both publication-path bodies; a missing one is
    // reported at the top of the file
    let f = scan_as("l6_missing_publication_path.rs", "src/facade.rs");
    assert_eq!(lines_of(&f, "L6"), vec![1], "{f:?}");
    assert!(f[0].message.contains("fn freeze"), "{f:?}");
    // guards: the same file elsewhere in the workspace is not the facade,
    // and a facade with both bodies draws only its ordinary findings
    assert!(scan_as("l6_missing_publication_path.rs", CORE_PATH).is_empty());
    let f = scan_as("l6_cases.rs", "src/facade.rs");
    assert_eq!(
        lines_of(&f, "L6"),
        vec![11, 25, 26, 52, 53, 59, 65, 74],
        "{f:?}"
    );
}

#[test]
fn l7_flags_narrowing_casts_of_protected_names_only() {
    let f = scan_as("l7_cases.rs", CORE_PATH);
    assert_eq!(lines_of(&f, "L7"), vec![4, 8, 12, 16], "{f:?}");
    // widening, float conversion and unprotected names are guards
    assert_eq!(f.len(), 4, "{f:?}");
}

#[test]
fn l8_flags_panicking_constructs_on_the_server_request_path() {
    let f = scan_as("l8_cases.rs", "crates/server/src/handlers/ingest.rs");
    assert_eq!(lines_of(&f, "L8"), vec![5, 9, 13, 17], "{f:?}");
    // the allow comment, the .get() spelling and the test mod are guards
    assert_eq!(f.len(), 4, "{f:?}");
    // the remedy clause names the envelope contract, not RdsError
    assert!(
        f.iter()
            .filter(|x| x.line != 17) // the indexing message is rule-neutral
            .all(|x| x.message.contains("4xx error envelope")),
        "{f:?}"
    );
}

#[test]
fn l8_is_scoped_to_the_server_crate_and_l1_stays_off_it() {
    // the same content elsewhere is L1 territory (or silent), never L8
    assert!(lines_of(&scan_as("l8_cases.rs", CORE_PATH), "L8").is_empty());
    assert!(scan_as("l8_cases.rs", "crates/hashing/src/lib.rs").is_empty());
    // server test trees and the http robustness suite may panic freely
    assert!(scan_as("l8_cases.rs", "crates/server/tests/http_robustness.rs").is_empty());
    // L1 does not double-report the server crate
    let server = scan_as("l1_cases.rs", "crates/server/src/http.rs");
    assert!(lines_of(&server, "L1").is_empty(), "{server:?}");
    assert_eq!(lines_of(&server, "L8").len(), 5, "{server:?}");
}

#[test]
fn l9_flags_spill_io_under_registry_wide_guards_and_tenant_panics() {
    let f = scan_as("l9_cases.rs", "crates/tenant/src/registry.rs");
    // 7: write_container under the map guard; 13: spill_slot under the
    // ring guard; 42: .unwrap() on the tenant path. Guards: I/O after
    // drop(guard), outside a scoped temporary, under a per-tenant slot
    // lock, after the guard's block closes, the allow'd expect and the
    // test mod.
    assert_eq!(lines_of(&f, "L9"), vec![7, 13, 42], "{f:?}");
    assert_eq!(f.len(), 3, "{f:?}");
    // the lock-discipline message names the remedy
    assert!(
        f.iter()
            .filter(|x| x.line != 42)
            .all(|x| x.message.contains("drop the guard")),
        "{f:?}"
    );
}

#[test]
fn l9_is_scoped_to_the_tenant_crate() {
    // the same content in core is L1 territory (the two panics), never L9
    let core = scan_as("l9_cases.rs", CORE_PATH);
    assert!(lines_of(&core, "L9").is_empty(), "{core:?}");
    assert_eq!(lines_of(&core, "L1"), vec![42, 47], "{core:?}");
    // tenant test trees and unrelated crates stay silent
    assert!(scan_as("l9_cases.rs", "crates/tenant/tests/registry.rs").is_empty());
    assert!(scan_as("l9_cases.rs", "crates/hashing/src/lib.rs").is_empty());
    // L1/L8 do not double-report the tenant crate
    let tenant = scan_as("l1_cases.rs", "crates/tenant/src/registry.rs");
    assert!(lines_of(&tenant, "L1").is_empty(), "{tenant:?}");
    assert!(lines_of(&tenant, "L8").is_empty(), "{tenant:?}");
    assert_eq!(lines_of(&tenant, "L9").len(), 5, "{tenant:?}");
}

#[test]
fn l10_flags_maps_and_allocation_in_hot_path_fns_only() {
    let f = scan_as("l10_cases.rs", CORE_PATH);
    // 5/6: std maps; 7: Vec::new; 8: vec!; 13: format!; 14: .collect();
    // 20: Box::new; 21: .to_vec(). Guards: the p.clone() on the hot
    // path, the allocating process_batch_keyed and double_rate bodies
    // (cold/amortized paths, not in the scanned name set) and the test
    // mod.
    assert_eq!(
        lines_of(&f, "L10"),
        vec![5, 6, 7, 8, 13, 14, 20, 21],
        "{f:?}"
    );
    assert_eq!(f.len(), 8, "{f:?}");
    // the map message names the blessed index, the allocation messages
    // name the remedy
    assert!(
        f.iter()
            .all(|x| { x.message.contains("CandidateStore") || x.message.contains("the sampler") }),
        "{f:?}"
    );
}

#[test]
fn l10_is_scoped_to_core_library_code() {
    // the same content outside rds-core, or in any test tree, is silent
    assert!(lines_of(&scan_as("l10_cases.rs", "crates/engine/src/lib.rs"), "L10").is_empty());
    assert!(scan_as("l10_cases.rs", "crates/hashing/src/lib.rs").is_empty());
    assert!(scan_as("l10_cases.rs", "crates/core/tests/hot_path.rs").is_empty());
    assert!(scan_as("l10_cases.rs", "crates/core/benches/speed.rs").is_empty());
}

#[test]
fn l2_covers_the_tenant_crate() {
    // raw writes in the tenant crate would bypass the atomic helper the
    // spill containers depend on
    assert_eq!(
        lines_of(&scan_as("l2_cases.rs", "crates/tenant/src/spill.rs"), "L2").len(),
        4
    );
}

#[test]
fn l2_covers_the_server_crate() {
    // a server handler writing raw files would bypass the atomic helper
    assert_eq!(
        lines_of(
            &scan_as("l2_cases.rs", "crates/server/src/handlers/admin.rs"),
            "L2"
        )
        .len(),
        4
    );
}

#[test]
fn lexer_edges_hide_everything_except_the_live_violation() {
    let f = scan_as("lexer_edges.rs", CORE_PATH);
    // raw/nested-raw/byte strings, block comments, lifetimes, char
    // literals, raw identifiers and the test mod all stay silent; the
    // unwrap under the multi-line attribute is the one real finding
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "L1");
    assert_eq!(f[0].line, 54);
}

#[test]
fn fixture_paths_are_exempt_wholesale() {
    // the fixtures directory itself is never scanned as library code
    for name in [
        "l1_cases.rs",
        "l2_cases.rs",
        "l3_cases.rs",
        "l5_cases.rs",
        "l7_cases.rs",
        "l9_cases.rs",
        "l10_cases.rs",
    ] {
        let path = format!("crates/lint/tests/fixtures/{name}");
        assert!(scan_as(name, &path).is_empty(), "{name} leaked findings");
    }
}

#[test]
fn findings_render_as_file_line_col_diagnostics() {
    let f = scan_as("l1_cases.rs", CORE_PATH);
    let text = rds_lint::report::render_text(&f);
    assert!(
        text.lines()
            .next()
            .unwrap_or_default()
            .starts_with("crates/core/src/fixture_under_test.rs:5:"),
        "{text}"
    );
    let json = rds_lint::report::render_json("/root/repo", 1, &f);
    assert!(json.contains("\"finding_count\": 5"), "{json}");
}
