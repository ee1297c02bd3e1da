#!/usr/bin/env bash
# Tier-1 gate for the workspace, as one command. Everything runs offline
# against the vendored shims; no network access is required.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check (the workspace stays rustfmt-clean)"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (workspace, includes doctests)"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings (all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rds-lint (repo invariants: panic-free serving path, atomic writes, determinism)"
cargo run -q -p rds-lint
test -s LINT_report.json || { echo "LINT_report.json missing"; exit 1; }
grep -q '"finding_count": 0' LINT_report.json || {
    echo "LINT_report.json records findings"; exit 1; }

echo "==> cargo doc --no-deps (warnings denied; public surface stays documented)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p robust-distinct-sampling -p rds-core -p rds-engine -p rds-cli \
    -p rds-geometry -p rds-hashing -p rds-stream -p rds-metrics \
    -p rds-datasets -p rds-baselines -p rds-server -p rds-tenant

echo "==> figures smoke (the Section 6 harness runs and exits cleanly)"
target/release/figures f0 > /dev/null
target/release/figures sw --runs 200 > /dev/null

echo "==> perfbench unit tests"
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline \
    --manifest-path perfbench/Cargo.toml

# perf_gate WORKLOAD TRACE [METRIC OP BOUND]...
# One 3 s perfbench run. Fails when run.py exits nonzero, when the
# result line says "correct": false, or when a METRIC misses its BOUND
# (OP is ">=" for a floor, "<=" for a ceiling).
perf_gate() {
    local workload=$1 trace=$2 out
    shift 2
    out=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 \
        --trace "$trace") || { echo "perfbench $workload exited nonzero"; return 1; }
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
name, gates = sys.argv[1], sys.argv[2:]
failed, attempted = result["failed"], result["attempted"]
if not result["correct"]:
    sys.exit(f"perfbench {name}: {failed} of {attempted} operations or checks failed")
print(f"    {name}: all {attempted} operations and checks passed")
for metric, op, bound in zip(gates[::3], gates[1::3], map(float, gates[2::3])):
    value = result["metrics"][metric]["value"]
    print(f"    {name} {metric}: {value:,.0f} (bound {op} {bound:,.0f})")
    if not (value >= bound if op == ">=" else value <= bound):
        sys.exit(f"perfbench {name}: {metric} {value:,.0f} missed its bound {op} {bound:,.0f}")
' "$workload" "$@"
}

echo "==> perfbench gates (3 s runs)"
# Bounds sit at most half the slowest (floors) or at least 3x the
# highest (ceilings) of 5-10 runs on a 2-vCPU VM; CHANGES.md lists them.
# R^5 arrival: a duplicate check that falls back to a linear scan ran
# `sample` at ~0.88M pts/s; the bucket index with shared point
# coordinates runs it at 6.3-7.5M (5.0-5.5M with copied coordinates, so
# tests/concurrent_split.rs, not this floor, guards the sharing).
perf_gate sample 0 ingest_pts_per_s ">=" 3000000
# Sharded publication: a linear summary merge (O(F0^2) per publish)
# runs `count` at 0.47-0.53M pts/s, an indexed merge from empty on
# every publish at ~2.5M, and the engine's incremental merge at
# 3.26-4.32M (six 3 s runs). The floor cannot tell the last two apart:
# tests/merge_incremental.rs pins that every publish after a `count`
# episode's first merges incrementally.
perf_gate count 0 ingest_pts_per_s ">=" 1300000
# Per-layer ceilings. A store probe that walks the candidate chain
# costs ~2,200 ns (indexed: 85-130 ns) yet passes both floors above;
# a linear merge costs 2.9-3.4 ms (indexed, from empty: 0.35-0.53 ms).
# A summary_cow that clones every record of count's 1,200-group sampler
# into new vectors costs 29-44 us; one that rewrites the summary from
# two calls back in place costs 4.4-7.8 us (fifteen traced runs).
perf_gate count 1 core.probe_ns "<=" 600 core.merge_many_ns "<=" 1200000 \
    core.summary_cow_ns "<=" 24000
# The server and the tenant layer: every response parses and matches
# an in-process replay bit for bit, the server drains on shutdown,
# resident words stay within budget after every operation, and evicted
# tenants answer as an eviction-free control does.
perf_gate http 0
perf_gate tenants 0
# The unloaded round trip over loopback: writes 58-90 us and reads
# 36-63 us (ten 3 s traced runs) with each response sent in one write,
# 90-113 and 66-99 us (three runs) when every response went out as ten
# TCP segments. A stall of the delayed-ACK class costs tens of ms; the
# write count itself is pinned by
# handlers::tests::each_response_leaves_in_one_write.
perf_gate http 1 server.unloaded_write_us "<=" 300 server.unloaded_read_us "<=" 200
# Tenant containers: sealing and reopening a ~3.2 KB container took
# 46-82 and 90-159 us (nine 3 s traced runs) when the codec cloned the
# value tree and the reader re-serialized the payload to checksum it,
# and 27-88 and 32-57 us (five runs) with numbers formatted in place,
# no tree copies and the checksum over the stored bytes.
perf_gate tenants 1 tenant.seal_ns "<=" 270000 tenant.open_ns "<=" 180000

echo "==> concurrent writer/reader stress suite (--release)"
cargo test -q --release --test concurrent_split

echo "==> checkpoint crash-recovery + round-trip property suites (--release)"
cargo test -q --release --test checkpoint --test checkpoint_props

echo "==> merge/uniformity/window-boundary/conformance test suite"
cargo test -q --test distributed_props --test merge_differential --test merge_incremental \
    --test uniformity --test sliding_window_bounds --test trait_conformance
cargo test -q -p rds-engine

echo "==> HTTP server robustness + e2e suites"
cargo test -q -p rds-server
cargo test -q --release --test server_e2e

echo "==> tenant registry suites (eviction invisibility, crash matrix, HTTP e2e)"
cargo test -q -p rds-tenant
cargo test -q --release --test tenant_e2e

echo "==> examples run"
for ex in quickstart f0_monitor tweet_window video_dedup; do
    cargo run -q --release --example "$ex" > /dev/null
done

echo "ci.sh: all green"
