#!/usr/bin/env bash
# Tier-1 gate for the workspace, as one command. Everything runs offline
# against the vendored shims; no network access is required.
set -euo pipefail
cd "$(dirname "$0")"

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

echo "==> benches compile"
cargo bench -p rds-bench --no-run

echo "==> sharded-engine throughput smoke bench (emits BENCH_engine.json)"
RDS_BENCH_FAST=1 RDS_BENCH_OUT="$PWD/BENCH_engine.json" \
    cargo bench -p rds-bench --bench engine
test -s BENCH_engine.json || { echo "BENCH_engine.json missing"; exit 1; }

echo "==> unsharded ingest throughput gate (cell-indexed store, PR 10)"
# The cell-indexed candidate store took the smoke-mode unsharded loop
# from ~2.56M points/s (linear candidate scan) to ~5.3-5.9M on a quiet
# box. The floor sits well below the quiet-box rate to absorb shared-
# runner noise while staying far above the linear-scan era — a slide
# back to per-point scans cannot pass it.
UNSHARDED_FLOOR=3200000
python3 - "$UNSHARDED_FLOOR" <<'EOF'
import json, sys
floor = float(sys.argv[1])
with open("BENCH_engine.json") as fh:
    report = json.load(fh)
rate = report["unsharded_points_per_sec"]
print(f"    unsharded ingest: {rate:,.0f} pts/s (floor {floor:,.0f})")
if rate < floor:
    sys.exit(f"unsharded ingest rate {rate:,.0f} pts/s fell below the "
             f"committed floor {floor:,.0f}")
EOF

echo "==> writer-under-load regression gate (CoW publication, PR 7)"
# The writer serving 4 concurrent readers must keep at least this
# fraction of the standalone unsharded ingest rate. Before O(changes)
# copy-on-write publication the ratio was ~0.05; with it the smoke run
# sat around 0.6. The cell-indexed store (PR 10) then made the
# denominator ~2.3x faster — the writer sped up too, but it also pays
# routing, channel, and publication costs the raw loop does not, so
# the steady ratio now sits around 0.2-0.3 with noisy samples down to
# ~0.155. The floor still catches a regression toward full-copy
# publishes (~0.05) by a wide margin.
WRITER_LOAD_FLOOR=0.12
python3 - "$WRITER_LOAD_FLOOR" <<'EOF'
import json, sys
floor = float(sys.argv[1])
with open("BENCH_engine.json") as fh:
    report = json.load(fh)
writer = report["concurrent"]["writer_points_per_sec"]
base = report["unsharded_points_per_sec"]
ratio = writer / base
print(f"    writer under load: {writer:,.0f} pts/s "
      f"/ standalone {base:,.0f} pts/s = {ratio:.2f} (floor {floor})")
if ratio < floor:
    sys.exit(f"writer-under-load ratio {ratio:.3f} fell below the "
             f"committed floor {floor}")
EOF

echo "==> R^5 arrival gate (perfbench sample workload)"
# The engine smoke above runs R^2 only. The benchmark's sample workload
# runs Algorithm 1 at the paper's dimension (Rand5, 98% duplicates).
# While duplicate detection fell back to a linear scan in R^5 it ingested
# ~0.88M pts/s on a 2-vCPU VM; the bucket index runs it at 4.3M or more.
# The floor sits far below the indexed rate and far above the scan era.
R5_FLOOR=2000000
R5_OUT=$(mktemp)
python3 perfbench/run.py --workload sample --seed 1 --seconds 3 --trace 0 > "$R5_OUT"
python3 - "$R5_FLOOR" "$R5_OUT" <<'EOF'
import json, sys
floor = float(sys.argv[1])
with open(sys.argv[2]) as fh:
    result = json.loads(fh.read().strip().splitlines()[-1])
rate = result["metrics"]["ingest_pts_per_s"]["value"]
print(f"    R^5 sample ingest: {rate:,.0f} pts/s (floor {floor:,.0f})")
if rate < floor:
    sys.exit(f"R^5 sample ingest rate {rate:,.0f} pts/s fell below the "
             f"committed floor {floor:,.0f}")
EOF
rm -f "$R5_OUT"

echo "==> concurrent writer/reader stress suite (--release)"
cargo test -q --release --test concurrent_split

echo "==> checkpoint crash-recovery + round-trip property suites (--release)"
cargo test -q --release --test checkpoint --test checkpoint_props

echo "==> CLI checkpoint smoke (save, crash, restore+resume, count)"
cargo build -q --release -p rds-cli
CHK_DIR=$(mktemp -d)
for i in $(seq 0 119); do echo "$(( (i % 12) * 10 )).0"; done > "$CHK_DIR/all.csv"
head -60 "$CHK_DIR/all.csv" > "$CHK_DIR/first.csv"
tail -60 "$CHK_DIR/all.csv" > "$CHK_DIR/second.csv"
target/release/rds checkpoint save "$CHK_DIR/half.chk" \
    --alpha 0.5 --seed 5 --shards 2 < "$CHK_DIR/first.csv" > "$CHK_DIR/save.out"
pre_crash=$(grep -o 'f0 [0-9.]*' "$CHK_DIR/save.out")
target/release/rds checkpoint restore "$CHK_DIR/half.chk" \
    < "$CHK_DIR/second.csv" > "$CHK_DIR/restore.out"
restored=$(grep -o 'f0 [0-9.]*' "$CHK_DIR/restore.out")
counted=$(target/release/rds count --alpha 0.5 --eps 1.0 --seed 5 < "$CHK_DIR/all.csv")
echo "    pre-crash: $pre_crash | restored+resumed: $restored | uninterrupted count: $counted"
[ -n "$pre_crash" ] && [ "$restored" = "$pre_crash" ] || {
    echo "restored estimate '$restored' does not match pre-crash '$pre_crash'"; exit 1; }
[ "$counted" = "12.0" ] && [ "$restored" = "f0 12.0" ] || {
    echo "crash-recovered estimate diverged from the uninterrupted count"; exit 1; }
rm -rf "$CHK_DIR"

echo "==> merge/uniformity/window-boundary/conformance test suite"
cargo test -q --test distributed_props --test merge_differential --test uniformity \
    --test sliding_window_bounds --test trait_conformance
cargo test -q -p rds-engine

echo "==> HTTP server robustness + e2e suites"
cargo test -q -p rds-server
cargo test -q --release --test server_e2e

echo "==> HTTP server smoke (serve on an ephemeral port, load, drain; emits BENCH_server.json)"
cargo build -q --release -p rds-bench --bin loadgen
SRV_DIR=$(mktemp -d)
target/release/rds serve --addr 127.0.0.1:0 --dim 2 --alpha 0.5 \
    --seed 42 --publish-every 256 > "$SRV_DIR/serve.out" 2>"$SRV_DIR/serve.err" &
SRV_PID=$!
SRV_ADDR=""
for _ in $(seq 1 100); do
    SRV_ADDR=$(sed -n 's/^rds-server listening on //p' "$SRV_DIR/serve.out")
    [ -n "$SRV_ADDR" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || { cat "$SRV_DIR/serve.err"; exit 1; }
    sleep 0.1
done
[ -n "$SRV_ADDR" ] || { echo "server never announced its address"; kill "$SRV_PID"; exit 1; }
# the loadgen readiness-polls /healthz, fires the mixed workload, posts
# /admin/shutdown, and exits nonzero on any 5xx / dropped connection /
# failed drain — that exit code is the gate
RDS_BENCH_FAST=1 RDS_BENCH_OUT="$PWD/BENCH_server.json" \
    target/release/loadgen --addr "$SRV_ADDR" --shutdown
wait "$SRV_PID" || { echo "server exited nonzero after shutdown"; exit 1; }
rm -rf "$SRV_DIR"
test -s BENCH_server.json || { echo "BENCH_server.json missing"; exit 1; }
python3 <<'EOF'
import json, sys
with open("BENCH_server.json") as fh:
    report = json.load(fh)
for cls in ("ingest", "query", "f0"):
    stats = report[cls]
    if stats["requests"] <= 0:
        sys.exit(f"no {cls} requests were recorded")
    print(f"    {cls}: {stats['requests_per_sec']:,.0f} req/s "
          f"p50 {stats['p50_micros']}us p99 {stats['p99_micros']}us")
if report["status_5xx"] or report["io_errors"]:
    sys.exit(f"server smoke saw {report['status_5xx']} 5xx responses and "
             f"{report['io_errors']} socket errors")
EOF

echo "==> tenant registry suites (eviction invisibility, crash matrix, HTTP e2e)"
cargo test -q -p rds-tenant
cargo test -q --release --test tenant_e2e

echo "==> multi-tenant smoke bench (budget bound + eviction invisibility)"
# Fast mode writes to a scratch path: the committed BENCH_tenants.json
# is the full 1M-tenant run and must not be clobbered by the smoke.
TEN_OUT=$(mktemp)
RDS_BENCH_FAST=1 RDS_BENCH_OUT="$TEN_OUT" \
    cargo bench -p rds-bench --bench tenants
python3 - "$TEN_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    report = json.load(fh)
resident = report["zipf_steady_state"]["max_resident_words"]
budget = report["budget_words"]
print(f"    {report['key_space']:,} tenants: max resident {resident:,} "
      f"/ budget {budget:,} words; {report['spills']:,} spills, "
      f"{report['restores']:,} restores")
if resident > budget or not report["resident_bounded_by_budget"]:
    sys.exit(f"resident_words {resident} exceeded the budget {budget}")
if not report["retouch_bit_identical"]:
    sys.exit("a re-touched (spilled) tenant diverged from the "
             "eviction-free control")
if report["spills"] <= 0:
    sys.exit("the smoke never evicted; the budget gate proved nothing")
EOF
rm -f "$TEN_OUT"

echo "==> multi-tenant serve smoke (rds serve --tenants, zipf traffic, drain)"
TEN_DIR=$(mktemp -d)
target/release/rds serve --addr 127.0.0.1:0 --dim 2 --alpha 0.5 \
    --seed 42 --publish-every 256 \
    --tenants --budget-words 1048576 --spill-dir "$TEN_DIR/spill" \
    > "$TEN_DIR/serve.out" 2>"$TEN_DIR/serve.err" &
TEN_PID=$!
TEN_ADDR=""
for _ in $(seq 1 100); do
    TEN_ADDR=$(sed -n 's/^rds-server listening on //p' "$TEN_DIR/serve.out")
    [ -n "$TEN_ADDR" ] && break
    kill -0 "$TEN_PID" 2>/dev/null || { cat "$TEN_DIR/serve.err"; exit 1; }
    sleep 0.1
done
[ -n "$TEN_ADDR" ] || {
    echo "tenant server never announced its address"; kill "$TEN_PID"; exit 1; }
RDS_BENCH_FAST=1 RDS_BENCH_OUT="$TEN_DIR/BENCH_server_tenants.json" \
    target/release/loadgen --addr "$TEN_ADDR" --tenants 200 --shutdown
wait "$TEN_PID" || { echo "tenant server exited nonzero after shutdown"; exit 1; }
rm -rf "$TEN_DIR"

echo "==> examples run"
for ex in quickstart f0_monitor tweet_window video_dedup; do
    cargo run -q --release --example "$ex" > /dev/null
done

echo "ci.sh: all green"
