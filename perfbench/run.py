#!/usr/bin/env python3
"""Builds the benchmark and the `rds` binary from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sample|count|http|tenants> \
        --seed N --seconds S --trace <0|1>

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the result object; the line before it is the
full report (revision, nproc, seed, parameters, sample counts). The exit
code is that of the benchmark binary: 0 when every correctness check
passed, nonzero otherwise (or when the build fails).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_rev():
    """The git revision, or a digest of the sources when not in a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            if name.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as fh:
                    digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rds-cli", "--bin", "rds"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    env["RDS_BENCH_REV"] = source_rev()
    exe = os.path.join(target, "release", "rds-perfbench")
    rds = os.path.join(target, "release", "rds")
    return subprocess.run([exe, "--rds-bin", rds] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
