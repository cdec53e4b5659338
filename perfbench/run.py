#!/usr/bin/env python3
"""Builds and runs the TSVD workspace benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite_small --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) and the workspace's
`repro` binary (the fleet workers re-exec it) in release mode, then runs the
benchmark binary, whose last line of output is the JSON result. Build
output goes to $CARGO_TARGET_DIR, or perfbench/target when it is unset;
scratch files go under the target directory and are removed afterwards.
Exits non-zero without a result when either build fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build(args, cwd, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode == 0


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("crates", "vendor", "perfbench/src"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "target" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    for name in ("Cargo.toml", "Cargo.lock"):
        path = ROOT / name
        if path.is_file():
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    opts = parser.parse_args()

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or HERE / "target").resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    if not build(["--manifest-path", str(HERE / "Cargo.toml")], HERE, env):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1
    if not (ROOT / "Cargo.toml").is_file() or not build(
        ["-p", "tsvd-harness", "--bin", "repro"], ROOT, env
    ):
        print("perfbench: building repro failed", file=sys.stderr)
        return 1

    # The fleet's Unix socket lives in the work directory, and socket paths
    # are limited to about 100 bytes, so pass the work directory relative
    # to the current directory whenever it lies below it.
    work = target / "perfbench-work" / str(os.getpid())
    try:
        work_arg = str(work.relative_to(pathlib.Path.cwd().resolve()))
    except ValueError:
        work_arg = str(work)
    cmd = [
        str(target / "release" / "tsvd-perfbench"),
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", opts.trace,
        "--repro", str(target / "release" / "repro"),
        "--work-dir", work_arg,
        "--rustc", rustc_version(),
        "--commit", source_commit(),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
