#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Storage directories and the
span dump of a traced run go under `.perfbench/`. The last line of
standard output is the JSON result; build output and the human summary go
to standard error. The exit code is the binary's (non-zero when the build
fails or a correctness check fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    scratch = os.path.join(ROOT, ".perfbench")
    extra = ["--tmp", os.path.join(scratch, f"tmp-{os.getpid()}")]
    if flag(args, "--trace") not in (None, "0"):
        workload = flag(args, "--workload") or "unknown"
        extra += ["--trace-out", os.path.join(scratch, f"trace-{workload}.tsv")]
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + args + extra, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
