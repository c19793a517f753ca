#!/usr/bin/env python3
"""Build and run the GridVine core-stack benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload e1_lookup --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (its own Cargo workspace, depending on
the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the
same arguments. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. With `--trace 1`
the recorded spans are written to
`<target dir>/perfbench-traces/<workload>-seed<seed>.jsonl`.

The exit status is the benchmark's: 0 when every correctness check
passed, non-zero when a check failed or the build did.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with status {build.returncode}", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        name = f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", os.path.join(target, "perfbench-traces", name)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
