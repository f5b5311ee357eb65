#!/usr/bin/env python3
"""Build and run the DiAS end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `dias-perfbench` package (perfbench/Cargo.toml) in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then runs it with the same
arguments. Cargo's output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's, or non-zero when the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_policies", "soak_chaos", "fleet_federation", "theta_sweep")
# The benchmark itself stays well inside this; a hung run is killed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run(cmd, env, timeout, stdout):
    """Runs `cmd` to completion, killing it (and waiting) on timeout."""
    with subprocess.Popen(cmd, env=env, stdout=stdout) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
            return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    code = run(build, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print(f"run.py: build failed (exit {code})", file=sys.stderr)
        return code or 1

    binary = os.path.join(target, "release", "dias-perfbench")
    sys.stdout.flush()
    return run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        env, RUN_TIMEOUT_S, None,
    )


if __name__ == "__main__":
    sys.exit(main())
