#!/usr/bin/env python3
"""Build and run the d/streams checkpoint/restart benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <scf_ckpt|reshape_cyclic|tiny_agg> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset, then runs it with the same arguments.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. A traced run (`--trace 1`) also writes its
spans to `<target dir>/perfbench-spans/<workload>-seed<n>.json`. The exit
code is the benchmark's, or the build's if the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(here, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    args = sys.argv[1:]
    # A termination request stops the child before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    code = run(build, env, stdout=sys.stderr)
    if code != 0:
        return code or 1

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args(args)
    if known.trace != "0" and known.workload and known.seed:
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = f"{known.workload}-seed{known.seed}.json"
        args = args + ["--spans-out", os.path.join(spans_dir, name)]

    return run([os.path.join(target, "release", "perfbench")] + args, env)


def run(cmd, env, stdout=None):
    """Run `cmd` to completion; kill and reap it if this script is stopped."""
    try:
        child = subprocess.Popen(cmd, env=env, stdout=stdout)
    except OSError as e:
        print(f"run.py: cannot start {cmd[0]}: {e}", file=sys.stderr)
        return 127
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
