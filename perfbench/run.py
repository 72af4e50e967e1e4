#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload churn_malloc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to .bench_build/ in the
checkout (release profile, dune cache off); then one perfbench.exe
process measures for --seconds and its output is passed through. The
last line of stdout is the JSON result; build chatter goes to stderr.
The exit code is non-zero, with no result printed, when the checkout
holds no project to build or the build or the run fails.

    python3 perfbench/run.py --selftest

runs the benchmark's determinism self-test instead (see selftest.py).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
EXE = BUILD_DIR / "default" / "perfbench" / "perfbench.exe"
WORKLOADS = ["churn_malloc", "churn_fom", "kv_zipf"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Compile the benchmark executable and the libraries it links."""
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail(f"{ROOT} holds no dune project to build the simulator from")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD_DIR),
           "--profile", "release", "-j", "2", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0 or not EXE.is_file():
        fail(f"build failed with exit code {done.returncode}")
    return EXE


def run(exe, args):
    """Run one workload in one process and pass its output through."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if done.returncode != 0:
        fail(f"run failed with exit code {done.returncode}")
    print(done.stdout, end="", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the determinism self-test and exit")
    args = ap.parse_args()
    exe = build()
    if args.selftest:
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import selftest
        sys.exit(selftest.main(exe))
    if args.workload is None:
        ap.error("--workload is required")
    run(exe, args)


if __name__ == "__main__":
    main()
