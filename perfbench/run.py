#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt pulls in the library from the checkout)
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. The binary's output is passed through: its last stdout
line is the JSON result. A traced run also writes its spans to
<build dir>/trace-<workload>-<seed>.json.

--self-test runs every workload with one corrupted output limb and checks
that each run reports failures and exits non-zero (the correctness gate can
fail). --telemetry off builds the library with MF_TELEMETRY=OFF in a separate
build directory; counter-derived per-layer metrics are then absent.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gemm_large", "lu_solve", "fft_roundtrip")


def build_dir(telemetry):
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / ("perfbench" if telemetry == "on" else "perfbench-telemetry-off")


def build(bdir, telemetry):
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the library sources are missing next to perfbench/")
    env = dict(os.environ, TMPDIR=str(bdir / "tmp"))
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release",
               "-DMF_TELEMETRY=" + ("ON" if telemetry == "on" else "OFF")]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def self_test(binary):
    """Each workload with one corrupted output must fail its check."""
    ok = True
    for w in WORKLOADS:
        proc = subprocess.run([str(binary), "--workload", w, "--seed", "1", "--seconds",
                               "0.5", "--trace", "0", "--corrupt"],
                              stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        wrong_frac = result["failed"] / result["attempted"]
        caught = proc.returncode != 0 and wrong_frac > 0 and not result["correct"]
        print(f"self-test {w}: exit={proc.returncode} wrong_frac={wrong_frac:.4f} "
              f"{'caught' if caught else 'MISSED'}")
        ok = ok and caught
    print("self-test: " + ("ok, every corruption was caught" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--telemetry", choices=("on", "off"), default="on")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir(args.telemetry)
    binary = build(bdir, args.telemetry)
    if args.self_test:
        return self_test(binary)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(bdir / f"trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
