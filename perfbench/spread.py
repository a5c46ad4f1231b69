#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py [--seeds 10] [--save set1.json]
                                [--compare set1.json]

Runs every workload of BENCHMARK.json once per seed (seeds 1 .. seeds)
through run.py with BENCHMARK.json's run_seconds, then prints per metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound. A spread at or above the bound
fails; a spread above a third of the bound is flagged.
With --compare, each median is also checked against the saved set's median:
worse by more than the bound fails. Distinct seeds double as the check that
no workload is tuned to one seed. Exits 1 on any failure or any failed run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                           "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return ok, {k: v["value"] for k, v in result["metrics"].items()}


def worse(metric, new, old):
    """Relative amount by which `new` is worse than `old` (negative: better)."""
    sign = 1 if metric["better"] == "lower" else -1
    return sign * (new - old) / old


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    saved = json.loads(Path(args.compare).read_text()) if args.compare else {}
    values = {}
    failed = False
    for w in (w["name"] for w in SPEC["workloads"]):
        values[w] = {}
        for seed in range(1, args.seeds + 1):
            ok, metrics = run_once(w, seed)
            failed |= not ok
            print(f"{w} seed={seed} {'ok' if ok else 'FAILED'} "
                  + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
            for k, v in metrics.items():
                values[w].setdefault(k, []).append(v)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))

    print(f"\n{'workload':14} {'metric':13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  status")
    for w, per_metric in values.items():
        for metric in SPEC["end_to_end"]:
            vals = per_metric.get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            status = "ok"
            if spread >= bound:
                status, failed = "FAIL", True
            elif spread > bound / 3:
                status = "wide"
            if w in saved and metric["name"] in saved[w]:
                old = statistics.median(saved[w][metric["name"]])
                d = worse(metric, statistics.median(vals), old)
                status += f" vs-saved {d:+.3f}"
                if d > bound:
                    status, failed = status + " FAIL", True
            print(f"{w:14} {metric['name']:13} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.4f} {bound:6.3f}  {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
