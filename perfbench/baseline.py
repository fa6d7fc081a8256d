"""Record a baseline: the benchmark run once per seed on every workload.

Usage:
  python3 perfbench/baseline.py --runs 10 --first-seed 1 --out FILE.json
  python3 perfbench/baseline.py --check FIRST.json SECOND.json

The first form runs `run.py --trace 0` with seeds first-seed .. first-seed+runs-1
on each workload, one run at a time, and writes for every end-to-end metric
its median, first and third quartile (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and n, together with nproc and the Python version.

The second form compares two such sets: each spread must stay within the
metric's bound in BENCHMARK.json (setup_s exempt), and no median of the
second set may be worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values), "values": values}


def record(runs: int, first_seed: int, out: Path) -> int:
    data = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "run_seconds": SPEC["run_seconds"], "seeds": [first_seed, first_seed + runs - 1],
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for w in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        data["workloads"][w] = {name: summarize(v) for name, v in values.items()}
    out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def check(first: Path, second: Path) -> int:
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    bad = 0
    for w in a["workloads"]:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa, sb = a["workloads"][w][name], b["workloads"][w][name]
            worse = sb["median"] / sa["median"] - 1
            ok_spread = name == "setup_s" or max(sa["spread"], sb["spread"]) <= bound
            ok = ok_spread and worse <= bound
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {w:9s} {name:12s} bound {bound:.2f}  "
                  f"spread {sa['spread']:.3f} / {sb['spread']:.3f}  "
                  f"median {sa['median']:.4f} -> {sb['median']:.4f} ({worse:+.3f})")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--check", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.check:
        return check(*args.check)
    if args.out is None:
        ap.error("--out is required when recording")
    return record(args.runs, args.first_seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
