"""Self-test of the benchmark at a tiny size.

Usage: python3 perfbench/selftest.py

For every workload it checks that
  - an untraced run passes every output check and prints every end-to-end
    metric of BENCHMARK.json, with its unit and a value above zero;
  - a traced run prints every per-layer metric with its unit, and in the
    trace it writes no self time exceeds its span's or function's total and
    the self times add up to no more than the task spans' totals;
  - a run with one injected wrong result reports it as failed (exit 1);
and that run.py refuses, with a non-zero exit code and no result line, in
a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EPS = 1e-6


def run(*args, cwd=ROOT, script=HERE / "run.py") -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(result: dict, wanted: list[dict], positive: bool) -> list[str]:
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}, want {m['unit']}")
        elif not isinstance(got["value"], (int, float)) or (positive and got["value"] <= 0):
            problems.append(f"metric {m['name']} has value {got['value']}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def check_spans(path: Path) -> list[str]:
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [r for r in lines if "span" in r]
    functions = [r for r in lines if "function" in r]
    problems = [f"span {r['span']} self {r['self_s']} > its length {r['end'] - r['start']}"
                for r in spans if r["self_s"] > r["end"] - r["start"] + EPS]
    problems += [f"{r['function']} self {r['self_s']} > total {r['total_s']}"
                 for r in functions if r["self_s"] > r["total_s"] + EPS]
    tasks = sum(r["total_s"] for r in functions if r["function"].startswith("bench."))
    selfs = sum(r["self_s"] for r in functions)
    if selfs > tasks + EPS * len(functions):
        problems.append(f"self times {selfs} exceed task span totals {tasks}")
    if not spans or tasks <= 0:
        problems.append("no spans written")
    return problems


def main() -> int:
    problems = []
    tiny = ["--seed", "7", "--seconds", "1", "--size", "tiny"]
    for w in WORKLOADS:
        code, out = run("--workload", w, "--trace", "0", *tiny)
        result = json.loads(out[-1])
        if code != 0 or not result["correct"] or result["failed"]:
            problems.append(f"{w}: untraced run failed: exit {code}, {out[:-1]}")
        problems += [f"{w}: {p}" for p in check_metrics(result, SPEC["end_to_end"], positive=True)]

        code, out = run("--workload", w, "--trace", "1", *tiny)
        result = json.loads(out[-1])
        if code != 0 or not result["correct"]:
            problems.append(f"{w}: traced run failed: exit {code}, {out[:-1]}")
        problems += [f"{w} traced: {p}" for p in check_metrics(result, SPEC["per_layer"], positive=False)]
        problems += [f"{w} spans: {p}" for p in check_spans(ROOT / ".perfbench_traces" / f"{w}-seed7.jsonl")]

        code, out = run("--workload", w, "--trace", "0", "--inject-fault", *tiny)
        result = json.loads(out[-1])
        if code != 1 or result["correct"] or result["failed"] < 1:
            problems.append(f"{w}: injected wrong result not reported: exit {code}, failed {result['failed']}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in out):
        problems.append(f"run without tdlc sources: exit {code}, output {out}")

    for p in problems:
        print("PROBLEM", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
