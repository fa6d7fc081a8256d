"""tdlc benchmark: one workload, checked outputs, metrics by name with units.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload tree|building|cli|all --seed N --seconds S --trace 0|1

It measures `setup_s` from several fresh interpreters (import of tdlc plus
generation of the seeded inputs), then runs the workload in one fresh worker
process as a closed loop of passes over its task list for about S seconds.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of traced
passes, and the spans of the last traced pass are written under
.perfbench_traces/.  Lines before the last one are a readable summary.
`--workload all` runs the three workloads in turn and prints one JSON line
whose metric names carry the workload as a prefix (`tree.wall_s`, ...).

The exit code is 0 when every task passed its check, 1 otherwise, and 2 when
the checkout has no tdlc sources to measure (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Median time of worker.reference_kernel on the machine that defined the benchmark
# (2 vCPUs, Python 3.11).  Library pass times are scaled by REFERENCE_S over the
# kernel's median in that pass, so they read as seconds at that machine's speed.
# cli passes are not scaled: most of their time is interpreter start-up, imports
# and file output, which the kernel does not represent, and scaling widened
# their spread across runs instead of narrowing it.
REFERENCE_S = 0.00125
SCALED = ("tree", "building")
WORKLOADS = ("tree", "building", "cli")
STAGE_METRICS = ("ball_s", "certify_s", "contract_s", "refuse_s")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "failed_frac": "1"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "1"
    return "bytes" if name.endswith("_bytes") else "count"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny runs every task at a small size (self-test)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="negative control: corrupt the first task's result")
    return ap.parse_args(argv)


def worker_cmd(args, workdir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--workdir", str(workdir), *extra]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(args, workdir: Path) -> float:
    """Median time from spawning a fresh interpreter to its inputs being ready."""
    samples = []
    for i in range(SETUP_PROBES + 1):          # the first one also byte-compiles tdlc; not counted
        probe_dir = workdir / f"probe{i}"
        t0 = time.monotonic()
        out = subprocess.run(worker_cmd(args, probe_dir, "--probe"), env=child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        ready = float(out.stdout.strip().splitlines()[-1])
        shutil.rmtree(probe_dir, ignore_errors=True)
        if i:
            samples.append(ready - t0)
    return statistics.median(samples)


def run_worker(args, workdir: Path, timeout: float) -> tuple[dict, int]:
    """Run the workload in a fresh process; returns its result and its peak RSS in KiB."""
    result_path = workdir / "result.json"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path)]
    if args.trace:
        extra += ["--trace-out", str(ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.inject_fault:
        extra.append("--inject-fault")
    proc = subprocess.Popen(worker_cmd(args, workdir, *extra), env=child_env())
    deadline = time.monotonic() + timeout
    reaped = False
    try:
        while not reaped:
            if time.monotonic() > deadline:
                raise RuntimeError(f"workload did not finish within {timeout:.0f} s")
            time.sleep(0.05)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            reaped = pid != 0
    finally:
        if not reaped:   # timeout or signal: stop the worker (it stops its own child) and reap it
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text()), usage.ru_maxrss


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tdlc" / "__init__.py").is_file():
        sys.stderr.write(f"no tdlc sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2

    results = [run_workload(args, w) for w in (WORKLOADS if args.workload == "all" else [args.workload])]
    if len(results) == 1:
        result = results[0]
    else:   # one line for all three: metric names get the workload as prefix
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {f"{w}.{name}": m for w, r in zip(WORKLOADS, results)
                              for name, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_workload(args, workload: str) -> dict:
    """Measure one workload, print its readable summary, return its result object."""
    args = argparse.Namespace(**{**vars(args), "workload": workload})
    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup(args, workdir)
        result, worker_rss_kb = run_worker(args, workdir, 175 - (time.monotonic() - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"] + result["traced"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for line in dict.fromkeys(failures):
        print(f"FAILED {line}")

    timed = result["passes"]
    scale = [REFERENCE_S / p["reference_s"] if workload in SCALED else 1.0 for p in timed]
    rss_kb = result["child_maxrss_kb"] if workload == "cli" else worker_rss_kb
    end_to_end = {
        "wall_s": statistics.median(p["wall_s"] * k for p, k in zip(timed, scale)),
        **{m: statistics.median(p["stages"][m[:-2]] * k for p, k in zip(timed, scale))
           for m in STAGE_METRICS},
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
        "failed_frac": len(failures) / attempted,
    }
    print(f"workload={workload} seed={args.seed} passes={len(timed)} "
          f"traced_passes={len(result['traced'])} attempted={attempted} failed={len(failures)}")
    print("  pass wall_s, measured: " + " ".join(f"{p['wall_s']:.3f}" for p in timed)
          + "; reference kernel ms: " + " ".join(f"{p['reference_s'] * 1e3:.3f}" for p in timed))
    shown = result["layers"] if args.trace else end_to_end
    for name, value in {**end_to_end, **shown}.items():
        print(f"  {name:40s} {value:14.6f} {unit_of(name)}")
    if not args.trace:
        shown = {k: v for k, v in end_to_end.items() if k != "failed_frac"}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in shown.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
