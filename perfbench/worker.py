"""One workload in one fresh process: a closed loop of passes over its task list.

Started by run.py; not meant to be run by hand.  Two modes:

  --probe   import tdlc, generate the seeded inputs, print time.monotonic()
            (the set-up measurement) and exit;
  default   run passes until --seconds are used up and write per-pass stage
            times, failures and (with --trace 1) per-layer metrics to --result.

One caller, no threads.  In the cli workload each task starts one child
process and waits for it before the next one starts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

MIN_PASSES = 2  # untraced; a traced run makes at least one untraced and one traced pass
REFERENCE_SAMPLES = 16  # reference-kernel timings taken before each task


def reference_kernel() -> int:
    """Fixed pure-Python work (tuples, slicing, dict updates) that shares no code with tdlc.

    The host's speed drifts by about 20% over minutes; timing this kernel
    between tasks measures that drift so run.py can take it out.
    """
    seen: dict = {}
    word: tuple = ()
    for i in range(2000):
        word = (word + (i % 5,))[-6:]
        seen[word] = seen.get(word, 0) + 1
    return len(seen)


def reference_times(n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("tree", "building", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--result", default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


class Runner:
    """Runs the workload's task list, optionally under a tracer."""

    def __init__(self, args):
        import workloads
        self.w = workloads
        self.args = args
        self.workdir = Path(args.workdir)
        self.inputs = workloads.INPUTS[args.workload](args.seed, args.size, self.workdir)
        self.tracer = None
        self.report_bytes = 0
        self.child_maxrss_kb = 0
        if args.workload == "cli":
            self.tasks = workloads.cli_tasks(self.inputs, self.run_child)
        else:
            make = {"tree": workloads.tree_tasks, "building": workloads.building_tasks}
            self.tasks = make[args.workload](self.inputs)

    def run_child(self, name, argv, out):
        trace = self.workdir / f"{name}.trace.json" if self.tracer is not None else None
        run = self.w.run_child(argv, self.workdir, out, trace)
        self.child_maxrss_kb = max(self.child_maxrss_kb, run.maxrss_kb)
        self.report_bytes += len(run.report.encode()) if run.report else 0
        if run.trace is not None:
            self.tracer.adopt(run.trace)
        return run

    def run_steps(self, task, stages: dict):
        value = None
        for stage, fn in task.steps:
            t0 = time.perf_counter()
            try:
                value = fn(value)
            finally:
                stages[stage] += time.perf_counter() - t0
        return value

    def run_pass(self, tracer=None) -> dict:
        self.tracer = tracer
        self.report_bytes = 0
        stages = dict.fromkeys(self.w.STAGES, 0.0)
        failures, summaries, refs = [], {}, []
        for i, task in enumerate(self.tasks):
            refs += reference_times(REFERENCE_SAMPLES)
            try:
                if tracer is None:
                    value = self.run_steps(task, stages)
                else:
                    tracer.task = task.name
                    tracer.install()
                    try:
                        value = tracer.wrap(f"bench.{task.name}", self.run_steps)(task, stages)
                    finally:
                        tracer.uninstall()   # checks run on unwrapped code
            except Exception as exc:  # a failing task is counted, never fatal
                failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
                continue
            try:
                if self.args.inject_fault and i == 0:
                    value = task.corrupt(value)
                summaries[task.name] = self.w.digest(task.check(value))
            except Exception as exc:
                failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
        self.tracer = None
        return {"wall_s": sum(stages.values()), "stages": stages, "attempted": len(self.tasks),
                "failures": failures, "summaries": summaries, "report_bytes": self.report_bytes,
                "reference_s": statistics.median(refs)}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds through run_child, which stops its child


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        import workloads
        workloads.INPUTS[args.workload](args.seed, args.size, Path(args.workdir))
        print(repr(time.monotonic()), flush=True)
        return 0

    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for the worker and its children, so the reference kernel is timed
    # on the CPU that runs the workload (vCPUs of a shared host differ in speed).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args)
    from tracer import Tracer, layer_metrics

    passes, traced, layers = [], [], []
    last_tracer = None
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        if args.trace:
            tr = Tracer()
            p = runner.run_pass(tr)
            for name, got in p["summaries"].items():
                want = passes[0]["summaries"].get(name)
                if want is not None and got != want:
                    p["failures"].append(f"{name}: traced output {got} differs from untraced {want}")
            traced.append(p)
            layers.append(layer_metrics(tr, p["report_bytes"]))
            last_tracer = tr
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(passes)
        if len(passes) >= (1 if args.trace else MIN_PASSES) and elapsed + per_round > args.seconds:
            break

    if last_tracer is not None and args.trace_out:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        last_tracer.write(args.trace_out)
    result = {"passes": passes, "traced": traced, "child_maxrss_kb": runner.child_maxrss_kb}
    if args.trace:
        result["layers"] = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in passes) - 1.0)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
