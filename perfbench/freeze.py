"""Freeze the digests of the cli workload's reports into perfbench/digests.json.

Usage: python3 perfbench/freeze.py

Run it only on a commit whose reports are known good; the benchmark then
checks every later report against these digests.  Refusal tasks have no
report and no digest.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    frozen = {}
    workdir = HERE.parent / ".perfbench_work" / "freeze"
    try:
        for size in ("full", "tiny"):
            inp = workloads.cli_inputs(0, size, workdir)
            frozen[size] = {}
            for name, stage, argv in inp["argvs"]:
                if stage == "refuse":
                    continue
                out = workdir / f"{name}.out"
                run = workloads.run_child(argv, workdir, out, None)
                if run.code != 0 or run.report is None:
                    sys.stderr.write(f"{size}/{name}: exit {run.code}: {run.stderr}\n")
                    return 1
                frozen[size][name] = workloads.cli_digest(name, run.report)
                print(size, name, frozen[size][name], len(run.report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
