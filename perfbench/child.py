"""Run one tdlc subcommand the way the installed `tdlc` script does: through `tdlc.cli.main`.

Usage: python3 perfbench/child.py [--trace FILE] -- <tdlc arguments>

`python -m tdlc.cli` has no `__main__` guard and would exit 0 without doing
anything, so the benchmark calls `main` here.  With --trace the tracer wraps
tdlc before the call and its spans and counters are written to FILE as JSON
when the subcommand ends; the exit code is the subcommand's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    opts, argv = args[:sep], args[sep + 1:]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import tdlc.cli

    tracer = None
    if trace_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sys.argv = ["tdlc", *argv]
    try:
        tdlc.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    if tracer is not None:
        tracer.uninstall()
        with open(trace_path, "w") as fh:
            json.dump(tracer.payload(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
