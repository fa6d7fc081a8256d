"""Spans and counters recorded around tdlc's functions, from outside the package.

`Tracer.install()` replaces the functions and methods of every tdlc module
with wrappers, including the names one module imports from another (for
example `rab.cox_multiply` or `kak_tree.compose`), so calls between modules
are attributed to the module that defines the callee.  `uninstall()` puts the
originals back, so untraced passes run unmodified code.

Every wrapped call is timed on a stack: its duration, and its self time (the
duration minus the time its child calls cover), summed per function name.
The first `KEEP_PER_TASK` calls of each name within a task are also kept as
spans (name, start, end, parent span, task id); later calls only add to the
sums, so memory stays bounded on hot paths with millions of calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("tree_core", "tree_aut", "universal_groups", "kak_tree", "padic_pgl2",
           "coxeter_ra", "rab", "kak_building", "cli")

# Leaf helpers cheaper than a span; their time stays with the caller's module.
SKIP = frozenset({
    "coxeter_ra.RACoxeterSystem.commutes", "coxeter_ra.RACoxeterSystem.index_of",
    "coxeter_ra.CoxElement.names", "rab.BuildingSpec.q", "rab.Chamber.type_word",
    "tree_core.TreeBall.neighbors", "tree_core.TreeBall.has_edge",
    "tree_core.TreeBall.edges", "tree_core.TreeBall.is_interior",
    "tree_core.TreeBall.vertices", "universal_groups.ColorBall.edge_color",
    "universal_groups.ColorBall.neighbor_by_color", "universal_groups.LegalColoring.color",
    "universal_groups.is_reduced_word", "universal_groups.word_append",
    "universal_groups.word_mul", "universal_groups.word_inv", "universal_groups.word_distance",
    "universal_groups.perm_identity", "universal_groups.perm_mul", "universal_groups.perm_inv",
    "universal_groups.perm_transposition", "universal_groups.is_perm",
    "padic_pgl2.is_prime", "universal_groups.Portrait.local_action",
    "universal_groups.Composite.local_action", "universal_groups.Inverse.local_action",
})
# Hot leaves called millions of times: counted, but not timed, so the tracer's own
# cost does not swamp them; their time stays with the caller.
COUNT_ONLY = frozenset({
    "universal_groups.Portrait.image_word", "universal_groups.Composite.image_word",
    "universal_groups.Inverse.image_word", "tree_core.distance",
})
# Constructors that do real work (enumeration or validation), traced like functions.
INITS = frozenset({"ColorBall", "ChamberBall", "Portrait", "Composite", "Inverse"})
# inner -> outer: calls of inner made while outer runs, for useful-work ratios.
WITHIN = {
    "coxeter_ra.multiply": "coxeter_ra.enumerate_elements",
    "rab.chamber_product": "rab.ChamberBall.__init__",
    "tree_aut.compose": "universal_groups.generate_plus_k",
}
KEEP_PER_TASK = 64
CALLS, TOTAL, SELF, KEPT, KEPT_TASK, ACTIVE = range(6)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s, kept, kept task, active]
        self.records: list[list] = []      # kept spans: [name, start, end, parent, task, self_s]
        self.stack: list[list] = []        # open calls: [start, child_s, record of nearest kept span]
        self.counters: Counter = Counter()
        self.task = None
        self._patched: list = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, None, 0])

    def wrap(self, name: str, fn):
        """fn, timed as `name`; `name` starts with the module the time is charged to."""
        st, stack, records, counters = self._stat(name), self.stack, self.records, self.counters
        outer = self._stat(WITHIN[name]) if name in WITHIN else None
        within_key = f"{name}@{WITHIN.get(name)}"
        pre, post = _PRE.get(name), _POST.get(name)
        clock, tracer = time.perf_counter, self

        def count_only(*args, **kwargs):
            st[CALLS] += 1
            return fn(*args, **kwargs)

        def wrapper(*args, **kwargs):
            st[CALLS] += 1
            if outer is not None and outer[ACTIVE]:
                counters[within_key] += 1
            if pre is not None:
                pre(counters, args)
            task = tracer.task
            if st[KEPT_TASK] != task:
                st[KEPT_TASK], st[KEPT] = task, 0
            parent = stack[-1][2] if stack else -1
            rid = parent
            if st[KEPT] < KEEP_PER_TASK:
                st[KEPT] += 1
                rid = len(records)
                records.append([name, 0.0, 0.0, parent, task, 0.0])
            st[ACTIVE] += 1
            frame = [clock(), 0.0, rid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st[ACTIVE] -= 1
                dur = end - frame[0]
                own = dur - frame[1]
                st[TOTAL] += dur
                st[SELF] += own
                if stack:
                    stack[-1][1] += dur
                if rid != parent:
                    rec = records[rid]
                    rec[1], rec[2], rec[5] = frame[0], end, own
            if post is not None:
                post(counters, args, result)
            return result

        out = count_only if name in COUNT_ONLY else wrapper
        out.__name__, out.__qualname__ = fn.__name__, fn.__qualname__
        out.__doc__, out.__wrapped__ = fn.__doc__, fn
        return out

    # -- child processes ---------------------------------------------------

    def payload(self) -> dict:
        return {"stats": {n: s[:3] for n, s in self.stats.items()}, "records": self.records,
                "counters": dict(self.counters)}

    def adopt(self, payload: dict) -> None:
        """Merge what a child process recorded, as children of the innermost open call."""
        frame = self.stack[-1]
        offset = len(self.records)
        for rec in payload["records"]:
            rec = list(rec)
            if rec[3] < 0:
                rec[3] = frame[2]
                frame[1] += rec[2] - rec[1]
            else:
                rec[3] += offset
            rec[4] = self.task
            self.records.append(rec)
        for name, (calls, total, own) in payload["stats"].items():
            st = self._stat(name)
            st[CALLS] += calls
            st[TOTAL] += total
            st[SELF] += own
        self.counters.update(payload["counters"])

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][CALLS] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][TOTAL] if name in self.stats else 0.0

    def self_by_module(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + st[SELF]
        return out

    def write(self, path) -> None:
        """JSON lines: one per kept span, then one per function with its sums."""
        with open(path, "w") as fh:
            for name, start, end, parent, task, own in self.records:
                fh.write(json.dumps({"span": name, "start": start, "end": end, "parent": parent,
                                     "task": task, "self_s": own}) + "\n")
            for name, st in sorted(self.stats.items()):
                fh.write(json.dumps({"function": name, "calls": st[CALLS], "total_s": st[TOTAL],
                                     "self_s": st[SELF]}) + "\n")

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"tdlc.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for mname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{mname}.{attr}"
                    if name in SKIP or (attr.startswith("_") and not _imported_elsewhere(obj, modules)):
                        continue
                    wrapped[id(obj)] = self.wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(mname, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, mname: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("__"):
                if not (attr == "__post_init__" or (attr == "__init__" and cls.__name__ in INITS)):
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{mname}.{cls.__name__}.{attr}"
            if name not in SKIP:
                self._patch(cls, attr, self.wrap(name, obj))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _imported_elsewhere(fn, modules) -> bool:
    return any(obj is fn for mod in modules.values() if mod.__name__ != fn.__module__
               for obj in vars(mod).values())


def _count_letters(counters, args):
    counters["coxeter_ra.letters_in"] += len(args[1])


_PRE = {"coxeter_ra.normal_form": _count_letters}
_POST = {
    "coxeter_ra.enumerate_elements":
        lambda c, a, r: c.update({"coxeter_ra.enum_kept": len(r) - 1}),
    "rab.ChamberBall.__init__":
        lambda c, a, r: c.update({"rab.ball_kept": len(a[0]) - 1}),
    "universal_groups.generate_plus_k":
        lambda c, a, r: c.update({"universal_groups.plus_k_kept": len(r) - 1}),
    "kak_tree.enumerate_representatives":
        lambda c, a, r: c.update({"kak_tree.representatives": len(r.representatives)}),
    "kak_building.representatives":
        lambda c, a, r: c.update({"kak_building.representatives": len(r.reps)}),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, by name."""
    counters, self_s = tr.counters, tr.self_by_module()

    def calls_matching(module: str, suffix: str) -> int:
        return sum(st[CALLS] for name, st in tr.stats.items()
                   if name.startswith(module + ".") and name.endswith(suffix))

    out = {f"{m}.self_s": self_s.get(m, 0.0) for m in MODULES}
    out.update({
        "coxeter_ra.normal_form_calls": tr.calls("coxeter_ra.normal_form"),
        "coxeter_ra.letters_in": counters["coxeter_ra.letters_in"],
        "coxeter_ra.enum_useful_ratio": _ratio(
            counters["coxeter_ra.enum_kept"],
            counters["coxeter_ra.multiply@coxeter_ra.enumerate_elements"]),
        "rab.make_chamber_calls": tr.calls("rab.make_chamber"),
        "rab.chamber_product_calls": tr.calls("rab.chamber_product"),
        "rab.aut_image_calls": calls_matching("rab", ".image"),
        "rab.ball_useful_ratio": _ratio(
            counters["rab.ball_kept"], counters["rab.chamber_product@rab.ChamberBall.__init__"]),
        "kak_building.representatives": counters["kak_building.representatives"],
        "universal_groups.image_word_calls": calls_matching("universal_groups", ".image_word"),
        "universal_groups.restrict_calls": tr.calls("universal_groups.ExactAut.restrict"),
        "universal_groups.portraits_enumerated": tr.calls("universal_groups.Portrait.__init__"),
        "universal_groups.plus_k_useful_ratio": _ratio(
            counters["universal_groups.plus_k_kept"],
            counters["tree_aut.compose@universal_groups.generate_plus_k"]),
        "universal_groups.closure_s": tr.total_s("universal_groups.LocalGroup.closure"),
        "tree_aut.compose_calls": tr.calls("tree_aut.compose"),
        "tree_aut.agreement_depth_calls": tr.calls("tree_aut.agreement_depth"),
        "kak_tree.factorize_calls": tr.calls("kak_tree.factorize"),
        "kak_tree.representatives": counters["kak_tree.representatives"],
        "tree_core.distance_calls": tr.calls("tree_core.distance"),
        "padic_pgl2.valuation_calls": tr.calls("padic_pgl2.valuation"),
        "cli.report_bytes": report_bytes,
    })
    return out
