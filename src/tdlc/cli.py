"""Command-line front end: every pipeline behind one deterministic reporter.

Reports are JSON (machine format) or a text rendering derived from it; a
fixed config always produces byte-identical output.  Exit codes: 0 success,
1 invalid input, 2 infeasibility (guard or certification limits).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import CertificationError, GuardExceeded, check_guard, check_power_guard

SCHEMA_VERSION = "1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract wants 1
        self.print_usage(sys.stderr)
        raise SystemExit(1)


_SCALARS = frozenset({str, int, float, bool, type(None)})
_ENCODERS: dict[int, json.JSONEncoder] = {}


class _Unsupported(Exception):
    """A value `_dumps` leaves to `json.dumps`."""


def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder whose item separator starts a new line indented to `depth`."""
    enc = _ENCODERS.get(depth)
    if enc is None:
        enc = _ENCODERS[depth] = json.JSONEncoder(sort_keys=True,
                                                  separators=(",\n" + "  " * depth, ": "))
    return enc


def _flat_rows(rows) -> bool:
    """Whether rows, all dicts, are non-empty with str keys and scalar values (C-level passes)."""
    return (all(rows) and set(map(type, chain.from_iterable(rows))) == {str}
            and set(map(type, chain.from_iterable(map(dict.values, rows)))) <= _SCALARS)


def _dumps(report) -> str:
    """`json.dumps(report, sort_keys=True, indent=2, default=str)`, byte for byte.

    The indented dump runs CPython's pure-Python encoder, so flat containers go
    to the C encoder instead, whose item separator carries the newline and
    indent.  A list of flat records goes in one call at the records' key depth:
    the C encoder escapes every newline inside a string, so each `},\\n{` joint
    it writes is between two records and one `str.replace` re-indents them all.
    Anything else json.dumps does differently (a non-str key, a scalar subclass,
    an object for `default=str`, nesting past the recursion limit) hands the
    whole report to json.dumps, so the fallback, and any exception, is its own.
    """
    out: list[str] = []
    try:
        _write(report, 0, out)
    except (_Unsupported, ValueError, RecursionError):
        return json.dumps(report, sort_keys=True, indent=2, default=str)
    return "".join(out)


def _write(o, depth: int, out: list) -> None:
    """Append the JSON of o, indented as the value of a line at `depth`, to out."""
    kind = type(o)
    if kind in _SCALARS:
        out.append(_encoder(0).encode(o))
        return
    if kind is not dict and kind is not list and kind is not tuple:
        raise _Unsupported
    if not o:
        out.append("{}" if kind is dict else "[]")
        return
    opening, closing = ("{", "}") if kind is dict else ("[", "]")
    pad = "\n" + "  " * (depth + 1)
    end = "\n" + "  " * depth + closing
    if kind is dict:
        if set(map(type, o)) != {str}:
            raise _Unsupported
        flat = set(map(type, o.values())) <= _SCALARS
    else:
        types = set(map(type, o))
        flat = types <= _SCALARS
        if not flat and types == {dict} and _flat_rows(o):
            deep = "\n" + "  " * (depth + 2)
            rows = _encoder(depth + 2).encode(o)[2:-2].replace(
                "}," + deep + "{", pad + "}," + pad + "{" + deep)
            out += "[", pad, "{", deep, rows, pad, "}", end
            return
    if flat:
        out += opening, pad, _encoder(depth + 1).encode(o)[1:-1], end
        return
    if kind is dict:
        items = ((encode_basestring_ascii(key) + ": ", o[key]) for key in sorted(o))
    else:
        items = (("", value) for value in o)
    sep = opening + pad
    for head, value in items:
        out += sep, head
        _write(value, depth + 1, out)
        sep = "," + pad
    out.append(end)


def _render_text(data, indent=0):
    """The text report as chunks to join with newlines; a chunk may hold several lines."""
    lines = []
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        if _record_rows(data):
            # one template for every record: its keys sorted once, values by str()
            keys = sorted(data[0])
            template = "\n".join(f"{pad}  {key}: ".replace("%", "%%") + "%s" for key in keys)
            lines.extend(map(template.__mod__, map(itemgetter(*keys), data)))
            return lines
        for value in data:
            if isinstance(value, (dict, list)):
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{data}")
    return lines


def _record_rows(data: list) -> bool:
    """Whether data is a non-empty list of flat records that share one key set."""
    return (bool(data) and set(map(type, data)) == {dict} and _flat_rows(data)
            and all(map(data[0].keys().__eq__, map(dict.keys, data))))


def _emit(report: dict, args) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    if args.format == "json":
        text = _dumps(report) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(text: str):
    """Parse JSON input; nesting too deep for the parser is invalid input too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _local_group(args, degree: int) -> ug.LocalGroup:
    from . import universal_groups as ug
    if getattr(args, "local_group", None):
        with open(args.local_group) as fh:
            F = ug.LocalGroup.from_json(_read_json(fh.read()))
        if F.degree != degree:
            raise ValueError(f"the local group has degree {F.degree}, but the tree has degree {degree}")
        return F
    if getattr(args, "generators", None):
        return ug.LocalGroup.create(degree, _read_json(args.generators))
    return ug.LocalGroup.symmetric(degree)


def _coxeter_system(args) -> cox.RACoxeterSystem:
    from . import coxeter_ra as cox
    with open(args.config) as fh:
        return cox.RACoxeterSystem.from_json(_read_json(fh.read()))


def _building_spec(args) -> rab.BuildingSpec:
    from . import rab
    with open(args.spec) as fh:
        return rab.BuildingSpec.from_json(_read_json(fh.read()))


def _word_list(path: str | None, flag: str, system: cox.RACoxeterSystem) -> list[cox.CoxElement]:
    """The words of a JSON file holding a list of words, each a string of
    space-separated generator names or a list of names."""
    from . import coxeter_ra as cox
    if path is None:
        raise ValueError(f"{flag} is required for this action")
    with open(path) as fh:
        data = _read_json(fh.read())
    if not isinstance(data, list) or not all(
            isinstance(w, str) or isinstance(w, list) and all(isinstance(s, str) for s in w)
            for w in data):
        raise ValueError(f"{flag} must hold a JSON list of words, each a string or a list of strings")
    return [cox.word_from_names(system, w) for w in data]


def _check_tree_ball(degree: int, radius: int, guard: int | None) -> None:
    """Refuse on the outer sphere d(d-1)^(r-1) of the ball before it, or that integer, is built,
    then on 2r + 1: every degree is >= 2, so a geodesic through the base has that
    many vertices in the ball, all of it at d = 2, whose outer sphere is only 2."""
    if degree >= 2 and radius > 0:
        check_power_guard(degree, degree - 1, radius - 1, guard, "tree ball")
        check_guard(2 * radius + 1, guard, "tree ball")
    else:   # the base vertex at r = 0; d < 2 and r < 0 go on to the builder's ValueError
        check_guard(degree if radius > 0 else 1, guard, "tree ball")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_tree(args) -> dict:
    from . import tree_core as tc
    if args.label_config:
        with open(args.label_config) as fh:
            lv = tc.LabelVector.from_json(_read_json(fh.read()))
        _check_tree_ball(max(lv.degree_of.values()), args.radius, args.guard)
        ball = tc.build_label_regular_ball(lv, args.root_label, args.radius)
    else:
        _check_tree_ball(args.degree, args.radius, args.guard)
        ball = tc.build_regular_ball(args.degree, args.radius)
    check_guard(ball.vertex_count, args.guard, "tree ball")
    spheres = [len(layer) for layer in tc.layers(ball, ball.base, args.radius)]
    return {
        "ball": ball.to_json(),
        "vertex_count": ball.vertex_count,
        "sphere_sizes": spheres,
        "certified_radius": ball.radius,
    }


def _cmd_ugroup(args) -> dict:
    from . import universal_groups as ug
    F = _local_group(args, args.degree)
    ug.check_u1_guard(F, args.radius, args.guard)
    _check_tree_ball(args.degree, args.radius, args.guard)
    world = ug.ColorBall(args.degree, args.radius)
    # the ball is listed only for the checks that read its elements
    gb = ug.enumerate_u1_stabilizer_ball(F, world, guard=args.guard) \
        if args.plus_k is not None or args.pk_k is not None else None
    report = {
        "degree": args.degree,
        "certified_radius": args.radius,
        "local_group": F.to_json(),
        "stabilizer_ball_size": ug.stabilizer_ball_count(F, args.radius),
        "semiprimitive": ug.is_semiprimitive(F, guard=args.guard),
        "generated_by_point_stabilizers": ug.is_generated_by_point_stabilizers(F, guard=args.guard),
    }
    if args.plus_k is not None:
        plus = ug.generate_plus_k(gb, args.plus_k, guard=args.guard)
        report["plus_k"] = {"k": args.plus_k, "size": len(plus),
                            "index_in_stabilizer_ball": len(gb) // len(plus)}
    if args.pk_k is not None:
        if not world.ball.children[0]:
            raise CertificationError("property P_k needs an edge, and the radius-0 ball has none")
        edge = (0, world.ball.children[0][0])
        res = ug.check_property_pk(gb, edge, args.pk_k)
        report["property_pk"] = {"k": args.pk_k, "holds": res.holds,
                                 "fixator_size": res.checked, "edge": list(edge)}
    return report


def _cmd_kak_tree(args) -> dict:
    from . import kak_tree as kt
    from . import universal_groups as ug
    F = _local_group(args, args.degree)
    ug.check_u1_guard(F, args.radius, args.guard, args.max_sphere)
    _check_tree_ball(args.degree, args.max_sphere + args.radius, args.guard)
    world = ug.ColorBall(args.degree, args.max_sphere + args.radius)
    # A lower bound on the certificate's |K|^2 |A| keys, refused before the U1 ball
    # is listed: |K| is the stabilizer count, and each sphere up to max_sphere has
    # at least one representative; certify_partition checks the exact total.
    check_guard(ug.stabilizer_ball_count(F, args.radius) ** 2 * (args.max_sphere + 1),
                args.guard, "KAK partition products (lower bound)")
    gb = ug.enumerate_u1_ball(F, world, args.max_sphere, args.radius, guard=args.guard)
    dec = kt.enumerate_representatives(gb, 0, args.max_sphere)
    cert = kt.certify_partition(dec, args.max_sphere, guard=args.guard)
    return {
        "degree": args.degree,
        "certified_radius": args.max_sphere + args.radius,
        "group_ball_size": len(gb),
        "stabilizer_size": len(dec.stabilizer),
        "representatives": [
            {"sphere": rec.sphere_radius, "vertex": rec.vertex,
             "address": list(gb.world.word_of[rec.vertex])}
            for rec in dec.representatives
        ],
        "disjointness": cert.disjoint,
        "coverage": cert.covers,
    }


def _cmd_contract_tree(args) -> dict:
    from . import kak_tree as kt
    from . import universal_groups as ug
    if args.powers < 1:
        raise ValueError(f"--powers must be positive, got {args.powers}")
    F = _local_group(args, args.degree)
    _check_tree_ball(args.degree, args.radius, args.guard)
    world = ug.ColorBall(args.degree, args.radius)
    gb = ug.GroupBall(world, [], closed=False, local_group=F)
    step = tuple(int(x) for x in args.step.split(","))
    seq = [ug.translation(world, step * i).restrict() for i in range(1, args.powers + 1)]
    res = kt.contraction_witness_search(seq, gb, 0)
    if isinstance(res, kt.NoWitness):
        return {"witness": None, "reason": res.reason, "certified_radius": args.radius}
    return {
        "witness": res.witness.to_json(include_ball=False),
        "depths": list(res.depths),
        "displacements": list(res.displacements),
        "side": {"edge": list(res.side.edge), "side": res.side.side},
        "certified_radius": res.certified_radius,
    }


def _cmd_padic(args) -> dict:
    import random

    from . import padic_pgl2 as pp
    if args.action != "verify":
        raise ValueError(f"unknown padic action: {args.action}")
    p, n_max = args.p, args.n_max
    if args.matrices < 0:
        raise ValueError(f"--matrices must be nonnegative, got {args.matrices}")
    if n_max < 1:
        raise ValueError(f"--n-max must be positive, got {n_max}")
    check_guard(args.matrices * n_max, args.guard, "padic formula checks")
    # the contraction table and the divergence reports make O(n_max) products
    # of integers of O(n_max) digits each
    check_guard(n_max * n_max, args.guard, "padic p^n products")
    rng = random.Random(args.seed)
    matrices = [pp.random_matrix(rng, p) for _ in range(args.matrices)]
    formula_ok = all(pp.conjugation_formula_checks(h, range(1, n_max + 1)) for h in matrices)
    contraction = pp.unipotent_contraction_check(n_max, p)
    regimes = {
        "offdiagonal_b": pp.ProjMatrix((1, 1, 0, 1), p),
        "offdiagonal_c": pp.ProjMatrix((1, 0, 1, 1), p),
        "diagonal_gap": pp.ProjMatrix((1, 0, 0, 1 + p), p),
    }
    divergence = {}
    for name, h in regimes.items():
        rep = pp.perturbed_triviality_evidence(h, n_max)
        divergence[name] = {
            "bottom_left_valuations": list(rep.bottom_left_valuations),
            "diverges": rep.diverges,
        }
    return {
        "p": p,
        "n_max": n_max,
        "seed": args.seed,
        "conjugation_formula": {"matrices": len(matrices), "all_match": formula_ok},
        "unipotent_contraction": {str(n): v for n, v in contraction.items()},
        "perturbed_divergence": divergence,
    }


def _cmd_coxeter(args) -> dict:
    from . import coxeter_ra as cox
    system = _coxeter_system(args)
    if args.action == "nf":
        el = cox.word_from_names(system, args.word or "")
        return {"word": args.word or "", "normal_form": list(el.names()), "length": len(el.word)}
    if args.action == "wall":
        if args.gen is None:
            raise ValueError("--gen is required for this action")
        el = cox.word_from_names(system, args.word or "")
        return {"word": args.word or "", "generator": args.gen,
                "wall_distance": cox.wall_distance(el, args.gen)}
    if args.action == "profile":
        profile = cox.profile_bounded_set(system, args.max_length, args.bound, guard=args.guard)
        return {"max_length": args.max_length, "bound": args.bound,
                "size": len(profile), "elements": [list(w.names()) for w in profile]}
    if args.action == "root-growth":
        words = _word_list(args.words_file, "--words-file", system)
        chain = cox.root_growth_search(words)
        return {"generator": chain.generator,
                "chain": [list(w.names()) for w in chain.chain],
                "distances": list(chain.distances)}
    raise ValueError(f"unknown coxeter action: {args.action}")


def _cmd_building(args) -> dict:
    from . import kak_building as kb
    from . import rab
    spec = _building_spec(args)
    if args.action == "ball":
        ball = rab.ChamberBall(spec, args.L, guard=args.guard)
        return {
            "L": args.L,
            "chamber_count": len(ball),
            "sphere_sizes": ball.sphere_sizes(),
            "oracle_count": rab.chamber_count_oracle(spec, args.L),
        }
    if args.action == "kak":
        bc = kb.representatives(spec, args.L, guard=args.guard)
        report = kb.double_coset_disjointness_check(bc)
        return {
            "L": args.L,
            "representatives": sorted(
                [" ".join(spec.system.generators[s] for s in word) or "e" for word in bc.reps]),
            "representative_count": len(bc.reps),
            "disjointness": report.disjoint,
        }
    if args.action == "contract":
        ws = _word_list(args.ws_file, "--ws-file", spec.system)
        res = kb.building_contraction_witness(ws, spec, args.L, guard=args.guard)
        if isinstance(res, kb.NoBuildingWitness):
            return {"witness": None, "reason": res.reason, "L": args.L}
        return {
            "L": args.L,
            "generator": res.generator,
            "chain": [" ".join(w) for w in res.chain_words],
            "distances": list(res.distances),
            "fixed_ball_radii": list(res.fixed_ball_radii),
            "witness_nontrivial": not res.witness.is_identity_on_ball(),
        }
    raise ValueError(f"unknown building action: {args.action}")


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="tdlc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--guard", type=int, default=None)

    p = sub.add_parser("tree", help="build a regular or label-regular tree ball")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--label-config", default=None)
    p.add_argument("--root-label", default=None)
    common(p)

    p = sub.add_parser("ugroup", help="enumerate a universal-group stabilizer ball")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--generators", default=None, help="JSON list of one-line permutations")
    p.add_argument("--local-group", default=None, help="path to a local group JSON file")
    p.add_argument("--plus-k", type=int, default=None)
    p.add_argument("--pk-k", type=int, default=None)
    common(p)

    p = sub.add_parser("kak-tree", help="tree KAK representatives and partition certificate")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--radius", type=int, default=2, help="portrait support radius")
    p.add_argument("--max-sphere", type=int, default=2)
    p.add_argument("--generators", default=None)
    p.add_argument("--local-group", default=None)
    common(p)

    p = sub.add_parser("contract-tree", help="contraction witness for translation powers")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--powers", type=int, default=8)
    p.add_argument("--step", default="1,2", help="translation word, comma-separated colors")
    p.add_argument("--generators", default=None)
    p.add_argument("--local-group", default=None)
    common(p)

    p = sub.add_parser("padic", help="exact checks for the rank-one matrix example")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--matrices", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed of the random test matrices")
    common(p)

    p = sub.add_parser("coxeter", help="right-angled Coxeter computations")
    p.add_argument("action", choices=["nf", "wall", "profile", "root-growth"])
    p.add_argument("--config", required=True)
    p.add_argument("--word", default=None)
    p.add_argument("--gen", default=None)
    p.add_argument("--max-length", type=int, default=8)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--words-file", default=None)
    common(p)

    for name in ("building", "kak-building", "contract-building"):
        p = sub.add_parser(name, help="right-angled building pipelines")
        if name == "building":
            p.add_argument("action", choices=["ball", "kak", "contract"])
        p.add_argument("--spec", required=True)
        p.add_argument("--L", type=int, required=True)
        p.add_argument("--ws-file", default=None)
        common(p)

    return parser


_HANDLERS = {
    "tree": _cmd_tree,
    "ugroup": _cmd_ugroup,
    "kak-tree": _cmd_kak_tree,
    "contract-tree": _cmd_contract_tree,
    "padic": _cmd_padic,
    "coxeter": _cmd_coxeter,
    "building": _cmd_building,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    if command == "kak-building":
        command, args.action = "building", "kak"
    elif command == "contract-building":
        command, args.action = "building", "contract"
    try:
        if args.guard is not None and args.guard < 0:
            raise ValueError(f"--guard must be nonnegative, got {args.guard}")
        report = _HANDLERS[command](args)
    except (GuardExceeded, CertificationError) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(report, args)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
