"""The three workloads: seeded inputs, timed steps, and output checks.

A task is a list of timed steps, each charged to one stage (`ball`,
`certify`, `contract` or `refuse`), followed by a check that runs outside
the timed region.  Checks compare against facts that do not come from the
code under test: closed-form counts, independent re-implementations (free
reduction, growth series), digests frozen from the seed commit.  A check
returns a small JSON-able summary; traced and untraced passes must give the
same summary.

Inputs depend only on (workload, seed, size); tdlc receives nothing else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tdlc import coxeter_ra as cox
from tdlc import kak_building as kb
from tdlc import kak_tree as kt
from tdlc import rab
from tdlc import tree_aut as ta
from tdlc import tree_core as tc
from tdlc import universal_groups as ug
from tdlc.errors import GuardExceeded

HERE = Path(__file__).resolve().parent
STAGES = ("ball", "certify", "contract", "refuse")


@dataclass
class Task:
    name: str
    steps: list[tuple[str, Callable]]          # (stage, fn(previous value) -> value)
    check: Callable[[object], object]          # raises CheckFailed, returns a summary
    corrupt: Callable[[object], object] | None = None  # negative control: a wrong result


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def refusal(fn: Callable) -> Callable:
    """A step that must end in GuardExceeded; returns the message, or None if it ran through."""
    def step(_):
        try:
            fn()
        except GuardExceeded as exc:
            return str(exc)
        return None
    return step


def check_refused(msg):
    expect(msg is not None, "guarded config was not refused")
    return "refused"


def interleave(main: list[Task], refusals: list[Task], times: int = 2) -> list[Task]:
    """Spread `times` copies of each short refusal task evenly through the pass.

    Machine speed drifts over seconds; spread out, the refusals sample the
    whole pass instead of one moment of it.
    """
    extra = [Task(f"{t.name}_{k}", t.steps, t.check) for k in range(1, times + 1) for t in refusals]
    out, j = [], 0
    for i, task in enumerate(main):
        out.append(task)
        while j < round((i + 1) * len(extra) / len(main)):
            out.append(extra[j])
            j += 1
    return out


# ---------------------------------------------------------------------------
# independent oracles (no tdlc code)

def free_reduce(word) -> tuple:
    """Normal form in a free product of Z/2's: cancel adjacent equal letters."""
    out: list = []
    for x in word:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def racg_normal_form(rank: int, commuting: set, word) -> tuple:
    """ShortLex normal form in a right-angled Coxeter group, written from scratch.

    Reduce: a letter cancels the last earlier copy of itself when every letter
    in between commutes with it.  Then repeatedly emit the least letter that
    commutes with every letter before it.
    """
    def comm(a, b):
        return a == b or (min(a, b), max(a, b)) in commuting

    red: list = []
    for x in word:
        for i in range(len(red) - 1, -1, -1):
            if red[i] == x:
                del red[i]
                break
            if not comm(red[i], x):
                red.append(x)
                break
        else:
            red.append(x)
    out = []
    while red:
        movable = [i for i in range(len(red)) if all(comm(red[j], red[i]) for j in range(i))]
        i = min(movable, key=lambda k: red[k])
        out.append(red.pop(i))
    return tuple(out)


def chamber_sphere_sizes(rank: int, commuting: set, q: int, radius: int) -> list[int]:
    """Chambers per gallery distance from the growth series of the building.

    1/W(t) = sum over cliques T of the commuting graph of (-x/(1+x))^|T|,
    x = (q-1)t, as a power series with exact rationals.
    """
    cliques = [T for k in range(rank + 1) for T in itertools.combinations(range(rank), k)
               if all((a, b) in commuting for a, b in itertools.combinations(T, 2))]
    n = radius + 1
    # -x/(1+x) = sum_{m>=1} (-1)^m x^m
    base = [Fraction(0)] + [Fraction((-1) ** m * (q - 1) ** m) for m in range(1, n)]
    inv = [Fraction(0)] * n
    for T in cliques:
        term = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in T:
            term = [sum(term[i] * base[k - i] for i in range(k + 1)) for k in range(n)]
        inv = [a + b for a, b in zip(inv, term)]
    series = [Fraction(0)] * n
    for k in range(n):
        acc = Fraction(int(k == 0)) - sum(inv[i] * series[k - i] for i in range(1, k + 1))
        series[k] = acc / inv[0]
    return [int(c) for c in series]


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# tree: library calls on universal_groups, tree_aut, kak_tree, tree_core

TREE = {
    "full": dict(ball_radius=14, stab_radius=3, kak=(4, 2, 2), plus_k=3, contract=(10, 8),
                 big_degree=8, stab_guard=3000, kak_sample=16),
    "tiny": dict(ball_radius=6, stab_radius=2, kak=(2, 1, 1), plus_k=2, contract=(6, 3),
                 big_degree=5, stab_guard=40, kak_sample=4),
}
# |generate_plus_k(stabilizer ball, k)| frozen from the seed commit.
PLUS_K_SIZE = {"full": 64, "tiny": 8}


def tree_inputs(seed: int, size: str, workdir: Path) -> dict:
    rng = random.Random(seed)
    a, b = rng.sample((1, 2, 3), 2)
    return {"step": (a, b), "sample_seed": rng.randrange(2**32), "size": size}


def tree_tasks(inp: dict) -> list[Task]:
    cfg = TREE[inp["size"]]
    S3 = ug.LocalGroup.symmetric(3)
    shared: dict = {}

    r = cfg["ball_radius"]

    def check_ball(v):
        ball, spheres = v
        want = [1] + [3 * 2 ** (n - 1) for n in range(1, r + 1)]   # d (d-1)^(n-1)
        expect(spheres == want, f"sphere sizes {spheres}")
        expect(ball.vertex_count == sum(want), "vertex count")
        return spheres

    tasks = [Task(
        "tree_ball_spheres",
        [("ball", lambda _: tc.build_regular_ball(3, r)),
         ("ball", lambda ball: (ball, [len(tc.sphere(ball, ball.base, n)) for n in range(r + 1)]))],
        check_ball,
        corrupt=lambda v: (v[0], v[1][:-1] + [v[1][-1] + 1]))]

    sr = cfg["stab_radius"]

    def stab_ball(_):
        world = ug.ColorBall(3, sr)
        shared["stab"] = gb = ug.enumerate_u1_stabilizer_ball(S3, world)
        return world, gb

    def check_p1(v):
        world, gb, res = v
        interior = sum(1 for x in world.ball.vertices() if world.ball.depth[x] < sr)
        size = 6 * 2 ** (interior - 1)      # |S3| choices at the base, 2 at every other interior vertex
        expect(len(gb) == size, f"stabilizer ball size {len(gb)} != {size}")
        expect(res.holds, "P1 does not hold")
        expect(res.checked == size // 3, f"P1 checked {res.checked} != {size // 3}")
        expect(len(res.factor_keys) == res.checked, "factor keys")
        return [len(gb), res.checked]

    tasks.append(Task(
        "u1_stabilizer_p1",
        [("ball", stab_ball),
         ("certify", lambda v: (*v, ug.check_property_pk(v[1], (0, v[0].id_of[(1,)]), 1)))],
        check_p1))

    world_r, move, support = cfg["kak"]

    def kak_certify(v):
        world, gb = v
        dec = kt.enumerate_representatives(gb, 0, support)
        facts = [kt.factorize(g, dec) for g in gb]
        return world, gb, dec, facts, kt.certify_partition(dec, support)

    def check_kak(v):
        world, gb, dec, facts, cert = v
        addresses = 1 + sum(3 * 2 ** (n - 1) for n in range(1, move + 1))
        stab = 6 * 2 ** (sum(3 * 2 ** (n - 1) for n in range(1, support)))
        expect(len(gb) == addresses * stab, f"group ball size {len(gb)}")
        expect(sum(1 for g in gb if g.mapping.get(0) == 0) == stab, "stabilizer count")
        expect(len(facts) == len(gb), "factorizations")
        expect(cert.disjoint and cert.covers, "partition certificate")
        rng = random.Random(inp["sample_seed"])
        for i in rng.sample(range(len(gb)), cfg["kak_sample"]):
            g, f = gb.elements[i], facts[i]
            prod = ta.compose(f.k, ta.compose(f.a.element, f.k_prime))
            expect(kt.restriction_key(prod, world, support) == kt.restriction_key(g, world, support),
                   "k a k' differs from g")
        return [len(gb), len(dec.representatives), cert.disjoint, cert.covers]

    def kak_ball(_):
        world = ug.ColorBall(3, world_r)
        return world, ug.enumerate_u1_ball(S3, world, move, support)

    tasks.append(Task("tree_kak", [("ball", kak_ball), ("certify", kak_certify)], check_kak))

    k = cfg["plus_k"]

    def check_plus(plus):
        gb = shared["stab"]
        expect(len(gb) % len(plus) == 0, "plus-k size does not divide the stabilizer ball")
        expect(len(plus) == PLUS_K_SIZE[inp["size"]], f"plus-k size {len(plus)}")
        return len(plus)

    tasks.append(Task("plus_k", [("certify", lambda _: ug.generate_plus_k(shared["stab"], k))],
                      check_plus))

    cr, powers = cfg["contract"]
    step = inp["step"]

    def contract(world):
        gb = ug.GroupBall(world, [], closed=False, local_group=S3)
        seq = [ug.translation(world, step * i).restrict() for i in range(1, powers + 1)]
        return kt.contraction_witness_search(seq, gb, 0)

    def check_contract(cert):
        expect(isinstance(cert, kt.ContractionCertificate), f"no witness: {cert}")
        expect(cert.displacements == tuple(2 * i for i in range(1, powers + 1)),
               f"displacements {cert.displacements}")
        expect(all(d >= min(2 * i, cr) for i, d in enumerate(cert.depths, 1)), f"depths {cert.depths}")
        expect(cert.certified_radius == cr, "certified radius")
        return [list(cert.depths), cert.witness.key()[:8]]

    tasks.append(Task("contraction",
                      [("ball", lambda _: ug.ColorBall(3, cr)), ("contract", contract)],
                      check_contract))

    big = cfg["big_degree"]
    refusals = [
        Task("refuse_closure", [("refuse", refusal(lambda: ug.enumerate_u1_stabilizer_ball(
            ug.LocalGroup.symmetric(big), ug.ColorBall(big, 1), guard=100)))], check_refused),
        Task("refuse_stabilizer", [("refuse", refusal(lambda: ug.enumerate_u1_stabilizer_ball(
            S3, ug.ColorBall(3, sr), guard=cfg["stab_guard"])))], check_refused),
    ]
    return interleave(tasks, refusals)


# ---------------------------------------------------------------------------
# building: library calls on coxeter_ra, rab, kak_building

BUILDING = {
    "full": dict(words=50_000, max_word=24, nf_sample=2000, oracle_len=7, enum_len=12, wall_len=5,
                 balls=(("dinf", 10), ("free3", 6), ("path4", 5)), gate_radius=3, kak_L=8,
                 factor_ball=3, factor_count=12, contract_L=8, refuse=(("free3", 8, 5_000), ("path4", 40, 4_000))),
    "tiny": dict(words=500, max_word=12, nf_sample=100, oracle_len=3, enum_len=5, wall_len=3,
                 balls=(("dinf", 4), ("free3", 3), ("path4", 3)), gate_radius=2, kak_L=4,
                 factor_ball=2, factor_count=3, contract_L=6, refuse=(("free3", 5, 500), ("path4", 20, 500))),
}
SYSTEMS = {  # name -> (generators, commuting pairs as index pairs)
    "dinf": (("s", "t"), set()),
    "free3": (("a", "b", "c"), set()),
    "path4": (("a", "b", "c", "d"), {(0, 1), (1, 2), (2, 3)}),
}
CONTRACT_WS = ("t s", "t s t s", "t s t s t s")


def system(name: str) -> cox.RACoxeterSystem:
    gens, pairs = SYSTEMS[name]
    return cox.RACoxeterSystem.create(gens, [(gens[a], gens[b]) for a, b in pairs])


def spec(name: str, q: int = 3) -> rab.BuildingSpec:
    sysm = system(name)
    return rab.BuildingSpec(sysm, {g: q for g in sysm.generators})


def building_inputs(seed: int, size: str, workdir: Path) -> dict:
    cfg = BUILDING[size]
    rng = random.Random(seed)
    words = {}
    for name in ("free3", "path4"):
        rank = len(SYSTEMS[name][0])
        letters = range(rank)
        words[name] = [tuple(rng.choices(letters, k=rng.randint(0, cfg["max_word"])))
                       for _ in range(cfg["words"])]
    # building elements: composites of three panel rotations at short chambers
    rotations = [[(tuple((rng.randrange(2), rng.randrange(1, 3)) for _ in range(rng.randint(0, 2))),
                   rng.randrange(2)) for _ in range(3)] for _ in range(cfg["factor_count"])]
    return {"words": words, "rotations": rotations, "sample_seed": rng.randrange(2**32), "size": size}


def _oracle_classes(n: int, commuting: set, max_len: int) -> dict:
    """Union-find over all words up to max_len under cancellation and commutation moves."""
    words = [w for k in range(max_len + 1) for w in itertools.product(range(n), repeat=k)]
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    commuting = commuting | {(b, a) for a, b in commuting}
    for w, i in index.items():
        for pos in range(len(w) - 1):
            a, b = w[pos], w[pos + 1]
            if a == b:
                j = index[w[:pos] + w[pos + 2:]]
            elif (a, b) in commuting:
                j = index[w[:pos] + (b, a) + w[pos + 2:]]
            else:
                continue
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return {w: find(i) for w, i in index.items()}


def _small_systems() -> list[tuple[set, cox.RACoxeterSystem]]:
    """Every labelled right-angled system on three generators, with its commuting pairs."""
    names = ["a", "b", "c"]
    pairs = list(itertools.combinations(range(3), 2))
    out = []
    for mask in range(8):
        chosen = {pairs[i] for i in range(3) if mask >> i & 1}
        out.append((chosen, cox.RACoxeterSystem.create(names, [(names[a], names[b]) for a, b in chosen])))
    return out


def building_tasks(inp: dict) -> list[Task]:
    cfg = BUILDING[inp["size"]]
    tasks = []
    sample_rng = random.Random(inp["sample_seed"])

    for name in ("free3", "path4"):
        sysm = system(name)
        words = inp["words"][name]
        sample = sorted(sample_rng.sample(range(len(words)), cfg["nf_sample"]))

        def check_nf(nfs, name=name, words=words, sample=sample):
            expect(len(nfs) == len(words), "batch length")
            for w, el in zip(words, nfs):
                expect(len(el.word) <= len(w) and (len(w) - len(el.word)) % 2 == 0, f"length of {w}")
            rank, commuting = len(SYSTEMS[name][0]), SYSTEMS[name][1]
            for i in (range(len(words)) if name == "free3" else sample):
                want = (free_reduce(words[i]) if name == "free3"
                        else racg_normal_form(rank, commuting, words[i]))
                expect(nfs[i].word == want, f"normal form of {words[i]}")
            return digest([el.word for el in nfs])

        tasks.append(Task(
            f"nf_batch_{name}",
            [("certify", lambda _, sysm=sysm, words=words: [cox.normal_form(sysm, w) for w in words])],
            check_nf,
            corrupt=lambda nfs: nfs[1:] + nfs[:1]))

    systems = _small_systems()
    oracle_words = [w for k in range(cfg["oracle_len"] + 1) for w in itertools.product(range(3), repeat=k)]
    oracle_cache: dict = {}

    def check_oracle(all_nfs):
        for (commuting, _), nfs in zip(systems, all_nfs):
            key = frozenset(commuting)
            if key not in oracle_cache:
                oracle_cache[key] = _oracle_classes(3, commuting, cfg["oracle_len"])
            classes = oracle_cache[key]
            root_to_nf, nf_to_root = {}, {}
            for w, nf in zip(oracle_words, nfs):
                expect(root_to_nf.setdefault(classes[w], nf) == nf, f"{w}: class with two normal forms")
                expect(nf_to_root.setdefault(nf, classes[w]) == classes[w], f"{w}: normal form of two classes")
        return digest([list(nfs) for nfs in all_nfs])

    tasks.append(Task(
        "nf_oracle_small",
        [("certify", lambda _: [[cox.normal_form(s, w).word for w in oracle_words] for _, s in systems])],
        check_oracle))

    free3 = system("free3")
    n = cfg["enum_len"]

    def check_enum(els):
        want = [1] + [3 * 2 ** (k - 1) for k in range(1, n + 1)]
        got = [0] * (n + 1)
        for el in els:
            got[len(el.word)] += 1
        expect(got == want, f"element counts per length {got}")
        return len(els)

    tasks.append(Task("enumerate_free3", [("ball", lambda _: cox.enumerate_elements(free3, n))],
                      check_enum))

    wl = cfg["wall_len"]
    wall_systems = [system("dinf"), free3]

    def wall_certify(per_system):
        return [[(el, s, cox.wall_distance(el, s)) for el in els for s in sysm.generators]
                for sysm, els in zip(wall_systems, per_system)]

    def check_wall(per_system):
        for sysm, rows in zip(wall_systems, per_system):
            for el, s, d in rows:
                si = sysm.index_of(s)
                conj = free_reduce(el.word[::-1] + (si,) + el.word)   # both systems are free products
                expect(2 * d + 1 == len(conj), f"wall distance of {el} to {s}")
        return [len(rows) for rows in per_system]

    tasks.append(Task(
        "wall_distance",
        [("ball", lambda _: [cox.enumerate_elements(s, wl) for s in wall_systems]),
         ("certify", wall_certify)],
        check_wall))

    for name, L in cfg["balls"]:
        sp = spec(name)

        def check_ball(ball, name=name, L=L, sp=sp):
            want = chamber_sphere_sizes(len(SYSTEMS[name][0]), SYSTEMS[name][1], 3, L)
            expect(ball.sphere_sizes() == want, f"sphere sizes {ball.sphere_sizes()} != {want}")
            expect(len(ball) == rab.chamber_count_oracle(sp, L) == sum(want), "chamber count")
            return len(ball)

        tasks.append(Task(f"chamber_ball_{name}_L{L}",
                          [("ball", lambda _, sp=sp, L=L: rab.ChamberBall(sp, L))], check_ball))

    dinf = spec("dinf")
    gr = cfg["gate_radius"]

    def gate(ball):
        """Gate property: d(D, C') = d(D, proj_R D) + d(proj_R D, C') for C' in the residue R."""
        subsets = [(), ("s",), ("t",), ("s", "t")]
        checked = bad = 0
        seen = set()
        for C0 in ball.chambers:
            for J in subsets:
                Jidx = {dinf.system.index_of(x) for x in J}
                residue = frozenset(D.syllables for D in ball.chambers
                                    if all(t in Jidx for t in rab.weyl_distance(C0, D).word))
                if (J, residue) in seen:
                    continue
                seen.add((J, residue))
                for D in ball.chambers:
                    proj = rab.project(C0, J, D)
                    dp = rab.gallery_distance(D, proj)
                    for key in residue:
                        Cp = rab.Chamber(dinf, key)
                        checked += 1
                        bad += rab.gallery_distance(D, Cp) != dp + rab.gallery_distance(proj, Cp)
        return checked, bad

    def check_gate(v):
        checked, bad = v
        expect(checked > 0 and bad == 0, f"gate identity failed {bad} of {checked}")
        return checked

    tasks.append(Task("gate_identity",
                      [("ball", lambda _: rab.ChamberBall(dinf, gr)), ("certify", gate)], check_gate))

    L = cfg["kak_L"]

    def kak(ball):
        bc = kb.representatives(dinf, L)
        report = kb.double_coset_disjointness_check(bc)
        facts = []
        for parts in inp["rotations"]:
            auts = tuple(rab.PanelRotation(dinf, rab.make_chamber(dinf, base), s, (0, 2, 1))
                         for base, s in parts)
            g = rab.CompositeAut(dinf, auts).restrict(ball)
            facts.append((g, kb.factorize(g, bc, ball)))
        return bc, report, facts

    def check_kak(v):
        bc, report, facts = v
        expect(len(bc.reps) == 1 + 2 * L, f"{len(bc.reps)} representatives")   # |{w : l(w) <= L}| in D_inf
        expect(report.disjoint, "double cosets not disjoint")
        words = []
        for g, f in facts:
            target = g.exact.image(rab.identity_chamber(dinf))
            expect(f.w.word == tuple(s for s, _ in target.syllables), "Cartan label is not delta(C, gC)")
            expect(f.k.mapping.get(0) == 0 and f.k_prime.mapping.get(0) == 0, "k or k' moves the base")
            words.append(f.w.word)
        return [len(bc.reps), words]

    tasks.append(Task("building_kak",
                      [("ball", lambda _: rab.ChamberBall(dinf, cfg["factor_ball"])), ("certify", kak)],
                      check_kak))

    CL = cfg["contract_L"]

    def check_bcontract(cert):
        expect(isinstance(cert, kb.BuildingContractionCertificate), f"no witness: {cert}")
        expect(cert.fixed_ball_radii == (1, 3, 5), f"fixed ball radii {cert.fixed_ball_radii}")
        expect(not cert.witness.is_identity_on_ball(), "trivial witness")
        return list(cert.distances)

    tasks.append(Task("building_contraction", [("contract", lambda _: kb.building_contraction_witness(
        [cox.word_from_names(dinf.system, w) for w in CONTRACT_WS], dinf, CL))], check_bcontract))

    (bname, bL, bguard), (ename, eL, eguard) = cfg["refuse"]
    refusals = [
        Task(f"refuse_chamber_ball_{bname}", [("refuse", refusal(
            lambda: rab.ChamberBall(spec(bname), bL, guard=bguard)))], check_refused),
        Task(f"refuse_elements_{ename}", [("refuse", refusal(
            lambda: cox.enumerate_elements(system(ename), eL, guard=eguard)))], check_refused),
    ]
    return interleave(tasks, refusals)


# ---------------------------------------------------------------------------
# cli: one child process per subcommand, one at a time

# (task name, stage, argv); {dir} is the work directory, {seed} the workload seed.
CLI = {
    "full": [
        ("tree_json", "ball", "tree --radius 14"),
        ("tree_text", "ball", "tree --radius 14 --format text"),
        ("ugroup_p1", "certify", "ugroup --radius 3 --pk-k 1"),
        ("kak_tree", "certify", "kak-tree"),
        ("contract_tree", "contract", "contract-tree --radius 10"),
        ("coxeter_nf", "certify", "coxeter nf --config {dir}/path4.json --word {word}"),
        ("coxeter_profile", "certify", "coxeter profile --config {dir}/free3.json --max-length 8 --bound 3"),
        ("coxeter_root_growth", "contract", "coxeter root-growth --config {dir}/dinf.json --words-file {dir}/ws.json"),
        ("building_ball", "ball", "building ball --spec {dir}/dinf_q3.json --L 8"),
        ("building_kak", "certify", "building kak --spec {dir}/dinf_q3.json --L 8"),
        ("building_contract", "contract", "building contract --spec {dir}/dinf_q3.json --L 8 --ws-file {dir}/ws.json"),
        ("padic_2", "contract", "padic verify --p 2 --n-max 30 --seed {seed}"),
        ("padic_3", "contract", "padic verify --p 3 --n-max 30 --seed {seed}"),
        ("padic_5", "contract", "padic verify --p 5 --n-max 30 --seed {seed}"),
        ("refuse_degree9", "refuse", "ugroup --degree 9 --radius 1 --guard 100"),
        ("refuse_plus_k", "refuse", "ugroup --degree 3 --radius 3 --plus-k 1 --guard 3000"),
    ],
    "tiny": [
        ("tree_json", "ball", "tree --radius 4"),
        ("tree_text", "ball", "tree --radius 4 --format text"),
        ("ugroup_p1", "certify", "ugroup --radius 2 --pk-k 1"),
        ("kak_tree", "certify", "kak-tree --radius 1 --max-sphere 1"),
        ("contract_tree", "contract", "contract-tree --radius 6 --powers 3"),
        ("coxeter_nf", "certify", "coxeter nf --config {dir}/path4.json --word {word}"),
        ("coxeter_profile", "certify", "coxeter profile --config {dir}/free3.json --max-length 4 --bound 3"),
        ("coxeter_root_growth", "contract", "coxeter root-growth --config {dir}/dinf.json --words-file {dir}/ws.json"),
        ("building_ball", "ball", "building ball --spec {dir}/dinf_q3.json --L 3"),
        ("building_kak", "certify", "building kak --spec {dir}/dinf_q3.json --L 3"),
        ("building_contract", "contract", "building contract --spec {dir}/dinf_q3.json --L 6 --ws-file {dir}/ws.json"),
        ("padic_2", "contract", "padic verify --p 2 --n-max 6 --seed {seed}"),
        ("padic_3", "contract", "padic verify --p 3 --n-max 6 --seed {seed}"),
        ("padic_5", "contract", "padic verify --p 5 --n-max 6 --seed {seed}"),
        ("refuse_degree9", "refuse", "ugroup --degree 6 --radius 1 --guard 100"),
        ("refuse_plus_k", "refuse", "ugroup --degree 3 --radius 2 --plus-k 1 --guard 40"),
    ],
}
NF_WORD = "a b c d c b a d d a b a c a d b c d a b c a b d"
DIGESTS = HERE / "digests.json"


def cli_inputs(seed: int, size: str, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    files = {name: {"generators": list(SYSTEMS[name][0]),
                    "commuting_pairs": [[SYSTEMS[name][0][a], SYSTEMS[name][0][b]]
                                        for a, b in sorted(SYSTEMS[name][1])]}
             for name in ("dinf", "free3", "path4")}
    files["dinf_q3"] = {"coxeter": files["dinf"], "parameters": {"s": 3, "t": 3}}
    files["ws"] = list(CONTRACT_WS)
    for name, data in files.items():
        (workdir / f"{name}.json").write_text(json.dumps(data))
    argvs = [(name, stage, [tok.format(dir=workdir, seed=seed, word=NF_WORD) for tok in line.split()])
             for name, stage, line in CLI[size]]
    return {"argvs": argvs, "workdir": workdir, "size": size, "seed": seed}


def cli_digest(name: str, text: str):
    """Digest of a report; the seed-dependent echo of --seed is left out of padic reports."""
    if name.startswith("padic"):
        report = json.loads(text)
        report.pop("seed")
        return digest(report)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class ChildRun:
    code: int
    report: str | None
    stderr: str
    maxrss_kb: int
    trace: dict | None = field(default=None, repr=False)


def run_child(argv: list[str], workdir: Path, out: Path | None, trace: Path | None,
              timeout: float = 170.0) -> ChildRun:
    """Run one tdlc subcommand in a fresh interpreter and wait for it."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += ["--", *argv] + (["--out", str(out)] if out is not None else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=child_env(), cwd=workdir)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    # communicate() reaped the child; its peak RSS is in the children's usage.
    maxrss = child_maxrss_kb()
    report = None
    if out is not None and out.exists():
        report = out.read_text()
        out.unlink()
    payload = None
    if trace is not None and trace.exists():
        payload = json.loads(trace.read_text())
        trace.unlink()
    return ChildRun(proc.returncode, report, stderr.decode(errors="replace"), maxrss, payload)


def child_maxrss_kb() -> int:
    import resource
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return env


def cli_tasks(inp: dict, runner: Callable) -> list[Task]:
    """runner(task name, argv, out path or None) -> ChildRun, provided by the worker."""
    frozen = json.loads(DIGESTS.read_text())[inp["size"]]
    workdir = inp["workdir"]
    tasks = []
    for name, stage, argv in inp["argvs"]:
        if stage == "refuse":
            def check(run: ChildRun):
                expect(run.code == 2, f"exit code {run.code}, want 2: {run.stderr[-200:]}")
                expect(run.stderr.startswith("infeasible:"), "refusal without the infeasible message")
                expect(run.report is None, "refused config still wrote a report")
                return "refused"
            tasks.append(Task(name, [(stage, lambda _, n=name, a=argv: runner(n, a, None))], check))
            continue
        out = workdir / f"{name}.out"

        def check(run: ChildRun, name=name):
            expect(run.code == 0, f"exit code {run.code}: {run.stderr[-200:]}")
            expect(run.report is not None, "no report written")
            if name.startswith("padic"):
                report = json.loads(run.report)
                table = report["unipotent_contraction"]
                expect(all(table[str(n)] == n for n in range(len(table))), "contraction table[n] != n")
                expect(report["conjugation_formula"]["all_match"], "conjugation formula")
                expect(all(d["diverges"] for d in report["perturbed_divergence"].values()), "divergence")
            got = cli_digest(name, run.report)
            expect(got == frozen[name], f"report digest {got} != frozen {frozen[name]}")
            return got

        tasks.append(Task(name, [(stage, lambda _, n=name, a=argv, o=out: runner(n, a, o))], check,
                          corrupt=lambda run: ChildRun(run.code, (run.report or "") + "\n",
                                                       run.stderr, run.maxrss_kb, run.trace)))
    return tasks


INPUTS = {"tree": tree_inputs, "building": building_inputs, "cli": cli_inputs}
