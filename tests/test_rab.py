import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tdlc import coxeter_ra as cox
from tdlc import rab
from tdlc.errors import CertificationError, GuardExceeded
from oracles import (all_systems, bfs_chamber_ball, bfs_dist_chamber_to_root, composed_gallery_distance,
                     composed_project, composed_weyl_distance, count_first_refusal,
                     inverted_growth_series_count, kernel_bfs_elements, nontrivial_wing_sigmas,
                     pair_commutes, per_word_chamber_count, renormalising_base_panel_image)


def dinf_spec(qs=3, qt=3):
    system = cox.RACoxeterSystem.create(["s", "t"])
    return rab.BuildingSpec(system, {"s": qs, "t": qt})


def klein_spec(qs=3, qt=3):
    system = cox.RACoxeterSystem.create(["s", "t"], [("s", "t")])
    return rab.BuildingSpec(system, {"s": qs, "t": qt})


def ch(spec, *sylls):
    return rab.make_chamber(spec, sylls)


def test_chamber_arithmetic():
    spec = dinf_spec()
    C = ch(spec, ("s", 1), ("t", 2))
    assert rab.chamber_product(C, rab.chamber_inverse(C)) == rab.identity_chamber(spec)
    assert rab.chamber_product(ch(spec, ("s", 1)), ch(spec, ("s", 2))) == rab.identity_chamber(spec)
    two = rab.chamber_product(ch(spec, ("s", 1)), ch(spec, ("t", 1)))
    assert two.syllables == ((0, 1), (1, 1))


def test_chamber_merge_cascade():
    # (s,1)(t,1)(s,2) with s,t commuting: the two s-syllables merge to zero
    # and the chamber collapses to (t,1).
    spec = klein_spec()
    C = ch(spec, ("s", 1), ("t", 1), ("s", 2))
    assert C == ch(spec, ("t", 1))


def test_weyl_distance_examples():
    spec = dinf_spec()
    C = ch(spec, ("s", 1), ("t", 2))
    assert rab.weyl_distance(C, C).word == ()
    assert rab.weyl_distance(rab.identity_chamber(spec), ch(spec, ("s", 2))).names() == ("s",)
    assert rab.weyl_distance(ch(spec, ("s", 1)), ch(spec, ("s", 2))).names() == ("s",)


def test_gallery_distance():
    spec = dinf_spec()
    e = rab.identity_chamber(spec)
    assert rab.gallery_distance(e, e) == 0
    assert rab.gallery_distance(e, ch(spec, ("s", 1), ("t", 1))) == 2
    assert rab.gallery_distance(e, ch(spec, ("t", 2))) == 1


def test_panel():
    spec = dinf_spec()
    C = ch(spec, ("t", 1))
    p = rab.panel(C, "s")
    assert len(p) == 3 and C in p
    for D in p:
        assert rab.panel(D, "s") == p
    thin = dinf_spec(2, 2)
    assert len(rab.panel(rab.identity_chamber(thin), "s")) == 2


def test_ball_counts_against_oracle():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 2)
    assert len(ball) == 13
    assert rab.chamber_count_oracle(spec, 2) == 13
    sizes = ball.sphere_sizes()
    assert sizes == [1, 4, 8]
    bigger = rab.ChamberBall(spec, 4)
    assert bigger.sphere_sizes() == [1, 4, 8, 16, 32]
    assert len(bigger) == rab.chamber_count_oracle(spec, 4)
    mixed = rab.ChamberBall(dinf_spec(2, 3), 2)
    assert len(mixed) == rab.chamber_count_oracle(dinf_spec(2, 3), 2)


def test_building_axioms_exhaustive():
    for spec in (dinf_spec(3, 3), dinf_spec(2, 2), klein_spec(3, 2)):
        ball = rab.ChamberBall(spec, 3)
        chambers = ball.chambers
        e_word = ()
        for C in chambers:
            for D in chambers:
                w = rab.weyl_distance(C, D)
                assert (w.word == e_word) == (C == D)  # axiom (i)
                for s in range(spec.system.rank):
                    s_el = cox.CoxElement(spec.system, (s,))
                    sw = cox.multiply(s_el, w)
                    for Cp in rab.panel(C, s):
                        if Cp == C:
                            continue
                        wp = rab.weyl_distance(Cp, D)
                        assert wp.word in (w.word, sw.word)  # axiom (ii)
                        if len(sw.word) == len(w.word) + 1:
                            assert wp.word == sw.word
                    # axiom (iii): some s-neighbor realizes sw
                    assert any(
                        rab.weyl_distance(Cp, D).word == sw.word
                        for Cp in rab.panel(C, s) if Cp != C
                    )


def test_project_examples():
    spec = dinf_spec()
    e = rab.identity_chamber(spec)
    D = ch(spec, ("s", 1), ("t", 1))
    assert rab.project(e, ["s"], D) == ch(spec, ("s", 1))
    assert rab.project(e, ["s"], ch(spec, ("t", 1))) == e
    inside = ch(spec, ("s", 2))
    assert rab.project(e, ["s"], inside) == inside


def test_gate_property_exhaustive():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 3)
    subsets = [set(), {"s"}, {"t"}, {"s", "t"}]
    for C0 in ball.chambers[:9]:
        for J in subsets:
            Jidx = {spec.system.index_of(x) for x in J}
            residue = [D for D in ball.chambers
                       if all(t in Jidx for t in rab.weyl_distance(C0, D).word)]
            for D in ball.chambers:
                proj = rab.project(C0, J, D)
                dp = rab.gallery_distance(D, proj)
                for Cp in residue:
                    assert rab.gallery_distance(D, Cp) == dp + rab.gallery_distance(proj, Cp)


def test_wing_contains():
    spec = dinf_spec()
    e = rab.identity_chamber(spec)
    assert rab.wing_contains(e, "s", e)
    assert not rab.wing_contains(e, "s", ch(spec, ("s", 1)))
    assert rab.wing_contains(e, "s", ch(spec, ("t", 1)))


def test_apartment_chambers():
    spec = dinf_spec()
    ap = rab.ApartmentRef.default(spec)
    e = cox.identity(spec.system)
    assert rab.apartment_chamber(spec, ap, e) == rab.identity_chamber(spec)
    st = cox.word_from_names(spec.system, "s t")
    assert rab.apartment_chamber(spec, ap, st) == ch(spec, ("s", 1), ("t", 1))
    kspec = klein_spec()
    kap = rab.ApartmentRef.default(kspec)
    w1 = cox.normal_form(kspec.system, ["s", "t"])
    w2 = cox.normal_form(kspec.system, ["t", "s"])
    assert rab.apartment_chamber(kspec, kap, w1) == rab.apartment_chamber(kspec, kap, w2)


def test_apartment_thinness():
    spec = dinf_spec()
    ap = rab.ApartmentRef.default(spec)
    for w in cox.enumerate_elements(spec.system, 4):
        C = rab.apartment_chamber(spec, ap, w)
        for s in ("s", "t"):
            members = [D for D in rab.panel(C, s) if rab.in_apartment(spec, ap, D)]
            assert len(members) == 2


def test_panels_partition_ball():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 2)
    for s in ("s", "t"):
        seen = {}
        for C in ball.chambers:
            key = frozenset(D.syllables for D in rab.panel(C, s))
            seen.setdefault(key, set()).add(C.syllables)
        total = sum(len(v) for v in seen.values())
        assert total == len(ball)
        members, complete = ball.panel_members(ball.base(), s)
        assert complete and len(members) == 3


def test_dist_base_to_root():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 4)
    ap = rab.ApartmentRef.default(spec)
    sys_ = spec.system
    alpha_s = rab.RootRef(ap, cox.identity(sys_), 0)
    assert rab.dist_base_to_root(alpha_s, ball) == 0
    ts = cox.word_from_names(sys_, "t s")
    translated = rab.RootRef(ap, ts, 0)
    assert rab.dist_base_to_root(translated, ball) == 2
    assert bfs_dist_chamber_to_root(ch(spec, ("s", 1)), alpha_s, ball) == 1


def test_dist_base_to_root_matches_the_in_ball_bfs():
    # Every labelled right-angled system with 2-4 generators, uniform q in {2, 3},
    # balls of every radius up to L, and every root u.alpha_s with l(u) <= L + 2,
    # so that roots beyond the ball are refused by both sides.
    cases = refusals = 0
    for n, L in ((2, 3), (3, 2), (4, 1)):
        for system in all_systems(n):
            roots = [(u, s) for u in cox.enumerate_elements(system, L + 2) for s in range(n)]
            for q in (2, 3):
                spec = rab.BuildingSpec(system, {g: q for g in system.generators})
                ap = rab.ApartmentRef.default(spec)
                for radius in range(L + 1):
                    ball = rab.ChamberBall(spec, radius)
                    for u, s in roots:
                        r = rab.RootRef(ap, u, s)
                        try:
                            want = bfs_dist_chamber_to_root(ball.base(), r, ball)
                        except CertificationError:
                            with pytest.raises(CertificationError, match="not represented"):
                                rab.dist_base_to_root(r, ball)
                            refusals += 1
                        else:
                            assert rab.dist_base_to_root(r, ball) == want, (system, q, radius, u, s)
                        cases += 1
    assert (cases, refusals) == (36976, 9438)


WING_DISTANCE_SPECS = {
    "free3_q345": ([], (3, 4, 5)),
    "path3_q345": ([("a", "b"), ("b", "c")], (3, 4, 5)),
    "path4_q3434": ([("a", "b"), ("b", "c"), ("c", "d")], (3, 4, 3, 4)),
}


@pytest.mark.parametrize("pairs, qs", WING_DISTANCE_SPECS.values(), ids=WING_DISTANCE_SPECS)
def test_dist_base_to_wing_is_the_nearest_wing_chamber(pairs, qs):
    # For every X in B(1, 2) and every s: the minimum of d(1, D) over the chambers D
    # of B(1, 6) whose gate on X's s-panel is X, the first such chamber in the ball's
    # (length, syllables) order.  X lies in its own wing, so the minimum is in the ball.
    names = "abcd"[:len(qs)]
    spec = rab.BuildingSpec(cox.RACoxeterSystem.create(list(names), pairs), dict(zip(names, qs)))
    ball = rab.ChamberBall(spec, 6)
    inner = ball.chambers[:rab.chamber_count_oracle(spec, 2)]
    seen = set()
    for X in inner:
        for s in range(spec.system.rank):
            want = next(len(D.syllables) for D in ball.chambers if rab.project(X, [s], D) == X)
            assert rab.dist_base_to_wing(X, s) == want, (X, s)
            seen.add(want)
    assert seen == {0, 1, 2}


def test_panel_rotation_basics():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 2)
    e = rab.identity_chamber(spec)
    ident = rab.PanelRotation(spec, e, 0, (0, 1, 2)).restrict(ball)
    assert ident.is_identity_on_ball()
    swap = rab.PanelRotation(spec, e, 0, (0, 2, 1)).restrict(ball)
    fixed = [C for C in ball.chambers if rab.wing_contains(e, "s", C)]
    for C in fixed:
        assert swap(C) == C
    moved = [C for C in ball.chambers if swap(C) is not None and swap(C) != C]
    assert moved
    with pytest.raises(ValueError):
        rab.PanelRotation(spec, e, 0, (1, 0, 2))


def test_panel_rotation_composition_law():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 3)
    e = rab.identity_chamber(spec)
    sigma = (0, 2, 1)
    tau = (0, 2, 1)
    rho_sigma = rab.PanelRotation(spec, e, 0, sigma)
    rho_tau = rab.PanelRotation(spec, e, 0, tau)
    comp = rho_sigma.compose(rho_tau)
    prod = tuple(sigma[tau[i]] for i in range(3))
    rho_prod = rab.PanelRotation(spec, e, 0, prod)
    for C in ball.chambers:
        assert comp.image(C) == rho_prod.image(C)


def test_base_panel_permutation_is_apartment_reflection():
    spec = dinf_spec()
    ap = rab.ApartmentRef.default(spec)
    sys_ = spec.system
    flip = rab.BasePanelPermutation(spec, 0, (1, 0, 2))
    for w in cox.enumerate_elements(sys_, 4):
        sw = cox.multiply(cox.word_from_names(sys_, "s"), w)
        assert flip.image(rab.apartment_chamber(spec, ap, w)) == rab.apartment_chamber(spec, ap, sw)


def test_wing_fixator_generators():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 2)
    e = rab.identity_chamber(spec)
    gens = rab.wing_fixator(ball, e, "s")
    assert len(gens) >= 1
    for g in gens:
        for C in ball.chambers:
            if rab.wing_contains(e, "s", C):
                assert g.image(C) == C

    thin = rab.ChamberBall(dinf_spec(2, 2), 2)
    assert rab.wing_fixator(thin, rab.identity_chamber(thin.spec), "s") == []


def test_check_root_fixes_ball():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 3)
    ap = rab.ApartmentRef.default(spec)
    ts = cox.word_from_names(spec.system, "t s")
    root = rab.RootRef(ap, ts, 0)  # distance 2 from the base chamber
    assert rab.check_root_fixes_ball(ball, root, 1) is True
    assert rab.check_root_fixes_ball(ball, root, 0) is True
    assert rab.check_root_fixes_ball(ball, root, 2) == "inapplicable"


def test_spec_json_round_trip():
    spec = dinf_spec()
    back = rab.BuildingSpec.from_json(spec.to_json())
    assert back.system == spec.system and back.parameters == spec.parameters
    C = ch(spec, ("s", 1), ("t", 2))
    assert rab.chamber_from_json(spec, C.to_json()) == C


# ---------------------------------------------------------------------------
# the chamber normal form against an independent oracle

def oracle_chamber(spec, syllables):
    """Syllable normal form by a two-pass algorithm on pair_commutes.

    Merge with a visible same-type syllable (re-inserting the tail after a
    zero merge), then ShortLex-minimise the type word.  Kept as an oracle:
    it shares nothing with the kernel's bitmasks or its one-pass insertion.
    """
    system = spec.system

    def insert(syls, s, c):
        c %= spec.q(s)
        if c == 0:
            return
        for i in range(len(syls) - 1, -1, -1):
            t, c2 = syls[i]
            if t == s:
                merged = (c2 + c) % spec.q(s)
                if merged:
                    syls[i] = (s, merged)
                else:
                    tail = syls[i + 1:]
                    del syls[i:]
                    for t2, c3 in tail:
                        insert(syls, t2, c3)
                return
            if not pair_commutes(system, t, s):
                break
        syls.append((s, c))

    syls = []
    for s, c in syllables:
        insert(syls, s, c)
    out = []
    while syls:
        best = 0
        for i in range(1, len(syls)):
            if syls[i][0] < syls[best][0] and all(pair_commutes(system, syls[j][0], syls[i][0]) for j in range(i)):
                best = i
        out.append(syls.pop(best))
    return tuple(out)


def specs3(qs):
    names = ["a", "b", "c"]
    for system in (cox.RACoxeterSystem.create(names, [p for i, p in enumerate(itertools.combinations(names, 2))
                                                      if mask >> i & 1]) for mask in range(8)):
        yield rab.BuildingSpec(system, dict(zip(names, qs)))


SPECS3 = [spec for qs in ((2, 2, 2), (3, 3, 3), (2, 3, 3)) for spec in specs3(qs)]
SYSTEMS4 = list(all_systems(4))


@st.composite
def specs(draw):
    """A labelled 3-generator spec of SPECS3, or any labelled 4-generator
    system with panel sizes drawn from 2..5."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPECS3))
    system = draw(st.sampled_from(SYSTEMS4))
    qs = draw(st.lists(st.integers(2, 5), min_size=4, max_size=4))
    return rab.BuildingSpec(system, dict(zip(system.generators, qs)))


def syllable_words(spec, max_size=24):
    """Syllables (s, e) with e in -7..7: zero, multiples of q_s and their neighbours."""
    return st.lists(st.tuples(st.integers(0, spec.system.rank - 1), st.integers(-7, 7)), max_size=max_size)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_chamber_kernel_matches_oracle(data):
    # Every branch of the kernel: merges and pops at the tail, appends after a
    # non-commuting tail, and scans of a commuting one.
    spec = data.draw(specs())
    syllables = data.draw(syllable_words(spec))
    C = rab.make_chamber(spec, syllables)
    assert C.syllables == oracle_chamber(spec, syllables)
    assert rab.make_chamber(spec, C.syllables) == C  # idempotent


def test_chamber_kernel_matches_oracle_on_every_4_generator_system():
    # All 64 labelled systems, each with two seeded panel-size vectors mixing
    # 2..5 and 25 seeded words of up to 24 syllables with e in -7..7.
    rng = random.Random(4)
    for system in SYSTEMS4:
        for _ in range(2):
            spec = rab.BuildingSpec(system, {g: rng.randint(2, 5) for g in system.generators})
            for _ in range(25):
                syllables = [(rng.randrange(4), rng.randint(-7, 7)) for _ in range(rng.randint(0, 24))]
                assert rab.make_chamber(spec, syllables).syllables == oracle_chamber(spec, syllables), \
                    (system, spec.parameters, syllables)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_distances_match_the_composed_oracles(data):
    """weyl_distance, gallery_distance and project read C^-1 D off one kernel
    pass; the oracles build chamber_inverse(C) and its product with D."""
    spec = data.draw(specs())
    C = rab.make_chamber(spec, data.draw(syllable_words(spec, 12)))
    D = rab.make_chamber(spec, data.draw(syllable_words(spec, 12)))
    J = data.draw(st.lists(st.integers(0, spec.system.rank - 1), unique=True))
    assert rab.weyl_distance(C, D) == composed_weyl_distance(C, D)
    assert rab.gallery_distance(C, D) == composed_gallery_distance(C, D)
    got = rab.project(C, J, D)
    assert got == composed_project(C, J, D)
    assert got.syllables == oracle_chamber(spec, got.syllables)   # a normal form


@pytest.mark.parametrize("spec", SPECS3)
def test_chamber_times_matches_whole_word(spec):
    for C in rab.ChamberBall(spec, 4).chambers:
        for s in range(3):
            for c in range(1, spec.q(s)):
                got = rab.chamber_times(C, ((s, c),))
                assert got.syllables == oracle_chamber(spec, C.syllables + ((s, c),)), (C, s, c)


# SPECS3[9], [13], [21]: a-b commuting with q = 3; the path a-b-c with q = 3 and with q = (2, 3, 3).
@pytest.mark.parametrize("spec", [dinf_spec(), klein_spec(), SPECS3[9], SPECS3[13], SPECS3[21]])
def test_automorphism_images_match_oracle(spec):
    """Panel rotations and base-panel permutations against their definitions, on oracle normal forms."""
    ball = rab.ChamberBall(spec, 3)
    rank = spec.system.rank

    def initial(x, s):
        for i, (t, _) in enumerate(x):
            if t == s and all(pair_commutes(spec.system, x[j][0], s) for j in range(i)):
                return i
        return None

    for s in range(rank):
        q = spec.q(s)
        sigma = (0,) + tuple(range(q - 1, 0, -1))
        rho = tuple(range(1, q)) + (0,)
        flip = rab.BasePanelPermutation(spec, s, rho)
        for base in ball.chambers[:6]:
            rot = rab.PanelRotation(spec, base, s, sigma)
            inv = [(t, -c) for t, c in reversed(base.syllables)]
            for C in ball.chambers:
                x = list(oracle_chamber(spec, inv + list(C.syllables)))
                pos = initial(x, s)
                if pos is None:
                    want = C.syllables
                else:
                    c = x.pop(pos)[1]
                    want = oracle_chamber(spec, list(base.syllables) + [(s, sigma[c])] + x)
                assert rot.image(C).syllables == want
        for C in ball.chambers:
            x = list(C.syllables)
            pos = initial(x, s)
            c = 0 if pos is None else x.pop(pos)[1]
            assert flip.image(C).syllables == oracle_chamber(spec, [(s, rho[c])] + x)


def path4_spec():
    """a-b, b-c and c-d commute; panel sizes 3, 4, 3, 4."""
    system = cox.RACoxeterSystem.create(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    return rab.BuildingSpec(system, {"a": 3, "b": 4, "c": 3, "d": 4})


def left_rule_case(spec, s, rho, C):
    """The case of BasePanelPermutation.image that C falls in, by its docstring's
    conditions, with initial letters read off pair_commutes."""
    x = C.syllables
    initial = [i for i, (t, _) in enumerate(x)
               if all(pair_commutes(spec.system, x[j][0], t) for j in range(i))]
    pos = next((i for i in initial if x[i][0] == s), None)
    c = 0 if pos is None else x[pos][1]
    if rho[c] == c:
        return "fixed"
    if c and rho[c]:
        return "recolour"
    if pos == 0:
        return "suffix"
    if not c and not any(x[i][0] < s and pair_commutes(spec.system, x[i][0], s) for i in initial):
        return "prepend"
    return "kernel"


LEFT_RULE_BALLS = [rab.ChamberBall(spec, 4) for qs in ((2, 2, 2), (3, 3, 3), (2, 3, 3))
                   for spec in specs3(qs)] + [rab.ChamberBall(path4_spec(), 3)]


def test_base_panel_images_match_the_renormalising_oracle(monkeypatch):
    # Every chamber, generator and colour permutation rho of every labelled
    # 3-generator system (q = 2, q = 3 and q = 2, 3, 3; radius 4) and of path4
    # (q = 3, 4, 3, 4; radius 3).  The kernel runs exactly in the fallback case,
    # and every case is taken.
    kernel = rab.chamber_times
    calls = []

    def counted(C, syllables):
        calls.append(1)
        return kernel(C, syllables)

    monkeypatch.setattr(rab, "chamber_times", counted)
    cases = dict.fromkeys(("fixed", "recolour", "suffix", "prepend", "kernel"), 0)
    for ball in LEFT_RULE_BALLS:
        spec = ball.spec
        for s in range(spec.system.rank):
            for rho in itertools.permutations(range(spec.q(s))):
                perm = rab.BasePanelPermutation(spec, s, rho)
                for C in ball.chambers:
                    want = renormalising_base_panel_image(perm, C)
                    case = left_rule_case(spec, s, rho, C)
                    calls.clear()
                    got = perm.image(C)
                    assert got == want, (spec.system, s, rho, C)
                    assert len(calls) == (case == "kernel"), (spec.system, s, rho, C, case)
                    cases[case] += 1
    assert all(cases.values()), cases


@pytest.mark.parametrize("spec", [dinf_spec(2, 2), dinf_spec(), klein_spec(), path4_spec()],
                         ids=["dinf_q2", "dinf_q3", "klein_q3", "path4_q3434"])
def test_chamber_facts_match_distance_and_gate_oracles(spec):
    """Distance from the base and the s-wing test against the general pair rules.

    The base is the identity chamber, so delta(1, C) is C's type word and
    d(1, C) its syllable count; D lies in the s-wing of C exactly when the
    gate of D on C's s-panel is C itself.
    """
    ball = rab.ChamberBall(spec, 3)
    e = rab.identity_chamber(spec)
    for C in ball.chambers:
        assert len(C.syllables) == rab.gallery_distance(e, C)
        assert C.type_word() == rab.weyl_distance(e, C)
        C_inverse = rab.chamber_inverse(C)
        for D in ball.chambers:
            CD = rab.chamber_product(C_inverse, D).syllables
            for s in range(spec.system.rank):
                in_wing = rab.project(C, [s], D) == C
                assert rab.wing_contains(C, s, D) == in_wing
                x, pos = rab.wing_split(C_inverse, s, D)
                assert tuple(x) == CD
                assert (pos is None) == in_wing


def test_chamber_ball_guard_fires_before_layer_completes():
    # D_inf with q = 3 has 1, 5, 13, 29 chambers up to radius 0..3; the guard is
    # checked on the automaton's count, so it refuses with the exact total of 29
    # before any chamber is built.
    spec = dinf_spec()
    with pytest.raises(GuardExceeded, match="^chamber ball enumeration: 29 objects exceeds guard 14$"):
        rab.ChamberBall(spec, 3, guard=14)
    assert len(rab.ChamberBall(spec, 3, guard=29)) == 29
    with pytest.raises(GuardExceeded, match="^chamber ball enumeration: 29 objects exceeds guard 28$"):
        rab.ChamberBall(spec, 3, guard=28)
    # free3 with q = 3 has 6^40 > 10^31 chambers up to length 40: the count stops at
    # length 6, the first whose running total (8,191) passes the guard, and reports
    # it as a lower bound.
    free3 = rab.BuildingSpec(cox.RACoxeterSystem.create(["a", "b", "c"]), {"a": 3, "b": 3, "c": 3})
    with pytest.raises(GuardExceeded,
                       match=r"^chamber ball enumeration \(lower bound\): 8191 objects exceeds guard 5000$"):
        rab.ChamberBall(free3, 40, guard=5000)
    # D_inf with q = 2 has two chambers per sphere: at radius 10^9 the count stops
    # at radius 50, 101 chambers.
    with pytest.raises(GuardExceeded,
                       match=r"^chamber ball enumeration \(lower bound\): 101 objects exceeds guard 100$"):
        rab.ChamberBall(dinf_spec(2, 2), 10**9, guard=100)


def test_chamber_ball_guard_edges():
    # The identity is never guard-checked: a radius-0 ball is never refused.
    spec = dinf_spec()
    assert rab.ChamberBall(spec, 0, guard=0).chambers == (rab.identity_chamber(spec),)
    with pytest.raises(GuardExceeded, match="^chamber ball enumeration: 5 objects exceeds guard 0$"):
        rab.ChamberBall(spec, 1, guard=0)


def ball_or_refusal(build):
    try:
        return build()
    except GuardExceeded as exc:
        return str(exc)


def test_chamber_ball_matches_the_bfs_oracle():
    # Every labelled right-angled system with 2-4 generators, q uniform 2, uniform 3
    # and mixed (3, 4, 2, 5), every radius up to 4, 3 and 2: the colourings of the
    # ShortLex words are the chambers the breadth-first search reaches.
    cases = refusals = 0
    for n, L in ((2, 4), (3, 3), (4, 2)):
        for system in all_systems(n):
            for qs in ((2,) * n, (3,) * n, (3, 4, 2, 5)[:n]):
                spec = rab.BuildingSpec(system, dict(zip(system.generators, qs)))
                for radius in range(L + 1):
                    ball = rab.ChamberBall(spec, radius)
                    want = bfs_chamber_ball(spec, radius, None)
                    assert ball.chambers == want, (system, qs, radius)
                    assert ball.index == {C.syllables: i for i, C in enumerate(want)}
                    sizes = [sum(len(C.syllables) == k for C in want) for k in range(radius + 1)]
                    assert ball.sphere_sizes() == sizes
                    assert len(ball) == rab.chamber_count_oracle(spec, radius)
                    for guard in (0, 1, 3, 7, 20):
                        # The BFS refuses at the first chamber over the cap, the ball on its
                        # count first: both refuse together, the ball with the count's message.
                        got = ball_or_refusal(lambda: rab.ChamberBall(spec, radius, guard=guard).chambers)
                        refused = count_first_refusal([len(C.syllables) for C in want], radius, guard,
                                                      "chamber ball enumeration")
                        assert got == (want if refused is None else refused), (system, qs, radius, guard)
                        assert isinstance(ball_or_refusal(lambda: bfs_chamber_ball(spec, radius, guard)), str) \
                            == isinstance(got, str), (system, qs, radius, guard)
                        refusals += isinstance(got, str)
                    cases += 1
    assert (cases, refusals) == (702, 1980)


def test_chamber_ball_is_the_bfs_ball_in_increasing_order():
    # Every labelled system with 2-4 generators at radii 5, 4 and 3, q uniform 3 and
    # mixed (3, 4, 2, 5), and D_inf with q = 2 at radius 200: the walk lists the
    # chambers the chamber BFS reaches, strictly increasing in (length, syllables).
    cases = [(rab.BuildingSpec(system, dict(zip(system.generators, qs))), L)
             for n, L in ((2, 5), (3, 4), (4, 3)) for system in all_systems(n)
             for qs in ((3,) * n, (3, 4, 2, 5)[:n])] + [(dinf_spec(2, 2), 200)]
    assert len(cases) == 2 * (2 + 8 + 64) + 1
    for spec, L in cases:
        chambers = rab.ChamberBall(spec, L).chambers
        assert chambers == bfs_chamber_ball(spec, L, None), (spec, L)
        keys = [(len(C.syllables), C.syllables) for C in chambers]
        assert all(a < b for a, b in zip(keys, keys[1:])), (spec, L)


def test_chamber_count_oracle_matches_the_listed_balls():
    # The growth series against the listed ball, the per-word sum and the chamber BFS,
    # on every labelled system with 2-4 generators and mixed panel sizes.
    for n, L in ((2, 6), (3, 4), (4, 3)):
        for system in all_systems(n):
            for qs in ((3, 4, 2, 5)[:n], (5, 2, 4, 3)[:n]):
                spec = rab.BuildingSpec(system, dict(zip(system.generators, qs)))
                for radius in range(L + 1):
                    count = rab.chamber_count_oracle(spec, radius)
                    assert count == len(rab.ChamberBall(spec, radius)), (system, qs, radius)
                    assert count == per_word_chamber_count(spec, radius), (system, qs, radius)
                assert count == len(bfs_chamber_ball(spec, L, None)), (system, qs)


def test_chamber_count_oracle_matches_the_inverted_series():
    # W = D/N read off N W = D against the O(L^2) inversion of 1/W, on every labelled
    # system with 4 generators and mixed panel sizes.
    systems = list(all_systems(4))
    assert len(systems) == 64
    for system in systems:
        for qs in ((3, 4, 2, 5), (2, 2, 3, 4)):
            spec = rab.BuildingSpec(system, dict(zip(system.generators, qs)))
            for radius in (0, 1, 2, 5, 12, 40):
                assert rab.chamber_count_oracle(spec, radius) == inverted_growth_series_count(spec, radius), \
                    (system, qs, radius)


THREE_AND_FOUR_GENERATOR_SYSTEMS = list(all_systems(3)) + list(all_systems(4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(THREE_AND_FOUR_GENERATOR_SYSTEMS), st.data())
def test_sphere_sizes_match_the_walk_and_the_growth_series(system, data):
    # The automaton's count against the listed walk (radius <= 6, at most 5,000
    # chambers) and against both growth-series totals (radius <= 60).
    qs = data.draw(st.lists(st.integers(2, 4), min_size=system.rank, max_size=system.rank))
    spec = rab.BuildingSpec(system, dict(zip(system.generators, qs)))
    radius = data.draw(st.integers(0, 60))
    sizes = cox.shortlex_sphere_sizes(system._comm, spec._q, radius, 10**100, "count")
    assert 1 <= len(sizes) <= radius + 1 and all(sizes)
    assert sum(sizes) == rab.chamber_count_oracle(spec, radius) == inverted_growth_series_count(spec, radius)
    sizes += [0] * (radius + 1 - len(sizes))
    listed = max(r for r in range(min(radius, 6) + 1) if sum(sizes[:r + 1]) <= 5000)
    walked = [0] * (listed + 1)
    for syllables in cox.shortlex_walk(system._comm, spec._q, listed):
        walked[len(syllables)] += 1
    assert walked == sizes[:listed + 1]


def test_refusals_build_no_chamber_and_no_element(monkeypatch):
    # Every guard is checked on the count, before the first chamber or element.
    def built(*args):
        raise AssertionError("a chamber or an element was built before the refusal")

    monkeypatch.setattr(rab.Chamber, "_trusted", built)
    monkeypatch.setattr(cox.CoxElement, "_trusted", built)
    free3 = cox.RACoxeterSystem.create(["a", "b", "c"])
    free3_q3 = rab.BuildingSpec(free3, {"a": 3, "b": 3, "c": 3})
    refusals = [
        lambda: rab.ChamberBall(dinf_spec(), 1, guard=0),
        lambda: rab.ChamberBall(dinf_spec(), 3, guard=14),
        lambda: rab.ChamberBall(dinf_spec(), 18),
        lambda: rab.ChamberBall(dinf_spec(2, 3), 4, guard=7),
        lambda: rab.ChamberBall(dinf_spec(2, 2), 10**9, guard=100),
        lambda: rab.ChamberBall(free3_q3, 40, guard=5000),
        lambda: cox.enumerate_elements(dinf_spec().system, 1, guard=0),
        lambda: cox.enumerate_elements(free3, 3, guard=12),
        lambda: cox.enumerate_elements(free3, 40, guard=5000),
        lambda: cox.profile_bounded_set(free3, 40, 3, guard=5000),
    ]
    for refuse in refusals:
        with pytest.raises(GuardExceeded):
            refuse()
    # Counts are read without a listing too.
    ball = rab.ChamberBall(dinf_spec(), 17)
    assert (len(ball), ball.sphere_sizes()) == (524285, [1] + [2 ** (k + 1) for k in range(1, 18)])


def test_chamber_ball_builds_and_refuses_without_the_chamber_kernel(monkeypatch):
    spec = dinf_spec(2, 3)
    want = bfs_chamber_ball(spec, 4, None)
    free3 = cox.RACoxeterSystem.create(["a", "b", "c"])
    elements = [w.word for w in kernel_bfs_elements(free3, 3)]

    def no_kernel(*args):
        raise AssertionError("chamber_times or right_multiply was called")

    monkeypatch.setattr(rab, "chamber_times", no_kernel)
    monkeypatch.setattr(rab, "right_multiply", no_kernel)
    monkeypatch.setattr(cox, "right_multiply", no_kernel)
    assert rab.ChamberBall(spec, 4).chambers == want
    with pytest.raises(GuardExceeded, match=r"^chamber ball enumeration \(lower bound\): 8 objects exceeds guard 7$"):
        rab.ChamberBall(spec, 4, guard=7)
    assert [w.word for w in cox.enumerate_elements(free3, 3)] == elements
    with pytest.raises(GuardExceeded, match="^coxeter element enumeration: 22 objects exceeds guard 12$"):
        cox.enumerate_elements(free3, 3, guard=12)


def test_chamber_ball_rejects_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        rab.ChamberBall(dinf_spec(), -1)


def test_chamber_json_validation():
    spec = dinf_spec()
    for bad in ([["s", "1"]], [["s", 1.5]], [["u", 1]], [["s", True]]):
        with pytest.raises(ValueError):
            rab.chamber_from_json(spec, bad)


def test_spec_json_validation():
    coxeter = {"generators": ["s", "t"], "commuting_pairs": []}
    for bad in ({"coxeter": coxeter},
                {"parameters": {"s": 3, "t": 3}},
                {"coxeter": coxeter, "parameters": {"s": "3", "t": 3}},
                {"coxeter": coxeter, "parameters": {"s": True, "t": 3}},
                {"coxeter": coxeter, "parameters": {"s": 3, "t": 3, "u": 3}},
                {"coxeter": coxeter, "parameters": [["s", 3], ["t", 3]]},
                {"coxeter": {"generators": "st"}, "parameters": {"s": 3, "t": 3}}):
        with pytest.raises(ValueError):
            rab.BuildingSpec.from_json(bad)


# ---------------------------------------------------------------------------
# ball views against the adjacency check they no longer run

def valid_ball_view(view):
    """The injectivity and s-adjacency check that FiniteBuildingAutomorphism's
    constructor ran before restrict was trusted to build valid views, kept
    word for word as the oracle; raises ValueError on an invalid view."""
    images = set(view.mapping.values())
    if len(images) != len(view.mapping):
        raise ValueError("mapping is not injective")
    ball = view.ball
    for i, j in view.mapping.items():
        Ci, Cj = ball.chambers[i], ball.chambers[j]
        for s in range(ball.spec.system.rank):
            for D in rab.panel(Ci, s):
                di = ball.index.get(D.syllables)
                if di is not None and di in view.mapping:
                    w = rab.weyl_distance(Cj, ball.chambers[view.mapping[di]])
                    if D != Ci and w.word != (s,):
                        raise ValueError("mapping does not preserve s-adjacency")
    return True


def swapped_images(view):
    """view with the images of two chambers swapped, or None.

    The chambers are Ci, which has a mapped panel neighbour D, and Cj at
    gallery distance >= 2 from Ci.  After the swap Ci goes to g(Cj), which
    is not adjacent to g(D) because Cj is not adjacent to D, so the oracle
    must reject the view.
    """
    ball, mapping = view.ball, view.mapping
    for i in mapping:
        Ci = ball.chambers[i]
        if not any(ball.index.get(D.syllables) in mapping
                   for s in range(ball.spec.system.rank) for D in rab.panel(Ci, s) if D != Ci):
            continue
        for j in mapping:
            if rab.gallery_distance(Ci, ball.chambers[j]) >= 2:
                swapped = dict(mapping)
                swapped[i], swapped[j] = mapping[j], mapping[i]
                return rab.FiniteBuildingAutomorphism(ball, swapped, view.exact)
    return None


VIEW_BALLS = [rab.ChamberBall(spec, 3) for spec in
              (dinf_spec(2, 2), dinf_spec(3, 3), dinf_spec(4, 4), dinf_spec(2, 4), klein_spec(), path4_spec())]


@st.composite
def composites(draw, ball):
    """A composite of 1-4 panel rotations (based in the ball) and base-panel permutations."""
    spec = ball.spec
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.integers(0, spec.system.rank - 1))
        q = spec.q(t)
        if draw(st.booleans()):
            sigma = (0,) + tuple(draw(st.permutations(range(1, q))))
            parts.append(rab.PanelRotation(spec, draw(st.sampled_from(ball.chambers)), t, sigma))
        else:
            parts.append(rab.BasePanelPermutation(spec, t, tuple(draw(st.permutations(range(q))))))
    return rab.CompositeAut(spec, tuple(parts))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restricted_composites_are_valid_ball_views(data):
    ball = data.draw(st.sampled_from(VIEW_BALLS))
    view = data.draw(composites(ball)).restrict(ball)
    assert valid_ball_view(view)
    bad = swapped_images(view)
    if bad is not None:
        with pytest.raises(ValueError, match="adjacency"):
            valid_ball_view(bad)


def test_the_ball_view_oracle_rejects_swapped_images():
    spec = dinf_spec()
    ball = rab.ChamberBall(spec, 3)
    view = rab.PanelRotation(spec, rab.make_chamber(spec, [("t", 1)]), 0, (0, 2, 1)).restrict(ball)
    assert valid_ball_view(view)
    bad = swapped_images(view)
    assert bad is not None
    with pytest.raises(ValueError, match="adjacency"):
        valid_ball_view(bad)
    duplicate = dict(view.mapping)
    duplicate[0] = duplicate[1]
    with pytest.raises(ValueError, match="injective"):
        valid_ball_view(rab.FiniteBuildingAutomorphism(ball, duplicate, view.exact))


# ---------------------------------------------------------------------------
# wing-fixator transpositions against the listing of every wing permutation

def rotation_supports(ball):
    """(D, t, sigma) -> the ball indices PanelRotation(D, t, sigma) moves, for
    every D in the ball and every nontrivial wing permutation sigma."""
    spec = ball.spec
    supports = {}
    for D in ball.chambers:
        for t in range(spec.system.rank):
            for sigma in nontrivial_wing_sigmas(spec.q(t)):
                aut = rab.PanelRotation(spec, D, t, sigma)
                supports[D.syllables, t, sigma] = frozenset(
                    j for j, E in enumerate(ball.chambers) if aut.image(E) != E)
    return supports


def listed_wing_sigmas(ball, supports, C, s):
    """(D, t) -> the sigma the full listing keeps: those whose rotation at D
    fixes every chamber of the ball in the s-wing of C."""
    wing = frozenset(j for j, E in enumerate(ball.chambers) if rab.wing_contains(C, s, E))
    kept = {}
    for (D, t, sigma), moved in supports.items():
        if not moved & wing:
            kept.setdefault((D, t), set()).add(sigma)
    return kept


def generated(q, gens):
    """The group of permutations of 0..q-1 generated by gens."""
    group = {tuple(range(q))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                h = tuple(g[p[i]] for i in range(q))
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return group


WING_BALLS = {name: rab.ChamberBall(spec, 2) for name, spec in [
    ("dinf_q33", dinf_spec(3, 3)), ("dinf_q25", dinf_spec(2, 5)), ("dinf_q54", dinf_spec(5, 4)),
    ("dinf_q55", dinf_spec(5, 5)), ("klein_q33", klein_spec()), ("klein_q42", klein_spec(4, 2)),
    ("path4_q3434", path4_spec())]}


@pytest.mark.parametrize("ball", WING_BALLS.values(), ids=list(WING_BALLS))
def test_wing_fixator_transpositions_generate_the_listed_sigmas(ball):
    spec = ball.spec
    supports = rotation_supports(ball)
    for C in ball.chambers:
        for s in range(spec.system.rank):
            kept = listed_wing_sigmas(ball, supports, C, s)
            gens = {}
            for g in rab.wing_fixator(ball, C, s):
                assert sum(a != b for a, b in enumerate(g.sigma)) == 2
                gens.setdefault((g.base.syllables, g.stype), []).append(g.sigma)
            for D in ball.chambers:
                for t in range(spec.system.rank):
                    group = generated(spec.q(t), gens.get((D.syllables, t), []))
                    assert group - {tuple(range(spec.q(t)))} == kept.get((D.syllables, t), set())


@pytest.mark.parametrize("ball", WING_BALLS.values(), ids=list(WING_BALLS))
def test_check_root_fixes_ball_matches_the_listed_sigmas(ball):
    spec = ball.spec
    supports = rotation_supports(ball)
    ap = rab.ApartmentRef.default(spec)
    verdicts = set()
    for w in cox.enumerate_elements(spec.system, 2):
        for s in range(spec.system.rank):
            r = rab.RootRef(ap, w, s)
            try:
                d = rab.dist_base_to_root(r, ball)
            except CertificationError:
                continue
            kept = listed_wing_sigmas(ball, supports, r.wall_chambers(spec)[1], s)
            for n in (0, 1):
                inner = frozenset(j for j, C in enumerate(ball.chambers) if len(C.syllables) <= n)
                want = "inapplicable" if d <= n else all(
                    not supports[D, t, sigma] & inner for (D, t), sigmas in kept.items() for sigma in sigmas)
                assert rab.check_root_fixes_ball(ball, r, n) == want
                verdicts.add(want)
    assert verdicts - {"inapplicable"}


def test_wing_fixator_at_q7_is_quick():
    spec = dinf_spec(7, 7)
    ball = rab.ChamberBall(spec, 1)
    start = time.perf_counter()
    gens = rab.wing_fixator(ball, ball.base(), "s")
    assert time.perf_counter() - start < 1
    # The base's wing is the base and its six t-neighbours.  Rotations of type
    # s keep C(6, 2) = 15 transpositions at the base and at each t-neighbour,
    # and C(5, 2) = 10 at each s-neighbour (s, a), which must fix the colour
    # -a; of type t, only the six s-neighbours keep 15 each.
    assert len(gens) == 15 + 6 * 15 + 6 * (10 + 15)


def test_wing_fixator_guard_is_checked_before_the_loop():
    spec = dinf_spec(5, 5)
    ball = rab.ChamberBall(spec, 2)
    # 41 chambers * 2 types * C(4, 2) transpositions bound the list
    with pytest.raises(GuardExceeded, match="^wing fixator generators: 492 objects exceeds guard 491$"):
        rab.wing_fixator(ball, ball.base(), "s", guard=491)
    assert len(rab.wing_fixator(ball, ball.base(), "s", guard=492)) <= 492
