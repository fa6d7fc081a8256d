import dataclasses
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tdlc import kak_tree as kt
from tdlc import tree_aut as ta
from tdlc import tree_core as tc
from tdlc import universal_groups as ug
from tdlc.errors import CertificationError, GuardExceeded
from oracles import (four_product_factorize, residual_greedy_subrepresentatives,
                     residual_transport_representatives, scan_tree_contraction_depths)


S3 = ug.LocalGroup.symmetric(3)
FLIP = ug.LocalGroup.create(3, [(2, 1, 3)])
KLEIN = ug.LocalGroup.create(4, [(2, 1, 3, 4), (1, 2, 4, 3)])


def full_ball_s3():
    world = ug.ColorBall(3, 4)
    return ug.enumerate_u1_ball(S3, world, move_radius=2, support_radius=2)


def test_enumerate_u1_ball_count():
    gb = full_ball_s3()
    assert len(gb) == 480  # 10 base addresses x 48 stabilizer portraits


def test_sphere_orbits_examples():
    gb = full_ball_s3()
    part0 = kt.sphere_orbits(gb, 0, 0)
    assert part0.orbits == ((0,),)
    part1 = kt.sphere_orbits(gb, 0, 1)
    assert len(part1.orbits) == 1 and len(part1.orbits[0]) == 3

    world = ug.ColorBall(3, 3)
    gb_flip = ug.enumerate_u1_ball(FLIP, world, move_radius=1, support_radius=2)
    part = kt.sphere_orbits(gb_flip, 0, 1)
    sizes = sorted(len(o) for o in part.orbits)
    assert sizes == [1, 2]


def test_sphere_orbit_transversal_is_consistent():
    gb = full_ball_s3()
    part = kt.sphere_orbits(gb, 0, 2)
    for orbit in part.orbits:
        rep = orbit[0]
        for point in orbit:
            k = part.transversal[point]
            assert k.mapping[rep] == point
            assert k.mapping[0] == 0


def test_enumerate_representatives():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    assert len(dec.representatives) == 3  # transitive: one orbit per sphere 0..2
    assert dec.representatives[0].element.mapping[0] == 0
    for rec in dec.representatives:
        assert rec.element.mapping[0] == rec.vertex

    world = ug.ColorBall(3, 3)
    gb_flip = ug.enumerate_u1_ball(FLIP, world, move_radius=1, support_radius=2)
    dec_flip = kt.enumerate_representatives(gb_flip, 0, 1)
    assert len(dec_flip.representatives) == 3  # identity + two sphere-1 orbits


def test_enumerate_representatives_n3():
    world = ug.ColorBall(3, 5)
    gb = ug.enumerate_u1_ball(S3, world, move_radius=3, support_radius=2)
    dec = kt.enumerate_representatives(gb, 0, 3)
    assert len(dec.representatives) == 4


def test_factorize_trivial_cases():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    stab_el = next(g for g in gb if g.mapping.get(0) == 0)
    fact = kt.factorize(stab_el, dec)
    assert fact.a.sphere_radius == 0
    rep = dec.representatives[1]
    fact2 = kt.factorize(rep.element, dec)
    assert fact2.a.vertex == rep.vertex


def test_factorize_random_elements():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    rng = random.Random(0)
    elems = list(gb)
    world = gb.world
    for _ in range(1000):
        g = rng.choice(elems)
        fact = kt.factorize(g, dec)
        assert fact.k.mapping[0] == 0
        assert fact.k_prime.mapping[0] == 0
        prod = ta.compose(fact.k, ta.compose(fact.a.element, fact.k_prime))
        assert kt.restriction_key(prod, world, 2) == kt.restriction_key(g, world, 2)
        assert tc.distance(gb.ball, 0, g.mapping[0]) == tc.distance(gb.ball, 0, fact.a.element.mapping[0])


def test_factorize_rejects_out_of_range():
    world = ug.ColorBall(3, 4)
    gb = ug.enumerate_u1_ball(S3, world, move_radius=2, support_radius=2)
    dec = kt.enumerate_representatives(gb, 0, 1)
    far = ug.translation(world, (1, 2)).restrict()
    with pytest.raises(CertificationError):
        kt.factorize(far, dec)


@st.composite
def local_groups(draw):
    d = draw(st.integers(2, 4))
    gens = draw(st.lists(st.permutations(range(1, d + 1)).map(tuple), max_size=2))
    return ug.LocalGroup.create(d, gens)


def factorize_outcome(factorize, g, dec):
    try:
        f = factorize(g, dec)
    except CertificationError as exc:
        return str(exc)
    return f.k, f.k.exact, f.a, f.k_prime.images, f.k_prime.exact


@settings(max_examples=30, deadline=None, derandomize=True)
@given(local_groups(), st.integers(1, 2), st.integers(1, 2))
@example(S3, 2, 2)
@example(FLIP, 2, 1)
@example(KLEIN, 1, 2)
def test_factorize_matches_the_four_product_oracle(F, support, max_sphere):
    move = max_sphere + 1            # the outer sphere lies beyond the decomposition
    assume(len(ug.reduced_words(F.degree, move)) * ug.stabilizer_ball_count(F, support) <= 1500)
    world = ug.ColorBall(F.degree, move + support)
    gb = ug.enumerate_u1_ball(F, world, move, support)
    last = world.word_of[-1]
    far = ug.translation(world, last + (1 if last[-1] != 1 else 2,)).restrict()   # leaves the ball
    partial = [ta.FiniteTreeAutomorphism(world.ball, g.images) for g in gb.elements[::7]]
    for v in (0, world.id_of[(1,)]):
        dec = kt.enumerate_representatives(gb, v, max_sphere)
        for g in [*gb, far]:
            assert factorize_outcome(kt.factorize, g, dec) == factorize_outcome(four_product_factorize, g, dec)
        # For a PARTIAL g the oracle's chain loses an image wherever k^-1 leaves
        # the ball and a^-1 comes back; the exact (k a)^-1 keeps it.
        for g in partial:
            new = factorize_outcome(kt.factorize, g, dec)
            old = factorize_outcome(four_product_factorize, g, dec)
            if isinstance(old, str):
                assert new == old
                continue
            assert new[:3] == old[:3] and new[4] is old[4] is ta.PARTIAL
            assert all(o < 0 or n == o for n, o in zip(new[3], old[3]))


def test_factorize_makes_one_product_per_element_once_the_memo_is_full(monkeypatch):
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    for g in gb:
        kt.factorize(g, dec)
    assert len(dec.factors) == 10             # one entry per target g(base)
    calls = []

    def counted(g, h):
        calls.append(1)
        return ta.compose(g, h)

    def no_inverse(g):
        raise AssertionError("an inverse was built with the memo full")

    monkeypatch.setattr(kt, "compose", counted)
    monkeypatch.setattr(kt, "invert", no_inverse)
    for g in gb:
        kt.factorize(g, dec)
    assert len(calls) == len(gb)


def test_factorize_checks_the_memoized_product():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    g, h = dec.representatives[2].element, dec.representatives[1].element
    kt.factorize(g, dec)
    kt.factorize(h, dec)
    k, rec, ka, ka_inv = dec.factors[g.images[0]]
    # k a swapped for another target's: k' = (k a)^-1 g still fixes the base,
    # but the checked product sends the base to h(base)
    dec.factors[g.images[0]] = (k, rec, dec.factors[h.images[0]][2], ka_inv)
    with pytest.raises(AssertionError, match="factorization product disagrees with g on the ball"):
        kt.factorize(g, dec)


def test_a_replaced_decomposition_starts_an_empty_memo():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    kt.factorize(gb.elements[-1], dec)
    assert dec.factors
    assert dataclasses.replace(dec, representatives=dec.representatives[:2]).factors == {}
    fresh = dataclasses.replace(dec)
    assert fresh.factors == {} and fresh == dec     # the memo is not part of equality


def test_certify_partition():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    cert = kt.certify_partition(dec, 2)
    assert cert.disjoint and cert.covers
    assert sum(cert.coset_sizes.values()) == 480


def product_certificate(dec, radius):
    """Oracle: key every product k1 a k2 and intersect the cosets pairwise."""
    world = dec.group.world
    keys_by_rep = {}
    for idx, rec in enumerate(dec.representatives):
        keys = set()
        for k1 in dec.stabilizer:
            for k2 in dec.stabilizer:
                keys.add(kt.restriction_key(ta.compose(k1, ta.compose(rec.element, k2)), world, radius))
        keys_by_rep[idx] = keys
    all_keys = [kt.restriction_key(g, world, radius) for g in dec.group]
    union = set().union(*keys_by_rep.values()) if keys_by_rep else set()
    disjoint = all(
        not (keys_by_rep[i] & keys_by_rep[j])
        for i in keys_by_rep for j in keys_by_rep if i < j
    )
    covers = set(all_keys) == union
    return kt.DisjointnessCertificate(radius, disjoint, covers,
                                      {i: len(ks) for i, ks in keys_by_rep.items()})


@settings(max_examples=60, deadline=None)
@given(local_groups(), st.integers(1, 2), st.integers(1, 3))
@example(S3, 2, 2)
@example(FLIP, 2, 2)
@example(KLEIN, 1, 2)
@example(ug.LocalGroup.create(3, [(2, 3, 1)]), 1, 2)      # cyclic: coverage fails
@example(ug.LocalGroup.create(4, [(2, 3, 4, 1)]), 1, 1)
@example(ug.LocalGroup.symmetric(4), 1, 3)
def test_certify_partition_matches_the_product_oracle(F, support, max_sphere):
    assume(ug.stabilizer_ball_count(F, support) ** 2 <= 20_000)
    world = ug.ColorBall(F.degree, max_sphere + support)
    gb = ug.enumerate_u1_ball(F, world, max_sphere, support)
    dec = kt.enumerate_representatives(gb, 0, max_sphere)
    assume(len(dec.stabilizer) ** 2 * len(dec.representatives) <= 20_000)
    assert kt.certify_partition(dec, max_sphere) == product_certificate(dec, max_sphere)


@settings(max_examples=40, deadline=None)
@given(local_groups(), st.integers(0, 2), st.integers(0, 2))
def test_first_mover_in_a_u1_ball_is_the_translation(F, support, move):
    assume(ug.stabilizer_ball_count(F, support) <= 2_000)
    world = ug.ColorBall(F.degree, move + support)
    gb = ug.enumerate_u1_ball(F, world, move, support)
    for w in world.ball.vertices():
        if world.ball.depth[w] <= move:
            first = next(g for g in gb if g.images[0] == w)
            t = ug.translation(world, world.word_of[w]).restrict()
            assert first.key() == t.key()
            assert first.exact == t.exact


def test_certify_partition_refuses_a_vertex_other_than_the_base():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, gb.world.id_of[(1,)], 1)
    with pytest.raises(CertificationError, match="keys B\\(base, 1\\), not B\\(1, 1\\)"):
        kt.certify_partition(dec, 1)


def test_certify_partition_refuses_a_stabilizer_that_leaves_the_ball():
    world = ug.ColorBall(3, 3)
    dec = kt.enumerate_representatives(ug.enumerate_u1_ball(S3, world, 1, 2), 0, 1)
    # fixes the base, but sends the depth-2 vertex (1, 2) to depth 3
    partial = ta.FiniteTreeAutomorphism.from_mapping(
        world.ball, {0: 0, world.id_of[(1, 2)]: world.id_of[(1, 2, 1)]})
    dec = dataclasses.replace(dec, stabilizer=ug.GroupBall(world, [partial]))
    with pytest.raises(CertificationError, match="does not map B\\(base, 2\\) into itself"):
        kt.certify_partition(dec, 2)


def test_certify_partition_guard_before_products(monkeypatch):
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    products = len(dec.stabilizer) ** 2 * len(dec.representatives)

    def no_products(*args):
        raise AssertionError("a product was made before the guard")

    monkeypatch.setattr(kt, "compose", no_products)
    monkeypatch.setattr(kt, "product_addresses", no_products)
    with pytest.raises(GuardExceeded, match=f"KAK partition products: {products} objects exceeds guard 100"):
        kt.certify_partition(dec, 2, guard=100)


def sign_of(perm):
    seen = set()
    sign = 1
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_transport_representatives():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    world = gb.world
    even = [g for g in dec.stabilizer if sign_of(g.exact.local_action(())) == 1]
    k_prime = ug.GroupBall(world, even, closed=True, local_group=None)
    assert len(k_prime) == 24
    odd = next(g for g in dec.stabilizer if sign_of(g.exact.local_action(())) == -1)
    ident = ug.identity_aut(world).restrict()

    result = kt.transport_representatives([ident, odd], k_prime, dec, 2)
    assert result.coverage
    assert len(result.new_representatives) <= 4 * len(dec.representatives)


def test_transport_trivial_coset():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    ident = ug.identity_aut(gb.world).restrict()
    result = kt.transport_representatives([ident], dec.stabilizer, dec, 2)
    assert result.coverage
    assert len(result.new_representatives) == len(dec.representatives)


def test_greedy_subrepresentatives_fuses_orbits():
    world = ug.ColorBall(3, 3)
    gb_flip = ug.enumerate_u1_ball(FLIP, world, move_radius=1, support_radius=2)
    dec = kt.enumerate_representatives(gb_flip, 0, 1)
    assert len(dec.representatives) == 3
    k_big = ug.enumerate_u1_stabilizer_ball(S3, world)
    kept = kt.greedy_subrepresentatives(dec, k_big, 1)
    assert len(kept) == 2  # the two sphere-1 orbits fuse under the larger K


def outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, CertificationError) as exc:
        return type(exc), str(exc)


def transport_outcome(transport, coset_reps, k_prime, dec, radius):
    res = outcome(transport, coset_reps, k_prime, dec, radius)
    if isinstance(res, tuple):
        return res
    return res.coverage, res.failed_element, [a.key() for a in res.new_representatives]


@settings(max_examples=40, deadline=None)
@given(local_groups(), st.integers(1, 2), st.integers(1, 2), st.booleans(),
       st.sampled_from(["index 2", "trivial", "whole"]), st.sampled_from(["", "drop", "repeat"]), st.data())
@example(S3, 2, 2, False, "index 2", "", None)
@example(S3, 2, 1, True, "index 2", "drop", None)
@example(S3, 1, 1, False, "index 2", "repeat", None)
@example(FLIP, 1, 2, True, "trivial", "", None)
@example(ug.LocalGroup.create(3, [(2, 3, 1)]), 1, 2, False, "whole", "", None)   # K A K misses elements
def test_transport_matches_the_residual_oracle(F, support, max_sphere, beyond, kind, edit, data):
    """K' is the even part of K (sign of the action at the base) with the
    cosets of 1 and an odd element, {1} with every element of K, or K with
    1.  A group ball reaching one sphere beyond the decomposition (`beyond`)
    is not covered; a dropped coset representative leaves K uncovered, and
    a repeated one gives cosets that meet."""
    move = max_sphere + beyond
    assume(len(ug.reduced_words(F.degree, move)) * ug.stabilizer_ball_count(F, support) <= 600)
    world = ug.ColorBall(F.degree, move + support)
    gb = ug.enumerate_u1_ball(F, world, move, support)
    dec = kt.enumerate_representatives(gb, 0, max_sphere)
    ident = ug.identity_aut(world).restrict()
    stab = list(dec.stabilizer)
    odd = [k for k in stab if sign_of(k.exact.local_action(())) == -1]
    if kind == "index 2" and odd:
        k_prime, reps = [k for k in stab if sign_of(k.exact.local_action(())) == 1], [ident, odd[0]]
    elif kind == "whole":
        k_prime, reps = stab, [ident]
    else:
        assume(len(stab) <= 16)
        k_prime, reps = [ident], stab
    if edit == "drop":
        reps = reps[:-1]
    elif edit == "repeat":
        reps = reps + reps[:1]
    radius = data.draw(st.integers(1, world.radius)) if data is not None else max_sphere
    k_prime = ug.GroupBall(world, k_prime, closed=True)
    assert transport_outcome(kt.transport_representatives, reps, k_prime, dec, radius) == \
        transport_outcome(residual_transport_representatives, reps, k_prime, dec, radius)


@settings(max_examples=40, deadline=None)
@given(local_groups(), st.integers(1, 2), st.integers(1, 2), st.integers(0, 1), st.data())
@example(FLIP, 2, 1, 0, None)
@example(FLIP, 2, 1, 1, None)
@example(KLEIN, 1, 2, 1, None)
def test_greedy_matches_the_residual_oracle(F, support, max_sphere, big_move, data):
    """K' is the U1(Sym(d)) ball with movers up to big_move: its elements
    that move the base take no part in the fusion."""
    big = ug.LocalGroup.symmetric(F.degree)
    assume(len(ug.reduced_words(F.degree, max(max_sphere, big_move))) * ug.stabilizer_ball_count(big, support) <= 600)
    world = ug.ColorBall(F.degree, max_sphere + support)
    dec = kt.enumerate_representatives(ug.enumerate_u1_ball(F, world, max_sphere, support), 0, max_sphere)
    k_big = ug.enumerate_u1_ball(big, world, big_move, support)
    radius = data.draw(st.integers(1, world.radius)) if data is not None else max_sphere
    assert outcome(kt.greedy_subrepresentatives, dec, k_big, radius) == \
        outcome(residual_greedy_subrepresentatives, dec, k_big, radius)


@settings(max_examples=40, deadline=None)
@given(local_groups(), st.integers(1, 2), st.integers(1, 2), st.data())
@example(S3, 2, 2, None)
def test_double_coset_keys_match_the_products(F, support, max_sphere, data):
    """Against restriction_key of k1 a k2, with part of the domain of k1 and
    k2 cut (every k2 keeps the base): an unknown image of k2 gives an
    unknown entry.  B(base, radius) stays inside the ball under every a and
    k1, so where an image is known both read the same address."""
    assume(ug.stabilizer_ball_count(F, support) <= 200)
    world = ug.ColorBall(F.degree, max_sphere + support)
    gb = ug.enumerate_u1_ball(F, world, max_sphere, support)
    dec = kt.enumerate_representatives(gb, 0, max_sphere)
    ball = world.ball
    if data is None:
        radius, cut = support, {1}
    else:
        radius = data.draw(st.integers(0, support))
        cut = data.draw(st.sets(st.integers(1, ball.vertex_count - 1), max_size=3))

    def partial(k):
        return ta.FiniteTreeAutomorphism.from_mapping(ball, {u: w for u, w in k.mapping.items() if u not in cut})

    stab = list(dec.stabilizer)[:12]
    for left, right in ((stab, stab), (stab, list(map(partial, stab))), (list(map(partial, stab)), stab)):
        for rec in dec.representatives:
            products = {kt.restriction_key(ta.compose(k1, ta.compose(rec.element, k2)), world, radius)
                        for k1 in left for k2 in right}
            assert kt._double_coset_keys(left, rec.element, right, world, radius) == products


def test_transport_builds_no_product_for_a_key(monkeypatch):
    """Only the returned a' = g_i^-1 a g_j are products: two per (g_i, a, g_j)."""
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, 0, 2)
    stab = list(dec.stabilizer)
    even = [k for k in stab if sign_of(k.exact.local_action(())) == 1]
    odd = next(k for k in stab if sign_of(k.exact.local_action(())) == -1)
    reps = [ug.identity_aut(gb.world).restrict(), odd]
    calls = []

    def counted(g, h):
        calls.append(1)
        return ta.compose(g, h)

    monkeypatch.setattr(kt, "compose", counted)
    result = kt.transport_representatives(reps, ug.GroupBall(gb.world, even, closed=True), dec, 2)
    assert result.coverage
    assert 0 < len(calls) <= 2 * len(reps) ** 2 * len(dec.representatives)


def test_greedy_builds_no_product(monkeypatch):
    world = ug.ColorBall(3, 3)
    dec = kt.enumerate_representatives(ug.enumerate_u1_ball(FLIP, world, 1, 2), 0, 1)
    k_big = ug.enumerate_u1_stabilizer_ball(S3, world)
    want = residual_greedy_subrepresentatives(dec, k_big, 1)

    def refused(*args):
        raise AssertionError("the greedy fusion built a product")

    monkeypatch.setattr(kt, "compose", refused)
    monkeypatch.setattr(ug.Portrait, "compose", refused)
    kept = kt.greedy_subrepresentatives(dec, k_big, 1)
    assert kept == want and len(kept) == 2


def test_double_coset_keys_refuse_a_right_factor_that_moves_the_base():
    """At the world radius a mover's images stay ids below N or leave the
    ball (-1), so only its image of the base shows that it is not read
    through as a permutation."""
    gb = full_ball_s3()
    world = gb.world
    dec = kt.enumerate_representatives(gb, 0, 2)
    mover = ug.translation(world, (1,)).restrict()
    assert max(mover.images) < world.ball.vertex_count
    with pytest.raises(CertificationError, match="does not map B\\(base, 4\\) into itself"):
        kt.transport_representatives([ug.identity_aut(world).restrict()],
                                     ug.GroupBall(world, [*dec.stabilizer, mover]), dec, 4)


def test_transport_and_greedy_refuse_a_vertex_other_than_the_base():
    gb = full_ball_s3()
    dec = kt.enumerate_representatives(gb, gb.world.id_of[(1,)], 1)
    ident = ug.identity_aut(gb.world).restrict()
    with pytest.raises(CertificationError) as exc:
        kt.transport_representatives([ident], dec.stabilizer, dec, 1)
    assert str(exc.value) == "the transport keys B(base, 1), not B(1, 1)"
    with pytest.raises(CertificationError) as exc:
        kt.greedy_subrepresentatives(dec, dec.stabilizer, 2)
    assert str(exc.value) == "the greedy fusion keys B(base, 2), not B(1, 2)"


def test_is_bounded():
    world = ug.ColorBall(3, 4)
    ident = ug.identity_aut(world).restrict()
    assert kt.is_bounded([ident, ident], 0, 4)
    movers = [ug.translation(world, tuple([1, 2] * i)).restrict() for i in (1, 2, 3)]
    assert not kt.is_bounded(movers, 0, 4)
    rot = ug.Portrait(world, (), {(): (2, 3, 1)}).restrict()
    assert kt.is_bounded([rot, rot], 0, 4)


def test_half_tree_witness_u1():
    world = ug.ColorBall(3, 2)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    w = world.id_of[(1,)]
    for side in (0, w):
        x = kt.half_tree_fixator_witness(gb, tc.HalfTreeRef((0, w), side))
        assert x is not None
        fixed = tc.half_tree_vertices(world.ball, tc.HalfTreeRef((0, w), side))
        assert all(x.mapping.get(u) == u for u in fixed)
        assert any(x.mapping.get(u) != u for u in x.mapping)

    trivial = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.trivial(3), world)
    assert kt.half_tree_fixator_witness(trivial, tc.HalfTreeRef((0, w), 0)) is None

    line = ug.ColorBall(2, 3)
    line_gb = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.symmetric(2), line)
    lw = line.id_of[(1,)]
    assert kt.half_tree_fixator_witness(line_gb, tc.HalfTreeRef((0, lw), 0)) is None


def test_half_tree_witness_explicit_scan():
    world = ug.ColorBall(3, 2)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    plain = ug.GroupBall(world, list(gb), closed=True, local_group=None)
    w = world.id_of[(1,)]
    x = kt.half_tree_fixator_witness(plain, tc.HalfTreeRef((0, w), w))
    assert x is not None
    fixed = tc.half_tree_vertices(world.ball, tc.HalfTreeRef((0, w), w))
    assert all(x.mapping.get(u) == u for u in fixed)


def test_contraction_witness_translations():
    world = ug.ColorBall(3, 10)
    gb = ug.GroupBall(world, [], closed=False, local_group=S3)
    seq = [ug.translation(world, tuple([1, 2] * i)).restrict() for i in range(1, 9)]
    cert = kt.contraction_witness_search(seq, gb, 0)
    assert isinstance(cert, kt.ContractionCertificate)
    assert cert.side.side == 0  # translations through v: witness fixes the half at v
    for i, depth in enumerate(cert.depths, start=1):
        assert depth >= min(2 * i, 10) >= i


def test_contraction_witness_elliptic_family():
    world = ug.ColorBall(3, 8)
    gb = ug.GroupBall(world, [], closed=False, local_group=S3)
    seq = []
    for i in range(1, 5):
        p = tuple([1, 2] * 4)[:i]
        tau = (2, 1, 3) if p[-1] == 1 else (1, 3, 2)  # moves the color toward the base
        t = ug.translation(world, p)
        rot = t.compose(ug.Portrait(world, (), {(): tau})).compose(t.inverse())
        seq.append(rot.restrict())
    cert = kt.contraction_witness_search(seq, gb, 0)
    assert isinstance(cert, kt.ContractionCertificate)
    assert cert.side.side == world.id_of[(1,)]  # elliptic family: witness fixes the half at w
    for depth, d in zip(cert.depths, cert.displacements):
        assert depth >= min(d, 8)


def test_contraction_witness_bounded():
    world = ug.ColorBall(3, 6)
    gb = ug.GroupBall(world, [], closed=False, local_group=S3)
    rot = ug.Portrait(world, (), {(): (2, 3, 1)}).restrict()
    res = kt.contraction_witness_search([rot, rot], gb, 0)
    assert isinstance(res, kt.NoWitness)
    assert res.reason == "bounded"


def test_contraction_witness_refuses_an_empty_family():
    world = ug.ColorBall(3, 4)
    gb = ug.GroupBall(world, [], closed=False, local_group=S3)
    with pytest.raises(ValueError, match="nonempty"):
        kt.contraction_witness_search([], gb, 0)


def test_partial_witness_is_refused_not_crashed():
    """A plain GroupBall of maps read from their ball images gives a witness
    with no evaluator beyond the ball: the contraction refuses it."""
    world = ug.ColorBall(3, 3)
    stab = ug.enumerate_u1_stabilizer_ball(S3, world)
    plain = ug.GroupBall(world, [ta.FiniteTreeAutomorphism.from_mapping(world.ball, g.mapping) for g in stab])
    assert len(plain) == 3072
    seq = [ug.translation(world, (1, 2) * i).restrict() for i in range(1, 4)]
    with pytest.raises(CertificationError, match="needs the images of the witness beyond the ball"):
        kt.contraction_witness_search(seq, plain, 0)


def word_power(step, i):
    out = ()
    for _ in range(i):
        out = ug.word_mul(out, step)
    return out


def sweep_families(world, step, powers=8):
    """Powers of the translation by `step`, and the same powers after a
    rotation of the colours at the base (elements with a stored action)."""
    d = world.degree
    rho = ug.Portrait(world, (), {(): tuple(range(2, d + 1)) + (1,)})
    translations = [ug.translation(world, word_power(step, i)) for i in range(1, powers + 1)]
    return [[t.restrict() for t in translations], [t.compose(rho).restrict() for t in translations]]


def closed_form_matches_the_scan(seq, gb, v):
    """Run the search; where it certifies, check the closed-form depths of
    every element of seq against the scan, and the certificate's depths as a
    subsequence of them.  True when it certified."""
    res = kt.contraction_witness_search(seq, gb, v)
    if not isinstance(res, kt.ContractionCertificate):
        return False
    x, anchor = res.witness, res.side.side
    closed = kt.conjugate_fixed_depths(seq, x, anchor, v)
    assert closed == scan_tree_contraction_depths(seq, x, gb.world, v)
    rest = iter(closed)
    assert all(depth in rest for depth in res.depths)
    return True


SWEEP = [(3, r) for r in range(4, 11)] + [(4, r) for r in range(4, 8)] + [(5, 4), (5, 5)]


@pytest.mark.parametrize("degree, radius", SWEEP)
def test_closed_form_depths_match_the_scan(degree, radius):
    """Powers 1..8 of translations by steps of 1-3 letters (four cyclically
    reduced, so hyperbolic, and an inversion and an elliptic one) and their
    twisted versions, at the base and at an interior vertex off it."""
    world = ug.ColorBall(degree, radius)
    gb = ug.GroupBall(world, [], closed=False, local_group=ug.LocalGroup.symmetric(degree))
    hyperbolic = [w for w in ug.reduced_words(degree, 3) if len(w) > 1 and w[0] != w[-1]]
    steps = random.Random(100 * degree + radius).sample(hyperbolic, 4) + [(1,), (1, 2, 1)]
    certified = 0
    for step in steps:
        for seq in sweep_families(world, step):
            for v in (0, world.id_of[(2,)]):
                certified += closed_form_matches_the_scan(seq, gb, v)
    assert certified >= 16


def elliptic_family(world, v_word=(), count=4):
    """test_contraction_witness_elliptic_family's rotations, about the vertices
    v.(1, 2, 1, ...)[:i] below v (at most 5): each swaps its parent colour
    with another, so it moves v to distance 2i and squares to the identity."""
    seq = []
    for i in range(1, count + 1):
        p = ug.word_mul(v_word, tuple([1, 2] * 5)[(1 if v_word else 0):][:i])
        tau = (2, 1, 3) if p[-1] == 1 else (1, 3, 2)
        t = ug.translation(world, p)
        seq.append(t.compose(ug.Portrait(world, (), {(): tau})).compose(t.inverse()).restrict())
    return seq


@pytest.mark.parametrize("radius", range(4, 11))
def test_closed_form_depths_match_the_scan_on_the_elliptic_family(radius):
    world = ug.ColorBall(3, radius)
    gb = ug.GroupBall(world, [], closed=False, local_group=S3)
    for v_word in ((), (1,)):
        seq = elliptic_family(world, v_word, (radius - len(v_word) + 1) // 2)
        v = world.id_of[v_word]
        cert = kt.contraction_witness_search(seq, gb, v)
        assert cert.side.side != v       # the witness fixes the half at w
        assert closed_form_matches_the_scan(seq, gb, v)


def test_closed_form_depths_match_the_scan_on_a_plain_group_ball():
    """The scan's witness: the first listed element fixing the half-tree."""
    gb = full_ball_s3()
    plain = ug.GroupBall(gb.world, list(gb), closed=False, local_group=None)
    world = gb.world
    for seq, v in (([ug.translation(world, (1, 2) * i).restrict() for i in (1, 2, 3)], 0),
                   (elliptic_family(world, (), 3), 0),
                   (elliptic_family(world, (1,), 2), world.id_of[(1,)])):
        assert closed_form_matches_the_scan(seq, plain, v)


def base_moving_witness(world):
    """Fixes (1,) and everything below (1, 2), and swaps colours 1 and 3 at
    (1,): it sends the base to (1, 3)."""
    t = ug.translation(world, (1,))
    x = t.compose(ug.Portrait(world, (), {(): (3, 2, 1)})).compose(t.inverse())
    assert x.base_word == (1, 3)
    return x.restrict()


@pytest.mark.parametrize("radius", [5, 6, 8])
def test_closed_form_depths_match_the_scan_for_a_witness_moving_the_base(radius):
    world = ug.ColorBall(3, radius)
    x = base_moving_witness(world)
    plain = ug.GroupBall(world, [x], closed=False, local_group=None)
    v = world.id_of[(1,)]
    seq = elliptic_family(world, (1,), radius // 2)
    cert = kt.contraction_witness_search(seq, plain, v)
    assert cert.witness is x and cert.side.side == world.id_of[(1, 2)]
    assert closed_form_matches_the_scan(seq, plain, v)
    # every translation by a word of up to three letters, at the base and at v
    family = [ug.translation(world, w).restrict() for w in ug.reduced_words(3, 3)]
    for u in (0, v):
        assert kt.conjugate_fixed_depths(family, x, cert.side.side, u) == \
            scan_tree_contraction_depths(family, x, world, u)


def test_contraction_builds_no_conjugate_and_scans_nothing(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the contraction built a product or scanned an agreement")

    monkeypatch.setattr(ta, "agreement_depth", refused)
    monkeypatch.setattr(ug.Portrait, "compose", refused)
    world = ug.ColorBall(3, 10)
    gb = ug.GroupBall(world, [], closed=False, local_group=S3)
    seq = [ug.translation(world, (1, 2) * i).restrict() for i in range(1, 9)]
    cert = kt.contraction_witness_search(seq, gb, 0)
    assert cert.depths == (3, 5, 7, 9, 10, 10, 10, 10)
