import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tdlc import kak_tree as kt
from tdlc import tree_aut as ta
from tdlc import tree_core as tc
from tdlc import universal_groups as ug
from tdlc.errors import CertificationError, GuardExceeded, check_guard, check_power_guard
from oracles import restrict_by_actions, table_u1_ball, valid_tree_portrait


S3 = ug.LocalGroup.symmetric(3)
FLIP = ug.LocalGroup.create(3, [(2, 1, 3)])  # <(1 2)> inside Sym(3)


def test_word_arithmetic():
    assert ug.word_mul((1, 2), (2, 1)) == ()
    assert ug.word_mul((1, 2), (1, 2)) == (1, 2, 1, 2)
    assert ug.word_inv((1, 2, 3)) == (3, 2, 1)
    assert ug.word_distance((1, 2), (1, 3)) == 2
    assert ug.word_distance((), (1, 2)) == 2


def test_color_ball_addressing():
    world = ug.ColorBall(3, 2)
    assert world.word_of[0] == ()
    assert sorted(world.word_of[v] for v in world.ball.children[0]) == [(1,), (2,), (3,)]
    for v in world.ball.vertices():
        for u in world.ball.neighbors(v):
            c = world.edge_color(v, u)
            assert ug.word_append(world.word_of[v], c) == world.word_of[u]


def test_coloring_is_legal():
    world = ug.ColorBall(3, 2)
    coloring = world
    for v in world.ball.vertices():
        nbrs = world.ball.neighbors(v)
        colors = [coloring.edge_color(v, u) for u in nbrs]
        assert len(set(colors)) == len(colors)
        if world.ball.is_interior(v):
            assert set(colors) == {1, 2, 3}


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
def test_color_ball_addresses_extend_their_parents(degree, radius):
    world = ug.ColorBall(degree, radius)
    word_of, parent = world.word_of, world.ball.parent
    assert len(word_of) == world.ball.vertex_count
    assert list(word_of) == sorted(word_of, key=lambda w: (len(w), w))
    for v in range(1, len(word_of)):
        assert word_of[v][:-1] == word_of[parent[v]]
        assert ug.is_reduced_word(word_of[v], degree)
    # ids are a BFS order, as half_tree_fixator_witness reads them
    depth = world.ball.depth
    assert all(a <= b for a, b in zip(depth, depth[1:]))


def test_word_sphere_counts():
    words = ug.reduced_words(3, 3)
    assert [sum(len(w) == k for w in words) for k in range(4)] == [1, 3, 6, 12]
    for center in [(), (1, 2)]:
        for k in range(4):
            sphere = {ug.word_mul(center, w) for w in words if len(w) == k}
            assert len(sphere) == [1, 3, 6, 12][k]
            assert all(ug.word_distance(u, center) == k for u in sphere)


def test_translation_acts_by_left_multiplication():
    world = ug.ColorBall(3, 3)
    t = ug.translation(world, (1, 2))
    for v in world.ball.vertices():
        w = world.word_of[v]
        assert t.image_word(w) == ug.word_mul((1, 2), w)


def test_portrait_inverse_and_compose_are_exact():
    world = ug.ColorBall(3, 3)
    g = ug.Portrait(world, (1, 2), {(): (2, 3, 1), (3,): (2, 3, 1)})
    ginv = g.inverse()
    for w in ug.reduced_words(3, 4):
        assert ginv.image_word(g.image_word(w)) == w
        assert g.image_word(ginv.image_word(w)) == w


def pullback_image(g, u):
    """g^-1(u) by pulling the path from g(base) to u back one colour at a time.

    Reference code: the image rule of the lazy inverse evaluator that the
    closed-form Portrait.inverse replaced.
    """
    q = ()
    img = g.image_word(())
    while img != u:
        if img == u[:len(img)]:
            m = u[len(img)]       # descend toward u
        else:
            m = img[-1]           # ascend toward the common prefix
        c = ug.perm_inv(g.local_action(q))[m - 1]
        q = ug.word_append(q, c)
        img = ug.word_append(img, m)
    return q


@st.composite
def portraits(draw, radius=3, degrees=(3, 4), world=None, base_lengths=(0, 4)):
    """A Portrait on ColorBall(d, radius), or on `world` when given: a base word
    of a length in `base_lengths` and a table filled in BFS order, each action
    sending w[-1] to the colour the parent's action forces."""
    if world is None:
        world = ug.ColorBall(draw(st.sampled_from(degrees)), radius)
    d, radius = world.degree, world.radius
    base = ()
    for _ in range(draw(st.integers(*base_lengths))):
        base = ug.word_append(base, draw(st.sampled_from([c for c in range(1, d + 1)
                                                          if not base or c != base[-1]])))
    acts = {}
    for w in world.word_of:
        if len(w) == radius or not draw(st.booleans()):
            continue
        if not w:
            acts[w] = draw(st.permutations(range(1, d + 1)).map(tuple))
            continue
        incoming = ug.Portrait(world, base, acts).local_action(w[:-1])[w[-1] - 1]
        others = [c for c in range(1, d + 1) if c != w[-1]]
        targets = draw(st.permutations([c for c in range(1, d + 1) if c != incoming]))
        sigma = [0] * d
        sigma[w[-1] - 1] = incoming
        for c, t in zip(others, targets):
            sigma[c - 1] = t
        acts[w] = tuple(sigma)
    return ug.Portrait(world, base, acts)


@settings(max_examples=150, deadline=None)
@given(portraits())
def test_portrait_inverse_is_a_closed_form_portrait(g):
    ginv = g.inverse()
    assert isinstance(ginv, ug.Portrait)
    assert ginv.inverse() == g
    for w in ug.reduced_words(g.world.degree, 5):
        assert ginv.image_word(w) == pullback_image(g, w)
        assert g.image_word(ginv.image_word(w)) == w


def per_vertex_restrict(g):
    """Reference code: the restriction of an exact evaluator with every ball
    vertex evaluated from the base, as it was before Portrait.restrict
    walked the ball once."""
    world = g.world
    images = tuple(world.id_of.get(g.image_word(w), -1) for w in world.word_of)
    return ta.FiniteTreeAutomorphism(world.ball, images, g)


@settings(max_examples=200, deadline=None)
@given(portraits(degrees=(2, 3, 4, 5), base_lengths=(1, 4)))
def test_portrait_restrict_matches_the_per_vertex_restrict(g):
    """Against both oracles, on portraits that move the base."""
    p = g.restrict()
    assert p.key() == per_vertex_restrict(g).key() == restrict_by_actions(g).key()
    assert p.exact is g


@settings(max_examples=200, deadline=None)
@given(portraits(degrees=(2, 3, 4), base_lengths=(4, 6)))
def test_restrict_follows_images_out_of_the_ball_and_back(g):
    """Base words longer than the radius 3: the base's image lies outside the
    ball, and the images walk back into it along the geodesic to the base."""
    p = g.restrict()
    assert p.images[0] == -1 and max(p.images) >= 0
    assert p.key() == restrict_by_actions(g).key()


@settings(max_examples=150, deadline=None)
@given(portraits(degrees=(2, 3, 4, 5)))
def test_preimage_word_pulls_the_path_back(g):
    ginv = g.inverse()
    for w in ug.reduced_words(g.world.degree, 4):
        u = g.preimage_word(w)
        assert u == pullback_image(g, w) == ginv.image_word(w)
        assert g.image_word(u) == w


@settings(max_examples=150, deadline=None)
@given(portraits(degrees=(2, 3, 4, 5), base_lengths=(0, 0)))
def test_moved_roots_are_the_tops_of_the_moved_subtrees(g):
    """Every word up to two letters past the table moves exactly when it lies
    below a moved root; the roots are moved, with fixed parents."""
    roots = g.moved_roots()
    for w in ug.reduced_words(g.world.degree, g.world.radius + 1):
        assert (g.image_word(w) != w) == any(w[:len(m)] == m for m in roots)
    assert all(g.image_word(m) != m and g.image_word(m[:-1]) == m[:-1] for m in roots)


def test_moved_roots_need_a_base_fixing_portrait():
    world = ug.ColorBall(3, 2)
    with pytest.raises(ValueError, match="base-fixing"):
        ug.translation(world, (1,)).moved_roots()


@st.composite
def chains(draw, length=(1, 4)):
    """1-4 random portraits on one ColorBall of degree 2..4, each possibly
    replaced by its closed-form inverse."""
    world = ug.ColorBall(draw(st.integers(2, 4)), 3)
    parts = []
    for _ in range(draw(st.integers(*length))):
        g = draw(portraits(world=world))
        parts.append(g.inverse() if draw(st.booleans()) else g)
    return parts


def product(parts):
    out = parts[0]
    for g in parts[1:]:
        out = out.compose(g)
    return out


def sequential_image(parts, w):
    """Reference code: the image of w under parts[0] o ... o parts[-1], applying
    the factors one after another, right to left."""
    for g in reversed(parts):
        w = g.image_word(w)
    return w


@settings(max_examples=200, deadline=None)
@given(chains())
def test_product_matches_sequential_evaluation(parts):
    """Every word up to three letters past the ball; the tables reach depth 2
    and the base images length 4, so that covers where the factors' tables
    and base preimages meet."""
    p = product(parts)
    assert isinstance(p, ug.Portrait)
    world = p.world
    for w in ug.reduced_words(world.degree, world.radius + 3):
        assert p.image_word(w) == sequential_image(parts, w)


@settings(max_examples=200, deadline=None)
@given(chains())
def test_product_restrict_matches_the_per_vertex_restrict(parts):
    p = product(parts)
    restricted = p.restrict()
    world = p.world
    assert restricted.key() == per_vertex_restrict(p).key()
    assert restricted.key() == tuple(world.id_of.get(sequential_image(parts, w), -1)
                                     for w in world.word_of)
    assert restricted.exact is p


@settings(max_examples=200, deadline=None)
@given(chains())
def test_product_restrict_is_the_ball_product_of_restrictions(parts):
    ball_product = parts[0].restrict()
    for g in parts[1:]:
        ball_product = ta.compose(ball_product, g.restrict())
    assert product(parts).restrict().key() == ball_product.key()
    assert ball_product.exact == product(parts)


@settings(max_examples=100, deadline=None)
@given(chains(length=(2, 2)), st.booleans(), st.booleans())
def test_product_addresses_are_the_addresses_of_the_composed_portrait(parts, g_partial, h_partial):
    g, h = (p.restrict() for p in parts)
    world = parts[0].world
    g = ta.FiniteTreeAutomorphism(world.ball, g.images) if g_partial else g
    h = ta.FiniteTreeAutomorphism(world.ball, h.images) if h_partial else h
    vertices = range(world.ball.vertex_count)
    composed = ta.compose(g, h)
    assert ta.product_addresses(g, h, world.word_of, vertices) == \
        tuple(ug.image_address(composed, world, u) for u in vertices)


@settings(max_examples=200, deadline=None)
@given(chains(length=(3, 3)))
def test_product_is_associative(parts):
    f, g, h = parts
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(max_examples=200, deadline=None)
@given(chains(length=(1, 1)))
def test_product_with_the_inverse_is_the_identity(parts):
    g = parts[0]
    assert g.compose(g.inverse()) == ug.identity_aut(g.world)
    assert g.inverse().compose(g) == ug.identity_aut(g.world)
    assert g.compose(ug.identity_aut(g.world)) == g == ug.identity_aut(g.world).compose(g)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_product_of_translations_is_a_translation(degree):
    world = ug.ColorBall(degree, 1)
    words = ug.reduced_words(degree, 3)
    for x in words:
        for y in words:
            assert ug.translation(world, x).compose(ug.translation(world, y)) == \
                ug.translation(world, ug.word_mul(x, y))


# ---------------------------------------------------------------------------
# products built past the constructor's checks, against those checks

def walked_action(table, w, d):
    """The action at w, walked down from the base: each prefix takes its
    entry, or the transposition of its last colour with the colour the
    parent's action sends that colour to."""
    sigma = table.get((), ug.perm_identity(d))
    for i in range(1, len(w) + 1):
        u = w[:i]
        sigma = table.get(u) or ug.perm_transposition(d, u[-1], sigma[u[-1] - 1])
    return sigma


def valid_portrait(g):
    """The reduced-word, permutation and parent-edge checks that Portrait's
    constructor ran on every table before products were built past them,
    kept as the oracle, shortest entry first; raises ValueError on an invalid
    table.  Every kept entry must also differ from its canonical action."""
    d = g.world.degree
    base, items = g.canonical_key()
    if not ug.is_reduced_word(base, d):
        raise ValueError(f"base image is not a reduced color word: {base}")
    table = dict(items)
    for w, sigma in sorted(items, key=lambda item: len(item[0])):
        if not ug.is_reduced_word(w, d):
            raise ValueError(f"support vertex is not a reduced color word: {w}")
        if not ug.is_perm(sigma, d):
            raise ValueError(f"not a permutation of 1..{d}: {sigma}")
        canonical = ug.perm_identity(d)
        if w:
            forced = walked_action(table, w[:-1], d)[w[-1] - 1]
            if sigma[w[-1] - 1] != forced:
                raise ValueError(f"local action at {w} maps parent color {w[-1]} to "
                                 f"{sigma[w[-1] - 1]}, but the parent edge forces {forced}")
            canonical = ug.perm_transposition(d, w[-1], forced)
        assert sigma != canonical, f"canonical entry kept at {w}"
    return True


def broken_edge(view):
    """view with the images of v and x swapped, where (p, v) is an edge, x is
    neither p's neighbour nor v, and all three images lie in the ball; None
    when there is no such triple.  (p, v) then maps to (g p, g x), not an
    edge, because p and x are not adjacent."""
    ball, images = view.ball, list(view.images)
    for p, v in ball.edges():
        for x in ball.vertices():
            if x != v and not ball.has_edge(p, x) and x != p and min(images[p], images[v], images[x]) >= 0:
                images[v], images[x] = images[x], images[v]
                return ta.FiniteTreeAutomorphism(ball, tuple(images))
    return None


def assert_valid_view(view):
    assert valid_tree_portrait(view)
    bad = broken_edge(view)
    if bad is not None:
        with pytest.raises(ValueError, match="non-edge"):
            valid_tree_portrait(bad)


@settings(max_examples=100, deadline=None)
@given(chains())
def test_products_and_views_pass_the_constructor_checks(parts):
    p = product(parts)
    for g in (p, p.inverse(), *parts):
        assert valid_portrait(g)
        assert_valid_view(g.restrict())
    view = p.restrict()
    assert_valid_view(ta.invert(view))
    assert_valid_view(ta.compose(parts[0].restrict(), view))


@pytest.mark.parametrize("base, acts, message", [
    ((1, 1), {}, "base image is not a reduced color word"),
    ((), {(1, 1): (1, 2, 3)}, "support vertex is not a reduced color word"),
    ((), {(4,): (4, 2, 3, 1)}, "support vertex is not a reduced color word"),
    ((), {(): (1, 1, 3)}, "not a permutation of 1..3"),
    ((), {(): (1, 2)}, "not a permutation of 1..3"),
    ((), {(1,): (2, 1, 3)}, "the parent edge forces 1"),
    ((), {(): (2, 1, 3), (1,): (1, 3, 2)}, "the parent edge forces 2"),
])
def test_the_constructor_and_the_oracle_reject_bad_tables(base, acts, message):
    world = ug.ColorBall(3, 2)
    with pytest.raises(ValueError, match=message):
        ug.Portrait(world, base, acts)
    # a table built past the constructor's own checks is refused by the oracle
    unchecked = ug.Portrait.__new__(ug.Portrait)
    unchecked.world, unchecked.base_word, unchecked._acts = world, base, acts
    with pytest.raises(ValueError, match=message):
        valid_portrait(unchecked)


def test_trusted_products_still_check_the_parent_edge():
    with pytest.raises(ValueError, match="the parent edge forces 1"):
        ug.Portrait._trusted(ug.ColorBall(3, 2), (), {(1,): (2, 1, 3)})


def test_the_view_oracle_rejects_a_broken_edge():
    world = ug.ColorBall(3, 2)
    view = ug.Portrait(world, (1,), {(): (2, 3, 1)}).restrict()
    assert valid_tree_portrait(view)
    bad = broken_edge(view)
    with pytest.raises(ValueError, match="non-edge"):
        valid_tree_portrait(bad)
    with pytest.raises(ValueError, match="non-edge"):
        ta.FiniteTreeAutomorphism.from_mapping(world.ball, dict(bad.mapping))


def test_compose_with_a_partial_portrait_is_partial():
    """A product with a JSON-read (partial) portrait on either side is
    PARTIAL, with the images, certified radii and agreement depths of the
    product of the two ball portraits alone."""
    world = ug.ColorBall(3, 3)
    ball = world.ball
    g = ug.Portrait(world, (1, 2), {(): (2, 3, 1), (3,): (2, 3, 1)}).restrict()
    t = ug.translation(world, (2,)).restrict()
    read = ta.FiniteTreeAutomorphism.from_json(t.to_json(include_ball=False), ball)
    assert read.exact is ta.PARTIAL and read.images == t.images
    ident = ta.identity_automorphism(ball)
    pairs = []
    for e in (g, ta.compose(g, g)):
        e_on_ball = ta.FiniteTreeAutomorphism(ball, e.images)
        pairs += [(ta.compose(e, read), ta.compose(e_on_ball, read)),
                  (ta.compose(read, e), ta.compose(read, e_on_ball))]
    for p, q in pairs:
        assert p.exact is ta.PARTIAL
        assert p.images == q.images
        assert -1 in p.images
        for v in ball.vertices():
            assert ta.certified_radius(p, v) == ta.certified_radius(q, v)
            assert ta.agreement_depth(p, ident, v) == ta.agreement_depth(q, ident, v)
            assert ta.agreement_depth(p, g, v) == ta.agreement_depth(q, g, v)


def test_portrait_local_actions_are_intrinsic():
    # The stored table equals the true local action sigma(g, v) read off the images.
    world = ug.ColorBall(3, 3)
    g = ug.Portrait(world, (2,), {(): (3, 2, 1), (1,): (3, 2, 1)})
    for w in ug.reduced_words(3, 2):
        sigma = g.local_action(w)
        img = g.image_word(w)
        for c in range(1, 4):
            assert g.image_word(ug.word_append(w, c)) == ug.word_append(img, sigma[c - 1])


def test_local_action_examples():
    world = ug.ColorBall(3, 2)
    coloring = world
    ident = ug.identity_aut(world).restrict()
    assert ug.local_action(ident, 0, coloring) == (1, 2, 3)
    rot = ug.Portrait(world, (), {(): (2, 3, 1)}).restrict()
    assert ug.local_action(rot, 0, coloring) == (2, 3, 1)
    swap = ug.Portrait(world, (), {(): (2, 1, 3)}).restrict()
    assert ug.local_action(swap, 0, coloring) == (2, 1, 3)


def test_local_action_boundary_error():
    world = ug.ColorBall(3, 2)
    coloring = world
    shiftless = ta.FiniteTreeAutomorphism.from_mapping(world.ball, {v: v for v in world.ball.vertices()})
    boundary = next(v for v in world.ball.vertices() if not world.ball.is_interior(v))
    with pytest.raises(CertificationError):
        ug.local_action(shiftless, boundary, coloring)


def test_membership_u1():
    world = ug.ColorBall(3, 2)
    coloring = world
    ident = ug.identity_aut(world).restrict()
    assert ug.membership_u1(ident, FLIP, coloring)
    swap = ug.Portrait(world, (), {(): (2, 1, 3)}).restrict()
    assert ug.membership_u1(swap, FLIP, coloring)
    rot = ug.Portrait(world, (), {(): (2, 3, 1)}).restrict()
    assert not ug.membership_u1(rot, FLIP, coloring)


def test_membership_u1_closed_under_composition():
    world = ug.ColorBall(3, 2)
    coloring = world
    gb = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.create(3, [(2, 1, 3), (2, 3, 1)]), world)
    elems = list(gb)[::5]
    for g in elems[:8]:
        for h in elems[8:16]:
            assert ug.membership_u1(ta.compose(g, h), S3, coloring)
            assert ug.membership_u1(ta.invert(g), S3, coloring)


def bfs_closure(F):
    """The closure of <F> by breadth-first multiplication, as LocalGroup.closure once was."""
    ident = ug.perm_identity(F.degree)
    out = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in F.generators:
                b = ug.perm_mul(g, a)
                if b not in out:
                    out.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(out)


def brute_force_stabilizer_count(world, F):
    """Independent oracle: enumerate all base-fixing graph bijections of the
    ball whose ball-readable local actions lie in <F>, by backtracking over
    vertex images without the Portrait machinery.  The children of each
    interior vertex get their images together, so that the whole local
    action there is checked against the listed group."""
    ball = world.ball
    group = bfs_closure(F)
    interior = sorted((v for v in ball.vertices() if ball.is_interior(v)), key=lambda v: ball.depth[v])
    count = 0

    def assign(idx, images):
        nonlocal count
        if idx == len(interior):
            count += 1
            return
        v = interior[idx]
        img = images[v]
        kids = ball.children[v]
        free = [u for u in ball.neighbors(img) if ball.parent[v] < 0 or u != images[ball.parent[v]]]
        for targets in itertools.permutations(free, len(kids)):
            sigma = [0] * world.degree
            for kid, t in zip(kids, targets):
                sigma[world.edge_color(v, kid) - 1] = world.edge_color(img, t)
            if ball.parent[v] >= 0:
                p = ball.parent[v]
                sigma[world.edge_color(v, p) - 1] = world.edge_color(img, images[p])
            if tuple(sigma) in group:
                images.update(zip(kids, targets))
                assign(idx + 1, images)
        for kid in kids:
            images.pop(kid, None)

    assign(0, {ball.base: ball.base})
    return count


def test_stabilizer_ball_counts_against_formula_and_brute_force():
    for radius, expected in ((1, 6), (2, 48)):
        world = ug.ColorBall(3, radius)
        gb = ug.enumerate_u1_stabilizer_ball(S3, world)
        assert len(gb) == expected
        assert len(gb.key_set()) == expected

    world = ug.ColorBall(3, 2)
    assert len(ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.trivial(3), world)) == 1
    assert brute_force_stabilizer_count(world, S3) == 48
    assert brute_force_stabilizer_count(ug.ColorBall(3, 1), S3) == 6
    # <(1 2)>: the prescribed-point counts are 1,1,2 at the three depth-1
    # vertices, whichever sigma is chosen at the base: 2 * (1*1*2) = 4.
    assert brute_force_stabilizer_count(world, FLIP) == 4
    assert len(ug.enumerate_u1_stabilizer_ball(FLIP, world)) == 4


def test_degree_2_stabilizer_ball_steps_linearly_in_the_vertices(monkeypatch):
    # At degree 2 the ball of radius r has 2r + 1 vertices with addresses of up to r
    # letters; the base-fixing elements are read through t_(), the identity, so no
    # address is stepped through letter by letter (reading t_() through word_mul
    # took r(r + 1) word_append calls: 40,200 at r = 200).
    calls = 0
    real = ug.word_append

    def counted(word, color):
        nonlocal calls
        calls += 1
        return real(word, color)

    for radius in (200, 400):
        world = ug.ColorBall(2, radius)
        calls = 0
        monkeypatch.setattr(ug, "word_append", counted)
        gb = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.symmetric(2), world)
        monkeypatch.setattr(ug, "word_append", real)
        assert len(gb) == 2
        assert calls <= 4 * len(world.word_of), (radius, calls)


def test_degree_2_movers_read_their_translations_by_id(monkeypatch):
    # The movers' translations t_w are read off one restrict pass over ball
    # ids, so no address is stepped through letter by letter (one word_mul per
    # address took O(r^2) word_append calls per mover).
    calls = 0
    real = ug.word_append

    def counted(word, color):
        nonlocal calls
        calls += 1
        return real(word, color)

    counts = []
    for radius in (200, 400):
        world = ug.ColorBall(2, radius)
        calls = 0
        monkeypatch.setattr(ug, "word_append", counted)
        gb = ug.enumerate_u1_ball(ug.LocalGroup.symmetric(2), world, 1, radius - 1)
        monkeypatch.setattr(ug, "word_append", real)
        assert len(gb) == 6
        counts.append(calls)
    assert counts[0] == counts[1], counts


def test_stabilizer_ball_is_a_group():
    world = ug.ColorBall(3, 2)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    keys = gb.key_set()
    elems = list(gb)
    for g in elems[::7]:
        assert ta.invert(g).key() in keys
        for h in elems[::11]:
            assert ta.compose(g, h).key() in keys


def test_guard_triggers():
    world = ug.ColorBall(3, 2)
    with pytest.raises(GuardExceeded):
        ug.enumerate_u1_stabilizer_ball(S3, world, guard=10)


def test_u1_ball_guard_counts_every_base_image():
    # 6 tables at support 1 fit a guard of 20; 4 base images x 6 = 24 do not
    with pytest.raises(GuardExceeded, match="U1 ball enumeration: 24 objects exceeds guard 20"):
        ug.enumerate_u1_ball(S3, ug.ColorBall(3, 2), 1, 1, guard=20)
    assert len(ug.enumerate_u1_ball(S3, ug.ColorBall(3, 2), 1, 1, guard=24)) == 24


def test_u1_balls_are_listed_without_settling_or_restricting(monkeypatch):
    def rebuilt(*args, **kwargs):
        raise AssertionError("an element was rebuilt from its table")

    monkeypatch.setattr(ug.Portrait, "_settle", rebuilt)
    monkeypatch.setattr(ug.Portrait, "restrict", rebuilt)
    assert len(ug.enumerate_u1_stabilizer_ball(S3, ug.ColorBall(3, 3))) == 3072
    assert len(ug.enumerate_u1_ball(S3, ug.ColorBall(3, 4), 2, 2)) == 480


def test_one_ball_is_checked_by_identity_not_field_by_field(monkeypatch):
    def compared(self, other):
        raise AssertionError("a ball was compared field by field")

    gb = ug.enumerate_u1_ball(S3, ug.ColorBall(3, 4), 2, 2)
    g, h = gb.elements[1], gb.elements[-1]
    want = (ta.compose(g, h), ta.product_addresses(g, h, gb.world.word_of, range(10)),
            ta.agreement_depth(g, h, 0))
    monkeypatch.setattr(tc.TreeBall, "__eq__", compared)
    assert len(ug.GroupBall(gb.world, gb.elements)) == 480
    assert (ta.compose(g, h), ta.product_addresses(g, h, gb.world.word_of, range(10)),
            ta.agreement_depth(g, h, 0)) == want
    # an equal ball built apart is still compared field by field
    with pytest.raises(AssertionError, match="field by field"):
        ug.GroupBall(ug.ColorBall(3, 4), gb.elements)


def guard_outcome(check, *args):
    try:
        check(*args)
    except GuardExceeded as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10**6), st.sampled_from([1, 2, 3, 6, 8, 24, 1296, 3**7]), st.integers(0, 400),
       st.none() | st.integers(0, 10**40))
def test_power_guard_refuses_as_the_built_total_does(c, b, e, guard):
    assert guard_outcome(check_power_guard, c, b, e, guard, "count") == \
        guard_outcome(check_guard, c * b**e, guard, "count")


@pytest.mark.parametrize("k", range(64, 71))
def test_power_guard_at_totals_just_below_a_power_of_two(k):
    # The float log2 of 2^k - 1 rounds to k: only the margin keeps the total
    # from being refused as if it were 2^k.
    total = 2**k - 1
    for c, b in ((total, 1), (1, total)):
        assert guard_outcome(check_power_guard, c, b, 1, total, "count") is None
        refused = guard_outcome(check_power_guard, c, b, 1, total - 1, "count")
        assert refused is not None
        assert refused == guard_outcome(check_guard, total, total - 1, "count")


def test_power_guard_does_not_build_a_total_it_can_refuse():
    # 6 * 8^(2^40) = 2^(3 * 2^40 + 2) * 1.5: the total would take 3 * 2^40 + 3 bits
    with pytest.raises(GuardExceeded, match=r"^count: over 10\^992957941626 objects exceeds guard 100$"):
        check_power_guard(6, 8, 2**40, 100, "count")
    # an exponent past the range of floats is bounded below, not converted
    with pytest.raises(GuardExceeded, match=r"^count: over 10\^"):
        check_power_guard(6, 8, 2**2000, None, "count")


def test_degree_12_guards_refuse_without_listing(monkeypatch):
    F = ug.LocalGroup.symmetric(12)
    assert F.order() == 479001600

    def no_closure(self):
        raise AssertionError("the local group was listed")

    monkeypatch.setattr(ug.LocalGroup, "closure", no_closure)
    with pytest.raises(GuardExceeded, match="479001600 objects exceeds guard 100"):
        ug.enumerate_u1_stabilizer_ball(F, ug.ColorBall(12, 1), guard=100)
    with pytest.raises(GuardExceeded):
        ug.enumerate_u1_ball(F, ug.ColorBall(12, 2), 1, 1, guard=100)
    with pytest.raises(GuardExceeded):
        ug.is_semiprimitive(F, guard=100)
    with pytest.raises(GuardExceeded):
        ug.is_generated_by_point_stabilizers(F, guard=100)
    world = ug.ColorBall(12, 1)
    swap = ug.Portrait(world, (), {(): ug.perm_transposition(12, 3, 7)}).restrict()
    assert ug.membership_u1(swap, F, world)
    assert not ug.membership_u1(swap, ug.LocalGroup.create(12, [tuple(range(2, 13)) + (1,)]), world)


def test_edge_fixator_counts():
    world = ug.ColorBall(3, 2)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    e = (0, world.id_of[(1,)])
    fix = ug.edge_fixator(gb, e, 1)
    assert len(fix) == 16
    assert any(g.is_total() and all(g.mapping[v] == v for v in world.ball.vertices()) for g in fix)
    trivial = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.trivial(3), world)
    assert len(ug.edge_fixator(trivial, e, 1)) == 1
    with pytest.raises(CertificationError):
        ug.edge_fixator(gb, (world.id_of[(1,)], world.id_of[(1, 2)]), 3)


def test_edge_fixator_containment_in_k():
    world = ug.ColorBall(3, 3)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    e = (0, world.id_of[(1,)])
    f1 = ug.edge_fixator(gb, e, 1)
    f2 = ug.edge_fixator(gb, e, 2)
    assert set(f2.key_set()) <= set(f1.key_set())
    assert len(f2) < len(f1)


def test_generate_plus_k():
    world = ug.ColorBall(3, 2)
    trivial = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.trivial(3), world)
    assert len(ug.generate_plus_k(trivial, 1)) == 1

    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    plus1 = ug.generate_plus_k(gb, 1)
    assert plus1.key_set() <= gb.key_set()
    # At ball depth the fixators already generate the whole stabilizer ball:
    # sigma at the base ranges over all of Sym(3) (point stabilizers generate)
    # and the depth-1 actions are free given their prescribed point.
    assert len(plus1) == 48

    line = ug.ColorBall(2, 2)
    line_gb = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.symmetric(2), line)
    line_plus = ug.generate_plus_k(line_gb, 1)
    assert len(line_plus) == 1  # the line is rigid relative to half-lines


def test_generate_plus_k_normalized_by_gb():
    world = ug.ColorBall(3, 2)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    plus1 = ug.generate_plus_k(gb, 1)
    for k in list(gb)[::9]:
        for g in list(plus1)[::17]:
            conj = ta.compose(k, ta.compose(g, ta.invert(k)))
            assert conj.key() in plus1.key_set()


def test_k_closure_membership():
    world = ug.ColorBall(3, 2)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    g = list(gb)[17]
    assert ug.k_closure_membership(g, gb, 1)
    ident = ug.identity_aut(world).restrict()
    assert ug.k_closure_membership(ident, gb, 1)

    flip_gb = ug.enumerate_u1_stabilizer_ball(FLIP, world)
    rot = ug.Portrait(world, (), {(): (2, 3, 1)}).restrict()
    assert not ug.k_closure_membership(rot, flip_gb, 1)


def test_property_pk_holds_for_u1():
    world = ug.ColorBall(3, 3)
    gb = ug.enumerate_u1_stabilizer_ball(S3, world)
    e = (0, world.id_of[(1,)])
    res = ug.check_property_pk(gb, e, 1)
    assert res.holds
    assert res.checked == len(ug.edge_fixator(gb, e, 1))

    trivial = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.trivial(3), world)
    assert ug.check_property_pk(trivial, e, 1).holds


def test_property_pk_counterexample():
    # A hand-built collection containing a "diagonal" element but not its
    # halves: the identity plus one element acting on both sides of the edge.
    world = ug.ColorBall(3, 2)
    diag = ug.Portrait(world, (), {(1,): (1, 3, 2), (2,): (3, 2, 1)}).restrict()
    ident = ug.identity_aut(world).restrict()
    gb = ug.GroupBall(world, [ident, diag, ta.invert(diag)], closed=False)
    res = ug.check_property_pk(gb, (0, world.id_of[(1,)]), 1)
    assert not res.holds
    assert res.offender is not None


def test_is_semiprimitive():
    assert ug.is_semiprimitive(S3)
    assert not ug.is_semiprimitive(FLIP)  # not transitive
    c3 = ug.LocalGroup.create(3, [(2, 3, 1)])
    assert ug.is_semiprimitive(c3)
    # D4 on 4 points: the Klein normal subgroup <(13)(24),(12)(34)> is fine,
    # but <(13)> is not normal; the centre <(13)(24)> is semiregular... check
    # a genuinely non-semiprimitive action instead: Sym(2) x trivial on 4.
    blocks = ug.LocalGroup.create(4, [(2, 1, 3, 4)])
    assert not ug.is_semiprimitive(blocks)


def test_is_generated_by_point_stabilizers():
    assert ug.is_generated_by_point_stabilizers(S3)
    assert not ug.is_generated_by_point_stabilizers(ug.LocalGroup.create(3, [(2, 3, 1)]))
    assert not ug.is_generated_by_point_stabilizers(ug.LocalGroup.symmetric(2))


def test_uk_membership_interface():
    world = ug.ColorBall(3, 3)
    # F_2 := all 2-local actions of U1(Sym(3)) elements, collected from the
    # stabilizer ball; membership then accepts exactly the U1 portraits.
    gb = ug.enumerate_u1_stabilizer_ball(S3, ug.ColorBall(3, 2))
    maps = {ug.k_local_action(g, 0, gb.world, 2): None for g in gb}
    Fk = ug.LocalGroupK.from_maps(3, 2, [dict(m) for m in maps])
    good = ug.Portrait(world, (), {(): (2, 1, 3)}).restrict()
    assert ug.membership_uk(good, Fk, world)


def test_local_group_json_round_trip():
    data = S3.to_json()
    back = ug.LocalGroup.from_json(data)
    assert back == S3
    world = ug.ColorBall(3, 2)
    blob = world.to_json()
    assert blob["degree"] == 3
    assert len(blob["colors"]) == len(world.ball.edges())
    assert blob["ball"] == world.ball.to_json()


# ---------------------------------------------------------------------------
# the stabilizer chain against independent oracles

@st.composite
def local_groups(draw, degrees=st.integers(1, 7)):
    d = draw(degrees)
    gens = draw(st.lists(st.permutations(range(1, d + 1)).map(tuple), max_size=3))
    return ug.LocalGroup.create(d, gens)


@settings(max_examples=150, deadline=None)
@given(local_groups())
def test_order_matches_sympy(F):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = [combinatorics.Permutation([x - 1 for x in g]) for g in F.generators]
    group = combinatorics.PermutationGroup(gens or [combinatorics.Permutation(list(range(F.degree)))])
    assert F.order() == group.order()


@settings(max_examples=150, deadline=None)
@given(local_groups(), st.randoms(use_true_random=False))
def test_closure_and_sifting_match_bfs(F, rng):
    oracle = bfs_closure(F)
    closure = F.closure()
    assert len(closure) == F.order()
    assert closure == oracle
    for p in rng.sample(sorted(oracle), min(5, len(oracle))):
        assert p in F
    points = list(range(1, F.degree + 1))
    for _ in range(5):
        rng.shuffle(points)
        assert (tuple(points) in F) == (tuple(points) in oracle)
    assert (0,) * F.degree not in F


def subgroups_of_sym(d):
    """Every subgroup of Sym(d) generated by two cyclic subgroups, once each."""
    cyclic = {}
    for p in itertools.permutations(range(1, d + 1)):
        cyclic.setdefault(ug.LocalGroup(d, (p,)).closure(), p)
    gens = list(cyclic.values())
    groups = {}
    for i, a in enumerate(gens):
        for b in gens[i:]:
            F = ug.LocalGroup(d, (a, b))
            groups.setdefault(F.closure(), F)
    return list(groups.values())


@pytest.mark.parametrize("d, count", [(1, 1), (2, 2), (3, 6), (4, 30), (5, 156)])
def test_least_fixing_is_the_first_fixing_element_of_the_sorted_listing(d, count):
    groups = subgroups_of_sym(d)
    assert len(groups) == count    # all subgroups of Sym(d) (OEIS A005432)
    for F in groups:
        listing = sorted(F.closure())
        for c in range(1, d + 1):
            oracle = next((t for t in listing if t != ug.perm_identity(d) and t[c - 1] == c), None)
            assert F.least_fixing(c) == oracle


@settings(max_examples=40, deadline=None)
@given(local_groups(st.integers(2, 4)))
def test_predicted_stabilizer_count_matches_enumeration(F):
    radius = 2 if ug.stabilizer_ball_count(F, 2) <= 1500 else 1
    world = ug.ColorBall(F.degree, radius)
    count = ug.stabilizer_ball_count(F, radius)
    assert len(ug.enumerate_u1_stabilizer_ball(F, world)) == count
    assert brute_force_stabilizer_count(world, F) == count


@pytest.mark.parametrize("F, radius, count", [
    (S3, 3, 3072),
    (FLIP, 3, 16),
    (ug.LocalGroup.create(4, [(2, 3, 4, 1)]), 2, 4),
    (ug.LocalGroup.create(4, [(2, 1, 3, 4), (1, 2, 4, 3)]), 2, 64),
    (ug.LocalGroup.create(5, [(2, 1, 3, 4, 5)]), 2, 16),
    (ug.LocalGroup.trivial(3), 4, 1),
])
def test_predicted_stabilizer_counts(F, radius, count):
    world = ug.ColorBall(F.degree, radius)
    assert ug.stabilizer_ball_count(F, radius) == count
    assert len(ug.enumerate_u1_stabilizer_ball(F, world)) == count


def test_chain_is_not_part_of_equality():
    a = ug.LocalGroup.create(3, [(1, 3, 2), (2, 3, 1)])
    b = ug.LocalGroup.create(3, [(1, 3, 2), (2, 3, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != S3 and a.order() == S3.order()
    assert a.to_json() == {"degree": 3, "generators": [[1, 3, 2], [2, 3, 1]]}


def conjugating_normal_subgroups(group, degree):
    """Reference code: _normal_subgroups as it was before it took one normal
    closure per conjugacy class and joins without conjugation."""
    elements = sorted(group)

    def normal_closure(seed):
        conjugates = {ug.perm_mul(ug.perm_mul(g, h), ug.perm_inv(g)) for h in seed for g in elements}
        return ug.LocalGroup.create(degree, sorted(conjugates)).closure()

    basic = {normal_closure({g}) for g in elements}
    found = set(basic)
    pending = list(basic)
    while pending:
        n1 = pending.pop()
        for n2 in list(found):
            joined = normal_closure(set(n1) | set(n2))
            if joined not in found:
                found.add(joined)
                pending.append(joined)
    return sorted(found, key=lambda n: (len(n), sorted(n)))


@settings(max_examples=60, deadline=None)
@given(local_groups(st.integers(1, 5)))
def test_normal_subgroups_match_conjugating_oracle(F):
    group = F.closure()
    assert ug._normal_subgroups(group, F.degree) == conjugating_normal_subgroups(group, F.degree)


def test_normal_subgroups_of_small_symmetric_groups():
    # Sym(4): 1, the Klein four-group, Alt(4), Sym(4); Sym(5): 1, Alt(5), Sym(5)
    for d, orders in ((4, [1, 4, 12, 24]), (5, [1, 60, 120])):
        normal = ug._normal_subgroups(ug.LocalGroup.symmetric(d).closure(), d)
        assert [len(n) for n in normal] == orders


def walked_stabilizer_ball_count(F, world, radius):
    """Reference code: stabilizer_ball_count as it was before its closed form,
    a walk over the inner vertices of a built ball."""
    order = F.order()
    stab = {c: order // len(ug._orbit_transversal(c, F.generators, F.degree))
            for c in range(1, world.degree + 1)}
    count = 1
    for v in world.ball.vertices():
        if world.ball.depth[v] < radius:
            w = world.word_of[v]
            count *= stab[w[-1]] if w else order
    return count


@settings(max_examples=60, deadline=None)
@given(local_groups(st.integers(2, 5)), st.integers(0, 4))
def test_closed_form_stabilizer_count_matches_the_walk(F, radius):
    world = ug.ColorBall(F.degree, radius)
    assert ug.stabilizer_ball_count(F, radius) == walked_stabilizer_ball_count(F, world, radius)


# ---------------------------------------------------------------------------
# plus-k and P_k against the compose-based code they replaced

def bfs_plus_k(gb, k, guard=None):
    """Reference code: generate_plus_k as it was before it used a stabilizer
    chain, a frontier search composing every element with every fixator
    generator."""
    if not gb.closed:
        raise ValueError("generate_plus_k needs a closed group ball")
    gens = {}
    for e in ug.certified_edges(gb, k):
        for g in ug.edge_fixator(gb, e, k):
            gens.setdefault(g.key(), g)
    ident = ug.identity_aut(gb.world).restrict()
    out = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens.values():
                b = ta.compose(g, a)
                kb = b.key()
                if kb not in out:
                    check_guard(len(out) + 1, guard, "plus-k closure")
                    out[kb] = b
                    nxt.append(b)
        frontier = nxt
    return ug.GroupBall(gb.world, out.values(), closed=True, local_group=gb.local_group)


def portrait_property_pk(gb, edge, k):
    """Reference code: check_property_pk as it was before it read the factors
    off the images, building g1 from local actions as a Portrait."""
    u, v = edge
    world, ball = gb.world, gb.ball
    fixator = ug.edge_fixator(gb, edge, k)
    w_side = tc.half_tree_vertices(ball, tc.HalfTreeRef(edge, v))
    w_inner = [x for x in sorted(w_side) if ball.is_interior(x)]
    factor_keys = []
    for g in fixator:
        acts = {world.word_of[x]: ug.local_action(g, x, world) for x in w_inner}
        base = ug.image_address(g, world, ball.base) if ball.base in w_side else ()
        g1 = ug.Portrait(world, base, acts).restrict()
        rest = ta.compose(g, ta.invert(g1))
        if not (g1.key() in gb.key_set() and rest.key() in gb.key_set()):
            return ug.PkResult(False, edge, k, len(fixator), offender=g)
        factor_keys.append((g1.key(), rest.key()))
    return ug.PkResult(True, edge, k, len(fixator), factor_keys=tuple(factor_keys))


def largest_radius(F, cap):
    return max(r for r in (1, 2, 3) if ug.stabilizer_ball_count(F, r) <= cap)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(local_groups(st.integers(2, 4)))
def test_plus_k_matches_the_compose_search(F):
    # The search makes |plus-k| x |generators| compositions, so the balls stay
    # smaller here than in the P_k property below.
    radius = largest_radius(F, 400)
    gb = ug.enumerate_u1_stabilizer_ball(F, ug.ColorBall(F.degree, radius))
    for k in (1, 2):
        if not ug.certified_edges(gb, k):
            # radius 1 with k = 2: no fixator generates, so the ball certifies nothing
            with pytest.raises(CertificationError):
                ug.generate_plus_k(gb, k)
            continue
        plus = ug.generate_plus_k(gb, k)
        assert plus.key_set() == bfs_plus_k(gb, k).key_set()
        assert len(plus) == len(plus.key_set())


@settings(max_examples=15, deadline=None, derandomize=True)
@given(local_groups(st.integers(2, 4)))
def test_property_pk_matches_the_portrait_factors_on_stabilizer_balls(F):
    radius = largest_radius(F, 3100)
    gb = ug.enumerate_u1_stabilizer_ball(F, ug.ColorBall(F.degree, radius))
    for k in (1, 2):
        for e in ug.certified_edges(gb, k):
            assert ug.check_property_pk(gb, e, k) == portrait_property_pk(gb, e, k)


@settings(max_examples=15, deadline=None)
@given(local_groups(st.integers(2, 4)), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
def test_property_pk_matches_the_portrait_factors_on_mover_balls(F, sizes):
    move, support = sizes
    world = ug.ColorBall(F.degree, move + support)
    addresses = len(ug.reduced_words(F.degree, move))
    if addresses * ug.stabilizer_ball_count(F, support) > 3100:
        move, support = 1, 1
        world = ug.ColorBall(F.degree, 2)
    gb = ug.enumerate_u1_ball(F, world, move, support)
    for k in (1, 2):
        for e in ug.certified_edges(gb, k):
            assert ug.check_property_pk(gb, e, k) == portrait_property_pk(gb, e, k)


def test_plus_k_guard_refuses_on_the_chain_order_before_listing(monkeypatch):
    gb = ug.enumerate_u1_stabilizer_ball(S3, ug.ColorBall(3, 2))
    assert len(ug.generate_plus_k(gb, 1, guard=48)) == 48

    def no_closure(self):
        raise AssertionError("the plus-k closure was listed")

    monkeypatch.setattr(ug.LocalGroup, "closure", no_closure)
    # the message names the order of the closure, not the first element over the cap
    with pytest.raises(GuardExceeded, match="^plus-k closure: 48 objects exceeds guard 40$"):
        ug.generate_plus_k(gb, 1, guard=40)


def test_property_pk_refuses_an_undetermined_half_tree_image():
    # A partial map that fixes the edge (0, (1,)) but whose images of (1,2)
    # and (1,3), on the (1,) side, are unknown.
    world = ug.ColorBall(3, 2)
    unknown = {world.id_of[(1, 2)], world.id_of[(1, 3)]}
    g = ta.FiniteTreeAutomorphism.from_mapping(
        world.ball, {v: v for v in world.ball.vertices() if v not in unknown})
    gb = ug.GroupBall(world, [g], closed=False)
    with pytest.raises(CertificationError):
        ug.check_property_pk(gb, (0, world.id_of[(1,)]), 1)
    # on the other half-tree every image is known, so both codes answer
    e = (world.id_of[(1,)], 0)
    assert ug.check_property_pk(gb, e, 1) == portrait_property_pk(gb, e, 1)


@settings(max_examples=20, deadline=None)
@given(local_groups(st.integers(2, 4)), st.sampled_from([(0, 1), (0, 2), (1, 1), (1, 2)]))
def test_u1_elements_pass_the_constructor_checks(F, sizes):
    move, support = sizes
    if len(ug.reduced_words(F.degree, move)) * ug.stabilizer_ball_count(F, support) > 1000:
        move, support = 0, 1
    world = ug.ColorBall(F.degree, move + support)
    gb = ug.enumerate_u1_ball(F, world, move, support)
    for g in gb:
        assert valid_portrait(g.exact)
        assert_valid_view(g)
    # at most 1000 elements, by the size check above
    stab = ug.enumerate_u1_stabilizer_ball(F, ug.ColorBall(F.degree, support), guard=1000)
    for g in ug.generate_plus_k(stab, 1):
        assert valid_tree_portrait(g)
    for u, v in world.ball.edges():
        x = kt.half_tree_fixator_witness(gb, tc.HalfTreeRef((u, v), v))
        if x is not None:
            assert valid_portrait(x.exact)
            assert_valid_view(x)


@settings(max_examples=60, deadline=None)
@given(local_groups(st.integers(2, 4)), st.integers(0, 2), st.integers(0, 3), st.integers(0, 1))
@example(S3, 2, 2, 0)
@example(S3, 0, 3, 0)
@example(FLIP, 1, 2, 1)
@example(ug.LocalGroup.symmetric(4), 1, 1, 1)
def test_u1_ball_matches_the_table_oracle(F, move, support, extra):
    assume(len(ug.reduced_words(F.degree, move)) * ug.stabilizer_ball_count(F, support) <= 20000)
    world = ug.ColorBall(F.degree, move + support + extra)
    gb = ug.enumerate_u1_ball(F, world, move, support)
    oracle = table_u1_ball(F, world, move, support)
    assert (gb.closed, gb.local_group) == (oracle.closed, oracle.local_group)
    assert len(gb) == len(oracle)
    for g, h in zip(gb, oracle):
        assert g.images == h.images
        assert g.exact.base_word == h.exact.base_word
        assert list(g.exact._acts.items()) == list(h.exact._acts.items())
