import json

import pytest
from hypothesis import given, settings, strategies as st

from tdlc import tree_aut as ta
from tdlc import tree_core as tc
from tdlc import universal_groups as ug
from oracles import locate_compose, valid_tree_portrait


def t3_world(radius=2):
    return ug.ColorBall(3, radius)


def rotation_at_base(world, perm):
    return ug.Portrait(world, (), {(): perm}).restrict()


def test_identity_and_compose_trivialities():
    world = t3_world()
    ident = ta.identity_automorphism(world.ball)
    g = rotation_at_base(world, (2, 3, 1))
    assert ta.compose(g, ta.invert(g)).key() == ident.key()
    assert ta.compose(ident, g).key() == g.key()


def test_compose_matches_direct_table():
    world = ug.ColorBall(3, 1)
    g = rotation_at_base(world, (2, 3, 1))
    h = rotation_at_base(world, (2, 1, 3))
    gh = ta.compose(g, h)
    expected = {0: 0}
    for c in (1, 2, 3):
        expected[world.id_of[(c,)]] = world.id_of[((2, 3, 1)[(2, 1, 3)[c - 1] - 1],)]
    assert gh.mapping == expected


def test_compose_partial_maps_without_exact():
    ball = tc.build_regular_ball(2, 2)
    # shift along the 5-vertex path: ids in path order
    order = sorted(ball.vertices(), key=lambda v: tc.distance(ball, v, 3))
    shift = {order[i]: order[i + 1] for i in range(4)}
    g = ta.FiniteTreeAutomorphism.from_mapping(ball, shift)
    g2 = ta.compose(g, g)
    assert g2.mapping == {order[i]: order[i + 2] for i in range(3)}


def test_validation_rejects_bad_maps():
    ball = tc.build_regular_ball(3, 1)
    with pytest.raises(ValueError, match="injective"):
        ta.FiniteTreeAutomorphism.from_mapping(ball, {1: 2, 3: 2})
    with pytest.raises(ValueError, match="non-edge"):
        ta.FiniteTreeAutomorphism.from_mapping(ball, {0: 1, 1: 2})
    for outside in ({0: 4}, {-1: 0}, {0: True}):
        with pytest.raises(ValueError, match="leaves the ball"):
            ta.FiniteTreeAutomorphism.from_mapping(ball, outside)


def test_classify_identity_elliptic():
    world = t3_world()
    res = ta.classify(ta.identity_automorphism(world.ball))
    assert res.kind == "elliptic"
    assert res.fixed_vertex == world.ball.base


def test_classify_shift_is_hyperbolic():
    ball = tc.build_regular_ball(2, 4)
    ends = [v for v in ball.vertices() if ball.depth[v] == 4]
    order = sorted(ball.vertices(), key=lambda v: tc.distance(ball, v, ends[0]))
    g = ta.FiniteTreeAutomorphism.from_mapping(ball, {order[i]: order[i + 1] for i in range(8)})
    res = ta.classify(g)
    assert res.kind == "hyperbolic"
    assert res.translation_length == 1
    assert len(res.axis) >= 5


def test_classify_inversion():
    world = t3_world()
    g = ug.translation(world, (1,)).restrict()
    res = ta.classify(g)
    assert res.kind == "inversion"
    assert res.edge == (0, world.id_of[(1,)])


def test_classify_translation_by_two():
    world = ug.ColorBall(3, 4)
    g = ug.translation(world, (1, 2)).restrict()
    res = ta.classify(g)
    assert res.kind == "hyperbolic"
    assert res.translation_length == 2


def test_classify_undetermined_far_rotation():
    # Rotation about a boundary vertex that swings the whole ball away: only
    # the rotation centre keeps an in-ball image and nothing is certifiable.
    world = ug.ColorBall(3, 2)
    p = (1, 2)
    t = ug.translation(world, p)
    rot = t.compose(ug.Portrait(world, (), {(): (1, 3, 2)})).compose(t.inverse())
    res = ta.classify(rot.restrict())
    assert res.kind == "undetermined"


def test_classify_conjugation_equivariant():
    world = ug.ColorBall(3, 2)
    gb = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.symmetric(3), world)
    sample = list(gb)[::7]
    ks = list(gb)[::11]
    probe = ug.translation(world, (1, 2)).restrict()
    for k in ks[:6]:
        for g in (sample[0], sample[1], probe):
            conj = ta.compose(k, ta.compose(g, ta.invert(k)))
            a, b = ta.classify(g), ta.classify(conj)
            assert a.kind == b.kind
            assert a.translation_length == b.translation_length
            if a.kind == "hyperbolic":
                # the axis is carried along by the conjugator
                assert sorted(k.mapping[x] for x in a.axis) == sorted(b.axis)


def test_agreement_depth_basics():
    world = t3_world()
    ident = ta.identity_automorphism(world.ball)
    g = rotation_at_base(world, (2, 3, 1))
    ident_exact = ug.identity_aut(world).restrict()
    assert ta.agreement_depth(ident_exact, ident_exact, 0) == 2  # the cap
    assert ta.agreement_depth(ident, g, 0) == 0
    trans = ug.translation(world, (1, 2)).restrict()
    assert ta.agreement_depth(ident, trans, 0) == -1


def test_agreement_depth_matches_composition_invariant():
    world = ug.ColorBall(3, 3)
    gb = ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.symmetric(3), world)
    elems = list(gb)[:40:3]
    ident = ug.identity_aut(world).restrict()
    for g in elems[:5]:
        for h in elems[5:10]:
            lhs = ta.agreement_depth(g, h, 0)
            rhs = ta.agreement_depth(ta.compose(ta.invert(h), g), ident, 0)
            assert lhs == rhs


def test_agreement_depth_exact_exceeds_ball_images():
    # Conjugating a half-tree fixator by a big translation pushes images far
    # outside the ball; the exact evaluators still certify agreement depth.
    world = ug.ColorBall(3, 6)
    a = ug.translation(world, (1, 2))
    x = ug.Portrait(world, (), {(1,): (1, 3, 2)})
    conj = a.compose(a).compose(x).compose(a.inverse()).compose(a.inverse())
    ident = ug.identity_aut(world).restrict()
    depth = ta.agreement_depth(conj.restrict(), ident, 0)
    assert depth >= 4


def test_converges_to_identity_cases():
    world = ug.ColorBall(3, 4)
    ident = ug.identity_aut(world).restrict()
    const = ta.converges_to_identity([ident, ident, ident], 0)
    assert const.divergent and const.depths == (4, 4, 4)

    deeper = []
    for i in range(1, 4):
        w = tuple([1, 2] * 10)[:i]
        tau = (1, 3, 2) if w[-1] == 1 else (3, 2, 1)  # must fix the parent color
        deeper.append(ug.Portrait(world, (), {w: tau}).restrict())
    cert = ta.converges_to_identity(deeper, 0)
    assert cert.divergent
    assert cert.depths == (1, 2, 3)

    g = ug.Portrait(world, (), {(): (2, 1, 3)}).restrict()
    flat = ta.converges_to_identity([g, g, g], 0)
    assert not flat.divergent
    assert flat.depths == (0, 0, 0)


def test_portrait_json_round_trip():
    world = t3_world()
    g = rotation_at_base(world, (2, 3, 1))
    data = g.to_json()
    back = ta.FiniteTreeAutomorphism.from_json(data)
    assert back.mapping == g.mapping
    assert back.ball == g.ball


def test_portrait_json_rejects_a_repeated_source():
    world = t3_world()
    with pytest.raises(ValueError, match="twice"):
        ta.FiniteTreeAutomorphism.from_json({"perm": [[0, 0], [0, 1]]}, world.ball)


def test_from_mapping_rejects_a_label_change():
    labels = tc.LabelVector(("A", "B"), {"A": 2, "B": 2},
                            {("A", 0): "B", ("A", 1): "B", ("B", 0): "A", ("B", 1): "A"})
    ball = tc.build_label_regular_ball(labels, "A", 2)
    with pytest.raises(ValueError, match="labels"):
        ta.FiniteTreeAutomorphism.from_mapping(ball, {0: 1})


@pytest.mark.parametrize("data", [
    {}, {"perm": 3}, {"perm": [[0, 0], 5]}, {"perm": [[0, 0, 0]]}, {"perm": [[0, "0"]]},
    {"perm": [[0, 0.0]]}, {"perm": [[[0], 0]]}, None, [], {"perm": [[0, 10]]},
])
def test_portrait_json_rejects_malformed_shapes(data):
    with pytest.raises(ValueError):
        ta.FiniteTreeAutomorphism.from_json(data, t3_world().ball)


def test_portrait_json_needs_a_ball():
    with pytest.raises(ValueError, match="'ball'"):
        ta.FiniteTreeAutomorphism.from_json({"perm": []})
    with pytest.raises(ValueError):
        ta.FiniteTreeAutomorphism.from_json({"perm": [], "ball": {"radius": 1}})


# ---------------------------------------------------------------------------
# the portrait protocol against the exact evaluators and a dict oracle

WORLD4 = ug.ColorBall(3, 4)
INNER4 = [WORLD4.word_of[v] for v in WORLD4.ball.vertices() if WORLD4.ball.is_interior(v)]
SYM3 = sorted(ug.LocalGroup.symmetric(3).closure())


@st.composite
def stabilizer_elements(draw):
    """A base-fixing U1(Sym(3)) portrait of depth 4: one local action per interior vertex."""
    acts = {}
    for w in INNER4:
        options = [s for s in SYM3 if not w or s[w[-1] - 1] == acts[w[:-1]][w[-1] - 1]]
        acts[w] = draw(st.sampled_from(options))
    return ug.Portrait(WORLD4, (), acts)


translations = st.lists(st.integers(1, 3), max_size=5).map(
    lambda colors: ug.translation(WORLD4, ug.word_mul((), tuple(colors))))
exact_auts = st.one_of(stabilizer_elements(), translations,
                       st.tuples(translations, stabilizer_elements()).map(lambda p: p[0].compose(p[1])))


def dict_compose(g: dict, h: dict) -> dict:
    """g after h on partial maps: the domain-intersecting composition, written out on dicts."""
    mapping = {}
    for u, mid in h.items():
        img = g.get(mid)
        if img is not None:
            mapping[u] = img
    return mapping


@st.composite
def partial_maps(draw):
    """A ball portrait of an exact element with its evaluator dropped and part of its domain cut."""
    g = draw(exact_auts).restrict()
    kept = {u: w for u, w in g.mapping.items() if draw(st.integers(0, 3))}
    return ta.FiniteTreeAutomorphism.from_mapping(WORLD4.ball, kept)


@settings(max_examples=60, deadline=None)
@given(exact_auts, exact_auts)
def test_compose_matches_exact_restriction(g, h):
    assert ta.compose(g.restrict(), h.restrict()).key() == g.compose(h).restrict().key()


@settings(max_examples=60, deadline=None)
@given(exact_auts)
def test_invert_matches_exact_restriction(g):
    p = g.restrict()
    assert ta.invert(p).key() == g.inverse().restrict().key()
    # exact: g g^-1 is the identity on the whole ball, g's domain included
    assert ta.compose(p, ta.invert(p)).key() == tuple(WORLD4.ball.vertices())


@settings(max_examples=60, deadline=None)
@given(st.one_of(exact_auts.map(lambda g: g.restrict()), partial_maps()))
def test_compose_with_inverse_is_identity_on_the_domain(g):
    # on a partial map g^-1 g fixes g's domain and g g^-1 fixes its image
    assert all(ta.compose(ta.invert(g), g).images[v] == v for v in g.mapping)
    assert all(ta.compose(g, ta.invert(g)).images[w] == w for w in g.mapping.values())


@settings(max_examples=60, deadline=None)
@given(st.one_of(exact_auts.map(lambda g: g.restrict()), partial_maps()), partial_maps())
def test_partial_compose_matches_dict_oracle(g, h):
    assert dict(ta.compose(g, h).mapping) == dict_compose(dict(g.mapping), dict(h.mapping))
    assert dict(ta.compose(h, g).mapping) == dict_compose(dict(h.mapping), dict(g.mapping))
    assert dict(ta.invert(h).mapping) == {w: u for u, w in h.mapping.items()}


@st.composite
def ball_elements(draw, world):
    """A restricted Portrait on `world`: a product of up to three rotations
    about vertices of the ball (t_p rho t_p^-1), moved by a translation of
    up to four letters, or moved back to fix the base.  Now and then only
    its ball images (from_mapping, PARTIAL), part of the domain cut."""
    d = world.degree

    def words(letters):
        return st.lists(st.integers(1, d), max_size=letters).map(lambda colors: ug.word_mul((), tuple(colors)))

    g = ug.identity_aut(world)
    for _ in range(draw(st.integers(0, 3))):
        t = ug.translation(world, draw(words(world.radius)))
        rho = ug.Portrait(world, (), {(): draw(st.permutations(range(1, d + 1)).map(tuple))})
        g = g.compose(t.compose(rho).compose(t.inverse()))
    if draw(st.booleans()):
        g = ug.translation(world, draw(words(4))).compose(g)
    else:
        g = ug.translation(world, g.base_word).inverse().compose(g)
    p = g.restrict()
    if draw(st.integers(0, 3)):
        return p
    return ta.FiniteTreeAutomorphism.from_mapping(world.ball, {u: w for u, w in p.mapping.items()
                                                                if draw(st.integers(0, 3))})


@st.composite
def element_pairs(draw):
    world = ug.ColorBall(draw(st.integers(2, 5)), 3)
    return draw(ball_elements(world)), draw(ball_elements(world))


def evaluator(g):
    return g.exact if g.exact is ta.PARTIAL else g.exact.canonical_key()


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_compose_matches_the_locate_oracle(pair):
    g, h = pair
    new, old = ta.compose(g, h), locate_compose(g, h)
    assert new.images == old.images and new.key() == old.key() and new.ball is g.ball
    assert evaluator(new) == evaluator(old)


# ---------------------------------------------------------------------------
# the JSON boundaries: generated round-trips, and ValueError on anything else

@st.composite
def tree_balls(draw):
    """The JSON of a rooted tree: ids in creation order, each parent an
    earlier vertex above the radius, labels on every vertex or on none."""
    radius = draw(st.integers(0, 3))
    depth, records = [0], [{"id": 0, "parent": -1, "label": None}]
    for v in range(1, draw(st.integers(1, 12))):
        candidates = [u for u in range(v) if depth[u] < radius]
        if not candidates:
            break
        p = draw(st.sampled_from(candidates))
        depth.append(depth[p] + 1)
        records.append({"id": v, "parent": p, "label": None})
    if draw(st.booleans()):
        for rec in records:
            rec["label"] = draw(st.sampled_from(["A", "B"]))
    return {"base": 0, "radius": radius, "vertices": records}


@settings(max_examples=100, deadline=None)
@given(tree_balls(), st.data())
def test_generated_balls_and_portraits_round_trip(doc, data):
    ball = tc.TreeBall.from_json(doc)
    assert ball.to_json() == doc
    assert tc.TreeBall.from_json(ball.to_json()) == ball
    # the identity on part of the ball keeps edges and labels
    kept = data.draw(st.sets(st.sampled_from(list(ball.vertices()))))
    g = ta.FiniteTreeAutomorphism.from_mapping(ball, {v: v for v in kept})
    for back in (ta.FiniteTreeAutomorphism.from_json(g.to_json()),
                 ta.FiniteTreeAutomorphism.from_json(g.to_json(include_ball=False), ball)):
        assert back == g and back.ball == ball


JSON_KEYS = st.sampled_from(["perm", "ball", "base", "radius", "vertices", "id", "parent", "label"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(JSON_KEYS | st.text(max_size=3), kids, max_size=4),
    max_leaves=12)


@st.composite
def mutated(draw, doc):
    """doc with one value somewhere in it replaced by arbitrary JSON, or one key dropped."""
    doc = json.loads(json.dumps(doc))
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        holder = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if holder is None:
        return draw(json_values)
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(json_values)
    return doc


def loads_or_refuses(read, data):
    """What read returns from data, or None when it refuses with ValueError; any other error fails."""
    try:
        return read(data)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_documents_raise_value_error(data):
    ball_doc = data.draw(tree_balls())
    ball = loads_or_refuses(tc.TreeBall.from_json, data.draw(mutated(ball_doc)))
    if ball is not None:
        assert tc.TreeBall.from_json(ball.to_json()) == ball
    g = data.draw(st.one_of(exact_auts.map(lambda g: g.restrict()), partial_maps()))
    read = loads_or_refuses(ta.FiniteTreeAutomorphism.from_json, data.draw(mutated(g.to_json())))
    # whatever from_json accepts passes every check the constructor once made
    assert read is None or valid_tree_portrait(read)
    read = loads_or_refuses(lambda d: ta.FiniteTreeAutomorphism.from_json(d, t3_world().ball),
                            data.draw(mutated({"perm": [[0, 0], [1, 2]]})))
    assert read is None or valid_tree_portrait(read)
