import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tdlc import tree_core as tc
from oracles import bfs_regular_ball, neighbor_half_tree, neighbor_layers
from test_tree_aut import tree_balls


def test_regular_ball_counts():
    assert tc.build_regular_ball(3, 0).vertex_count == 1
    assert tc.build_regular_ball(3, 2).vertex_count == 10
    assert tc.build_regular_ball(2, 4).vertex_count == 9


def test_regular_ball_count_closed_form():
    for d in (2, 3, 4):
        for r in range(5):
            expected = 1 + 2 * r if d == 2 else 1 + d * ((d - 1) ** r - 1) // (d - 2)
            assert tc.build_regular_ball(d, r).vertex_count == expected


def test_regular_ball_rejects_bad_input():
    with pytest.raises(ValueError):
        tc.build_regular_ball(1, 2)
    with pytest.raises(ValueError):
        tc.build_regular_ball(3, -1)


def alternating_labels_of(deg_a, deg_b):
    """Labels A and B, each vertex's neighbours all of the other label."""
    rule = {("A", slot): "B" for slot in range(deg_a)} | {("B", slot): "A" for slot in range(deg_b)}
    return tc.LabelVector(("A", "B"), {"A": deg_a, "B": deg_b}, rule)


def alternating_labels():
    return alternating_labels_of(2, 3)


def test_label_regular_single_label_matches_regular():
    lv = tc.LabelVector(("X",), {"X": 3}, {("X", s): "X" for s in range(3)})
    ball = tc.build_label_regular_ball(lv, "X", 2)
    reg = tc.build_regular_ball(3, 2)
    assert ball.parent == reg.parent
    assert ball.children == reg.children
    assert ball.label_of == ("X",) * 10


def test_label_regular_alternating():
    ball = tc.build_label_regular_ball(alternating_labels(), "A", 1)
    assert ball.vertex_count == 3
    assert ball.label_of == ("A", "B", "B")
    zero = tc.build_label_regular_ball(alternating_labels(), "A", 0)
    assert zero.vertex_count == 1
    assert zero.label_of == ("A",)


def test_label_regular_errors():
    with pytest.raises(ValueError, match="unknown root label"):
        tc.build_label_regular_ball(alternating_labels(), "Z", 1)
    bad = tc.LabelVector(
        labels=("A", "B"),
        degree_of={"A": 2, "B": 2},
        adjacency_rule={("A", 0): "B", ("A", 1): "B", ("B", 0): "B", ("B", 1): "A"},
    )
    with pytest.raises(ValueError, match="inconsistent adjacency_rule"):
        tc.build_label_regular_ball(bad, "A", 2)


def test_distance_examples():
    ball = tc.build_regular_ball(3, 2)
    assert tc.distance(ball, 0, 0) == 0
    for v in ball.vertices():
        if ball.depth[v] == 2:
            assert tc.distance(ball, 0, v) == 2
    path = tc.build_regular_ball(2, 4)
    ends = [v for v in path.vertices() if path.depth[v] == 4]
    assert tc.distance(path, ends[0], ends[1]) == 8


def test_distance_is_a_metric():
    ball = tc.build_regular_ball(3, 2)
    for u, v in itertools.combinations(ball.vertices(), 2):
        d = tc.distance(ball, u, v)
        assert d == tc.distance(ball, v, u) > 0
    for u, v, w in itertools.combinations(ball.vertices(), 3):
        assert tc.distance(ball, u, w) <= tc.distance(ball, u, v) + tc.distance(ball, v, w)


def test_sphere_examples():
    ball = tc.build_regular_ball(3, 2)
    s1 = tc.sphere(ball, 0, 1)
    assert len(s1) == 3 and s1.complete
    s0 = tc.sphere(ball, 5, 0)
    assert s0.vertices == frozenset({5}) and s0.complete
    s2 = tc.sphere(ball, 0, 2)
    assert len(s2) == 6 and s2.complete
    partial = tc.sphere(ball, 1, 2)
    assert not partial.complete


def test_ball_count_is_sum_of_spheres():
    for d, r in ((3, 2), (2, 4), (4, 2)):
        ball = tc.build_regular_ball(d, r)
        total = 1 + sum(len(tc.sphere(ball, 0, n)) for n in range(1, r + 1))
        assert total == ball.vertex_count


def test_half_tree_examples():
    ball = tc.build_regular_ball(3, 2)
    w = ball.children[0][0]
    side_w = tc.half_tree_vertices(ball, tc.HalfTreeRef((0, w), w))
    assert side_w == frozenset({w}) | set(ball.children[w])
    assert len(side_w) == 3
    side_v = tc.half_tree_vertices(ball, tc.HalfTreeRef((0, w), 0))
    assert len(side_v) == 7
    assert side_w | side_v == set(ball.vertices())
    assert not (side_w & side_v)

    line = tc.build_regular_ball(2, 1)
    child = line.children[0][0]
    assert tc.half_tree_vertices(line, tc.HalfTreeRef((0, child), child)) == frozenset({child})


def test_half_tree_partition_all_edges():
    ball = tc.build_regular_ball(3, 2)
    for u, v in ball.edges():
        a = tc.half_tree_vertices(ball, tc.HalfTreeRef((u, v), u))
        b = tc.half_tree_vertices(ball, tc.HalfTreeRef((u, v), v))
        assert a | b == set(ball.vertices()) and not (a & b)


def test_half_tree_rejects_non_edges():
    ball = tc.build_regular_ball(3, 2)
    with pytest.raises(ValueError):
        tc.half_tree_vertices(ball, tc.HalfTreeRef((0, 9), 0))


def test_json_round_trip():
    for ball in (tc.build_regular_ball(3, 2),
                 tc.build_label_regular_ball(alternating_labels(), "A", 3)):
        back = tc.TreeBall.from_json(ball.to_json())
        assert back == ball
    lv = alternating_labels()
    assert tc.LabelVector.from_json(lv.to_json()).adjacency_rule == lv.adjacency_rule


def ball_record(parents, radius):
    return {"base": 0, "radius": radius,
            "vertices": [{"id": v, "parent": p, "label": None} for v, p in enumerate(parents)]}


@pytest.mark.parametrize("parents,radius", [
    ([-1, 2, 1], 2),        # a 2-cycle 1 -> 2 -> 1, detached from the root
    ([-1, 2, 0], 2),        # a child listed before its parent
    ([-1, 0, 1, 2], 2),     # a vertex deeper than the radius
    ([-1, -1], 1),          # two roots
    ([-1, 5], 1),           # a parent id out of range
    ([-1], -1),             # a negative radius
])
def test_json_rejects_malformed_balls(parents, radius):
    with pytest.raises(ValueError):
        tc.TreeBall.from_json(ball_record(parents, radius))


@pytest.mark.parametrize("data", [
    {"radius": 1},
    {"vertices": [{"id": 0, "parent": -1, "label": None}]},
    {"radius": 1, "vertices": [1]},
    {"radius": 1, "vertices": {"id": 0}},
    {"radius": 1, "vertices": [{"id": 0}]},
    {"radius": 1, "vertices": [{"id": "0", "parent": -1}]},
    {"radius": 1, "vertices": [{"id": 0, "parent": -1.0}]},
    {"radius": 1, "vertices": [{"id": 0, "parent": -1, "label": ["A"]}]},
    {"radius": 1.0, "vertices": [{"id": 0, "parent": -1, "label": None}]},
    None,
    [],
])
def test_json_rejects_malformed_shapes(data):
    with pytest.raises(ValueError):
        tc.TreeBall.from_json(data)


def test_layers_match_distance_spheres():
    ball = tc.build_regular_ball(3, 4)
    for v in (0, 1, 5, 30):
        spheres = tc.layers(ball, v, 8)
        for n, shell in enumerate(spheres):
            assert sorted(shell) == [u for u in ball.vertices() if tc.distance(ball, v, u) == n]
        assert sum(map(len, spheres)) == ball.vertex_count
        assert len(tc.sphere(ball, v, 20)) == 0


@st.composite
def sweep_balls(draw):
    """A regular ball (checked against the BFS builder), a label-regular one,
    or a rooted tree read from JSON whose ids are not in BFS order."""
    kind = draw(st.sampled_from(["regular", "labels", "json"]))
    if kind == "regular":
        degree, radius = draw(st.integers(2, 5)), draw(st.integers(0, 6))
        ball = tc.build_regular_ball(degree, radius)
        assert ball == bfs_regular_ball(degree, radius)
        return ball
    if kind == "labels":
        lv = alternating_labels_of(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
        return tc.build_label_regular_ball(lv, draw(st.sampled_from(lv.labels)), draw(st.integers(0, 4)))
    return tc.TreeBall.from_json(draw(tree_balls()))


@settings(max_examples=150, deadline=None)
@given(sweep_balls(), st.data())
def test_sweeps_match_the_neighbour_walks(ball, data):
    """layers, list for list and in order, and half_tree_vertices, against the
    walks by ball.neighbors they replaced, past the ball's edge too."""
    verts = list(ball.vertices())
    for v in data.draw(st.lists(st.sampled_from(verts), min_size=1, max_size=4)):
        for n in {0, 1, ball.radius, 2 * ball.radius + 1, data.draw(st.integers(0, 2 * ball.radius + 2))}:
            assert tc.layers(ball, v, n) == neighbor_layers(ball, v, n)
    edges = ball.edges()
    if edges:
        for u, v in data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4)):
            for side in (u, v):
                h = tc.HalfTreeRef((u, v), side)
                assert tc.half_tree_vertices(ball, h) == neighbor_half_tree(ball, h)
