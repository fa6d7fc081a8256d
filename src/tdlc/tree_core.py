"""Finite truncations of infinite locally finite trees.

A TreeBall is the radius-R ball around a base vertex of a regular or
label-regular tree.  Its ids are parent-first: the base is 0, every other
vertex's parent has a smaller id, and each child tuple lists ids in
increasing order.  That is the whole contract of the type and of its
serialised format: TreeBall.from_json accepts any parent-first order, and
layers, sphere, distance and half_tree_vertices read parent and children
alone, so they step over ids in any such order.  The two builders give
more: BFS order, level by level, with a deterministic child order.
universal_groups.ColorBall relies on that, since it pairs the ids of
build_regular_ball with the colour words in length-lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat


@dataclass(frozen=True)
class LabelVector:
    """Degrees and a child-labelling rule for a label-regular tree.

    Convention (one faithful reading of label-regularity, documented rather
    than imported): at a non-root vertex the parent occupies slot 0 and the
    children occupy slots 1..degree-1; the root uses all slots 0..degree-1.
    rule[(label, slot)] gives the child's label.  Consistency requires
    rule[(child_label, 0)] == parent_label wherever a child is created, so
    the ball embeds in a single unrooted label-regular tree.
    """

    labels: tuple[str, ...]
    degree_of: dict[str, int] = field(hash=False)
    adjacency_rule: dict[tuple[str, int], str] = field(hash=False)

    def __post_init__(self):
        for lab in self.labels:
            deg = self.degree_of.get(lab)
            if deg is None or deg < 2:
                raise ValueError(f"label {lab!r} needs degree >= 2 (no leaves)")
            for slot in range(deg):
                child = self.adjacency_rule.get((lab, slot))
                if child is None:
                    raise ValueError(f"adjacency_rule missing ({lab!r}, {slot})")
                if child not in self.labels:
                    raise ValueError(f"adjacency_rule maps to unknown label {child!r}")

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "degrees": dict(self.degree_of),
            "rule": sorted([lab, slot, child] for (lab, slot), child in self.adjacency_rule.items()),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LabelVector":
        """Read {"labels": [str], "degrees": {str: int}, "rule": [[str, int, str]]}, shape first."""
        if not isinstance(data, dict) or not {"labels", "degrees", "rule"} <= data.keys():
            raise ValueError("label config must be an object with 'labels', 'degrees' and 'rule'")
        labels, degrees, triples = data["labels"], data["degrees"], data["rule"]
        if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
            raise ValueError(f"'labels' must be a list of strings, got {labels!r}")
        if not isinstance(degrees, dict) or not all(type(deg) is int for deg in degrees.values()):
            raise ValueError(f"'degrees' must map labels to integers, got {degrees!r}")
        if not isinstance(triples, list) or not all(
                isinstance(t, list) and len(t) == 3 and isinstance(t[0], str) and type(t[1]) is int
                and isinstance(t[2], str) for t in triples):
            raise ValueError(f"'rule' must be a list of [label, slot, label] triples, got {triples!r}")
        rule = {(lab, slot): child for lab, slot, child in triples}
        if len(rule) != len(triples):
            raise ValueError("'rule' lists a (label, slot) pair twice")
        return cls(tuple(labels), dict(degrees), rule)


@dataclass(frozen=True)
class TreeBall:
    """Radius-R truncation with parent links and ordered child lists; the builders
    below make consistent ones, and from_json checks a ball from outside."""

    base: int
    radius: int
    parent: tuple[int, ...]          # parent[base] == -1
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    label_of: tuple[str, ...] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.parent)

    def vertices(self) -> range:
        return range(len(self.parent))

    def neighbors(self, v: int) -> tuple[int, ...]:
        p = self.parent[v]
        return self.children[v] if p < 0 else (p,) + self.children[v]

    def has_edge(self, u: int, v: int) -> bool:
        return self.parent[u] == v or self.parent[v] == u

    def edges(self) -> list[tuple[int, int]]:
        return [(self.parent[v], v) for v in self.vertices() if self.parent[v] >= 0]

    def is_interior(self, v: int) -> bool:
        return self.depth[v] < self.radius

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "radius": self.radius,
            "vertices": [
                {"id": v, "parent": self.parent[v],
                 "label": None if self.label_of is None else self.label_of[v]}
                for v in self.vertices()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TreeBall":
        """Rebuild a ball, checking that the records form one rooted tree of depth <= radius.

        Ids are creation order, so a vertex's parent must carry a smaller id;
        that also rules out cycles and gives every vertex its true depth.
        """
        verts = data.get("vertices") if isinstance(data, dict) else None
        if not isinstance(verts, list) or "radius" not in data or not all(
                isinstance(rec, dict) and type(rec.get("id")) is type(rec.get("parent")) is int
                and isinstance(rec.get("label"), (str, type(None))) for rec in verts):
            raise ValueError("tree ball must be an object with 'radius' and 'vertices', a list of records "
                             "with integer 'id' and 'parent' and a string or null 'label'")
        verts = sorted(verts, key=lambda rec: rec["id"])
        if [rec["id"] for rec in verts] != list(range(len(verts))):
            raise ValueError("vertex ids must be 0..n-1")
        parent = tuple(rec["parent"] for rec in verts)
        if data.get("base", 0) != 0 or [v for v, p in enumerate(parent) if p == -1] != [0]:
            raise ValueError("vertex 0 must be the one root (parent -1)")
        radius = data["radius"]
        if not (type(radius) is int and radius >= 0):
            raise ValueError(f"radius must be a nonnegative integer, got {radius!r}")
        depth = [0] * len(verts)
        kids: list[list[int]] = [[] for _ in verts]
        for v, p in enumerate(parent[1:], 1):
            if not 0 <= p < v:
                raise ValueError(f"parent {p!r} of vertex {v} is not an earlier vertex id")
            depth[v] = depth[p] + 1
            if depth[v] > radius:
                raise ValueError(f"vertex {v} lies deeper than the radius {radius}")
            kids[p].append(v)  # id order == creation order
        labels = tuple(rec.get("label") for rec in verts)
        label_of = None if all(lab is None for lab in labels) else labels
        return cls(0, radius, parent, tuple(tuple(k) for k in kids), tuple(depth), label_of)


@dataclass(frozen=True)
class HalfTreeRef:
    """One side of the ball after deleting an edge: keep the component of `side`."""

    edge: tuple[int, int]
    side: int

    def __post_init__(self):
        if self.side not in self.edge:
            raise ValueError("side must be an endpoint of the edge")

    @property
    def other(self) -> int:
        a, b = self.edge
        return b if self.side == a else a


def build_regular_ball(degree: int, radius: int) -> TreeBall:
    """Ball of the degree-d regular tree: base has d children, others d-1.

    Level k holds the ids start..start+size-1, in BFS order, and each of its
    vertices has `fan` children, so vertex start+i has the children
    next+i*fan .. next+i*fan+fan-1 (next = start+size): zip cuts the next
    level's id range into tuples of `fan`, zips `fan` copies of this
    level's range repeat each parent id `fan` times, and the leaves share
    the empty tuple.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2 (trees without leaves)")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    parent: list[int] = [-1]
    depth: list[int] = [0]
    children: list[tuple[int, ...]] = []
    start, size, fan = 0, 1, degree
    for level in range(1, radius + 1):
        nxt, width = start + size, size * fan
        children.extend(zip(*[iter(range(nxt, nxt + width))] * fan))
        parent.extend(chain.from_iterable(zip(*[range(start, nxt)] * fan)))
        depth.extend(repeat(level, width))
        start, size, fan = nxt, width, degree - 1
    children.extend(repeat((), size))
    return TreeBall(0, radius, tuple(parent), tuple(children), tuple(depth))


def build_label_regular_ball(a: LabelVector, root_label: str, radius: int) -> TreeBall:
    """Labelled ball whose children follow the adjacency rule.

    Children are created in slot order after sorting slots by (child label
    position, slot); that order is the deterministic child order.
    """
    if root_label not in a.labels:
        raise ValueError(f"unknown root label {root_label!r}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    label_pos = {lab: i for i, lab in enumerate(a.labels)}

    def child_slots(lab: str, is_root: bool) -> list[tuple[str, int]]:
        deg = a.degree_of[lab]
        slots = range(deg) if is_root else range(1, deg)
        pairs = [(a.adjacency_rule[(lab, slot)], slot) for slot in slots]
        return sorted(pairs, key=lambda pc: (label_pos[pc[0]], pc[1]))

    parent = [-1]
    depth = [0]
    children: list[list[int]] = [[]]
    labels = [root_label]
    frontier = [0]
    for level in range(radius):
        nxt = []
        for v in frontier:
            for child_label, _slot in child_slots(labels[v], v == 0):
                if a.adjacency_rule[(child_label, 0)] != labels[v]:
                    raise ValueError(
                        f"inconsistent adjacency_rule: child {child_label!r} of {labels[v]!r} "
                        f"expects parent {a.adjacency_rule[(child_label, 0)]!r}")
                u = len(parent)
                parent.append(v)
                depth.append(level + 1)
                children.append([])
                labels.append(child_label)
                children[v].append(u)
                nxt.append(u)
        frontier = nxt
    return TreeBall(0, radius, tuple(parent), tuple(tuple(k) for k in children),
                    tuple(depth), tuple(labels))


def distance(ball: TreeBall, u: int, v: int) -> int:
    """Tree-path length via the lowest common ancestor."""
    if not (0 <= u < ball.vertex_count and 0 <= v < ball.vertex_count):
        raise ValueError("vertex not in ball")
    du, dv = ball.depth[u], ball.depth[v]
    dist = 0
    while du > dv:
        u = ball.parent[u]
        du -= 1
        dist += 1
    while dv > du:
        v = ball.parent[v]
        dv -= 1
        dist += 1
    while u != v:
        u, v = ball.parent[u], ball.parent[v]
        dist += 2
    return dist


@dataclass(frozen=True)
class SphereResult:
    """Vertices at exact distance n, plus whether the infinite sphere is fully inside the ball."""

    vertices: frozenset[int]
    complete: bool

    def __len__(self) -> int:
        return len(self.vertices)


def layers(ball: TreeBall, v: int, n: int) -> list[list[int]]:
    """Spheres S(v,0), ..., S(v,n) inside the ball, in one outward sweep from v.

    With a_0 = v and a_{k+1} the parent of a_k, S(v,k+1) is a_{k+1}, then
    the children of a_k other than a_{k-1}, then the children of the rest of
    S(v,k) in order: the order of a walk that steps from each vertex of S(v,k)
    to its parent and then its children, minus the vertex it came from.  The
    list ends early once a sphere lies wholly outside the ball.
    """
    parent, children = ball.parent, ball.children
    out = [[v]]
    prev, a, below = -1, v, []      # a_{k-1}, a_k (-1 above the base), S(v,k) minus a_k
    for _ in range(n):
        below = list(chain.from_iterable(map(children.__getitem__, below)))
        if a >= 0:
            below[:0] = [c for c in children[a] if c != prev]
            prev, a = a, parent[a]
        shell = [a, *below] if a >= 0 else below
        if not shell:
            break
        out.append(shell)
    return out


def sphere(ball: TreeBall, v: int, n: int) -> SphereResult:
    if n < 0:
        raise ValueError("radius must be nonnegative")
    spheres = layers(ball, v, n)
    verts = frozenset(spheres[n] if n < len(spheres) else ())
    complete = n <= ball.radius - ball.depth[v]
    return SphereResult(verts, complete)


def half_tree_vertices(ball: TreeBall, h: HalfTreeRef) -> frozenset[int]:
    """Component of h.side after deleting the edge: the subtree below the
    edge's child end, swept level by level over `children`, or its complement
    when h.side is the parent end."""
    a, b = h.edge
    if not ball.has_edge(a, b):
        raise ValueError(f"not an edge of the ball: {h.edge}")
    top = a if ball.parent[a] == b else b
    frontier, below = [top], [top]
    while frontier:
        frontier = list(chain.from_iterable(map(ball.children.__getitem__, frontier)))
        below += frontier
    if h.side == top:
        return frozenset(below)
    return frozenset(ball.vertices()).difference(below)
