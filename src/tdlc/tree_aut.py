"""Finite-depth tree automorphisms (portraits) on a TreeBall.

A portrait stores the restriction of a tree automorphism to a ball as an
image tuple over ball ids: images[v] is the id of g(v), or -1 when g(v)
leaves the ball or is not determined.  Movers (translations, inversions) are
therefore representable.  Every portrait carries an evaluator `exact`:

- an exact evaluator, a universal_groups.Portrait (inverses and products
  of portraits are again portraits, in closed form), knows the address of
  every image, on the infinite tree;
- PARTIAL, the evaluator of a map known only on the ball (read from JSON,
  built on a plain TreeBall, or the identity of identity_automorphism),
  knows nothing beyond it, so composition intersects domains and agreement
  stops where the domain does.  A product with PARTIAL on either side is
  PARTIAL: an exact evaluator never holds a partial part.

An evaluator answers `address(v)` (the address of g(v), None when unknown),
`image_word(w)` (the address of g(w), None when unknown), `compose` and
`inverse`.  Inversion indexes into the tuple.  compose builds the
closed-form product of the evaluators and, when there is one, reads the
product's images off one restrict pass of it; a PARTIAL product indexes
the tuples.  product_addresses reads the addresses of a product on a set of
ball vertices from its two factors, for callers that read only those.

Every claim made from a portrait is capped by the radius that certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Sequence

from .tree_core import TreeBall, distance, layers


class PartialMap:
    """Evaluator of a map known only on its ball portrait: nothing beyond it is known."""

    def address(self, v: int) -> None:
        return None

    def image_word(self, word) -> None:
        return None

    def compose(self, other) -> "PartialMap":
        return self

    def inverse(self) -> "PartialMap":
        return self


PARTIAL = PartialMap()


@dataclass(frozen=True)
class FiniteTreeAutomorphism:
    """Injective adjacency-preserving self-map of a ball, as an image tuple.

    The constructor trusts its tuple: restrict, compose, invert,
    identity_automorphism and generate_plus_k build valid ones.  A map from
    outside enters through from_mapping (or from_json), which checks it.
    """

    ball: TreeBall
    images: tuple[int, ...]
    exact: object = field(default=PARTIAL, compare=False)

    @classmethod
    def from_mapping(cls, ball: TreeBall, mapping: dict) -> "FiniteTreeAutomorphism":
        """The partial map {v: g(v)} on `ball`, checked: images in range,
        injective, edges to edges and labels kept."""
        n = ball.vertex_count
        if not all(type(u) is type(w) is int and 0 <= u < n and 0 <= w < n
                   for u, w in mapping.items()):
            raise ValueError("mapping leaves the ball")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("mapping is not injective")
        images = tuple(mapping.get(v, -1) for v in range(n))
        parent = ball.parent
        for v, p in enumerate(parent):
            iv, ip = images[v], images[p] if p >= 0 else -1
            if iv >= 0 and ip >= 0 and parent[iv] != ip and parent[ip] != iv:
                raise ValueError(f"edge ({p},{v}) maps to a non-edge ({ip},{iv})")
        labels = ball.label_of
        if labels is not None and any(labels[v] != labels[w] for v, w in mapping.items()):
            raise ValueError("mapping does not preserve labels")
        return cls(ball, images)

    @property
    def mapping(self) -> MappingProxyType:
        """Read-only {v: g(v)} over the vertices whose image is in the ball."""
        return MappingProxyType({v: w for v, w in enumerate(self.images) if w >= 0})

    def is_total(self) -> bool:
        return -1 not in self.images

    def key(self) -> tuple[int, ...]:
        return self.images

    def to_json(self, include_ball: bool = True) -> dict:
        out = {"perm": [[u, w] for u, w in enumerate(self.images) if w >= 0]}
        if include_ball:
            out["ball"] = self.ball.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict, ball: TreeBall | None = None) -> "FiniteTreeAutomorphism":
        """Read {"perm": [[u, g(u)], ...], "ball": ...}, shape first; the ball
        may be given instead of read."""
        perm = data.get("perm") if isinstance(data, dict) else None
        if not isinstance(perm, list) or (ball is None and "ball" not in data) or not all(
                isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair) for pair in perm):
            raise ValueError("portrait must be an object with 'perm', a list of [vertex, image] integer pairs, "
                             "and 'ball' unless one is given")
        if ball is None:
            ball = TreeBall.from_json(data["ball"])
        mapping = {u: w for u, w in perm}
        if len(mapping) != len(perm):
            raise ValueError("perm lists a source vertex twice")
        return cls.from_mapping(ball, mapping)


def identity_automorphism(ball: TreeBall) -> FiniteTreeAutomorphism:
    return FiniteTreeAutomorphism(ball, tuple(ball.vertices()))


def compose(g: FiniteTreeAutomorphism, h: FiniteTreeAutomorphism) -> FiniteTreeAutomorphism:
    """g after h.  A closed-form product gives its images in one restrict
    pass; a PARTIAL one indexes g's images by h's, where an unknown image
    (-1) indexes the appended -1."""
    if g.ball is not h.ball and g.ball != h.ball:
        raise ValueError("portraits live on different balls")
    exact = g.exact.compose(h.exact)
    if exact is PARTIAL:
        gi = g.images + (-1,)
        return FiniteTreeAutomorphism(g.ball, tuple(map(gi.__getitem__, h.images)), exact)
    return FiniteTreeAutomorphism(g.ball, exact.restrict().images, exact)


def product_addresses(g: FiniteTreeAutomorphism, h: FiniteTreeAutomorphism,
                      word_of: Sequence, vertices) -> tuple:
    """Addresses of g(h(u)) for u in `vertices` (word_of maps ball ids to
    addresses), as compose(g, h) gives them, with no closed-form product.

    Where h(u) and then g(h(u)) are ball ids the tuples give the address.
    Anywhere else h's evaluator gives the address of h(u) and g's evaluator
    the image of that word: a walk from the base of each.  With PARTIAL on
    either side that address is unknown (None), as it is for compose(g, h),
    whose evaluator is then PARTIAL.  kak_tree reads every key of a double
    coset this way (_double_coset_keys) and factorize checks k a k' = g with
    it, so neither builds the products it keys.
    """
    if g.ball is not h.ball and g.ball != h.ball:
        raise ValueError("portraits live on different balls")
    gi, hi = g.images, h.images
    out = []
    for u in vertices:
        m = hi[u]
        n = gi[m] if m >= 0 else -1
        if n >= 0:
            out.append(word_of[n])
        else:
            w = h.exact.address(u)
            out.append(None if w is None else g.exact.image_word(w))
    return tuple(out)


def invert(g: FiniteTreeAutomorphism) -> FiniteTreeAutomorphism:
    """Ball vertices whose preimage leaves the ball get -1: that preimage is outside."""
    images = [-1] * g.ball.vertex_count
    for u, w in enumerate(g.images):
        if w >= 0:
            images[w] = u
    return FiniteTreeAutomorphism(g.ball, tuple(images), g.exact.inverse())


@dataclass(frozen=True)
class IsometryClass:
    """Outcome of classification at the certifying radius.

    kind is one of "elliptic" (fixed_vertex set), "inversion" (edge set),
    "hyperbolic" (translation_length and axis set), or "undetermined" when
    the ball cannot certify a verdict.
    """

    kind: str
    fixed_vertex: int | None = None
    edge: tuple[int, int] | None = None
    translation_length: int | None = None
    axis: tuple[int, ...] | None = None
    reason: str | None = None


UNDETERMINED = "undetermined"


def _displacements(g: FiniteTreeAutomorphism) -> dict[int, int]:
    return {u: distance(g.ball, u, w) for u, w in enumerate(g.images) if w >= 0}


def classify(g: FiniteTreeAutomorphism) -> IsometryClass:
    """Tits classification at ball depth, refusing rather than guessing.

    A fixed interior vertex certifies elliptic; a swapped edge certifies an
    inversion.  For hyperbolic we need an interior vertex u minimising the
    displacement m with d(u, g^2(u)) = 2m, which certifies that u lies on an
    axis translated by m.  If the minimum is attained only on the boundary,
    or no candidate passes, the true infimum may lie outside the ball and
    the verdict is undetermined.
    """
    ball = g.ball
    disp = _displacements(g)
    interior = {u: d for u, d in disp.items() if ball.is_interior(u)}
    if not interior:
        return IsometryClass(UNDETERMINED, reason="no interior vertex has a certified image")

    m = min(interior.values())
    if m == 0:
        fixed = min(u for u, d in interior.items() if d == 0)
        return IsometryClass("elliptic", fixed_vertex=fixed)

    for u, v in ball.edges():
        if g.images[u] == v and g.images[v] == u:
            return IsometryClass("inversion", edge=(min(u, v), max(u, v)))

    boundary_min = min((d for u, d in disp.items() if not ball.is_interior(u)), default=m)
    if boundary_min < m:
        return IsometryClass(UNDETERMINED, reason="displacement minimized only at the boundary")

    for u in sorted(u for u, d in interior.items() if d == m):
        gu = g.images[u]
        g2u = g.images[gu]
        if g2u >= 0 and distance(ball, u, g2u) == 2 * m:
            axis = [x for x, d in disp.items() if d == m]

            def signed_position(x: int) -> int:
                # Negative on the side of u away from g(u).
                t = distance(ball, u, x)
                behind = distance(ball, x, gu) == t + m
                return -t if behind else t

            axis.sort(key=lambda x: (signed_position(x), x))
            return IsometryClass("hyperbolic", translation_length=m, axis=tuple(axis))
    return IsometryClass(UNDETERMINED, reason="no interior axis vertex certified within the ball")


def certified_radius(g: FiniteTreeAutomorphism, v: int) -> int:
    """Largest k with B(v,k) inside the ball and every image on it determined."""
    ball = g.ball
    cap = ball.radius - ball.depth[v]
    for k, shell in enumerate(layers(ball, v, cap)):
        if any(g.images[u] < 0 and g.exact.address(u) is None for u in shell):
            return k - 1
    return cap


def agreement_depth(g: FiniteTreeAutomorphism, h: FiniteTreeAutomorphism, v: int) -> int:
    """Largest k such that g and h certifiably agree on B(v,k); -1 if they split at v.

    Capped at min(certified_radius(g, v), certified_radius(h, v)); the cap is
    available separately via agreement_cap.  Where both images leave the
    ball the evaluators compare them on the infinite tree; an unknown image
    ends the agreement.
    """
    if g.ball is not h.ball and g.ball != h.ball:
        raise ValueError("portraits live on different balls")
    depth = -1
    for k, shell in enumerate(layers(g.ball, v, agreement_cap(g, h, v))):
        for u in shell:
            gu, hu = g.images[u], h.images[u]
            if gu != hu:
                return depth
            if gu < 0:
                beyond = g.exact.address(u)
                if beyond is None or beyond != h.exact.address(u):
                    return depth
        depth = k
    return depth


def agreement_cap(g: FiniteTreeAutomorphism, h: FiniteTreeAutomorphism, v: int) -> int:
    return min(certified_radius(g, v), certified_radius(h, v))


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Agreement depths of a sequence against the identity, with a finite-depth verdict.

    divergent is True when the depths are sustained at their maximum and the
    maximum either hits the cap or is still strictly growing at the end; the
    verdict only ever speaks at depth `cap`.
    """

    depths: tuple[int, ...]
    cap: int
    divergent: bool
    reason: str


def converges_to_identity(seq: Sequence[FiniteTreeAutomorphism], v: int) -> ConvergenceCertificate:
    if not seq:
        raise ValueError("empty sequence")
    ident = identity_automorphism(seq[0].ball)
    depths = tuple(agreement_depth(g, ident, v) for g in seq)
    cap = min(agreement_cap(g, ident, v) for g in seq)
    peak = max(depths)
    sustained = depths[-1] == peak
    growing = len(depths) >= 2 and depths[-1] > depths[-2]
    if sustained and peak >= cap:
        verdict, reason = True, f"agreement saturates the certified radius {cap}"
    elif sustained and growing:
        verdict, reason = True, "agreement depths still strictly increasing at the end of the sequence"
    else:
        verdict, reason = False, "agreement depths plateau below the certified radius"
    return ConvergenceCertificate(depths, cap, verdict, reason)
