"""Cartan-like KAK decompositions for tree groups and contraction witnesses.

K is the stabilizer of a vertex v inside a finite group ball; representatives
are indexed by K-orbits on the spheres around v.  Everything is certified at
an explicit radius: factorizations are verified pointwise on the ball, and
the contraction pipeline reports the exact agreement depths of the
conjugated witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import CertificationError, check_guard
from .tree_core import HalfTreeRef, distance, half_tree_vertices, layers
from .tree_aut import FiniteTreeAutomorphism, compose, invert, product_addresses
from .universal_groups import (
    ColorBall,
    GroupBall,
    Portrait,
    Word,
    identity_aut,
    image_address,
    translation,
    word_distance,
    word_inv,
    word_mul,
)


def restriction_key(g: FiniteTreeAutomorphism, world: ColorBall, radius: int) -> tuple:
    """Images (as addresses, possibly outside the ball; None if unknown) of B(base, radius)."""
    if radius > world.radius:
        raise CertificationError(f"B(base,{radius}) exceeds the world radius {world.radius}")
    ball = world.ball
    return tuple(image_address(g, world, v) for v in ball.vertices() if ball.depth[v] <= radius)


def stabilizer_subball(gb: GroupBall, v: int) -> GroupBall:
    kept = [g for g in gb if g.images[v] == v]
    return GroupBall(gb.world, kept, closed=gb.closed, local_group=gb.local_group)


@dataclass(frozen=True)
class OrbitPartition:
    vertex: int
    sphere_radius: int
    orbits: tuple[tuple[int, ...], ...]           # sorted vertex ids, one tuple per orbit
    transversal: dict[int, FiniteTreeAutomorphism]  # point -> k in K with k(rep) = point


def sphere_orbits(gb: GroupBall, v: int, n: int) -> OrbitPartition:
    """Partition of (orbit of v under gb) intersect S(v,n) under the stabilizer of v."""
    world = gb.world
    ball = gb.ball
    if ball.depth[v] + n > ball.radius:
        raise CertificationError(f"sphere S({v},{n}) exceeds the certified radius")
    sphere_pts = set(layers(ball, v, n)[n])
    reachable = {g.images[v] for g in gb} & sphere_pts
    stab = [g for g in gb if g.images[v] == v]
    ident = identity_aut(world).restrict()

    orbits: list[tuple[int, ...]] = []
    transversal: dict[int, FiniteTreeAutomorphism] = {}
    remaining = set(reachable)
    while remaining:
        rep = min(remaining)
        orbit = {rep}
        transversal[rep] = ident
        frontier = [rep]
        while frontier:
            p = frontier.pop()
            for k in stab:
                q = k.images[p]
                # K-images may reach sphere points no listed element moves v
                # to directly; they belong to the orbit of v all the same.
                if q in sphere_pts and q not in orbit:
                    orbit.add(q)
                    transversal[q] = compose(k, transversal[p])
                    frontier.append(q)
        orbits.append(tuple(sorted(orbit)))
        remaining -= orbit
    return OrbitPartition(v, n, tuple(orbits), transversal)


@dataclass(frozen=True)
class Representative:
    sphere_radius: int
    vertex: int
    element: FiniteTreeAutomorphism


@dataclass(frozen=True)
class CartanDecomposition:
    """K plus one double-coset representative per K-orbit per sphere.

    factors memoizes factorize's target-dependent factors, filled as targets
    are met.  It is not an __init__ argument, so dataclasses.replace starts
    an empty one and a replaced decomposition never reads stale factors.
    """

    vertex: int
    stabilizer: GroupBall
    representatives: tuple[Representative, ...]
    partitions: tuple[OrbitPartition, ...]
    group: GroupBall
    factors: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def representative_for(self, point: int) -> Representative:
        for part in self.partitions:
            for orbit in part.orbits:
                if point in orbit:
                    rep_vertex = orbit[0]
                    for rec in self.representatives:
                        if rec.vertex == rep_vertex and rec.sphere_radius == part.sphere_radius:
                            return rec
        raise CertificationError(f"vertex {point} outside the enumerated spheres")


def enumerate_representatives(gb: GroupBall, v: int, max_sphere: int) -> CartanDecomposition:
    """One mover per K-orbit per sphere radius <= max_sphere, identity at 0.

    The mover to an orbit representative w is the first element of gb moving
    v to w (from enumerate_u1_ball at the base: the translation by w's
    address); a missing mover is reported as incompleteness.
    """
    world = gb.world
    stab = stabilizer_subball(gb, v)
    reps: list[Representative] = []
    partitions: list[OrbitPartition] = []
    for n in range(max_sphere + 1):
        part = sphere_orbits(gb, v, n)
        partitions.append(part)
        for orbit in part.orbits:
            w = orbit[0]
            if n == 0:
                reps.append(Representative(0, v, identity_aut(world).restrict()))
                continue
            mover = next((g for g in gb if g.images[v] == w), None)
            if mover is None:
                raise CertificationError(
                    f"group ball has no element moving {v} to orbit representative {w}")
            reps.append(Representative(n, w, mover))
    return CartanDecomposition(v, stab, tuple(reps), tuple(partitions), gb)


@dataclass(frozen=True)
class Factorization:
    k: FiniteTreeAutomorphism
    a: Representative
    k_prime: FiniteTreeAutomorphism


def factorize(g: FiniteTreeAutomorphism, dec: CartanDecomposition) -> Factorization:
    """Write g = k a k' with k, k' fixing v, verified pointwise on the ball.

    k, the representative a, and so k a and (k a)^-1, depend only on the
    target g(v): dec.factors keeps them per target, built on first use.  Each
    g then costs one product, k' = (k a)^-1 g, which keeps its exact
    evaluator because callers compose it again.  k a k' = g is checked where
    g's images are ball ids, against the addresses of (k a) k' read off the
    two factors (product_addresses): forming that product in closed form
    would build an evaluator no caller reads.
    """
    v = dec.vertex
    img = g.images[v]
    if img < 0:
        raise CertificationError(f"g moves vertex {v} outside the certified ball")
    factors = dec.factors.get(img)
    if factors is None:
        rec = dec.representative_for(img)
        part = next(p for p in dec.partitions if p.sphere_radius == rec.sphere_radius)
        k = part.transversal[img]                # k(rep vertex) = g(v)
        ka = compose(k, rec.element)
        factors = dec.factors[img] = (k, rec, ka, invert(ka))
    k, rec, ka, ka_inv = factors
    k_prime = compose(ka_inv, g)
    if k_prime.images[v] != v:
        raise CertificationError("residual factor does not fix the base vertex")
    word_of = dec.group.world.word_of
    inside = [u for u, gu in enumerate(g.images) if gu >= 0]
    for u, p in zip(inside, product_addresses(ka, k_prime, word_of, inside)):
        if p is not None and p != word_of[g.images[u]]:
            raise AssertionError("factorization product disagrees with g on the ball")
    return Factorization(k, rec, k_prime)


@dataclass(frozen=True)
class DisjointnessCertificate:
    radius: int
    disjoint: bool
    covers: bool
    coset_sizes: dict[int, int]


def _check_base(dec: CartanDecomposition, radius: int, what: str) -> None:
    if dec.vertex != dec.group.world.ball.base:
        raise CertificationError(f"{what} keys B(base, {radius}), not B({dec.vertex}, {radius})")


def _double_coset_keys(left, a: FiniteTreeAutomorphism, right, world: ColorBall, radius: int) -> set:
    """The keys on B(base, radius) of every k1 a k2, k1 in `left` and k2 in `right`.

    B(base, radius) is the ball ids 0..N-1.  Each k2 fixes the base and so
    permutes those ids, and the key of k1 a k2 is the key of k1 a read
    through k2.images[:N] (None where that is -1), over the distinct
    permutations.  The key of k1 a is read off k1 and a by
    product_addresses: no closed-form product is built.

    These keys decide membership as a residual does: rest = (k1 a)^-1 g
    agrees with k2 on B(base, radius) exactly when g and k1 a k2 have equal
    keys there, since (k1 a)^-1 is injective and sends g(u) to rest(u).
    """
    size = sum(1 for depth in world.ball.depth if depth <= radius)
    perms = {k2.images[:size] for k2 in right}
    if any(perm[0] != 0 or max(perm) >= size for perm in perms):
        raise CertificationError(f"a stabilizer element does not map B(base, {radius}) into itself")
    keys = set()
    for k1 in left:
        # the appended None is what an unknown image (-1) indexes
        key = product_addresses(k1, a, world.word_of, range(size)) + (None,)
        keys.update(tuple(map(key.__getitem__, perm)) for perm in perms)
    return keys


def certify_partition(dec: CartanDecomposition, radius: int,
                      guard: int | None = None) -> DisjointnessCertificate:
    """Exhaustively check that the double cosets K a K partition the group ball.

    Only at the base, whose B(base, radius) is the ball ids 0..N-1: keys are
    restrictions to it, read by _double_coset_keys with one product_addresses
    per (k1, a) and no closed-form product.  The cosets are disjoint iff
    their sizes sum to the size of their union.  The |K|^2 |A| keys are
    checked against the guard before the first product.
    """
    _check_base(dec, radius, "the partition certificate")
    check_guard(len(dec.stabilizer) ** 2 * len(dec.representatives), guard, "KAK partition products")
    world = dec.group.world
    cosets = [_double_coset_keys(dec.stabilizer, rec.element, dec.stabilizer, world, radius)
              for rec in dec.representatives]
    union = set().union(*cosets)
    covers = {restriction_key(g, world, radius) for g in dec.group} == union
    return DisjointnessCertificate(radius, sum(map(len, cosets)) == len(union), covers,
                                   {i: len(ks) for i, ks in enumerate(cosets)})


# ---------------------------------------------------------------------------
# transport of representatives to a smaller compact open subgroup

@dataclass(frozen=True)
class TransportResult:
    new_representatives: tuple[FiniteTreeAutomorphism, ...]
    coverage: bool
    failed_element: FiniteTreeAutomorphism | None


def transport_representatives(coset_reps: Sequence[FiniteTreeAutomorphism],
                              k_prime: GroupBall,
                              dec: CartanDecomposition,
                              radius: int) -> TransportResult:
    """A' = union of g_i^-1 A g_j after verifying K = disjoint union of g_i K'.

    Only at the base: keys on B(base, radius) come from _double_coset_keys,
    the coset g_i K' as the keys of 1 g_i K'.  Coverage is re-certified
    exhaustively: every group-ball element must factor as k' a' k'' with
    both factors in K', so its key must lie among those of K' a' K'; the
    first that does not is the failed element.  Only the returned a' are
    products.
    """
    _check_base(dec, radius, "the transport")
    world = dec.group.world
    ident = identity_aut(world).restrict()
    seen: set = set()
    for gi in coset_reps:
        coset = _double_coset_keys([ident], gi, k_prime, world, radius)
        if coset & seen:
            raise ValueError("coset representatives do not give disjoint cosets")
        seen |= coset
    k_keys = {restriction_key(g, world, radius) for g in dec.stabilizer}
    if seen != k_keys:
        raise ValueError("cosets of K' do not cover K")

    new_reps: dict[tuple, FiniteTreeAutomorphism] = {}
    for gi in coset_reps:
        for rec in dec.representatives:
            for gj in coset_reps:
                a2 = compose(invert(gi), compose(rec.element, gj))
                new_reps.setdefault(restriction_key(a2, world, radius), a2)

    covered = set().union(*(_double_coset_keys(k_prime, a2, k_prime, world, radius)
                            for a2 in new_reps.values()))
    failed = next((g for g in dec.group if restriction_key(g, world, radius) not in covered), None)
    return TransportResult(tuple(new_reps.values()), failed is None, failed)


def greedy_subrepresentatives(dec: CartanDecomposition, k_big: GroupBall,
                              radius: int) -> list[Representative]:
    """For K' containing K, pick A' as a subset of A by a greedy first-seen filter.

    Only at the base: a representative is kept when its key on B(base,
    radius) is not among those of K' a K'_v over the kept a
    (_double_coset_keys, no product), K'_v the elements of K' fixing v.  A
    residual (k1 a)^-1 rec that fixes v and agrees with some k2 in K' makes
    k2 fix v too, so K'_v gives every key the residual test accepts.
    """
    _check_base(dec, radius, "the greedy fusion")
    world = dec.group.world
    v = dec.vertex
    fixing = [k for k in k_big if k.images[v] == v]
    fused: set = set()
    kept: list[Representative] = []
    for rec in dec.representatives:
        if restriction_key(rec.element, world, radius) not in fused:
            kept.append(rec)
            fused |= _double_coset_keys(k_big, rec.element, fixing, world, radius)
    return kept


# ---------------------------------------------------------------------------
# boundedness and contraction witnesses

def is_bounded(seq: Sequence[FiniteTreeAutomorphism], v: int, bound: int) -> bool:
    """Finite-depth proxy: every displacement d(v, g_i(v)) stays below `bound`.

    Boundedness of the underlying sequence cannot be certified at finite
    depth; this is the displacement proxy at the caller's radius.  An image
    outside the ball counts as unbounded: the ball cannot certify it.
    """
    return all(g.images[v] >= 0 and distance(g.ball, v, g.images[v]) < bound for g in seq)


def half_tree_fixator_witness(gb: GroupBall, h: HalfTreeRef) -> FiniteTreeAutomorphism | None:
    """A nontrivial gb element fixing the chosen half pointwise, or None.

    With a U1 context the witness is built directly: plant a nontrivial color
    permutation fixing the parent color at a vertex whose moved branches stay
    off the fixed side.  None certifies exhaustion of that search at ball
    depth (for U1 this means every point stabilizer of F is trivial).  The
    permutation is the lexicographically least non-identity element of <F>
    fixing that color, read off a stabilizer chain (LocalGroup.least_fixing),
    so <F> is not listed.
    """
    world = gb.world
    ball = gb.ball
    fixed_side = half_tree_vertices(ball, h)
    if gb.local_group is not None:
        least = {}  # color -> LocalGroup.least_fixing(color)
        # With the base on the moving side, avoid the cone of h.side.
        anc = None if ball.base in fixed_side else world.word_of[h.side]
        for u in ball.vertices():   # ids are in BFS order: depth never decreases
            if u in fixed_side:
                continue
            if ball.depth[u] + 1 > ball.radius:
                break  # moved children must stay visible in the ball, and every later u is as deep
            wu = world.word_of[u]
            if not wu:
                # Plant at the base: fixing the color toward the fixed side
                # fixes that entire branch pointwise.
                locked = anc[0]
            elif anc is not None and (wu == anc[:len(wu)] or anc == wu[:len(anc)]):
                continue  # ancestors/descendants of the fixed cone
            else:
                locked = wu[-1]  # the parent color
            if locked not in least:
                least[locked] = gb.local_group.least_fixing(locked)
            if least[locked] is not None:
                return Portrait._trusted(world, (), {wu: least[locked]}).restrict()
        return None
    ident_key = identity_aut(world).restrict().key()
    for g in gb:
        if g.key() == ident_key:
            continue
        if all(g.images[x] == x for x in fixed_side):
            return g
    return None


def conjugate_fixed_depths(family: Sequence[FiniteTreeAutomorphism], x: FiniteTreeAutomorphism,
                           anchor: int, v: int) -> tuple[int, ...]:
    """For each g in family, the agreement depth at v of g x g^-1 with the
    identity, capped by radius = ball radius - depth(v): the largest k such
    that g x g^-1 fixes B(v, k), and -1 when it moves v.  x fixes the ball
    vertex `anchor`; g and x need exact evaluators.

    The depths are read off closed forms, with no conjugate built.  Say x
    fixes the base.  It moves exactly the subtrees below its moved roots R
    (Portrait.moved_roots).  g x g^-1 fixes u exactly when x fixes g^-1(u),
    so it moves exactly g(Moved(x)), and d(v, g(Moved(x))) = d(g^-1(v),
    Moved(x)) since g is an isometry.  A subtree below m (never the base) is
    left only through the edge from m to its parent, so the distance from y
    to it is 0 when m is a prefix of y and word_distance(y, m) otherwise.
    The scan this replaces (tests/oracles.py::scan_tree_contraction_depths)
    restricts g x g^-1 to the ball and takes its agreement depth with the
    identity at v.  Both are exact, so the cap is the radius, B(v, radius)
    lies in the ball, and the conjugate fixes B(v, k) exactly when k is less
    than the distance from v to what it moves.  So the depth is
    min(radius, min over m in R of d(g^-1(v), subtree(m)) - 1), which is -1
    when g x g^-1 moves v, and the radius when R is empty.

    A witness that moves the base (the scan of a plain GroupBall may return
    one) is re-based: with p the address of `anchor` and t_p the translation
    by p, x' = t_p^-1 x t_p fixes the base, x moves exactly t_p(Moved(x')),
    and d(g^-1(v), Moved(x)) = d(p^-1 g^-1(v), Moved(x')).  x' is one
    product in closed form, made once for the whole family.
    """
    if not isinstance(x.exact, Portrait):
        raise CertificationError("contraction search needs the images of the witness beyond the ball")
    ball = x.ball
    radius = ball.radius - ball.depth[v]
    fixing = x.exact
    world = fixing.world
    p: Word = ()
    if fixing.base_word:
        p = world.word_of[anchor]
        fixing = translation(world, word_inv(p)).compose(fixing).compose(translation(world, p))
    roots = fixing.moved_roots()
    word_v = world.word_of[v]
    depths = []
    for g in family:
        y = word_mul(word_inv(p), g.exact.preimage_word(word_v))
        far = min((0 if y[:len(m)] == m else word_distance(y, m) for m in roots), default=radius + 1)
        depths.append(min(radius, far - 1))
    return tuple(depths)


@dataclass(frozen=True)
class ContractionCertificate:
    """A witness x with the exact depths to which each conjugate fixes B(v, .)."""

    witness: FiniteTreeAutomorphism
    depths: tuple[int, ...]
    side: HalfTreeRef
    displacements: tuple[int, ...]
    certified_radius: int


@dataclass(frozen=True)
class NoWitness:
    reason: str


def contraction_witness_search(seq: Sequence[FiniteTreeAutomorphism], gb: GroupBall,
                               v: int) -> ContractionCertificate | NoWitness:
    """Run the half-tree witness construction along an unbounded family.

    Deterministic version of the subsequence argument: group the family by
    the first-step neighbor w of the path v -> g(v) and keep the largest
    class (ties by vertex id); split that class into translations through v
    and the rest and keep the larger part (ties to translations).  For
    translations the witness fixes the half-tree at v; otherwise the
    half-tree at w.  The first step is read off the addresses: w extends v
    by the next letter of g(v) when v's word is a prefix of g(v)'s, and is
    v's parent otherwise.  Depths of agreement of g x g^-1 with the identity
    are reported exactly, capped by the ball radius (conjugate_fixed_depths,
    with no conjugate built).  An empty family is invalid: every claim about
    it would be vacuous.
    """
    if not seq:
        raise ValueError("contraction search needs a nonempty family")
    world = gb.world
    ball = gb.ball
    radius = ball.radius - ball.depth[v]
    if is_bounded(seq, v, radius):
        return NoWitness("bounded")
    if not ball.is_interior(v):
        raise CertificationError("base vertex must be interior")

    word_v = world.word_of[v]
    moved = []
    for g in seq:
        img = image_address(g, world, v)
        img2 = None if img is None else g.exact.image_word(img)
        if img2 is None:
            raise CertificationError("contraction search needs the images of v and g(v) beyond the ball")
        d = word_distance(word_v, img)
        if d == 0:
            continue
        first = word_v + (img[len(word_v)],) if img[:len(word_v)] == word_v else word_v[:-1]
        moved.append((g, d, first, img2))
    if not moved:
        return NoWitness("no element moves the base vertex")

    classes: dict[Word, list] = {}
    for item in moved:
        classes.setdefault(item[2], []).append(item)
    first_word = max(classes, key=lambda w: (len(classes[w]), -world.id_of[w]))
    family = classes[first_word]
    w_vertex = world.id_of[first_word]

    translations, others = [], []
    for g, d, _, img2 in family:
        (translations if word_distance(word_v, img2) == 2 * d else others).append((g, d))
    if len(translations) >= len(others):
        family2, side = translations, v          # witness fixes the half at v
    else:
        family2, side = others, w_vertex         # witness fixes the half at w
    if not family2:
        return NoWitness("no usable subfamily after the case split")

    href = HalfTreeRef((v, w_vertex), side)
    x = half_tree_fixator_witness(gb, href)
    if x is None:
        return NoWitness("no half-tree fixator witness at this depth")

    depths = conjugate_fixed_depths([g for g, _ in family2], x, side, v)
    disps = [d for _, d in family2]
    cert = ContractionCertificate(x, depths, href, tuple(disps), radius)
    for depth, d in zip(depths, disps):
        if depth < min(d, radius):
            raise AssertionError(
                f"conjugated witness fixes only B(v,{depth}) but the construction promises {min(d, radius)}")
    return cert
