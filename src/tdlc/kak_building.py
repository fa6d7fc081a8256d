"""Bruhat-style KAK decomposition for type-preserving building automorphisms.

Representatives are indexed by Coxeter elements: a_w is the composite of the
apartment reflections along the ShortLex word of w, so it stabilises the
standard apartment setwise and sends the base chamber to the apartment
chamber of w.  Factorisation aligns an arbitrary automorphism back to the
standard apartment with panel rotations along a minimal gallery; the
contraction pipeline chains the root-growth search with wing-fixator
witnesses and reports exact fixed-ball radii.  It takes the distances to the
translated roots from the search, which reads them off normal forms, and
refuses when the farthest root lies outside B(C, L).  It certifies each
conjugated witness with one image and one wing distance per moved wing, also
read off normal forms, and lists no chamber ball beyond B(C, 1), where the
witness is shown to be nontrivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter_ra import (
    CoxElement,
    enumerate_elements,
    identity,
    is_irreducible,
    is_spherical,
    root_growth_search,
)
from .errors import CertificationError
from .rab import (
    ApartmentRef,
    BasePanelPermutation,
    BuildingAut,
    BuildingSpec,
    Chamber,
    ChamberBall,
    CompositeAut,
    FiniteBuildingAutomorphism,
    PanelRotation,
    RootRef,
    apartment_chamber,
    chamber_inverse,
    chamber_times,
    dist_base_to_wing,
    identity_chamber,
    transposition,
    wing_split,
)


def _reflection(spec: BuildingSpec, ap: ApartmentRef, s: int) -> BasePanelPermutation:
    return BasePanelPermutation(spec, s, transposition(spec.q(s), 0, ap.color_choice[s]))


def representative_aut(spec: BuildingSpec, ap: ApartmentRef, w: CoxElement) -> BuildingAut:
    """a_w: the composite of apartment reflections along the ShortLex word of w."""
    return CompositeAut(spec, tuple(_reflection(spec, ap, s) for s in w.word))


@dataclass(frozen=True)
class BuildingCartan:
    """Base chamber, apartment, and one representative a_w per Coxeter element."""

    spec: BuildingSpec
    apartment: ApartmentRef
    max_length: int
    reps: dict[tuple[int, ...], BuildingAut]

    def rep_for(self, w: CoxElement) -> BuildingAut:
        aut = self.reps.get(w.word)
        if aut is None:
            raise CertificationError(f"no representative enumerated for {w}")
        return aut


def representatives(spec: BuildingSpec, max_length: int,
                    guard: int | None = None) -> BuildingCartan:
    """a_w for every l(w) <= max_length, with delta(C, a_w C) = w certified."""
    ap = ApartmentRef.default(spec)
    base = identity_chamber(spec)
    reps: dict[tuple[int, ...], BuildingAut] = {}
    for w in enumerate_elements(spec.system, max_length, guard=guard):
        aut = representative_aut(spec, ap, w)
        target = apartment_chamber(spec, ap, w)
        if aut.image(base) != target:
            raise AssertionError(f"representative for {w} misses its apartment chamber")
        if aut.image(base).type_word() != w:
            raise AssertionError(f"representative for {w} has wrong Weyl distance")
        reps[w.word] = aut
    return BuildingCartan(spec, ap, max_length, reps)


@dataclass(frozen=True)
class BuildingFactorization:
    k: FiniteBuildingAutomorphism
    w: CoxElement
    a: BuildingAut
    k_prime: FiniteBuildingAutomorphism


def _align_to_apartment(bc: BuildingCartan, target: Chamber) -> BuildingAut:
    """A base-fixing automorphism k with k(target) = the apartment chamber of delta(C, target).

    Built constructively: walk the ShortLex word of the Weyl distance and at
    each prefix chamber rotate the next panel color onto the apartment color.
    Each rotation is based at a chamber whose wing contains the base, so the
    composite fixes the base chamber.
    """
    spec = bc.spec
    ap = bc.apartment
    w = target.type_word()
    parts = []
    prefix = identity_chamber(spec)
    cur = target
    for s in w.word:
        x, pos = wing_split(chamber_inverse(prefix), s, cur)
        if pos is None:
            raise AssertionError("gallery alignment lost the expected panel direction")
        c = x[pos][1]
        y = ap.color_choice[s]
        if c != y:
            rot = PanelRotation(spec, prefix, s, transposition(spec.q(s), c, y))
            parts.append(rot)
            cur = rot.image(cur)
        prefix = chamber_times(prefix, ((s, y),))
    k = CompositeAut(spec, tuple(reversed(parts)))
    if k.image(target) != apartment_chamber(spec, ap, w):
        raise AssertionError("alignment did not reach the standard apartment")
    return k


def factorize(g: FiniteBuildingAutomorphism, bc: BuildingCartan,
              ball: ChamberBall) -> BuildingFactorization:
    """g = k a_w k' with k, k' fixing the base chamber, verified on the ball."""
    spec = bc.spec
    base = identity_chamber(spec)
    target = g.exact.image(base)
    w = target.type_word()
    if len(w.word) > bc.max_length:
        raise CertificationError(
            f"delta(C, g(C)) has length {len(w.word)} > enumerated {bc.max_length}")
    k_align = _align_to_apartment(bc, target)
    a = bc.rep_for(w)
    k_prime_exact = a.inverse().compose(k_align).compose(g.exact)
    if k_prime_exact.image(base) != base:
        raise AssertionError("residual factor does not fix the base chamber")
    k = k_align.inverse().restrict(ball)
    k_prime = k_prime_exact.restrict(ball)
    product = k_align.inverse().compose(a).compose(k_prime_exact)
    for C in ball.chambers:
        if product.image(C) != g.exact.image(C):
            raise AssertionError("factorization product disagrees with g on the ball")
    return BuildingFactorization(k, w, a, k_prime)


@dataclass(frozen=True)
class DisjointnessReport:
    """Certificate that the double cosets K a_w K are pairwise disjoint.

    Type-preserving elements of K fix the base chamber, so
    delta(C, k1 a_w k2 C) = delta(C, a_w C) = w; distinct labels therefore
    give disjoint cosets once every representative is verified to realise
    its label.  No enumeration of K is involved.
    """

    checked: int
    labels_realized: bool
    labels_distinct: bool

    @property
    def disjoint(self) -> bool:
        return self.labels_realized and self.labels_distinct


def double_coset_disjointness_check(bc: BuildingCartan) -> DisjointnessReport:
    base = identity_chamber(bc.spec)
    labels = [aut.image(base).type_word().word for aut in bc.reps.values()]
    return DisjointnessReport(len(bc.reps), labels == list(bc.reps), len(set(labels)) == len(labels))


@dataclass(frozen=True)
class BuildingContractionCertificate:
    """Witness x plus, per chain element, the translated-root data and radii.

    For each w_k in the chain: the conjugate a_{w_k} x a_{w_k}^-1 lies in the
    wing fixator of the translated opposite root and fixes B(C, d_k - 1)
    pointwise, where d_k = d(C, w_k(alpha)) is the distance
    root_growth_search read off the normal form of w_k.  Both are certified
    off normal forms, for every chamber, by building_contraction_witness.
    witness is x's view on B(C, 1), which x moves.
    """

    witness: FiniteBuildingAutomorphism
    generator: str
    chain_words: tuple[tuple[str, ...], ...]
    distances: tuple[int, ...]
    fixed_ball_radii: tuple[int, ...]
    certified_radius: int


@dataclass(frozen=True)
class NoBuildingWitness:
    reason: str


def _witness_sigma(q: int) -> tuple[int, ...]:
    """The swap of the two largest colours, the lexicographically first
    permutation of 0..q-1 that fixes 0 and is not the identity."""
    return transposition(q, q - 2, q - 1)


def building_contraction_witness(ws, spec: BuildingSpec, max_length: int,
                                 guard: int | None = None):
    """Chain the root-growth search with a wing-fixator witness and certify radii.

    Steps: (1) find a generator s and a subfamily w_k with
    d(C, w_k(alpha_s)) strictly increasing, and refuse unless the farthest
    of these roots lies in B(C, max_length); (2) take a nontrivial panel
    rotation x fixing the wing on the far side of the base s-panel; (3) for
    each k, certify off normal forms that a x a^-1 (a = a_{w_k}) lies in the
    translated root's wing fixator and fixes B(C, d_k - 1) pointwise.

    x = PanelRotation(opposite, s, sigma) moves exactly the wings
    W(Y, s) of the chambers Y = opposite.(s, c) with sigma(c) != c, the other
    chambers of opposite's s-panel.  a is type-preserving, so a x a^-1 moves
    exactly the wings W(a Y, s).  Wing claim: when a(opposite) = opp_k, the
    a Y are the other chambers of opp_k's s-panel, and wings of distinct
    chambers of one panel are disjoint, so W(opp_k, s) is fixed.  Radius
    claim: the moved chambers nearest C lie min_Y dist_base_to_wing(a Y, s)
    from it, which must be >= d_k.
    """
    if not is_irreducible(spec.system):
        raise ValueError("system must be irreducible")
    if is_spherical(spec.system, spec.system.generators):
        raise ValueError("system must be non-spherical")
    if not spec.is_thick():
        return NoBuildingWitness("trivial wing fixator: some panel has only two chambers")

    chain = root_growth_search(ws)
    if chain.distances[-1] > max_length:
        raise CertificationError("root chambers not represented in the ball")
    s = spec.system.index_of(chain.generator)
    ap = ApartmentRef.default(spec)

    # x moves the base chamber C to (s, q_s - 1), so its view on B(C, 1) is
    # nontrivial; that ball lies in B(C, max_length), as the chain's
    # distances are >= 1 and strictly increasing, so max_length >= 2.
    _, opposite = RootRef(ap, identity(spec.system), s).wall_chambers(spec)
    sigma = _witness_sigma(spec.q(s))
    x = PanelRotation(spec, opposite, s, sigma).restrict(ChamberBall(spec, 1, guard=guard))
    moved = [chamber_times(opposite, ((s, c),)) for c in range(spec.q(s)) if sigma[c] != c]

    for w_k, d_k in zip(chain.chain, chain.distances):
        a = representative_aut(spec, ap, w_k)
        _, opp_k = RootRef(ap, w_k, s).wall_chambers(spec)
        if a.image(opposite) != opp_k:
            raise AssertionError("conjugated witness moves the translated opposite wing")
        d = min(dist_base_to_wing(a.image(Y), s) for Y in moved)
        if d < d_k:
            raise AssertionError(f"conjugated witness moves B(C,{d_k - 1}) at distance {d}")
    return BuildingContractionCertificate(
        witness=x,
        generator=chain.generator,
        chain_words=tuple(w.names() for w in chain.chain),
        distances=chain.distances,
        fixed_ball_radii=tuple(d_k - 1 for d_k in chain.distances),
        certified_radius=max_length,
    )
