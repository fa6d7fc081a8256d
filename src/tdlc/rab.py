"""Semi-regular right-angled buildings as graph products of finite cyclic groups.

Chambers are normal-form words of colored syllables (s, c) with c in
Z/q_s - {0}: exactly the colourings of the ShortLex reduced words (type
words) of the underlying right-angled Coxeter system (see ChamberBall).
This is the standard model of the unique semi-regular right-angled building
with parameters (q_s): panels are cosets of the cyclic factors, the Weyl
distance is the type word of C^-1 D, and apartments arise from fixing one
color per generator.  Normal forms come from the graph-product kernel of
coxeter_ra, the one that also normalises Coxeter words, and the chamber ball
from coxeter_ra's ShortLex walk and its sphere count, the ones that also list
and count Coxeter elements.

Automorphisms are evaluated exactly on chambers (panel rotations, base-panel
permutations and their composites); ball objects only certify and serialize.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .coxeter_ra import (
    CoxElement,
    RACoxeterSystem,
    dist_to_root,
    initial_position,
    invert as cox_invert,
    multiply as cox_multiply,
    multiply_generator,
    right_multiply,
    root_contains,
    shortlex_sphere_sizes,
    shortlex_walk,
)
from .errors import CertificationError, check_guard

Syllable = tuple[int, int]  # (generator index, color in 1..q-1)


@dataclass(frozen=True)
class BuildingSpec:
    """A right-angled Coxeter system with one panel cardinality per generator."""

    system: RACoxeterSystem
    parameters: dict[str, int] = field(hash=False)

    def __post_init__(self):
        names = self.system.generators
        if not isinstance(self.parameters, dict):
            raise ValueError(f"parameters must map generator names to panel sizes, got {self.parameters!r}")
        unknown = sorted(repr(s) for s in self.parameters if s not in names)
        if unknown:
            raise ValueError(f"parameters for unknown generators: {', '.join(unknown)}")
        for s in names:
            q = self.parameters.get(s)
            if isinstance(q, bool) or not isinstance(q, int) or q < 2:
                raise ValueError(f"panel size q_{s} must be an integer >= 2, got {q!r}")
        # Panel sizes by generator index, for the normal-form kernel; not a field.
        object.__setattr__(self, "_q", tuple(self.parameters[s] for s in names))

    def q(self, gen_index: int) -> int:
        return self._q[gen_index]

    def is_thick(self) -> bool:
        return all(q >= 3 for q in self.parameters.values())

    def to_json(self) -> dict:
        return {"coxeter": self.system.to_json(), "parameters": dict(self.parameters)}

    @classmethod
    def from_json(cls, data: dict) -> "BuildingSpec":
        if not isinstance(data, dict) or "coxeter" not in data or "parameters" not in data:
            raise ValueError("building spec must be an object with 'coxeter' and 'parameters'")
        if not isinstance(data["parameters"], dict):
            raise ValueError(f"'parameters' must map generator names to panel sizes, got {data['parameters']!r}")
        return cls(RACoxeterSystem.from_json(data["coxeter"]), dict(data["parameters"]))


@dataclass(frozen=True, slots=True)
class Chamber:
    """A chamber in graph-product normal form (ShortLex type word, nonzero colors)."""

    spec: BuildingSpec = field(compare=False, hash=False)
    syllables: tuple[Syllable, ...] = ()

    @classmethod
    def _trusted(cls, spec: BuildingSpec, syllables: tuple[Syllable, ...]) -> "Chamber":
        """A chamber built in this package, whose syllables are a normal form
        by construction: the object Chamber(spec, syllables) builds, its slots
        written as the dataclass __init__ writes them, without that call."""
        C = object.__new__(cls)
        _set_spec(C, spec)
        _set_syllables(C, syllables)
        return C

    def type_word(self) -> CoxElement:
        return CoxElement._trusted(self.spec.system, tuple(map(itemgetter(0), self.syllables)))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        names = self.spec.system.generators
        return " ".join(f"{names[s]}^{c}" for s, c in self.syllables)

    def to_json(self) -> list:
        return [[self.spec.system.generators[s], c] for s, c in self.syllables]


# The slot setters of a Chamber, which write past the frozen __setattr__.
_set_spec, _set_syllables = Chamber.spec.__set__, Chamber.syllables.__set__


def chamber_times(C: Chamber, syllables: Iterable[Syllable]) -> Chamber:
    """C multiplied on the right by syllables (s, c), starting from C's normal form.

    With one syllable this is one step of the kernel, O(len(C)).  The
    syllables need not form a normal form; C is one, as every Chamber.
    """
    spec = C.spec
    gens = [s for s, _ in C.syllables]
    exps = [c for _, c in C.syllables]
    right_multiply(spec.system._comm, spec._q, gens, exps, syllables)
    return Chamber._trusted(spec, tuple(zip(gens, exps)))


def make_chamber(spec: BuildingSpec, syllables: Iterable[tuple[int | str, int]]) -> Chamber:
    syls = list(syllables)
    gens = spec.system.letter_indices(s for s, _ in syls)
    if not all(isinstance(c, int) and not isinstance(c, bool) for _, c in syls):
        raise ValueError(f"chamber colors must be integers: {syls!r}")
    return chamber_times(identity_chamber(spec), zip(gens, (c for _, c in syls)))


def chamber_from_json(spec: BuildingSpec, data: list) -> Chamber:
    return make_chamber(spec, [(name, c) for name, c in data])


def identity_chamber(spec: BuildingSpec) -> Chamber:
    return Chamber._trusted(spec, ())


def chamber_product(C: Chamber, D: Chamber) -> Chamber:
    if C.spec is not D.spec and C.spec != D.spec:
        raise ValueError("chambers from different building specs")
    return chamber_times(C, D.syllables)


def chamber_inverse(C: Chamber) -> Chamber:
    return chamber_times(identity_chamber(C.spec), [(s, -c) for s, c in reversed(C.syllables)])


def _inverse_times(C: Chamber, D: Chamber) -> tuple[list[int], list[int]]:
    """The generators and colours of C^-1 D's normal form, by one kernel pass
    over C^-1's syllables chained with D's: the pass reaches C^-1's normal
    form before it reads D, so this is chamber_product(chamber_inverse(C), D)."""
    spec = C.spec
    if spec is not D.spec and spec != D.spec:
        raise ValueError("chambers from different building specs")
    gens: list[int] = []
    exps: list[int] = []
    right_multiply(spec.system._comm, spec._q, gens, exps,
                   itertools.chain([(s, -c) for s, c in reversed(C.syllables)], D.syllables))
    return gens, exps


def weyl_distance(C: Chamber, D: Chamber) -> CoxElement:
    return CoxElement._trusted(C.spec.system, tuple(_inverse_times(C, D)[0]))


def gallery_distance(C: Chamber, D: Chamber) -> int:
    return len(_inverse_times(C, D)[0])


def panel(C: Chamber, s: int | str) -> frozenset[Chamber]:
    spec = C.spec
    idx = spec.system.index_of(s) if isinstance(s, str) else s
    return frozenset(chamber_times(C, ((idx, c),)) for c in range(spec.q(idx)))


def _initial_syllable_position(spec: BuildingSpec, syls: Sequence[Syllable], types: int) -> int | None:
    """First syllable whose type is in the bitmask `types` and that can move to the front."""
    return initial_position(spec.system._comm, map(itemgetter(0), syls), types)


def wing_split(C_inverse: Chamber, s: int, D: Chamber) -> tuple[list[Syllable], int | None]:
    """The syllables of C^-1 D and the position of their initial s-syllable (at
    most one: two would merge), None exactly when D lies in the s-wing of C."""
    x = list(chamber_product(C_inverse, D).syllables)
    return x, _initial_syllable_position(D.spec, x, 1 << s)


def project(C: Chamber, J: Iterable[int | str], D: Chamber) -> Chamber:
    """Gate of D onto the J-residue of C: C times the maximal J-prefix of C^-1 D."""
    comm = C.spec.system._comm
    types = 0
    for t in C.spec.system.letter_indices(J):
        types |= 1 << t
    gens, exps = _inverse_times(C, D)
    prefix: list[Syllable] = []
    while (pos := initial_position(comm, gens, types)) is not None:
        prefix.append((gens.pop(pos), exps.pop(pos)))
    return chamber_times(C, prefix)


def wing_contains(C: Chamber, s: int | str, D: Chamber) -> bool:
    """Whether D projects onto C on C's s-panel (D lies in the s-wing of C)."""
    idx = C.spec.system.index_of(s) if isinstance(s, str) else s
    return wing_split(chamber_inverse(C), idx, D)[1] is None


@dataclass(frozen=True)
class ApartmentRef:
    """One chamber per Coxeter element: fix a color y_s for every generator."""

    color_choice: tuple[int, ...]  # indexed by generator

    @classmethod
    def default(cls, spec: BuildingSpec) -> "ApartmentRef":
        return cls((1,) * spec.system.rank)


def apartment_chamber(spec: BuildingSpec, ap: ApartmentRef, w: CoxElement) -> Chamber:
    return make_chamber(spec, [(s, ap.color_choice[s]) for s in w.word])


def in_apartment(spec: BuildingSpec, ap: ApartmentRef, C: Chamber) -> bool:
    return all(c == ap.color_choice[s] for s, c in C.syllables)


@dataclass(frozen=True)
class RootRef:
    """The root u.alpha_s of the chosen apartment, with wall at u's s-panel."""

    apartment: ApartmentRef
    base_translate: CoxElement
    stype: int

    def wall_chambers(self, spec: BuildingSpec) -> tuple[Chamber, Chamber]:
        """(chamber inside the root, chamber on the opposite side)."""
        u = self.base_translate
        inside = apartment_chamber(spec, self.apartment, u)
        outside = apartment_chamber(spec, self.apartment, multiply_generator(u, self.stype))
        return inside, outside

    def contains(self, spec: BuildingSpec, C: Chamber) -> bool:
        if not in_apartment(spec, self.apartment, C):
            return False
        x = cox_multiply(cox_invert(self.base_translate), C.type_word())
        return root_contains(spec.system.generators[self.stype], x)


class ChamberBall:
    """All chambers at gallery distance <= radius from the identity chamber, in (length, syllables) order.

    They are the colourings of the Coxeter ball's ShortLex words, a colour in
    1..q_s - 1 per letter s.  The kernel orders syllables by generator alone, and
    only syllables of one generator merge, so a syllable word is a reduced normal
    form exactly when its type word is; its length is the distance to 1.

    Counts come first: the ball's sphere sizes are coxeter_ra.shortlex_sphere_sizes,
    read off the walk's automaton with no chamber built, and the guard is
    checked on them in the constructor.  A refusal reports the exact total
    (`chamber ball enumeration: 29 objects exceeds guard 14`) when the count
    reached the radius, and otherwise the total up to the first sphere that
    passed the guard (`chamber ball enumeration (lower bound): 101 objects
    exceeds guard 100`); a radius-0 ball is never refused.  len, sphere_sizes
    and base are read off the counts.  The chambers are listed on the first
    read of `chambers` (or of `index`, which is built from them), off
    coxeter_ra.shortlex_walk, already in order, each chamber's syllables its
    parent's plus one.
    """

    def __init__(self, spec: BuildingSpec, radius: int, guard: int | None = None):
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        self.spec = spec
        self.radius = radius
        self._sizes = shortlex_sphere_sizes(spec.system._comm, spec._q, radius, guard, "chamber ball enumeration")

    @cached_property
    def chambers(self) -> tuple[Chamber, ...]:
        spec = self.spec
        trusted = Chamber._trusted
        walk = shortlex_walk(spec.system._comm, spec._q, len(self._sizes) - 1)
        return tuple(trusted(spec, syllables) for syllables in walk)

    @cached_property
    def index(self) -> dict[tuple[Syllable, ...], int]:
        return {C.syllables: i for i, C in enumerate(self.chambers)}

    def __len__(self) -> int:
        return sum(self._sizes)

    def __contains__(self, C: Chamber) -> bool:
        return C.syllables in self.index

    def base(self) -> Chamber:
        return identity_chamber(self.spec)

    def is_interior(self, C: Chamber) -> bool:
        return len(C.syllables) < self.radius

    def panel_members(self, C: Chamber, s: int | str) -> tuple[list[Chamber], bool]:
        """Panel chambers inside the ball, with a completeness flag."""
        full = panel(C, s)
        members = [D for D in full if D in self]
        return sorted(members, key=lambda D: D.syllables), len(members) == len(full)

    def sphere_sizes(self) -> list[int]:
        return self._sizes + [0] * (self.radius + 1 - len(self._sizes))


def chamber_count_oracle(spec: BuildingSpec, radius: int) -> int:
    """|B(1, radius)| from the growth series W(t) of the graph product, with no enumeration.

    A factor Z/q_s has growth series 1 + x_s, x_s = (q_s - 1) t, and the graph
    product's satisfies 1/W(t) = sum over cliques T of prod_{s in T}
    (1/(1 + x_s) - 1) (Chiswell).  Each factor is -x_s/(1 + x_s), so with
    D = prod_s (1 + x_s) the polynomial

        N = D/W = sum over cliques T of prod_{s in T} (-x_s) prod_{s not in T} (1 + x_s)

    has degree at most the rank and constant term 1 (from T empty alone), and
    W = D/N.  The chambers at distance k are W's k-th coefficient, read off
    N W = D as W_k = D_k - sum_{j >= 1} N_j W_{k-j}: O(radius x rank) steps.
    """
    rank = spec.system.rank
    comm = spec.system._comm
    xs = [q - 1 for q in spec._q]

    def times(poly: list[int], a: int, b: int) -> list[int]:
        """The coefficients of poly(t) (a + b t), from t^0 up."""
        return [a * c + b * d for c, d in zip(poly + [0], [0] + poly)]

    denominator = [1]
    for x in xs:
        denominator = times(denominator, 1, x)
    numerator = [0] * (rank + 1)
    stack = [(0, (1 << rank) - 1, 0)]   # (clique bitmask, extensions, next type)
    while stack:
        clique, extend, first = stack.pop()
        term = [1]
        for s, x in enumerate(xs):
            term = times(term, 0, -x) if clique >> s & 1 else times(term, 1, x)
        for k, a in enumerate(term):
            numerator[k] += a
        for s in range(first, rank):
            if extend >> s & 1:
                stack.append((clique | 1 << s, extend & comm[s], s + 1))
    series: list[int] = []
    for k in range(radius + 1):
        series.append((denominator[k] if k <= rank else 0)
                      - sum(numerator[j] * series[k - j] for j in range(1, min(k, rank) + 1)))
    return sum(series)


def dist_base_to_root(r: RootRef, ball: ChamberBall) -> int:
    """Gallery distance from the base chamber to the root's chambers, read off the normal form.

    The base chamber lies in the root's apartment, and apartments are convex,
    so this is the Coxeter distance from 1 to u.alpha_s, that is from u^-1 to
    alpha_s.  A minimal gallery to the root stays in B(base, d), so the ball
    represents the root exactly when d <= ball.radius; otherwise it refuses.
    """
    d = dist_to_root(cox_invert(r.base_translate), ball.spec.system.generators[r.stype])
    if d > ball.radius:
        raise CertificationError("root chambers not represented in the ball")
    return d


def dist_base_to_wing(X: Chamber, s: int) -> int:
    """Gallery distance from the base chamber C to the s-wing W(X, s), read off the normal form.

    It is dist_to_root(type(X^-1), s).  Whether D lies in W(X, s) depends on
    delta(X, D) alone: D projects onto X on X's s-panel exactly when s is not
    a first letter of delta(X, D).  Take an apartment Sigma through X and C.
    The retraction rho onto Sigma centred at X fixes Sigma, keeps
    delta(X, .) and does not increase gallery distances.  So rho sends
    W(X, s) into the root W(X, s) ∩ Sigma and, as it fixes C, sends a wing
    chamber D to one at most d(C, D) from C.  That root lies inside the
    wing, so the minimum over the wing is the minimum over the root.
    Apartments are convex, so that is the distance inside Sigma, and the
    type-preserving isomorphism of Sigma onto the Coxeter complex that sends
    X to 1 sends C to delta(X, C) = type(X^-1) and the root to alpha_s.
    """
    return dist_to_root(cox_invert(X.type_word()), X.spec.system.generators[s])


# ---------------------------------------------------------------------------
# exact building automorphisms

def _inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a permutation of the colours 0..q-1, in one-line form."""
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


class BuildingAut:
    """Total, exact, type-preserving automorphism in the graph-product model."""

    spec: BuildingSpec

    def image(self, C: Chamber) -> Chamber:
        raise NotImplementedError

    def inverse(self) -> "BuildingAut":
        raise NotImplementedError

    def compose(self, other: "BuildingAut") -> "BuildingAut":
        mine = self.parts if isinstance(self, CompositeAut) else (self,)
        theirs = other.parts if isinstance(other, CompositeAut) else (other,)
        return CompositeAut(self.spec, mine + theirs)

    def restrict(self, ball: ChamberBall) -> "FiniteBuildingAutomorphism":
        mapping = {}
        for i, C in enumerate(ball.chambers):
            img = self.image(C)
            j = ball.index.get(img.syllables)
            if j is not None:
                mapping[i] = j
        return FiniteBuildingAutomorphism(ball, mapping, self)

    def fixes(self, C: Chamber) -> bool:
        return self.image(C) == C


class PanelRotation(BuildingAut):
    """Rotate the colors of the s-prefix relative to a base chamber.

    sigma is a permutation of {0..q_s-1} with sigma(0) = 0: chambers whose
    Weyl word from C has no initial s-syllable (the s-wing of C) are fixed;
    a chamber C.(s,c).E goes to C.(s,sigma(c)).E.
    """

    def __init__(self, spec: BuildingSpec, base: Chamber, stype: int, sigma: tuple[int, ...]):
        q = spec.q(stype)
        if len(sigma) != q or sorted(sigma) != list(range(q)):
            raise ValueError(f"sigma must be a permutation of 0..{q - 1}")
        if sigma[0] != 0:
            raise ValueError("panel rotations must fix the color 0 (the wing of the base chamber)")
        self.spec = spec
        self.base = base
        self.stype = stype
        self.sigma = tuple(sigma)
        self._base_inverse = chamber_inverse(base)

    def image(self, C: Chamber) -> Chamber:
        x, pos = wing_split(self._base_inverse, self.stype, C)
        if pos is None:
            return C
        # base^-1 C = (s, c) x'; its image (s, sigma(c)) x' only recolours that
        # syllable, and sigma(c) != 0, so the word stays a normal form.
        x[pos] = (self.stype, self.sigma[x[pos][1]])
        return chamber_times(self.base, x)

    def inverse(self) -> BuildingAut:
        return PanelRotation(self.spec, self.base, self.stype, _inverse_permutation(self.sigma))


class BasePanelPermutation(BuildingAut):
    """Permute all q_s wings at the base chamber's s-panel (rho(0) may be nonzero).

    With rho the transposition (0 y_s) this is the apartment reflection: it
    maps the apartment chamber of w to that of sw for every w.
    """

    def __init__(self, spec: BuildingSpec, stype: int, rho: tuple[int, ...]):
        q = spec.q(stype)
        if len(rho) != q or sorted(rho) != list(range(q)):
            raise ValueError(f"rho must be a permutation of 0..{q - 1}")
        self.spec = spec
        self.stype = stype
        self.rho = tuple(rho)

    def image(self, C: Chamber) -> Chamber:
        """(s, rho(c)) x for C = (s, c) x, multiplied on the left into C's normal form.

        c is the colour of C's initial s-syllable, at position p, and 0 if C
        has none (then x = C).  Normal forms are ShortLex-least reduced words,
        ordered by generator alone, and the cases are:

        - rho(c) = c: the image is C.
        - c and rho(c) nonzero: recolour position p.  The type word is
          unchanged, so the word is still reduced and ShortLex-least.
        - rho(c) = 0 and p = 0: the image is the suffix after position 0.  A
          suffix v of a ShortLex-least word (s, c) v is ShortLex-least: a
          smaller word v' for it would give the smaller word (s, c) v'.
        - c = 0 and no initial syllable of C has a type that commutes with s
          and is smaller than s: the image is (s, rho(0)) C.  It is reduced,
          as s is not initial in C, and the ShortLex-least word of a trace is
          the greedy one, which takes the smallest letter that can come first
          (Anisimov & Knuth 1979).  The letters that can start s C are s and
          the initial letters of C that commute with s, so greedy takes s
          first, and then C, which is already greedy.
        - otherwise the kernel takes over from the untouched prefix, a normal
          form as a prefix of one: the syllables before position p, or the
          new head (s, rho(0)).
        """
        spec = self.spec
        s = self.stype
        syls = C.syllables
        pos = _initial_syllable_position(spec, syls, 1 << s)
        c = 0 if pos is None else syls[pos][1]
        new_c = self.rho[c]
        if new_c == c:
            return C
        if c and new_c:
            return Chamber._trusted(spec, syls[:pos] + ((s, new_c),) + syls[pos + 1:])
        if pos == 0:
            return Chamber._trusted(spec, syls[1:])
        if c:
            return chamber_times(Chamber._trusted(spec, syls[:pos]), syls[pos + 1:])
        if _initial_syllable_position(spec, syls, spec.system._comm[s] & ((1 << s) - 1)) is None:
            return Chamber._trusted(spec, ((s, new_c),) + syls)
        return chamber_times(Chamber._trusted(spec, ((s, new_c),)), syls)

    def inverse(self) -> BuildingAut:
        return BasePanelPermutation(self.spec, self.stype, _inverse_permutation(self.rho))


class CompositeAut(BuildingAut):
    """parts[0] after parts[1] after ...; with no parts, the identity."""

    def __init__(self, spec: BuildingSpec, parts: tuple[BuildingAut, ...]):
        self.spec = spec
        self.parts = parts

    def image(self, C: Chamber) -> Chamber:
        for part in reversed(self.parts):
            C = part.image(C)
        return C

    def inverse(self) -> BuildingAut:
        return CompositeAut(self.spec, tuple(p.inverse() for p in reversed(self.parts)))


@dataclass(frozen=True)
class FiniteBuildingAutomorphism:
    """Ball view of an exact type-preserving automorphism, made by BuildingAut.restrict.

    mapping holds the chambers whose image stays in the ball; exact
    evaluates the automorphism everywhere.  restrict is the only builder, so
    the view is injective and keeps s-adjacency by construction, unchecked.
    """

    ball: ChamberBall = field(compare=False, hash=False)
    mapping: dict[int, int] = field(hash=False)
    exact: BuildingAut = field(compare=False, hash=False)

    def __call__(self, C: Chamber) -> Chamber | None:
        i = self.ball.index.get(C.syllables)
        if i is None or i not in self.mapping:
            return None
        return self.ball.chambers[self.mapping[i]]

    def is_identity_on_ball(self) -> bool:
        return all(i == j for i, j in self.mapping.items())


def transposition(q: int, a: int, b: int) -> tuple[int, ...]:
    """The permutation of the colours 0..q-1 that swaps a and b."""
    return tuple(b if c == a else a if c == b else c for c in range(q))


def wing_fixator(ball: ChamberBall, C: Chamber, s: int | str,
                 guard: int | None = None) -> list[PanelRotation]:
    """Generators of the fixator of the s-wing of C, certified on the ball.

    PanelRotation(D, t, sigma) moves a chamber E only by recolouring the
    initial t-syllable of D^-1 E, so it fixes every wing chamber of the ball
    exactly when sigma fixes the set W(D, t) of those colours.  The sigma kept
    are the permutations of the nonzero colours outside W(D, t), which their
    transpositions generate; a group fixes a set pointwise exactly when its
    generators do.  At D = C and t = s, W is empty.
    """
    spec = ball.spec
    idx = spec.system.index_of(s) if isinstance(s, str) else s
    check_guard(len(ball) * sum(math.comb(spec.q(t) - 1, 2) for t in range(spec.system.rank)),
                guard, "wing fixator generators")
    C_inverse = chamber_inverse(C)
    wing = [E for E in ball.chambers if wing_split(C_inverse, idx, E)[1] is None]
    gens = []
    for D in ball.chambers:
        D_inverse = chamber_inverse(D)
        words = [chamber_product(D_inverse, E).syllables for E in wing]   # as in wing_split, once per D
        for t in range(spec.system.rank):
            held = {x[pos][1] for x in words
                    if (pos := _initial_syllable_position(spec, x, 1 << t)) is not None}
            free = [c for c in range(1, spec.q(t)) if c not in held]
            gens.extend(PanelRotation(spec, D, t, transposition(spec.q(t), a, b))
                        for a, b in itertools.combinations(free, 2))
    return gens


def check_root_fixes_ball(ball: ChamberBall, r: RootRef, n: int) -> bool | str:
    """Whether every generator of the opposite root's wing fixator fixes B(base, n).

    Inapplicable (returned as the string "inapplicable") unless the root is
    at distance > n from the base chamber.
    """
    spec = ball.spec
    d = dist_base_to_root(r, ball)
    if d <= n:
        return "inapplicable"
    _, opposite = r.wall_chambers(spec)
    gens = wing_fixator(ball, opposite, r.stype)
    inner = [C for C in ball.chambers if len(C.syllables) <= n]
    return all(g.fixes(C) for g in gens for C in inner)
