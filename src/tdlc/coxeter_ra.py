"""Right-angled Coxeter systems: normal forms, length, roots, and walls.

A right-angled system has m(s,t) = 2 (commuting) or infinity for s != t.
Words are canonicalised to the ShortLex-least reduced word of their
commutation class, which solves the word problem: two words represent the
same group element iff their normal forms are equal.

The normal form is that of a graph product of cyclic groups (Green 1990;
Hermiller & Meier, J. Algebra 171, 1995): here every factor is Z/2, while the
chambers of right-angled buildings (rab.py) use the same kernel,
`right_multiply`, with factors Z/q_s.  The normal forms are a regular
language (Epstein et al., Word Processing in Groups, 1992): `shortlex_walk`
lists them breadth first in ShortLex order through a finite automaton, one
bitmask per word and no kernel call, for elements (every factor Z/2) and for
chamber balls alike, and `shortlex_sphere_sizes` counts them per length over
the same automaton, so every guard is checked before a word is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import check_guard


@dataclass(frozen=True)
class RACoxeterSystem:
    """Generators in a fixed order plus the set of commuting pairs.

    The generator order is part of the data: ShortLex normal forms and every
    deterministic tie-break downstream depend on it.
    """

    generators: tuple[str, ...]
    commuting_pairs: frozenset[frozenset[str]]

    def __post_init__(self):
        names = self.generators
        if not all(isinstance(s, str) for s in names):
            raise ValueError(f"generator names must be strings: {list(names)!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        index = {s: i for i, s in enumerate(names)}
        comm = [0] * len(names)
        for pair in self.commuting_pairs:
            if len(pair) != 2:
                raise ValueError(f"commuting pair must have two distinct generators: {set(pair)}")
            for s in pair:
                if s not in names:
                    raise ValueError(f"unknown generator in commuting pair: {s}")
            i, j = (index[s] for s in pair)
            comm[i] |= 1 << j
            comm[j] |= 1 << i
        # Derived data, not fields, so equality, hashing and to_json are unchanged.
        # _comm[s] has bit t set iff s and t commute (never bit s itself); _order is
        # the order of each generator; _syllables maps names and indices to the
        # kernel's syllables (index, 1).
        object.__setattr__(self, "_comm", tuple(comm))
        object.__setattr__(self, "_order", (2,) * len(names))
        object.__setattr__(self, "_syllables", {x: (i, 1) for i, s in enumerate(names) for x in (s, i)})

    @classmethod
    def create(cls, generators: Sequence[str], commuting_pairs: Iterable[tuple[str, str]] = ()) -> "RACoxeterSystem":
        return cls(tuple(generators), frozenset(frozenset(p) for p in commuting_pairs))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def index_of(self, s: str) -> int:
        try:
            return self.generators.index(s)
        except ValueError:
            raise ValueError(f"unknown generator: {s}") from None

    def letter_indices(self, word: Iterable[int | str]) -> list[int]:
        """Generator indices of a word given by names, indices, or both."""
        try:
            return [self._syllables[x][0] for x in word]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"unknown generator or index out of range: {exc}") from None

    def commutes(self, i: int, j: int) -> bool:
        return bool(self._comm[i] >> j & 1)

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "commuting_pairs": sorted(sorted(p) for p in self.commuting_pairs),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RACoxeterSystem":
        if not isinstance(data, dict) or "generators" not in data:
            raise ValueError("coxeter config must be an object with a 'generators' list")
        gens, pairs = data["generators"], data.get("commuting_pairs", [])
        if not isinstance(gens, list):
            raise ValueError(f"'generators' must be a list of names, got {gens!r}")
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and all(isinstance(s, str) for s in p) for p in pairs):
            raise ValueError(f"'commuting_pairs' must be a list of [name, name] pairs, got {pairs!r}")
        return cls.create(gens, [tuple(p) for p in pairs])


@dataclass(frozen=True, slots=True)
class CoxElement:
    """A group element held as its ShortLex-minimal reduced word (generator indices)."""

    system: RACoxeterSystem
    word: tuple[int, ...]

    @classmethod
    def _trusted(cls, system: RACoxeterSystem, word: tuple[int, ...]) -> "CoxElement":
        """An element built in this package, whose word is a normal form by
        construction: the object CoxElement(system, word) builds, its slots
        written as the dataclass __init__ writes them, without that call."""
        el = object.__new__(cls)
        _set_system(el, system)
        _set_word(el, word)
        return el

    def __len__(self) -> int:
        return len(self.word)

    def names(self) -> tuple[str, ...]:
        return tuple(self.system.generators[i] for i in self.word)

    def __str__(self) -> str:
        return " ".join(self.names()) if self.word else "e"


# The slot setters of a CoxElement, which write past the frozen __setattr__.
_set_system, _set_word = CoxElement.system.__set__, CoxElement.word.__set__


def right_multiply(comm: Sequence[int], q: Sequence[int], gens: list[int], exps: list[int],
                   syllables: Iterable[tuple[int, int]]) -> None:
    """Multiply a graph-product normal form by syllables s^e on the right, in place.

    The normal form is the ShortLex-least reduced syllable word, held as
    parallel lists of generators and exponents (1..q[s]-1); comm[s] has bit t
    set iff s and t commute.  It stays a normal form after every syllable, so
    each costs one scan of the tail of letters commuting with s:

    - if the scan stops at an s, that syllable is right-visible and absorbs e;
      it is deleted when the exponents cancel mod q[s], which keeps the word
      ShortLex-least because everything after it commutes with it;
    - otherwise s^e is inserted before the first tail letter larger than s
      (or appended): s may stand anywhere in the tail, and this is the least
      such word.

    The last letter t is read first, as it settles most syllables without
    the loop.  comm[s] never has bit s, so the scan stops before its first
    step when t is s, when t does not commute with s, or when the word is
    empty; these are its outcomes there:

    - t = s: the last syllable absorbs e, and is popped when the exponents
      cancel (a prefix of a normal form is one);
    - t does not commute with s, or there is no t: s^e is appended;
    - t commutes with s: the scan runs as above, from its step at t.

    e is reduced mod q[s] only where it is stored.  An e of 0 mod q[s]
    changes nothing: it is dropped before a store, and at t = s the sum
    (exps[-1] + e) mod q[s] is exps[-1].
    """
    for s, e in syllables:
        if gens:
            t = gens[-1]
            if t == s:
                e = (exps[-1] + e) % q[s]
                if e:
                    exps[-1] = e
                else:
                    gens.pop()
                    exps.pop()
                continue
            cs = comm[s]
            if cs >> t & 1:
                e %= q[s]
                if not e:
                    continue
                i = len(gens) - 1                 # the scan's first step, at t
                pos = i if t > s else i + 1
                while i and cs >> gens[i - 1] & 1:
                    i -= 1
                    if gens[i] > s:
                        pos = i
                if i and gens[i - 1] == s:
                    e = (exps[i - 1] + e) % q[s]
                    if e:
                        exps[i - 1] = e
                    else:
                        del gens[i - 1], exps[i - 1]
                else:
                    gens.insert(pos, s)
                    exps.insert(pos, e)
                continue
        e %= q[s]
        if e:
            gens.append(s)
            exps.append(e)


def initial_position(comm: Sequence[int], gens: Iterable[int], types: int) -> int | None:
    """First position whose generator is in the bitmask `types` and commutes with every earlier one.

    That letter can be moved to the front of the word: for a reduced word,
    its generator is a left descent.  `allowed` holds the wanted types that
    commute with every letter scanned so far (comm[t] never has bit t), so the
    scan stops once it is empty: every later candidate is blocked.
    """
    allowed = types
    for i, t in enumerate(gens):
        if allowed >> t & 1:
            return i
        allowed &= comm[t]
        if not allowed:
            break
    return None


def _times(system: RACoxeterSystem, nf: tuple[int, ...], letters: Iterable[int]) -> CoxElement:
    """The normal form nf times a word of generator indices."""
    gens = list(nf)
    right_multiply(system._comm, system._order, gens, [1] * len(gens),
                   map(system._syllables.__getitem__, letters))
    return CoxElement._trusted(system, tuple(gens))


def normal_form(system: RACoxeterSystem, word: Iterable[int | str]) -> CoxElement:
    """Canonical form of an arbitrary word of generator names or indices.

    Each letter is looked up as the kernel reads it, straight to its
    syllable (index, 1), with no list of indices; an unknown letter stops
    the kernel part way, and the partial word is dropped with the error.
    """
    gens: list[int] = []
    try:
        right_multiply(system._comm, system._order, gens, [], map(system._syllables.__getitem__, word))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unknown generator or index out of range: {exc}") from None
    return CoxElement._trusted(system, tuple(gens))


def identity(system: RACoxeterSystem) -> CoxElement:
    return CoxElement._trusted(system, ())


def multiply(u: CoxElement, v: CoxElement) -> CoxElement:
    if u.system is not v.system and u.system != v.system:
        raise ValueError("elements from different systems")
    return _times(u.system, u.word, v.word)


def multiply_generator(u: CoxElement, s: int) -> CoxElement:
    """u s by one step of the kernel: O(l(u)), no re-normalisation."""
    if not 0 <= s < u.system.rank:
        raise ValueError(f"generator index out of range: {s}")
    return _times(u.system, u.word, (s,))


def invert(u: CoxElement) -> CoxElement:
    # Generators are involutions, so the inverse word is the reversal.
    return _times(u.system, (), u.word[::-1])


def length(u: CoxElement) -> int:
    return len(u.word)


def shortlex_walk(comm: Sequence[int], q: Sequence[int], radius: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The graph-product normal forms of length <= radius, lazily, in (length, syllables) order.

    Each is a tuple of syllables (t, c), c in 1..q[t]-1; comm[t] has bit s set
    iff s and t commute.  No guard is checked: callers check theirs on
    shortlex_sphere_sizes first.  Breadth first: each node of a level carries the
    bitmask Z(u) of the generators t for which u (t, c) is not a normal form,

        Z(empty) = {},  Z(u t) = {t} | {s < t : s commutes with t} | (Z(u) & comm[t])
                               = {t} | (comm[t] & ({s < t} | Z(u))).

    The automaton.  Colours play no part: only syllables of one generator
    merge and the kernel orders syllables by generator alone, so a syllable
    word is a normal form exactly when its type word is a ShortLex-least
    reduced word (see rab.ChamberBall).  A word is the ShortLex-least word of
    its trace exactly when no letter s is followed by a letter t < s that
    commutes with s and with every letter between them (Anisimov & Knuth
    1979), and reduced exactly when no letter s is followed by an s that
    commutes with every letter between them.  So for a normal form u, u t is
    one exactly when no letter s of u, all of whose successors in u commute
    with t, is t or a larger generator commuting with t.  Z(u) is that set of
    t: for the last letter of u t, the successors are none, which gives t
    and the s < t commuting with t; for a letter of u, its successors in u t
    are its successors in u and t, which keeps Z(u) & comm[t] (t itself is
    already in).  Every prefix of a normal form is one (those conditions
    only look inside the word), so each normal form of length k + 1 is the
    child u (t, c) of exactly one node u of level k.

    The order.  Children are emitted in increasing (t, c), parents in their
    level's order.  If level k is in increasing lexicographic order, so is
    level k + 1: two words of one length compare by their prefixes first,
    then by their last syllables.  Levels come in increasing length, so the
    walk is in (length, syllables) order and no sort is needed.

    A child is its parent's tuple plus one shared (t, c) pair; the last
    level is not kept as a frontier.
    """
    letters = [[(t, c) for c in range(1, qt)] for t, qt in enumerate(q)]
    yield ()
    level = [((), 0)]
    for left in reversed(range(radius)):   # levels left after this one
        frontier = []
        for u, z in level:
            for t, syllables in enumerate(letters):
                if not z >> t & 1:
                    zt = 1 << t | comm[t] & ((1 << t) - 1 | z)
                    for x in syllables:
                        w = u + (x,)
                        yield w
                        if left:
                            frontier.append((w, zt))
        level = frontier


def shortlex_sphere_sizes(comm: Sequence[int], q: Sequence[int], radius: int, guard: int | None,
                          what: str) -> list[int]:
    """The number of normal forms of each length k <= radius that shortlex_walk
    lists, counted level by level over its automaton's states, with no word built.

    Each normal form of length k + 1 is the child u (t, c) of exactly one
    node u of level k, and its state depends on Z(u) and t alone (see
    shortlex_walk), so with N_k(Z) the number of level-k nodes in state Z,

        N_{k+1}(Z t) += N_k(Z) (q[t] - 1)   for each t not in Z,

    and the sphere of length k has sum_Z N_k(Z) words: O(radius x states)
    additions.  The list stops at the last nonempty sphere (every later
    one is empty too).  The guard is checked, as `what`, after each sphere
    of length >= 1 on the running total: the count stops at the first
    sphere that passes it and refuses with the exact total if that sphere
    is the last one asked for, and otherwise with the total so far, as
    `what (lower bound)`.  A radius-0 ball, the empty word alone, is never
    refused.
    """
    sizes = [1]
    total = 1
    level = {0: 1}
    for k in range(1, radius + 1):
        counts: dict[int, int] = {}
        for z, n in level.items():
            for t, qt in enumerate(q):
                if not z >> t & 1:
                    zt = 1 << t | comm[t] & ((1 << t) - 1 | z)
                    counts[zt] = counts.get(zt, 0) + n * (qt - 1)
        if not counts:
            break
        level = counts
        sizes.append(sum(counts.values()))
        total += sizes[-1]
        check_guard(total, guard, what if k == radius else f"{what} (lower bound)")
    return sizes


def enumerate_elements(system: RACoxeterSystem, max_length: int, guard: int | None = None) -> list[CoxElement]:
    """All elements of length <= max_length, each once, in ShortLex order:
    shortlex_walk with every factor Z/2, listed only after the guard is
    checked on shortlex_sphere_sizes, and only up to the last nonempty sphere."""
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    sizes = shortlex_sphere_sizes(system._comm, system._order, max_length, guard, "coxeter element enumeration")
    walk = shortlex_walk(system._comm, system._order, len(sizes) - 1)
    trusted = CoxElement._trusted
    return [trusted(system, tuple([s for s, _ in syllables])) for syllables in walk]


def is_spherical(system: RACoxeterSystem, subset: Iterable[str]) -> bool:
    """A subset J is spherical iff W_J is finite; right-angled: iff J pairwise commutes."""
    idx = [system.index_of(s) for s in subset]
    return all(system.commutes(i, j) for a, i in enumerate(idx) for j in idx[a + 1:])


def is_irreducible(system: RACoxeterSystem) -> bool:
    """Connectivity of the graph on S whose edges are the non-commuting pairs."""
    n = system.rank
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and j not in seen and not system.commutes(i, j):
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def wall_distance(w: CoxElement, s: str) -> int:
    """Distance from the chamber w to the wall of s, via (l(w^-1 s w) - 1)/2.

    The conjugate of a generator is a reflection and reflections have odd
    length; asserted because every caller relies on it.
    """
    system = w.system
    si = system.index_of(s)
    conj = _times(system, (), w.word[::-1] + (si,) + w.word)
    if len(conj.word) % 2 == 0:
        raise AssertionError(f"conjugate of a generator has even length: {conj}")
    return (len(conj.word) - 1) // 2


def profile_bounded_set(system: RACoxeterSystem, max_length: int, bound: int,
                        guard: int | None = None) -> list[CoxElement]:
    """Elements w with l(w) <= max_length whose conjugates w^-1 s w all have length <= bound."""
    return [w for w in enumerate_elements(system, max_length, guard=guard)
            if all(2 * wall_distance(w, s) + 1 <= bound for s in system.generators)]


def root_contains(s: str, w: CoxElement) -> bool:
    """Whether w lies in the root alpha_s, i.e. on the identity side of the wall of s.

    That is l(sw) > l(w): s is not a left descent of w.
    """
    system = w.system
    return initial_position(system._comm, w.word, 1 << system.index_of(s)) is None


def dist_to_root(w: CoxElement, s: str) -> int:
    """Gallery distance from chamber w to the root alpha_s, read off the normal form.

    It is 0 when w lies in alpha_s, and otherwise wall_distance(w, s) + 1 =
    (l(w^-1 s w) + 1)/2.  Chambers are elements, d(u, v) = l(u^-1 v), and
    left multiplication by s is the reflection in the wall of s, so it is an
    isometry that swaps the two sides, and d(w, sw) = l(w^-1 s w) = 2k + 1.
    Every gallery from w into alpha_s crosses the wall, from some x to sx;
    then 2k + 1 = d(w, sw) <= d(w, x) + 1 + d(sx, sw) = 2 d(w, x) + 1, so
    it has at least k + 1 steps.  A minimal gallery from w to sw crosses no
    wall twice, so it crosses this one once, from some x to sx, and d(sx, sw) = d(x, w) puts that
    crossing at its middle step: its first k + 1 steps reach alpha_s.
    """
    if root_contains(s, w):
        return 0
    return wall_distance(w, s) + 1


@dataclass(frozen=True)
class GrowthChain:
    """Output of root_growth_search: a generator and elements whose translated roots recede."""

    generator: str
    chain: tuple[CoxElement, ...]
    distances: tuple[int, ...]  # d(C, w_k(alpha_s)) = (l(w_k s w_k^-1) + 1)/2, strictly increasing


def root_growth_search(elements: Sequence[CoxElement]) -> GrowthChain:
    """Find a generator s and a subfamily along which d(C, w(alpha_s)) grows.

    For each s, candidates are the w whose inverse lies in -alpha_s; their
    distances d(C, w(alpha_s)) = dist_to_root(w^-1, s) are collected and the
    longest strictly-increasing chain (one element per distinct distance,
    ties broken ShortLex) is formed.  The s with the longest chain wins,
    ties broken by generator order.  Fails if no chain has length >= 2.
    """
    if not elements:
        raise ValueError("no elements supplied")
    system = elements[0].system
    if not is_irreducible(system):
        raise ValueError("system must be irreducible")
    if is_spherical(system, system.generators):
        raise ValueError("system must be non-spherical")
    if len({w.word for w in elements}) != len(elements):
        raise ValueError("elements must be distinct")

    best: GrowthChain | None = None
    inverses = [(w, invert(w)) for w in elements]
    for s in system.generators:
        by_dist: dict[int, CoxElement] = {}
        for w, w_inv in inverses:
            if root_contains(s, w_inv):
                continue  # need w^-1 in -alpha_s
            d = wall_distance(w_inv, s) + 1   # dist_to_root, as w^-1 lies outside alpha_s
            if d not in by_dist or w.word < by_dist[d].word:
                by_dist[d] = w
        if len(by_dist) < 2:
            continue
        dists = tuple(sorted(by_dist))
        chain = GrowthChain(s, tuple(by_dist[d] for d in dists), dists)
        if best is None or len(chain.chain) > len(best.chain):
            best = chain
    if best is None:
        raise ValueError("no growing chain found within the supplied elements")
    return best


def word_from_names(system: RACoxeterSystem, text: str | Sequence[str]) -> CoxElement:
    """Parse a word given as space-separated names or a sequence of names."""
    parts = text.split() if isinstance(text, str) else list(text)
    return normal_form(system, parts)
