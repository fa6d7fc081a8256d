"""Universal groups on regular trees via legal edge colorings.

Vertices of the degree-d tree are addressed by reduced color words: tuples
over {1..d} with no two consecutive letters equal, the empty word being the
base vertex, listed by reduced_words in length-lexicographic order.  The
edge {u, u.c} carries color c at both ends (_edge_color), which is a legal
coloring (colors around every vertex are pairwise distinct).

An automorphism is determined by the image of the base vertex together with
its local action (a color permutation) at every vertex.  The Portrait class
stores finitely many local actions explicitly and extends canonically: at an
unstored vertex the local action is the identity when that is consistent,
and otherwise the unique transposition forced by the parent edge, which
image_word applies letter by letter.  Portraits with empty tables are
exactly the left translations by reduced words.

Portrait is the one exact automorphism type, and its letter-by-letter walk
the one evaluator: image_word, local_action and compose read the state it
ends in.  Inverses and products are again portraits, in closed form: the
product g h acts at w by sigma_g(h(w)) sigma_h(w), and its table needs only
the vertices near the two tables and near the geodesic to h^-1(base)
(Portrait.compose proves which).  So group arithmetic is exact at
any depth, with no lazy composite and no batch evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .errors import CertificationError, check_guard, check_power_guard
from .tree_core import build_regular_ball, half_tree_vertices, HalfTreeRef, layers
from .tree_aut import PARTIAL, FiniteTreeAutomorphism, PartialMap

Word = tuple[int, ...]
Perm = tuple[int, ...]  # perm[i] is the image of color i+1


# ---------------------------------------------------------------------------
# words and color permutations

def is_reduced_word(word: Word, degree: int) -> bool:
    return all(1 <= c <= degree for c in word) and \
        all(a != b for a, b in zip(word, word[1:]))


def word_append(word: Word, color: int) -> Word:
    """Step to the neighbor across the `color` edge (append with cancellation)."""
    if word and word[-1] == color:
        return word[:-1]
    return word + (color,)


def word_mul(u: Word, v: Word) -> Word:
    out = u
    for c in v:
        out = word_append(out, c)
    return out


def word_inv(u: Word) -> Word:
    return u[::-1]


def reduced_words(degree: int, length: int) -> list[Word]:
    """Every reduced word of length <= `length`, in length-lexicographic (BFS) order."""
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(length):
        frontier = [w + (c,) for w in frontier for c in range(1, degree + 1) if not w or w[-1] != c]
        out.extend(frontier)
    return out


def _edge_color(u: Word, v: Word) -> int:
    """Color of the edge between the adjacent addresses u and v: the last letter of the farther one."""
    return v[-1] if len(v) > len(u) else u[-1]


def word_distance(u: Word, v: Word) -> int:
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return len(u) + len(v) - 2 * k


def perm_identity(d: int) -> Perm:
    return tuple(range(1, d + 1))


def perm_mul(a: Perm, b: Perm) -> Perm:
    """a after b, in one C-level pass: b's images index a shifted by one."""
    return tuple(map((0, *a).__getitem__, b))


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v - 1] = i + 1
    return tuple(out)


def perm_transposition(d: int, a: int, b: int) -> Perm:
    out = list(range(1, d + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


def is_perm(t: tuple[int, ...], d: int) -> bool:
    return len(t) == d and sorted(t) == list(range(1, d + 1))


# ---------------------------------------------------------------------------
# colored balls: TreeBall plus the id <-> word dictionary

class ColorBall:
    """A regular TreeBall together with the canonical legal coloring.

    Vertex v has the address word_of[v], the v-th reduced word in
    length-lexicographic order, which is build_regular_ball's BFS order:
    root children get colors 1..d in child order, and elsewhere the children
    get the colors other than the parent edge's in ascending order.

    colour[v] is the last letter of v's address (0 at the base), the colour
    of v's parent edge, and step[v][t] is the child of v across the colour-t
    edge, or -1 when there is none in the ball (t = 0, t = colour[v], or v a
    leaf): the vertex one step from v away from the base, read by id.
    """

    def __init__(self, degree: int, radius: int):
        self.degree = degree
        self.ball = ball = build_regular_ball(degree, radius)
        self.word_of: tuple[Word, ...] = tuple(reduced_words(degree, radius))
        self.id_of: dict[Word, int] = {w: v for v, w in enumerate(self.word_of)}
        self.colour: tuple[int, ...] = (0, *(w[-1] for w in self.word_of[1:]))
        # the children come in ascending colour order, skipping the parent edge's
        leaf = (-1,) * (degree + 1)
        self.step: tuple[tuple[int, ...], ...] = ((-1, *ball.children[0]) if radius else leaf, *(
            (-1, *kids[:c - 1], -1, *kids[c - 1:]) if kids else leaf
            for kids, c in zip(ball.children[1:], self.colour[1:])))

    @property
    def radius(self) -> int:
        return self.ball.radius

    def edge_color(self, u: int, v: int) -> int:
        if not self.ball.has_edge(u, v):
            raise ValueError(f"not an edge: ({u},{v})")
        return _edge_color(self.word_of[u], self.word_of[v])

    def to_json(self) -> dict:
        """The legal coloring in spec form: the ball plus (u, v, color) per edge."""
        edges = sorted([min(u, v), max(u, v), self.edge_color(u, v)] for u, v in self.ball.edges())
        return {"ball": self.ball.to_json(), "degree": self.degree, "colors": edges}


# ---------------------------------------------------------------------------
# exact automorphisms

def _ball_images(world: ColorBall, base_word: Word, acts: dict[Word, Perm]) -> list[int]:
    """The ball images of Portrait(world, base_word, acts), a consistent and
    stripped table, in one BFS pass over ball ids (-1 outside the ball), as
    a list (map calls a list's __getitem__ faster than a tuple's): a child's
    image is its parent's image stepped across the color the parent's local
    action sends the child's edge to.

    At an unstored vertex v that color is Portrait._walk's canonical rule,
    inlined: the child's color c (never colour[v]) goes to colour[v] when c
    is the color `sent` that v's parent edge went to, and to c otherwise (at
    the base nothing is sent, so every c stays).  Stepping from an image y
    across t goes to y's parent when t is y's last colour, and otherwise to
    the child world.step[y][t].  An image outside the ball gets a virtual id
    past the ball's, with its parent and last colour recorded, so a walk
    that leaves the ball can step back into it; g(base) is reached that way
    from the base, one letter of base_word at a time.  The images of the
    ball are the ball around g(base), each reached once, from the neighbour
    nearer g(base); a vertex on the geodesic from the base to g(base) is
    reached from its child on that geodesic, through the recorded parent.
    So each vertex of the infinite tree gets one id.
    """
    ball, colour, step, id_of = world.ball, world.colour, world.step, world.id_of
    n = ball.vertex_count
    par, col = list(ball.parent), list(colour)      # grown by the virtual ids
    y = 0
    for t in base_word:         # a reduced word: each letter steps away from the base
        z = step[y][t] if y < n else -1
        if z < 0:
            z = len(par)
            par.append(y)
            col.append(t)
        y = z
    by_id = {id_of[w]: sigma for w, sigma in acts.items() if w in id_of}
    images = [y] * n
    sent = [0] * n
    for v, kids in enumerate(ball.children):
        if not kids:
            continue
        y, s, last = images[v], sent[v], colour[v]
        back, up, row = col[y], par[y], step[y] if y < n else None
        sigma = by_id.get(v)
        for x in kids:
            c = colour[x]
            t = sent[x] = sigma[c - 1] if sigma is not None else (last if c == s else c)
            if t == back:
                images[x] = up
            else:
                z = row[t] if row is not None else -1
                if z < 0:
                    z = len(par)
                    par.append(y)
                    col.append(t)
                images[x] = z
    if len(par) > n:
        images = list(map([*range(n), *repeat(-1, len(par) - n)].__getitem__, images))
    return images


def _prefixes(words) -> set[Word]:
    return {w[:i] for w in words for i in range(len(w) + 1)}


class Portrait:
    """Exact automorphism from a base image plus finitely many local actions.

    acts maps vertex addresses to full color permutations; missing vertices
    take the canonical extension (identity when consistent, else the forced
    transposition), and only entries that differ from it are kept.  An empty
    table is the left translation by base_word.  Portraits are the exact
    evaluators of tree_aut portraits: address reads the image of a ball
    vertex on the infinite tree, and restrict all of them in one pass.
    """

    def __init__(self, world: ColorBall, base_word: Word = (), acts: dict[Word, Perm] | None = None):
        d, base_word, acts = world.degree, tuple(base_word), acts or {}
        if not is_reduced_word(base_word, d):
            raise ValueError(f"base image is not a reduced color word: {base_word}")
        for w, sigma in acts.items():
            if not is_reduced_word(tuple(w), d):
                raise ValueError(f"support vertex is not a reduced color word: {w}")
            if not is_perm(sigma, d):
                raise ValueError(f"not a permutation of 1..{d}: {sigma}")
        self._settle(world, base_word, acts)

    @classmethod
    def _trusted(cls, world: ColorBall, base_word: Word, acts: dict[Word, Perm]) -> "Portrait":
        """A product built in this package, of reduced words and permutations
        by construction: only the parent edges are checked."""
        g = cls.__new__(cls)
        g._settle(world, base_word, acts)
        return g

    @classmethod
    def _stripped(cls, world: ColorBall, base_word: Word, acts: dict[Word, Perm]) -> "Portrait":
        """A portrait whose table is already consistent and stripped, kept as
        given (and possibly shared): enumerate_u1_ball's tables."""
        g = cls.__new__(cls)
        g.world, g.base_word, g._acts = world, base_word, acts
        return g

    def _settle(self, world: ColorBall, base_word: Word, acts: dict[Word, Perm]) -> None:
        """Keep each entry that differs from its canonical action, after checking
        that they agree on the parent colour.  `full` memoizes the action at
        every prefix of an entry: the entry, or the transposition of w[-1]
        with the colour the action at w[:-1] sends w[-1] to."""
        self.world, self.base_word, self._acts = world, base_word, {}
        d = world.degree
        full: dict[Word, Perm] = {(): acts.get((), perm_identity(d))}
        for w, sigma in acts.items():
            k = len(w)
            while w[:k] not in full:
                k -= 1
            for u in (w[:i] for i in range(k + 1, len(w))):
                full[u] = acts.get(u) or perm_transposition(d, u[-1], full[u[:-1]][u[-1] - 1])
            canonical = perm_transposition(d, w[-1], full[w[:-1]][w[-1] - 1]) if w else perm_identity(d)
            if w and sigma[w[-1] - 1] != canonical[w[-1] - 1]:
                raise ValueError(f"local action at {w} maps parent color {w[-1]} to "
                                 f"{sigma[w[-1] - 1]}, but the parent edge forces {canonical[w[-1] - 1]}")
            if sigma != canonical:
                self._acts[w] = sigma

    def _action(self, w: Word, sent: int) -> Perm:
        """The action at w when g sends w's parent edge to the color `sent`."""
        sigma = self._acts.get(w)
        if sigma is None:
            d = self.world.degree
            sigma = perm_transposition(d, w[-1], sent) if w else perm_identity(d)
        return sigma

    def _walk(self, u: Word) -> tuple[Word, int]:
        """g(u) and the color g sends u's parent edge to (0 at the base), one
        letter at a time; the stored table is consistent, so an unstored
        vertex's canonical action is applied without being built: it swaps
        the vertex's last letter with that letter's image."""
        acts = self._acts
        img = self.base_word
        sigma = acts.get(())
        prefix: Word = ()
        last = incoming = 0
        for c in u:
            if sigma is not None:
                t = sigma[c - 1]
            else:
                t = last if c == incoming else c
            img = word_append(img, t)
            prefix += (c,)
            sigma = acts.get(prefix)
            last, incoming = c, t
        return img, incoming

    def image_word(self, u: Word) -> Word:
        return self._walk(u)[0]

    def local_action(self, w: Word) -> Perm:
        """The stored action at w, else the canonical one: the identity at the
        base, and elsewhere the transposition of w[-1] with the color g sends
        w's parent edge to (the identity when that is w[-1] itself)."""
        return self._action(w, self._walk(w)[1])

    def address(self, v: int) -> Word:
        """Address of the image of ball vertex v, possibly outside the ball."""
        return self.image_word(self.world.word_of[v])

    def restrict(self) -> FiniteTreeAutomorphism:
        """Ball portrait in one BFS pass over the world ball (images outside it
        become -1), carried by ball ids: _ball_images."""
        images = _ball_images(self.world, self.base_word, self._acts)
        return FiniteTreeAutomorphism(self.world.ball, tuple(images), self)

    def _pullback_path(self, target: Word = ()) -> list[Word]:
        """The geodesic from the base to g^-1(target): g's geodesic from g(base)
        to target, pulled back one colour at a time (g sends the edge of colour
        e at u to the edge of colour sigma_g(u)(e) at g(u))."""
        img = self.base_word
        k = (len(img) + len(target) - word_distance(img, target)) // 2   # common prefix
        u: Word = ()
        path = [u]
        for c in (*reversed(img[k:]), *target[k:]):
            u = word_append(u, perm_inv(self.local_action(u))[c - 1])
            path.append(u)
        return path

    def preimage_word(self, w: Word) -> Word:
        """g^-1(w), with no inverse built."""
        return self._pullback_path(w)[-1]

    def moved_roots(self) -> list[Word]:
        """The vertices m such that g moves exactly the subtrees below them
        (every word with prefix m), for g fixing the base.

        g fixes the base and is an isometry, so it preserves depth and sends
        each vertex's parent to its image's parent: a vertex whose parent
        moves moves too.  So the moved vertices are the subtrees below the
        moved vertices m = p.c whose parent p is fixed.  g sends the edge
        {p, p.c} to the edge of colour sigma_g(p)(c) at g(p) = p, so p.c moves
        exactly when sigma_g(p)(c) != c.  At a fixed unstored p that action is
        the canonical one: the identity at the base, and elsewhere the
        transposition of p[-1] with the colour g sends p's parent edge to,
        which is p[-1] since g fixes p and its parent: the identity again.
        So m = p.c for the stored p that g fixes and the c their action moves.
        """
        if self.base_word:
            raise ValueError(f"moved roots need a base-fixing portrait, not one sending the base to {self.base_word}")
        d = self.world.degree
        return [p + (c,) for p, sigma in self._acts.items() if self.image_word(p) == p
                for c in range(1, d + 1) if sigma[c - 1] != c]

    def inverse(self) -> "Portrait":
        """g^-1 in closed form: the base goes to g^-1(base), and g(w) gets sigma(w)^-1.

        Wherever g maps the parent edge of u onto the parent edge of g(u), that
        is at every u off the geodesic from the base to g^-1(base), g^-1 is
        canonical at g(u) exactly when g is canonical at u.  So only g's
        stored vertices and the prefixes of g^-1(base) need an entry;
        _trusted strips whatever is canonical.
        """
        path = self._pullback_path()
        acts = {self.image_word(w): perm_inv(self.local_action(w)) for w in (*self._acts, *path)}
        return Portrait._trusted(self.world, path[-1], acts)

    def compose(self, other: "Portrait | PartialMap") -> "Portrait | PartialMap":
        """g h for g = self and h = other, as one Portrait; PARTIAL when h knows
        only its ball portrait, since then no word has a known image.

        p = g h sends the base to g(h(base)) and acts at w by
        sigma_p(w) = sigma_g(h(w)) sigma_h(w).  A walk from the base gives every
        vertex it reaches that entry, and descends into the children of w
        only when w is a prefix of a stored vertex of h or of h^-1(base), or
        h(w) is a prefix of a stored vertex of g.  _trusted strips the
        canonical entries.

        Every vertex the walk misses is canonical for p.  The walk reaches
        every child of a vertex it descends into, so a missed vertex lies
        below a reached x where the walk stops, and x is not the base, a
        prefix of h^-1(base).  At x and at every u below it, u is off the
        geodesic from the base to h^-1(base), so h maps u's parent edge onto
        h(u)'s parent edge, and h is canonical at u; so h(u) lies below h(x),
        and g is canonical at h(u).  With a = u[-1], b = h(u)[-1] and c the
        colour g sends h(u)'s parent edge to, sigma_h(u) = (a b) and
        sigma_g(h(u)) = (b c).  Their product (b c)(a b) sends a to c, the
        colour p sends u's parent edge to, so it is canonical for p unless
        a, b, c are pairwise distinct (then it is a 3-cycle).  At a child u.e
        (e != a) the three colours are e, f = (a b)(e) and (b c)(f).  If
        e != b then f = e.  If e = b then f = a, and (b c)(a) is b = e when
        a = c, and a = f otherwise.  So every vertex below x is canonical for
        p.  Where g sends h(u)'s parent edge plays no part, so g^-1(base)
        needs no descent.
        """
        if other is PARTIAL:
            return PARTIAL
        g, h = self, other
        h_prefixes = _prefixes((*h._acts, h.preimage_word(())))
        g_prefixes = _prefixes(g._acts)
        d = g.world.degree
        acts: dict[Word, Perm] = {}
        pending: list[Word] = [()]
        while pending:
            w = pending.pop()
            hw, h_sent = h._walk(w)
            acts[w] = perm_mul(g.local_action(hw), h._action(w, h_sent))
            if w in h_prefixes or hw in g_prefixes:
                pending.extend(w + (c,) for c in range(1, d + 1) if not w or c != w[-1])
        return Portrait._trusted(g.world, g.image_word(h.base_word), acts)

    def canonical_key(self) -> tuple:
        return (self.base_word, tuple(sorted(self._acts.items())))

    def __eq__(self, other):
        return isinstance(other, Portrait) and self.world is other.world \
            and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())


def translation(world: ColorBall, word: Word) -> Portrait:
    return Portrait(world, word, {})


def identity_aut(world: ColorBall) -> Portrait:
    return Portrait(world, (), {})


# ---------------------------------------------------------------------------
# local groups (finite permutation groups on colors)

def _orbit(point: int, gens) -> list[int]:
    """The orbit of `point` under <gens>, in the order a breadth-first search reaches it."""
    orbit, seen = [point], {point}
    for x in orbit:
        for g in gens:
            y = g[x - 1]
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def _sift(p: Perm, base, trans, start: int = 0) -> tuple[Perm, int]:
    """Strip p through the chain levels from `start` on: the residue, and the
    level whose transversal missed it (len(base) when it passed them all)."""
    for level in range(start, len(base)):
        u = trans[level].get(p[base[level] - 1])
        if u is None:
            return p, level
        p = perm_mul(u[1], p)
    return p, len(base)


def _schreier_sims(degree: int, generators, base=()) -> tuple[list[int], list[dict[int, tuple[Perm, Perm]]]]:
    """Base points and transversals of a stabilizer chain of <generators>.

    Deterministic Schreier-Sims (C. Sims 1970; Seress, Permutation Group
    Algorithms, CUP 2003, sec. 4.2): level i holds strong generators fixing
    base[:i], the orbit of base[i] under them, and for each orbit point x a
    transversal element u(x) sending base[i] to x, stored with its inverse.
    A generator that does not sift to the identity is kept on every level
    from the top one to the level whose transversal missed it, and each of
    those transversals is extended in place: old points keep their
    elements, new points get one from the point they were reached from.

    So the Schreier generator u(g x)^-1 g u(x) of a pair (x, g) at level i
    never changes, and each pair is sifted once, through the levels below i.
    A pair that sifts to the identity is a product of lower transversal
    elements, so it lies in <strong[i + 1]>, which only grows; one that does
    not leaves a residue h in the stabilizer of base[:i + 1], and once h is
    kept the pair is such a product again.  Each level checks its new pairs
    from the deepest level a generator joined up to level 0, and after a
    kept residue the check resumes at the deepest level that one joined.
    When every pair is checked, each level's stabilizer of its base point is
    generated by its Schreier generators (Schreier's lemma), all of which lie
    in the next level's group, so the chain is complete.  The chain's base
    begins with the points of `base`, in that order (a level may be trivial);
    further points are the first point a kept generator moves.
    """
    ident = perm_identity(degree)
    base = list(base)
    strong: list[list[Perm]] = [[] for _ in base]
    trans: list[dict[int, tuple[Perm, Perm]]] = [{b: (ident, ident)} for b in base]
    paired: list[list[int]] = [[0] for _ in base]   # the j-th orbit point is paired with strong[i][:paired[i][j]]

    def keep(h: Perm, top: int, level: int) -> None:
        # h fixes base[:level], so it is a strong generator on levels top..level
        if level == len(base):
            b = next(x for x in range(1, degree + 1) if h[x - 1] != x)
            base.append(b)
            strong.append([])
            trans.append({b: (ident, ident)})
            paired.append([0])
        for i in range(top, level + 1):
            gens, t = strong[i], trans[i]
            gens.append(h)
            orbit = list(t)     # in the order the points joined
            old = len(orbit)
            for j, x in enumerate(orbit):   # h on the old points, every generator on the new ones
                ux = t[x][0]
                for g in (gens if j >= old else (h,)):
                    y = g[x - 1]
                    if y not in t:
                        u = perm_mul(g, ux)
                        t[y] = (u, perm_inv(u))
                        orbit.append(y)
            paired[i] += [0] * (len(orbit) - old)

    def failing_pair(i: int) -> tuple[Perm, int] | None:
        gens, t, pairs = strong[i], trans[i], paired[i]
        for j, (x, (ux, _)) in enumerate(t.items()):
            for k in range(pairs[j], len(gens)):
                pairs[j] = k + 1
                g = gens[k]
                s = perm_mul(t[g[x - 1]][1], perm_mul(g, ux))
                if s != ident:
                    h, level = _sift(s, base, trans, i + 1)
                    if h != ident:
                        return h, level
        return None

    for g in generators:
        h, level = _sift(g, base, trans)
        if h == ident:
            continue
        keep(h, 0, level)
        i = level
        while i >= 0:
            failed = failing_pair(i)
            if failed is None:
                i -= 1
            else:
                keep(failed[0], i + 1, failed[1])
                i = failed[1]
    return base, trans


@dataclass(frozen=True)
class LocalGroup:
    """A subgroup of Sym(d) given by generators, acting on colors 1..d.

    A stabilizer chain (base points and transversals, each transversal
    element stored with its inverse for sifting) is built once, so the order
    and membership are known without listing the group.
    generate_plus_k uses the same chain for a group acting on the ids 1..n
    of a ball's vertices.
    """

    degree: int
    generators: tuple[Perm, ...]

    def __post_init__(self):
        for g in self.generators:
            if not is_perm(g, self.degree):
                raise ValueError(f"not a permutation of 1..{self.degree}: {g}")
        # Derived data, not fields, so equality, hashing and to_json are unchanged.
        base, transversals = _schreier_sims(self.degree, self.generators)
        object.__setattr__(self, "_base", tuple(base))
        object.__setattr__(self, "_transversals", tuple(transversals))

    @classmethod
    def create(cls, degree: int, generators) -> "LocalGroup":
        """The group from a degree and one-line permutations, shape-checked first:
        an integer degree and a list of integer lists (bools and floats refused).
        Callers holding tuples built in this module use the constructor."""
        if type(degree) is not int:
            raise ValueError(f"local group degree must be an integer, got {degree!r}")
        if not isinstance(generators, (list, tuple)) or not all(
                isinstance(g, (list, tuple)) and all(type(x) is int for x in g) for g in generators):
            raise ValueError(f"local group generators must be a list of integer lists, got {generators!r}")
        return cls(degree, tuple(tuple(g) for g in generators))

    @classmethod
    def symmetric(cls, degree: int) -> "LocalGroup":
        gens = [perm_transposition(degree, 1, 2)] if degree >= 2 else []
        if degree >= 3:
            gens.append(tuple(range(2, degree + 1)) + (1,))
        return cls.create(degree, gens)

    @classmethod
    def trivial(cls, degree: int) -> "LocalGroup":
        return cls.create(degree, [])

    def order(self) -> int:
        out = 1
        for trans in self._transversals:
            out *= len(trans)
        return out

    def __contains__(self, p) -> bool:
        """Membership by sifting p through the stabilizer chain."""
        return is_perm(p, self.degree) and \
            _sift(p, self._base, self._transversals)[0] == perm_identity(self.degree)

    def least_fixing(self, point: int) -> Perm | None:
        """The lexicographically least non-identity element of <F> fixing
        `point`, or None when only the identity fixes it; <F> is not listed.

        Below its first level, a chain of <F> with base (point, 1, ..., d) is
        a chain of Stab(point) with base 1, ..., d (point skipped).  An element
        of Stab(point) fixing every colour below j and moving j sends j to a
        larger colour, so the least non-identity one moves its first colour
        as late as any does: it lies in the deepest nontrivial level, all of
        whose non-identity elements move that level's base point b.  The
        level below is trivial, so exactly one element sends b to each point
        of its basic orbit: the transversal element of the least point other
        than b.
        """
        d = self.degree
        base, trans = _schreier_sims(d, self.generators, [point, *(x for x in range(1, d + 1) if x != point)])
        for b, level in zip(reversed(base[1:]), reversed(trans[1:])):
            if len(level) > 1:
                return level[min(y for y in level if y != b)][0]
        return None

    def closure(self) -> frozenset[Perm]:
        """Every element, once (_chain_elements)."""
        return frozenset(_chain_elements(self._transversals, self.degree))

    def to_json(self) -> dict:
        return {"degree": self.degree, "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, data: dict) -> "LocalGroup":
        if not isinstance(data, dict) or not {"degree", "generators"} <= data.keys():
            raise ValueError("local group must be an object with 'degree' and 'generators'")
        return cls.create(data["degree"], data["generators"])


def _stabilizer_chain(F: LocalGroup, point: int) -> list[dict[int, tuple[Perm, Perm]]]:
    """The transversals of a chain of the stabilizer of `point` in <F>: below its
    first level, a chain of <F> with base point `point` is a chain of that
    stabilizer.  F's own chain is read when its base begins at `point`."""
    if F._base[:1] == (point,):
        return list(F._transversals[1:])
    return _schreier_sims(F.degree, F.generators, [point])[1][1:]


def _chain_elements(transversals, degree: int) -> list[Perm]:
    """Every element of a chain's group, once: the products u_0 u_1 ... of one transversal element per level."""
    out = [perm_identity(degree)]
    for trans in reversed(transversals):
        out = [perm_mul(u, p) for u, _ in trans.values() for p in out]
    return out


def _stabilizer_generators(F: LocalGroup, point: int) -> set[Perm]:
    """Generators of the stabilizer of `point` in <F>: its chain's transversal elements."""
    return {u for level in _stabilizer_chain(F, point) for u, _ in level.values()}


def _block_system(pairs, gens, degree: int) -> tuple[int, ...]:
    """The finest block system of <gens> in which the two points of each pair
    share a block, as each point's block number (1, 2, ... in order of first
    points).

    Atkinson's algorithm (M. D. Atkinson 1975; Seress, sec. 5.5): a union-find
    merges the points, and for each merge of two classes, recorded by their
    representatives a and b, every generator's images of a and b are merged.
    The recorded pairs span each class, so the classes end closed under
    every generator, and nothing is merged that a block system must not.
    """
    parent = list(range(degree + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    merged = list(pairs)
    for a, b in merged:
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
            merged += ((g[a - 1], g[b - 1]) for g in gens)
    number: dict[int, int] = {}
    return tuple(number.setdefault(find(x), len(number) + 1) for x in range(1, degree + 1))


def _maximal_block_systems(gens, degree: int, calls: int) -> list[tuple[int, ...]] | None:
    """The block systems of a transitive <gens> with more than one block and
    no coarser one of that kind, or None when finding them takes more than
    `calls` calls of _block_system.

    Every block containing 1 is the join of the minimal blocks of {1, x} inside
    it, so a walk from the minimal blocks, joining one more at a time, meets
    every proper one; it is maximal when each such join is the whole set.
    A proper block always leaves some minimal block out, so each block the
    walk reads costs at least one call.
    """
    if calls < degree - 1:
        return None
    joins = calls - (degree - 1)
    whole = (1,) * degree
    minimal = {_block_system([(1, x)], gens, degree) for x in range(2, degree + 1)} - {whole}
    seen, pending, out = set(minimal), list(minimal), []
    for blocks in pending:
        maximal = True
        for m in minimal:
            if all(b == 1 for b, c in zip(blocks, m) if c == 1):
                continue
            joins -= 1
            if joins < 0:
                return None
            joined = _block_system([(1, x) for x, (b, c) in enumerate(zip(blocks, m), 1) if b == 1 or c == 1],
                                   gens, degree)
            if joined != whole:
                maximal = False
                if joined not in seen:
                    seen.add(joined)
                    pending.append(joined)
        if maximal:
            out.append(blocks)
    return out


def is_semiprimitive(F: LocalGroup, guard: int | None = None) -> bool:
    """Transitive, and every normal subgroup is transitive or semiregular
    (no non-identity element fixes a point); neither normal subgroups nor
    <F> are listed.

    Lemma: a transitive F is semiprimitive exactly when, for every block
    system B with more than one block, the kernel K_B of F on B is
    semiregular.  Proof: the orbits of a normal N form a block system, and N
    fixes each of its orbits, so an intransitive N lies in some K_B with
    more than one block, and a subgroup of a semiregular group is
    semiregular.  Conversely each such K_B is normal and, fixing every
    block, intransitive.  K_B only grows as B coarsens, so the maximal such
    B decide it.

    K_B is normal in a transitive group, so its point stabilizers are
    conjugate, and it is semiregular exactly when its stabilizer of 1, the
    kernel of F_1 on B, is trivial: when F_1 acts faithfully on the blocks,
    |F_1^B| = |F_1| = |F|/d.  A regular F (F_1 trivial) is semiprimitive.

    A group can have far more block systems than |F_1| has elements (a
    regular elementary abelian group has one per proper subspace), so the
    walk for the maximal ones gets |F_1| calls of _block_system.  Past
    that, or when the minimal blocks alone would cost more, F_1 is listed
    instead, under the guard on |F|: F is semiprimitive exactly when the
    normal closure of each non-identity h in F_1 is transitive, and the
    orbits of that closure are the finest block system with x and h(x) in
    one block for every x (every point-fixing element is conjugate into
    F_1, and a normal subgroup holding h holds that closure).
    """
    check_guard(F.order(), guard, "local group closure")
    d, gens, order = F.degree, F.generators, F.order()
    if len(_orbit(1, gens)) < d:
        return False
    if order == d:
        return True
    stabilizer = _stabilizer_chain(F, 1)
    systems = _maximal_block_systems(gens, d, order // d)
    if systems is None:
        ident = perm_identity(d)
        return all(h == ident or _block_system(zip(range(1, d + 1), h), gens, d) == (1,) * d
                   for h in _chain_elements(stabilizer, d))
    stabilizer_gens = {u for level in stabilizer for u, _ in level.values()}
    for blocks in systems:
        firsts = [blocks.index(k) + 1 for k in range(1, max(blocks) + 1)]
        on_blocks = {tuple(blocks[h[x - 1] - 1] for x in firsts) for h in stabilizer_gens}
        if LocalGroup(len(firsts), tuple(sorted(on_blocks))).order() != order // d:
            return False
    return True


def is_generated_by_point_stabilizers(F: LocalGroup, guard: int | None = None) -> bool:
    """Whether the stabilizers of the points 1..d generate <F>; <F> is not listed."""
    check_guard(F.order(), guard, "local group closure")
    d = F.degree
    gens = set().union(*(_stabilizer_generators(F, x) for x in range(1, d + 1)))
    return LocalGroup(d, tuple(sorted(gens))).order() == F.order()


# ---------------------------------------------------------------------------
# local actions and U1 membership on balls

def image_address(g: FiniteTreeAutomorphism, world: ColorBall, v: int) -> Word | None:
    """Address of g(v): from the portrait inside the ball, from the evaluator beyond it."""
    img = g.images[v]
    return world.word_of[img] if img >= 0 else g.exact.address(v)


def _determined_local_action(g: FiniteTreeAutomorphism, v: int, world: ColorBall) -> Perm | None:
    """The local action at an interior v when g's images of v and its neighbors are known."""
    ball = g.ball
    img = image_address(g, world, v)
    if img is None or not ball.is_interior(v):
        return None
    out = [0] * world.degree
    for nbr in ball.neighbors(v):
        img_nbr = image_address(g, world, nbr)
        if img_nbr is None:
            return None
        out[_edge_color(world.word_of[v], world.word_of[nbr]) - 1] = _edge_color(img, img_nbr)
    if not is_perm(tuple(out), world.degree):
        raise ValueError(f"map at vertex {v} does not induce a color permutation")
    return tuple(out)


def local_action(g: FiniteTreeAutomorphism, v: int, world: ColorBall) -> Perm:
    """The color permutation induced by g at the interior vertex v."""
    sigma = _determined_local_action(g, v, world)
    if sigma is None:
        raise CertificationError(f"local action at vertex {v} is not determined by the ball")
    return sigma


def membership_u1(g: FiniteTreeAutomorphism, F: LocalGroup, world: ColorBall) -> bool:
    """Whether every certified local action of g lies in the group generated by F."""
    for v in g.ball.vertices():
        sigma = _determined_local_action(g, v, world)
        if sigma is not None and sigma not in F:
            return False
    return True


# ---------------------------------------------------------------------------
# group balls

class GroupBall:
    """A finite chunk of a tree group: explicit elements on a common world ball.

    closed means closed under ball-level composition (restriction keys).
    When the ball came from a U1 construction it remembers the local group
    and coloring, which lets membership and witness searches work
    constructively instead of by scanning.
    """

    def __init__(self, world: ColorBall, elements, closed: bool = False,
                 local_group: LocalGroup | None = None):
        self.world = world
        self.ball = world.ball
        self.elements: tuple[FiniteTreeAutomorphism, ...] = tuple(elements)
        self.closed = closed
        self.local_group = local_group
        self._keys: frozenset | None = None
        for el in self.elements:
            if el.ball is not self.ball and el.ball != self.ball:
                raise ValueError("element lives on a different ball")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def key_set(self) -> frozenset:
        if self._keys is None:
            self._keys = frozenset(el.key() for el in self.elements)
        return self._keys


def _stabilizer_count_factors(F: LocalGroup, radius: int) -> tuple[int, int, int]:
    """(c, b, e) with stabilizer_ball_count(F, radius) = c * b**e."""
    if radius < 1:
        return 1, 1, 0
    order, d = F.order(), F.degree
    stabilizers = math.prod(order // len(_orbit(c, F.generators)) for c in range(1, d + 1))
    return order, stabilizers, sum((d - 1) ** (n - 1) for n in range(1, radius))


def stabilizer_ball_count(F: LocalGroup, radius: int) -> int:
    """Exact number of base-fixing portraits of depth `radius` with local actions in <F>.

    The base takes any of |<F>| local actions; at a non-base vertex w of depth
    < radius the action must send the parent color w[-1] to a color already
    fixed by the parent, which lies in the orbit of w[-1], so
    |Stab(w[-1])| = |<F>| / |orbit of w[-1]| actions remain.  Each color c
    ends (d-1)^(n-1) reduced words of length n, so the count is
    |<F>| * prod_c |Stab(c)|^(sum_{n=1}^{radius-1} (d-1)^(n-1)), and 1 at
    radius 0, with no ball built.
    """
    c, b, e = _stabilizer_count_factors(F, radius)
    return c * b**e


def check_u1_guard(F: LocalGroup, radius: int, guard: int | None, move_radius: int = 0) -> None:
    """Refuse on the exact count, with no ball built: the tables of depth
    `radius`, then one portrait per table and base address of length <=
    `move_radius` (the U1 ball of enumerate_u1_ball)."""
    c, b, e = _stabilizer_count_factors(F, radius)
    check_power_guard(c, b, e, guard, "U1 stabilizer ball enumeration")
    d = F.degree
    addresses = 1 + sum(d * (d - 1) ** (n - 1) for n in range(1, move_radius + 1))
    check_power_guard(addresses * c, b, e, guard, "U1 ball enumeration")


def _stabilizer_walk(F: LocalGroup, world: ColorBall,
                     radius: int) -> list[tuple[tuple[int, ...], dict[Word, Perm]]]:
    """The base-fixing portraits of depth `radius` with actions in <F>, each
    as its ball images and its stripped table, in the order of the tables.

    A depth-first search assigns an action to each inner vertex (depth <
    radius) in BFS order.  It carries, per vertex v with last colour c:
    sent[v], the colour the parent's action sends v's edge to; img[v], the
    ball id of v's image; and v's stripped entry.  v takes the actions of
    sending[(c, sent[v])] in group order, and assigning v sets only its
    children's sent and img, so every prefix of assignments is shared by
    the tables that extend it.  At the last inner vertex the canonical
    extension fills the deeper images, and the table is emitted.

    The stripped entries are Portrait._settle's.  It keeps an entry that
    differs from the transposition (c t), t the colour the full action at
    the parent sends c to, and from the identity at the base.  Every inner
    vertex's parent is inner, so that full action is the parent's entry,
    and t is sent[v].  Each candidate sends c to sent[v], which is
    _settle's parent-edge check, made once per key of `sending`.

    img never leaves the ball: the base-fixing part preserves depth.  Every
    action at v, a candidate or the canonical (c sent[v]), sends c to
    sent[v], the last colour of v's image, so a child's colour (not c) goes
    to some t != sent[v], and the child's image is img[v] one letter
    longer: step[img[v]][t], a child of img[v] in the ball.
    """
    ball = world.ball
    word_of, parent, children = world.word_of, ball.parent, ball.children
    n = len(word_of)
    if radius == 0:
        return [(tuple(range(n)), {})]
    d, colour, step = world.degree, world.colour, world.step
    inner = sum(1 for k in ball.depth if k < radius)
    outer = [(x, parent[x], colour[x], colour[parent[x]])
             for x in range(n) if ball.depth[x] > radius]
    group = sorted(F.closure())
    # sending[c, t]: the actions that send colour c to colour t, in group
    # order, and the canonical action (c t) among them
    sending: dict[tuple[int, int], tuple[list[Perm], Perm]] = {}
    sent, img = [0] * n, [0] * n
    kept: list[tuple[Word, Perm]] = []
    mark, canonical = [0] * inner, [perm_identity(d)] * inner
    tables = []
    stack = [iter(group)]
    while stack:
        sigma = next(stack[-1], None)
        if sigma is None:
            stack.pop()
            continue
        v = len(stack) - 1
        del kept[mark[v]:]
        if sigma != canonical[v]:
            kept.append((word_of[v], sigma))
        row = step[img[v]]
        for x in children[v]:
            t = sent[x] = sigma[colour[x] - 1]
            img[x] = row[t]
        if v + 1 < inner:
            key = (colour[v + 1], sent[v + 1])
            if key not in sending:
                sending[key] = ([tau for tau in group if tau[key[0] - 1] == key[1]],
                                perm_transposition(d, *key))
            candidates, canonical[v + 1] = sending[key]
            mark[v + 1] = len(kept)
            stack.append(iter(candidates))
            continue
        for x, p, c, a in outer:
            ip = img[p]
            img[x] = step[ip][a if c == colour[ip] else c]
        tables.append((tuple(img), dict(kept)))
    return tables


def enumerate_u1_stabilizer_ball(F: LocalGroup, world: ColorBall,
                                 guard: int | None = None) -> GroupBall:
    """All base-fixing portraits on the world ball with local actions in <F>."""
    gb = enumerate_u1_ball(F, world, 0, world.radius, guard=guard)
    return GroupBall(world, gb.elements, closed=True, local_group=F)


def enumerate_u1_ball(F: LocalGroup, world: ColorBall, move_radius: int,
                      support_radius: int, guard: int | None = None) -> GroupBall:
    """Distinct depth-`support_radius` portraits with base image within `move_radius`.

    One representative per restriction class: base image any address of length
    <= move_radius (left translations have identity local actions, so every
    address is reachable whatever F is), local actions chosen like the
    stabilizer enumeration on depths < support_radius.  Count is
    (#addresses) x (stabilizer count), checked against the guard before <F>
    is listed.  Membership claims downstream are certified at ball depth;
    the canonical extension beyond the support is a representative choice.

    The base-fixing portraits are listed once (_stabilizer_walk), and the
    portrait with base image w and table A is t_w after Portrait((), A):
    Portrait._walk starts at the base image and appends letters that
    depend on A and the address alone, and from () they never cancel, so
    g(u) = w.(letters).  Its ball images are the walk's read through
    trans_w, the ball images of t_w (restrict's pass over ids, with no
    Portrait built; t_() is the identity, so its elements take the walk's
    images as they are, with no pass over the addresses).  The walk's
    images never leave the ball, so trans_w is read only at ball ids.  The
    stripped table is the walk's, shared by every w.
    """
    if move_radius < 0 or support_radius < 0:
        raise ValueError(f"move and support radii must be nonnegative, got {move_radius} and {support_radius}")
    if move_radius + support_radius > world.radius:
        raise CertificationError(
            f"world radius {world.radius} too small for movers {move_radius} with support {support_radius}")
    check_u1_guard(F, support_radius, guard, move_radius)
    tables = _stabilizer_walk(F, world, support_radius)
    ball = world.ball
    elements = []
    for w in reduced_words(world.degree, move_radius):
        trans_w = _ball_images(world, w, {}) if w else None   # t_w's restrict pass; t_() is the identity
        elements.extend(FiniteTreeAutomorphism(ball, tuple(map(trans_w.__getitem__, images)) if w else images,
                                               Portrait._stripped(world, w, acts))
                        for images, acts in tables)
    return GroupBall(world, elements, closed=False, local_group=F)


def edge_fixator(gb: GroupBall, edge: tuple[int, int], k: int) -> GroupBall:
    """Elements of gb fixing B(v,k) \\cap B(w,k) = B(v,k-1) \\cup B(w,k-1) pointwise."""
    if k < 1:
        raise ValueError("k must be >= 1")
    u, v = edge
    ball = gb.ball
    if not ball.has_edge(u, v):
        raise ValueError(f"not an edge: {edge}")
    if ball.depth[u] + k - 1 > ball.radius or ball.depth[v] + k - 1 > ball.radius:
        raise CertificationError(f"ball too small to hold the {k - 1}-balls around edge {edge}")
    fixed = {x for end in edge for shell in layers(ball, end, k - 1) for x in shell}
    kept = [g for g in gb if all(g.images[x] == x for x in fixed)]
    return GroupBall(gb.world, kept, closed=gb.closed, local_group=gb.local_group)


def certified_edges(gb: GroupBall, k: int) -> list[tuple[int, int]]:
    if k < 1:
        raise ValueError("k must be >= 1")
    ball = gb.ball
    return [(u, v) for u, v in ball.edges()
            if ball.depth[u] + k - 1 <= ball.radius and ball.depth[v] + k - 1 <= ball.radius]


def generate_plus_k(gb: GroupBall, k: int, guard: int | None = None) -> GroupBall:
    """Ball-level closure of all certified edge fixators under composition.

    The elements of a closed group ball are permutations of the ball's
    vertices, so the closure is the group these fixator elements generate
    as permutations: one Schreier-Sims chain on the ball ids, whose order is
    checked against the guard before any element is listed.  Two products
    are identified when they agree on the whole ball; the elements carry no
    evaluator beyond it, because elements needing larger support than the
    ball are outside certification scope by construction.  With no
    certified edge there is no generator, and the ball certifies nothing
    about the closure, so it refuses.
    """
    if not gb.closed:
        raise ValueError("generate_plus_k needs a closed group ball")
    edges = certified_edges(gb, k)
    if not edges:
        raise CertificationError(f"no edge of the radius-{gb.ball.radius} ball has its {k - 1}-balls inside it")
    gens = {tuple(x + 1 for x in g.key()) for e in edges for g in edge_fixator(gb, e, k)}
    chain = LocalGroup(gb.ball.vertex_count, tuple(sorted(gens)))
    check_guard(chain.order(), guard, "plus-k closure")
    keys = sorted(tuple(x - 1 for x in p) for p in chain.closure())
    elements = [FiniteTreeAutomorphism(gb.ball, key) for key in keys]
    return GroupBall(gb.world, elements, closed=True, local_group=gb.local_group)


def k_closure_membership(g: FiniteTreeAutomorphism, gb: GroupBall, k: int) -> bool:
    """Whether g agrees with some gb element on B(v,k) for every certifiable v."""
    ball = gb.ball
    for v in ball.vertices():
        if ball.depth[v] + k > ball.radius:
            continue
        neighborhood = [u for shell in layers(ball, v, k) for u in shell]
        if any(g.images[u] < 0 for u in neighborhood):
            raise CertificationError(f"g is not determined on B({v},{k})")
        if not any(all(g0.images[u] == g.images[u] for u in neighborhood) for g0 in gb):
            return False
    return True


@dataclass(frozen=True)
class PkResult:
    holds: bool
    edge: tuple[int, int]
    k: int
    checked: int
    offender: FiniteTreeAutomorphism | None = None
    factor_keys: tuple = ()


def check_property_pk(gb: GroupBall, edge: tuple[int, int], k: int) -> PkResult:
    """Factor every fixator element through the two half-trees and check membership.

    For g in F_{k,e}, g1 acts like g on the half-tree at w and trivially
    elsewhere; the property holds iff g1 and g.g1^-1 both lie back in gb,
    for every g.  Since k >= 1, g fixes both ends of the edge, so it maps
    each half-tree onto itself; hence g.g1^-1 is trivial on the half-tree
    at w and acts like g elsewhere, and both keys are read off g's images.
    An image on the w side that leaves the ball is known only through g's
    evaluator; when that cannot say where it goes, g1 is not determined.
    """
    v = edge[1]
    ball = gb.ball
    fixator = edge_fixator(gb, edge, k)
    w_side = half_tree_vertices(ball, HalfTreeRef(edge, v))
    keys = gb.key_set()
    factor_keys = []
    for g in fixator:
        images = g.images
        if any(images[x] < 0 and g.exact.address(x) is None for x in w_side):
            raise CertificationError(f"the half-tree at vertex {v} has an image not determined by the ball")
        g1 = tuple(gx if x in w_side else x for x, gx in enumerate(images))
        rest = tuple(x if x in w_side else gx for x, gx in enumerate(images))
        if not (g1 in keys and rest in keys):
            return PkResult(False, edge, k, len(fixator), offender=g)
        factor_keys.append((g1, rest))
    return PkResult(True, edge, k, len(fixator), factor_keys=tuple(factor_keys))


# ---------------------------------------------------------------------------
# U_k(F) membership for k >= 2 (local groups on k-balls)

@dataclass(frozen=True)
class LocalGroupK:
    """A set of automorphisms of the standard k-ball, as address maps.

    Elements are given as tuples of (address, image address) pairs over all
    reduced words of length <= k; every element must fix the center.
    """

    degree: int
    k: int
    elements: frozenset[tuple[tuple[Word, Word], ...]]

    @classmethod
    def from_maps(cls, degree: int, k: int, maps) -> "LocalGroupK":
        space = set(reduced_words(degree, k))
        elems = set()
        for m in maps:
            md = dict(m)
            if set(md) != space or set(md.values()) != space or md[()] != ():
                raise ValueError("not a center-fixing bijection of the k-ball")
            elems.add(tuple(sorted(md.items())))
        return cls(degree, k, frozenset(elems))


def k_local_action(g: FiniteTreeAutomorphism, v: int, world: ColorBall, k: int) -> tuple:
    """The address map of g on B(v,k), re-rooted at v and its image; B(v,k) must lie in the ball."""
    base = world.word_of[v]
    img_base = image_address(g, world, v)
    pairs = []
    for x in reduced_words(world.degree, k):
        u = world.id_of.get(word_mul(base, x))
        img = None if u is None else image_address(g, world, u)
        if img is None or img_base is None:
            raise CertificationError(f"the {k}-local action at vertex {v} is not determined by the ball")
        pairs.append((x, word_mul(word_inv(img_base), img)))
    return tuple(sorted(pairs))


def membership_uk(g: FiniteTreeAutomorphism, Fk: LocalGroupK, world: ColorBall) -> bool:
    """U_k-style membership: every certifiable k-local action lies in Fk."""
    ball = world.ball
    for v in ball.vertices():
        if ball.depth[v] + Fk.k > ball.radius:
            continue
        if k_local_action(g, v, world, Fk.k) not in Fk.elements:
            return False
    return True
