"""Reference implementations shared by the test modules.

Each is independent of the code it checks, or is an earlier implementation
kept word for word as the oracle for the one that replaced it.
"""

import itertools
import math
from fractions import Fraction

from tdlc import coxeter_ra as cox
from tdlc import kak_building as kb
from tdlc import kak_tree as kt
from tdlc import padic_pgl2 as pp
from tdlc import rab
from tdlc import tree_aut as ta
from tdlc import tree_core as tc
from tdlc import universal_groups as ug
from tdlc.errors import CertificationError, check_guard


def pair_commutes(system, i, j):
    """Commutation read off commuting_pairs, sharing nothing with the kernel's bitmask."""
    return frozenset((system.generators[i], system.generators[j])) in system.commuting_pairs


def all_systems(n):
    names = ["a", "b", "c", "d"][:n]
    pairs = list(itertools.combinations(names, 2))
    for mask in range(2 ** len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield cox.RACoxeterSystem.create(names, chosen)


def nontrivial_wing_sigmas(q):
    """All permutations of 0..q-1 fixing 0, except the identity."""
    out = []
    for perm in itertools.permutations(range(1, q)):
        sigma = (0,) + perm
        if sigma != tuple(range(q)):
            out.append(sigma)
    return out


def valid_tree_portrait(g):
    """The range, injectivity, adjacency and label checks that
    FiniteTreeAutomorphism's constructor ran on every image tuple before
    builders were trusted to make valid ones, kept as the oracle; raises
    ValueError on an invalid portrait."""
    n = g.ball.vertex_count
    images = g.images
    if len(images) != n or not all(-1 <= w < n for w in images):
        raise ValueError("mapping leaves the ball")
    inside = [w for w in images if w >= 0]
    if len(set(inside)) != len(inside):
        raise ValueError("mapping is not injective")
    parent = g.ball.parent
    for v, p in enumerate(parent):
        iv, ip = images[v], images[p] if p >= 0 else -1
        if iv >= 0 and ip >= 0 and parent[iv] != ip and parent[ip] != iv:
            raise ValueError(f"edge ({p},{v}) maps to a non-edge ({ip},{iv})")
    labels = g.ball.label_of
    if labels is not None and any(w >= 0 and labels[v] != labels[w] for v, w in enumerate(images)):
        raise ValueError("mapping does not preserve labels")
    return True


def kernel_bfs_elements(system, max_length):
    """Each element of length <= max_length once, lazily: the identity, then level by level.

    A prefix of a ShortLex normal form is one, so an element of length k + 1
    is u s for the one u of length k whose normal form, then s, is its own.
    The element BFS coxeter_ra ran before shortlex_walk, one kernel step per
    (u, s), kept as the oracle."""
    frontier = [cox.identity(system)]
    yield frontier[0]
    for _ in range(max_length):
        level, frontier = frontier, []
        for u in level:
            for s in range(system.rank):
                w = cox.multiply_generator(u, s)
                if w.word == u.word + (s,):
                    frontier.append(w)
                    yield w


def cayley_distance(u, v, guard=None):
    """BFS distance in the Cayley graph (right multiplication by generators).

    Independent of the length function; used as an oracle against l(u^-1 v).
    """
    system = u.system
    frontier = {u.word: u}
    seen = {u.word}
    dist = 0
    while v.word not in frontier:
        nxt = {}
        for w in frontier.values():
            for s in range(system.rank):
                x = cox.multiply_generator(w, s)
                if x.word not in seen:
                    check_guard(len(seen) + 1, guard, "cayley BFS")
                    seen.add(x.word)
                    nxt[x.word] = x
        if not nxt:
            raise RuntimeError("BFS exhausted without reaching target")
        frontier = nxt
        dist += 1
    return dist


def bfs_dist_to_root(w, s):
    """Gallery distance from w to the root alpha_s by breadth-first search in the
    Cayley graph: the oracle for the closed form in cox.dist_to_root."""
    frontier = [w]
    seen = {w.word}
    dist = 0
    while not any(cox.root_contains(s, u) for u in frontier):
        nxt = []
        for u in frontier:
            for g in range(w.system.rank):
                x = cox.multiply_generator(u, g)
                if x.word not in seen:
                    seen.add(x.word)
                    nxt.append(x)
        assert nxt, "BFS exhausted without reaching the root"
        frontier = nxt
        dist += 1
    return dist


def full_scan_initial_position(comm, gens, types):
    """initial_position before its early exit: every letter is scanned."""
    before = 0
    for i, t in enumerate(gens):
        if types >> t & 1 and not before & ~comm[t]:
            return i
        before |= 1 << t
    return None


def bfs_chamber_ball(spec, radius, guard):
    """The chambers of B(1, radius) by breadth-first search over the chamber graph,
    one kernel step per (chamber, generator, colour), in the ball's order."""
    chambers = [rab.identity_chamber(spec)]
    seen = {chambers[0].syllables}
    frontier = chambers[:]
    for _ in range(radius):
        nxt = []
        for C in frontier:
            for s in range(spec.system.rank):
                for c in range(1, spec.q(s)):
                    D = rab.chamber_times(C, ((s, c),))
                    if len(D.syllables) <= len(C.syllables):
                        break   # C ends in an s-syllable, so no colour of s leads outward
                    if D.syllables not in seen:
                        # Guard before keeping: refusal stops at the first chamber over the cap.
                        check_guard(len(seen) + 1, guard, "chamber ball enumeration")
                        seen.add(D.syllables)
                        nxt.append(D)
        chambers.extend(nxt)
        frontier = nxt
    return tuple(sorted(chambers, key=lambda C: (len(C.syllables), C.syllables)))


def count_first_refusal(lengths, radius, guard, what):
    """The message of the refusal a guard checked on sphere counts makes, read off
    the lengths of a listed ball's objects, or None: the running total is checked
    after each nonempty sphere of length >= 1, exact at the radius and a lower
    bound before it."""
    total = 1
    for k in range(1, radius + 1):
        size = lengths.count(k)
        if not size:
            return None
        total += size
        if total > guard:
            return f"{what}{'' if k == radius else ' (lower bound)'}: {total} objects exceeds guard {guard}"
    return None


def bfs_dist_chamber_to_root(C, r, ball):
    """BFS gallery distance within the ball from C to the root's apartment chambers:
    the oracle for the closed form in rab.dist_base_to_root."""
    spec = ball.spec
    if r.contains(spec, C):
        return 0
    frontier = [C]
    seen = {C.syllables}
    dist = 0
    while frontier:
        nxt = []
        for Ch in frontier:
            for s in range(spec.system.rank):
                for c in range(1, spec.q(s)):
                    D = rab.chamber_times(Ch, ((s, c),))
                    if D in ball and D.syllables not in seen:
                        seen.add(D.syllables)
                        nxt.append(D)
        dist += 1
        if any(r.contains(spec, D) for D in nxt):
            return dist
        frontier = nxt
    raise CertificationError("root chambers not represented in the ball")


def renormalising_base_panel_image(perm, C):
    """BasePanelPermutation.image before its left-multiplication rule: every image
    except a recolouring is re-normalised from the new head by the kernel."""
    s = perm.stype
    x = list(C.syllables)
    pos = rab._initial_syllable_position(perm.spec, x, 1 << s)
    c = 0 if pos is None else x[pos][1]
    new_c = perm.rho[c]
    if c and new_c:
        x[pos] = (s, new_c)   # recoloured in place: still a normal form
        return rab.Chamber(perm.spec, tuple(x))
    if c:
        del x[pos]
    head = rab.Chamber(perm.spec, ((s, new_c),) if new_c else ())
    return rab.chamber_times(head, x)


def composed_weyl_distance(C, D):
    """rab.weyl_distance before it ran one kernel pass: C^-1 as a chamber,
    then its product with D, then the type word."""
    return rab.chamber_product(rab.chamber_inverse(C), D).type_word()


def composed_gallery_distance(C, D):
    """rab.gallery_distance before it ran one kernel pass."""
    return len(composed_weyl_distance(C, D).word)


def composed_project(C, J, D):
    """rab.project before it ran one kernel pass: the gate of D onto the
    J-residue of C, from C^-1 D built as a chamber."""
    spec = C.spec
    types = 0
    for t in spec.system.letter_indices(J):
        types |= 1 << t
    x = list(rab.chamber_product(rab.chamber_inverse(C), D).syllables)
    prefix = []
    while True:
        pos = rab._initial_syllable_position(spec, x, types)
        if pos is None:
            break
        prefix.append(x.pop(pos))
    return rab.chamber_product(C, rab.Chamber(spec, tuple(prefix)))


def inverted_growth_series_count(spec, radius):
    """|B(1, radius)| by inverting Chiswell's 1/W(t) = sum over cliques T of
    prod_{s in T} (1/(1 + x_s) - 1) as a power series up to degree radius,
    each factor the integer series sum_{k >= 1} (-(q_s - 1) t)^k: O(radius^2)
    per clique, the growth series before it was read off N W = D."""
    comm = spec.system._comm
    factors = [[0] + [(1 - q) ** k for k in range(1, radius + 1)] for q in spec._q]
    inverse = [0] * (radius + 1)
    stack = [([1] + [0] * radius, (1 << spec.system.rank) - 1, 0)]   # (clique term, extensions, next type)
    while stack:
        term, extend, first = stack.pop()
        for k, a in enumerate(term):
            inverse[k] += a
        for s in range(first, spec.system.rank):
            if extend >> s & 1:
                f = factors[s]
                product = [sum(term[j] * f[k - j] for j in range(k + 1)) for k in range(radius + 1)]
                stack.append((product, extend & comm[s], s + 1))
    series = [1] + [0] * radius
    for k in range(1, radius + 1):
        series[k] = -sum(inverse[j] * series[k - j] for j in range(1, k + 1))
    return sum(series)


def per_word_chamber_count(spec, radius):
    """The sum over the reduced type words of prod (q_s - 1), one element BFS."""
    return sum(math.prod(spec.q(s) - 1 for s in w.word) for w in cox.enumerate_elements(spec.system, radius))


def scan_contraction_witness(ws, spec, max_length, guard=None):
    """building_contraction_witness as it was before it read both claims off
    normal forms: the chamber ball B(C, max_length) is listed and a x a^-1 is
    evaluated on every chamber of it, once per chain element, kept as the
    oracle."""
    if not cox.is_irreducible(spec.system):
        raise ValueError("system must be irreducible")
    if cox.is_spherical(spec.system, spec.system.generators):
        raise ValueError("system must be non-spherical")
    if not spec.is_thick():
        return kb.NoBuildingWitness("trivial wing fixator: some panel has only two chambers")

    chain = cox.root_growth_search(ws)
    if chain.distances[-1] > max_length:
        raise CertificationError("root chambers not represented in the ball")
    s = spec.system.index_of(chain.generator)
    ap = rab.ApartmentRef.default(spec)
    ball = rab.ChamberBall(spec, max_length, guard=guard)

    # x fixes the wing of the opposite wall chamber of alpha_s and rotates the
    # rest.  It moves the base chamber C to (s, q_s - 1), which lies in the
    # ball: the chain's distances are >= 1 and strictly increasing, so
    # max_length >= 2, and x is nontrivial on the ball.
    _, opposite = rab.RootRef(ap, cox.identity(spec.system), s).wall_chambers(spec)
    x_exact = rab.PanelRotation(spec, opposite, s, kb._witness_sigma(spec.q(s)))
    x = x_exact.restrict(ball)

    radii = tuple(d_k - 1 for d_k in chain.distances)
    for w_k, radius in zip(chain.chain, radii):
        a = kb.representative_aut(spec, ap, w_k)
        conj = a.compose(x_exact).compose(a.inverse())
        _, opp_k = rab.RootRef(ap, w_k, s).wall_chambers(spec)
        opp_k_inverse = rab.chamber_inverse(opp_k)
        for C in ball.chambers:
            if conj.image(C) == C:
                continue
            if rab.wing_split(opp_k_inverse, s, C)[1] is None:
                raise AssertionError("conjugated witness moves the translated opposite wing")
            if len(C.syllables) <= radius:
                raise AssertionError(
                    f"conjugated witness moves B(C,{radius}) at distance {len(C.syllables)}")
    return kb.BuildingContractionCertificate(
        witness=x,
        generator=chain.generator,
        chain_words=tuple(w.names() for w in chain.chain),
        distances=chain.distances,
        fixed_ball_radii=radii,
        certified_radius=max_length,
    )


def fraction_triviality_evidence(h, n_max):
    """perturbed_triviality_evidence as it was before it read the valuations
    off the integer product: each n's raw conjugate is built as Fractions by
    perturbed_conjugate_raw, kept as the oracle."""
    if h.b == 0 and h.c == 0 and h.a == h.d:
        raise ValueError("h is projectively the identity; divergence evidence is inapplicable")
    p = h.p
    vals = []
    dists = []
    for n in range(1, n_max + 1):
        a, b, c, d = pp.perturbed_conjugate_raw(h, n)
        vals.append(pp._valuation(c, p))
        dists.append(min(pp._valuation(x, p) for x in (a - 1, b, c, d - 1)))
    diverges = n_max >= 4 and all(vals[i + 3] < vals[i] for i in range(n_max - 3))
    return pp.DivergenceReport(p, tuple(vals), tuple(dists), diverges)


def table_u1_ball(F, world, move_radius, support_radius, guard=None):
    """The U1 ball as enumerate_u1_ball listed it before its shared-prefix
    walk: the local-action tables by a depth-first search, then each
    element built by Portrait._trusted and restricted by restrict_by_actions,
    kept as the oracle."""
    if move_radius < 0 or support_radius < 0:
        raise ValueError(f"move and support radii must be nonnegative, got {move_radius} and {support_radius}")
    if move_radius + support_radius > world.radius:
        raise CertificationError(
            f"world radius {world.radius} too small for movers {move_radius} with support {support_radius}")
    bases = ug.reduced_words(world.degree, move_radius)
    tables = _stabilizer_tables(F, world, support_radius, guard, move_radius)
    elements = [restrict_by_actions(ug.Portrait._trusted(world, w, acts)) for w in bases for acts in tables]
    return ug.GroupBall(world, elements, closed=False, local_group=F)


def _stabilizer_tables(F, world, radius, guard, move_radius=0):
    """Local-action tables of the base-fixing portraits of depth `radius` with actions in <F>.

    Assignments run over the vertices of depth < radius in BFS order, by a
    depth-first search with one iterator of candidate actions per vertex.
    check_u1_guard refuses on the exact count before <F> is listed.
    """
    ug.check_u1_guard(F, radius, guard, move_radius)
    ball = world.ball
    inner = [world.word_of[v] for v in ball.vertices() if ball.depth[v] < radius]
    if not inner:
        return [{}]
    group = sorted(F.closure())
    # sending[c, t]: the actions that send color c to color t, in group order
    sending = {}
    tables = []
    acts = {}
    stack = [iter(group)]
    while stack:
        sigma = next(stack[-1], None)
        if sigma is None:
            stack.pop()
            continue
        idx = len(stack) - 1
        acts[inner[idx]] = sigma
        if idx + 1 == len(inner):
            tables.append(dict(acts))
            continue
        w = inner[idx + 1]
        key = (w[-1], acts[w[:-1]][w[-1] - 1])
        if key not in sending:
            sending[key] = [tau for tau in group if tau[key[0] - 1] == key[1]]
        stack.append(iter(sending[key]))
    return tables


def restrict_by_actions(g):
    """Portrait.restrict before it inlined the canonical rule: one BFS pass in
    which each vertex builds its local action (Portrait._action, a
    transposition tuple where unstored) and each child's image is
    word_append of its parent's, kept as the oracle."""
    world = g.world
    word_of, id_of, children = world.word_of, world.id_of, world.ball.children
    images = [g.base_word] * len(word_of)
    sent = [0] * len(word_of)
    for v, kids in enumerate(children):
        if kids:
            sigma = g._action(word_of[v], sent[v])
            for x in kids:
                t = sent[x] = sigma[word_of[x][-1] - 1]
                images[x] = ug.word_append(images[v], t)
    return ta.FiniteTreeAutomorphism(world.ball, tuple(id_of.get(w, -1) for w in images), g)


def scan_tree_contraction_depths(family, x, world, v):
    """The depths of kak_tree.contraction_witness_search before it read them
    off closed forms: each conjugate g x g^-1 is built, restricted to the
    whole ball, and scanned against the identity by agreement_depth, kept
    as the oracle for kak_tree.conjugate_fixed_depths."""
    ident = ug.identity_aut(world).restrict()
    depths = []
    for g in family:
        conj = g.exact.compose(x.exact).compose(g.exact.inverse()).restrict()
        depths.append(ta.agreement_depth(conj, ident, v))
    return tuple(depths)


def fraction_valuation(x, p: int):
    """The valuation by Fraction division, one factor of p at a time, from
    before padic_pgl2 read numerators directly and split off p^2 recursively, kept
    as the oracle."""
    x = Fraction(x)
    if x == 0:
        return pp.INF
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def fraction_perturbed_conjugate_raw(h, n):
    """The raw conjugate in Fractions, from before padic_pgl2 formed it in
    integers, kept as the oracle."""
    p, (a, b, c, d) = h.p, h.entries
    q = Fraction(p) ** ((n + 2) // 3)
    pn = Fraction(p) ** n
    # h_n = [[pn, 0], [q, 1]], h_n^-1 = (1/pn) [[1, 0], [-q, pn]]
    m11, m12 = pn * a, pn * b
    m21, m22 = q * a + c, q * b + d
    return ((m11 - q * m12) / pn, m12,
            (m21 - q * m22) / pn, m22)


def fraction_conjugation_formula_check(h, n):
    """The conjugation check in Fractions, from before padic_pgl2 checked the
    formula in integers scaled by den(h) p^n, kept as the oracle."""
    p = h.p
    q = Fraction(p) ** ((n + 2) // 3)
    pn = Fraction(p) ** n
    a, b, c, d = h.entries
    expected = (a - b * q, b * pn,
                (a - d) * q / pn + c / pn - b * q * q / pn, b * q + d)
    return fraction_perturbed_conjugate_raw(h, n) == expected


def four_product_factorize(g, dec):
    """Oracle: factorize with its four products and two inverses per element."""
    v = dec.vertex
    img = g.images[v]
    if img < 0:
        raise CertificationError(f"g moves vertex {v} outside the certified ball")
    rec = dec.representative_for(img)
    part = next(p for p in dec.partitions if p.sphere_radius == rec.sphere_radius)
    k = part.transversal[img]                    # k(rep vertex) = g(v)
    k_prime = ta.compose(ta.invert(rec.element), ta.compose(ta.invert(k), g))
    if k_prime.images[v] != v:
        raise CertificationError("residual factor does not fix the base vertex")
    product = ta.compose(k, ta.compose(rec.element, k_prime))
    if any(pu >= 0 and gu >= 0 and pu != gu for pu, gu in zip(product.images, g.images)):
        raise AssertionError("factorization product disagrees with g on the ball")
    return kt.Factorization(k, rec, k_prime)


def _locate(exact, v):
    """The evaluators' locate, which locate_compose read: the ball id of g(v),
    -1 when it leaves the ball or is unknown."""
    w = exact.address(v)
    return -1 if w is None else exact.world.id_of.get(w, -1)


def locate_compose(g, h):
    """tree_aut.compose before it read a closed-form product's images off one
    restrict pass: the entries h sends out of the ball each walk the
    product's evaluator from the base, kept as the oracle."""
    if g.ball is not h.ball and g.ball != h.ball:
        raise ValueError("portraits live on different balls")
    exact = g.exact.compose(h.exact)
    gi = g.images
    images = tuple(gi[m] if m >= 0 else _locate(exact, u) for u, m in enumerate(h.images))
    return ta.FiniteTreeAutomorphism(g.ball, images, exact)


def residual_transport_representatives(coset_reps, k_prime, dec, radius):
    """kak_tree.transport_representatives before it read keys off
    _double_coset_keys: the cosets and every residual a'^-1 k'^-1 g are
    products (locate_compose), kept as the oracle."""
    world = dec.group.world
    kp_keys = {kt.restriction_key(g, world, radius) for g in k_prime}
    seen: set = set()
    for gi in coset_reps:
        coset = {kt.restriction_key(locate_compose(gi, h), world, radius) for h in k_prime}
        if coset & seen:
            raise ValueError("coset representatives do not give disjoint cosets")
        seen |= coset
    k_keys = {kt.restriction_key(g, world, radius) for g in dec.stabilizer}
    if seen != k_keys:
        raise ValueError("cosets of K' do not cover K")

    new_reps = {}
    for gi in coset_reps:
        for rec in dec.representatives:
            for gj in coset_reps:
                a2 = locate_compose(ta.invert(gi), locate_compose(rec.element, gj))
                new_reps.setdefault(kt.restriction_key(a2, world, radius), a2)

    v = dec.vertex
    kp_by_move = {}
    for h in k_prime:
        for u, iu in enumerate(h.images):
            if iu >= 0:
                kp_by_move.setdefault((u, iu), []).append(h)
    for g in dec.group:
        target = g.images[v]
        covered = False
        for a2 in new_reps.values():
            av = a2.images[v]
            if av < 0:
                continue
            for kp in kp_by_move.get((av, target), []):
                rest = locate_compose(ta.invert(a2), locate_compose(ta.invert(kp), g))
                if rest.images[v] == v and kt.restriction_key(rest, world, radius) in kp_keys:
                    covered = True
                    break
            if covered:
                break
        if not covered:
            return kt.TransportResult(tuple(new_reps.values()), False, g)
    return kt.TransportResult(tuple(new_reps.values()), True, None)


def residual_greedy_subrepresentatives(dec, k_big, radius):
    """kak_tree.greedy_subrepresentatives before it read keys off
    _double_coset_keys: each residual (k1 a)^-1 rec is a product
    (locate_compose), kept as the oracle."""
    world = dec.group.world
    big_keys = {kt.restriction_key(g, world, radius) for g in k_big}
    kept = []
    for rec in dec.representatives:
        duplicate = False
        for prev in kept:
            # same double coset iff some k1 in K' maps prev's target to rec's target
            # and the residual lands back in K'.
            for k1 in k_big:
                if k1.images[prev.vertex] != rec.vertex:
                    continue
                rest = locate_compose(ta.invert(locate_compose(k1, prev.element)), rec.element)
                if rest.images[dec.vertex] == dec.vertex and \
                        kt.restriction_key(rest, world, radius) in big_keys:
                    duplicate = True
                    break
            if duplicate:
                break
        if not duplicate:
            kept.append(rec)
    return kept


def bfs_regular_ball(degree, radius):
    """tree_core.build_regular_ball before it built its levels from id
    ranges: one list per vertex, grown by a BFS and turned into tuples at
    the end, kept as the oracle."""
    if degree < 2:
        raise ValueError("degree must be >= 2 (trees without leaves)")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    parent = [-1]
    depth = [0]
    children = [[]]
    frontier = [0]
    for level in range(radius):
        nxt = []
        for v in frontier:
            count = degree if level == 0 else degree - 1
            for _ in range(count):
                u = len(parent)
                parent.append(v)
                depth.append(level + 1)
                children.append([])
                children[v].append(u)
                nxt.append(u)
        frontier = nxt
    return tc.TreeBall(0, radius, tuple(parent), tuple(tuple(k) for k in children), tuple(depth))


def neighbor_layers(ball, v, n):
    """tree_core.layers before its outward sweep: each sphere walked from
    the last by ball.neighbors, one (vertex, came_from) pair per vertex,
    kept as the oracle."""
    out = [[v]]
    frontier = [(v, -1)]
    for _ in range(n):
        frontier = [(y, x) for x, came_from in frontier for y in ball.neighbors(x) if y != came_from]
        if not frontier:
            break
        out.append([y for y, _ in frontier])
    return out


def neighbor_half_tree(ball, h):
    """tree_core.half_tree_vertices before its subtree sweep: a depth-first
    walk by ball.neighbors that never crosses the edge, kept as the oracle."""
    a, b = h.edge
    if not ball.has_edge(a, b):
        raise ValueError(f"not an edge of the ball: {h.edge}")
    blocked = h.other
    seen = {h.side}
    stack = [h.side]
    while stack:
        x = stack.pop()
        for y in ball.neighbors(x):
            if y != blocked and y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def recursive_render_text(data, indent=0):
    """cli._render_text with one recursive call per record, from before lists
    of flat records were rendered from one template, kept as the oracle."""
    lines = []
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(recursive_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                lines.extend(recursive_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{data}")
    return lines
