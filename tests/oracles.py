"""Reference implementations shared by the test modules.

Each is independent of the code it checks, or is an earlier implementation
kept word for word as the oracle for the one that replaced it.
"""

import itertools

from tdlc import coxeter_ra as cox
from tdlc import universal_groups as ug
from tdlc.errors import CertificationError


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


def table_u1_ball(F, world, move_radius, support_radius, guard=None):
    """The U1 ball as enumerate_u1_ball listed it before its shared-prefix
    walk: the local-action tables by a depth-first search, then each
    element built by Portrait._trusted(...).restrict(), kept as the oracle."""
    if move_radius < 0 or support_radius < 0:
        raise ValueError(f"move and support radii must be nonnegative, got {move_radius} and {support_radius}")
    if move_radius + support_radius > world.radius:
        raise CertificationError(
            f"world radius {world.radius} too small for movers {move_radius} with support {support_radius}")
    bases = ug.reduced_words(world.degree, move_radius)
    tables = _stabilizer_tables(F, world, support_radius, guard, move_radius)
    elements = [ug.Portrait._trusted(world, w, acts).restrict() for w in bases for acts in tables]
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
