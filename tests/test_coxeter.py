import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from tdlc import coxeter_ra as cox
from tdlc import rab
from tdlc.errors import GuardExceeded
from oracles import (all_systems, bfs_dist_to_root, cayley_distance, full_scan_initial_position,
                     kernel_bfs_elements, pair_commutes)


def dinf():
    return cox.RACoxeterSystem.create(["s", "t"])


def klein():
    return cox.RACoxeterSystem.create(["s", "t"], [("s", "t")])


def free3():
    return cox.RACoxeterSystem.create(["a", "b", "c"])


def nf_names(system, text):
    return cox.word_from_names(system, text).names()


def test_normal_form_cancellation():
    assert nf_names(dinf(), "t s s t") == ()


def test_normal_form_commutation_sort():
    assert nf_names(klein(), "t s") == ("s", "t")


def test_normal_form_no_rewrite():
    assert nf_names(dinf(), "s t s") == ("s", "t", "s")


def test_normal_form_hidden_cancellation():
    # b c a b with c, a both commuting with b but not with each other: the
    # two b's cancel through the middle even though they are never adjacent
    # under naive adjacent-swap sorting.
    sys3 = cox.RACoxeterSystem.create(["a", "b", "c"], [("b", "c"), ("a", "b")])
    assert nf_names(sys3, "b c a b") == ("c", "a")


def test_multiply_invert():
    system = dinf()
    u = cox.word_from_names(system, "s t s")
    assert cox.multiply(u, cox.invert(u)).word == ()
    v = cox.word_from_names(system, "s t")
    assert cox.invert(v).names() == ("t", "s")
    s = cox.word_from_names(system, "s")
    assert cox.multiply(s, s).word == ()


def test_length():
    system = dinf()
    assert cox.length(cox.identity(system)) == 0
    assert cox.length(cox.word_from_names(system, "t s t")) == 3
    assert cox.length(cox.word_from_names(klein(), "s t")) == 2


def test_enumerate_elements_counts():
    assert len(cox.enumerate_elements(dinf(), 2)) == 5
    assert len(cox.enumerate_elements(dinf(), 0)) == 1
    assert len(cox.enumerate_elements(klein(), 2)) == 4


def test_enumerate_elements_order_is_shortlex():
    words = [w.names() for w in cox.enumerate_elements(dinf(), 2)]
    assert words == [(), ("s",), ("t",), ("s", "t"), ("t", "s")]


def test_spherical():
    system = klein()
    assert cox.is_spherical(system, [])
    assert cox.is_spherical(system, ["s", "t"])
    assert not cox.is_spherical(dinf(), ["s", "t"])


def test_irreducible():
    assert cox.is_irreducible(dinf())
    assert cox.is_irreducible(free3())
    two_dinf = cox.RACoxeterSystem.create(
        ["s", "t", "u", "v"],
        [("s", "u"), ("s", "v"), ("t", "u"), ("t", "v")],
    )
    assert not cox.is_irreducible(two_dinf)


def test_wall_distance_examples():
    system = dinf()
    assert cox.wall_distance(cox.identity(system), "s") == 0
    ts = cox.word_from_names(system, "t s")
    assert cox.wall_distance(ts, "s") == 2  # l(st . s . ts) = l(ststs) = 5
    for k in range(1, 6):
        w = cox.word_from_names(system, "t s " * k)
        assert cox.wall_distance(w, "s") == 2 * k


def test_wall_distance_is_cayley_distance_to_sw():
    # BFS oracle: d(w, sw) in the Cayley graph equals l(w^-1 s w).
    for system in (dinf(), free3()):
        for w in cox.enumerate_elements(system, 4):
            for s in system.generators:
                sw = cox.multiply(cox.word_from_names(system, s), w)
                wait = cayley_distance(w, sw)
                assert wait == 2 * cox.wall_distance(w, s) + 1
                assert wait % 2 == 1


def test_profile_bounded_set():
    system = dinf()
    profile = cox.profile_bounded_set(system, 10, 3)
    assert {w.names() for w in profile} == {(), ("s",), ("t",)}
    assert [w.names() for w in cox.profile_bounded_set(system, 0, 5)] == [()]
    # R=1 pins down the identity in irreducible systems with >= 2 generators.
    for sys_ in (dinf(), free3()):
        assert [w.word for w in cox.profile_bounded_set(sys_, 6, 1)] == [()]


def test_profile_set_stabilizes_in_length():
    for system in (dinf(), free3()):
        for bound in range(1, 5):
            sizes = [len(cox.profile_bounded_set(system, L, bound)) for L in range(bound, bound + 4)]
            assert len(set(sizes)) == 1


def test_root_contains():
    system = dinf()
    assert cox.root_contains("s", cox.identity(system))
    assert not cox.root_contains("s", cox.word_from_names(system, "s"))
    assert cox.root_contains("s", cox.word_from_names(system, "t s"))


def test_dist_to_root():
    system = dinf()
    e = cox.identity(system)
    assert cox.dist_to_root(e, "s") == 0
    assert cox.dist_to_root(cox.word_from_names(system, "s t"), "s") == 2
    assert cox.dist_to_root(cox.word_from_names(system, "s"), "s") == 1


def test_dist_to_root_closed_form():
    # Every generator, on all 74 labelled right-angled systems with 2-4 generators,
    # every element up to length 5 (4 with four generators): 19,531 cases.
    cases = 0
    for n, max_length in ((2, 5), (3, 5), (4, 4)):
        for system in all_systems(n):
            for w in cox.enumerate_elements(system, max_length):
                for s in system.generators:
                    assert cox.dist_to_root(w, s) == bfs_dist_to_root(w, s), (system, w, s)
                    cases += 1
    assert cases == 19531


def test_root_growth_search_dinf():
    system = dinf()
    ws = [cox.word_from_names(system, "t s " * k) for k in range(1, 6)]
    result = cox.root_growth_search(ws)
    assert result.generator == "s"
    assert result.distances == (2, 4, 6, 8, 10)
    assert [w.names() for w in result.chain] == [("t", "s") * k for k in range(1, 6)]


def test_root_growth_search_no_chain():
    system = dinf()
    with pytest.raises(ValueError, match="no growing chain"):
        cox.root_growth_search([cox.identity(system)])
    with pytest.raises(ValueError, match="no growing chain"):
        cox.root_growth_search([cox.identity(system), cox.word_from_names(system, "s")])


def test_root_growth_search_three_generators():
    system = free3()
    ws = cox.enumerate_elements(system, 4)
    result = cox.root_growth_search(ws)
    assert len(result.chain) >= 3
    assert all(b > a for a, b in zip(result.distances, result.distances[1:]))


def test_deletion_property():
    # l(us) = l(u) +- 1 for every u and generator s.
    for system in (dinf(), klein(), free3()):
        for u in cox.enumerate_elements(system, 4):
            for s in system.generators:
                prod = cox.multiply(u, cox.word_from_names(system, s))
                assert abs(cox.length(prod) - cox.length(u)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutes_matches_commuting_pairs(n):
    for system in all_systems(n):
        for i in range(n):
            for j in range(n):
                assert system.commutes(i, j) == pair_commutes(system, i, j), (system, i, j)


def move_closure_components(system, max_len):
    """Union-find over all words of length <= max_len with swap/cancel moves."""
    n = system.rank
    words = []
    for k in range(max_len + 1):
        words.extend(itertools.product(range(n), repeat=k))
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for w, i in index.items():
        for pos in range(len(w) - 1):
            a, b = w[pos], w[pos + 1]
            if a == b:
                union(i, index[w[:pos] + w[pos + 2:]])
            elif pair_commutes(system, a, b):
                union(i, index[w[:pos] + (b, a) + w[pos + 2:]])
    return index, find


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_form_matches_move_closure_small(n):
    max_len = 6
    for system in all_systems(n):
        index, find = move_closure_components(system, max_len)
        root_to_nf = {}
        for w, i in index.items():
            nf = cox.normal_form(system, w).word
            root = find(i)
            if root in root_to_nf:
                assert root_to_nf[root] == nf, (system, w)
            else:
                root_to_nf[root] = nf
        assert len(set(root_to_nf.values())) == len(root_to_nf)


# ---------------------------------------------------------------------------
# the normal-form kernel against an independent oracle

def oracle_normal_form(system, word):
    """Reduce, then ShortLex-minimise, testing commutation with pair_commutes.

    A two-pass algorithm kept as an oracle: it shares nothing with the
    kernel's bitmasks or its one-pass insertion.
    """
    nf = []
    for x in word:
        for i in range(len(nf) - 1, -1, -1):
            if nf[i] == x:
                del nf[i]
                break
            if not pair_commutes(system, nf[i], x):
                nf.append(x)
                break
        else:
            nf.append(x)
    out = []
    while nf:
        best = 0
        for i in range(1, len(nf)):
            if nf[i] < nf[best] and all(pair_commutes(system, nf[j], nf[i]) for j in range(i)):
                best = i
        out.append(nf.pop(best))
    return tuple(out)


def path4():
    return cox.RACoxeterSystem.create(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


FOUR_GENERATOR_SYSTEMS = list(all_systems(4))
systems4 = st.sampled_from(FOUR_GENERATOR_SYSTEMS)
words4 = st.lists(st.integers(0, 3), max_size=30).map(tuple)


@settings(max_examples=300, deadline=None)
@given(systems4, words4)
def test_kernel_matches_oracle(system, word):
    assert cox.normal_form(system, word).word == oracle_normal_form(system, word)


@settings(max_examples=200, deadline=None)
@given(systems4, words4)
def test_normal_form_idempotent(system, word):
    nf = cox.normal_form(system, word)
    assert cox.normal_form(system, nf.word) == nf
    assert cox.normal_form(system, nf.names()) == nf


@settings(max_examples=200, deadline=None)
@given(systems4, words4, st.lists(st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 3)),
                                  max_size=8))
def test_normal_form_invariant_under_moves(system, word, moves):
    """Inserting a cancelling pair ss or swapping adjacent commuting letters keeps the normal form."""
    want = cox.normal_form(system, word)
    for insert, pos, s in moves:
        if insert:
            pos %= len(word) + 1
            word = word[:pos] + (s, s) + word[pos:]
        elif len(word) >= 2:
            pos %= len(word) - 1
            a, b = word[pos], word[pos + 1]
            if pair_commutes(system, a, b):
                word = word[:pos] + (b, a) + word[pos + 2:]
        assert cox.normal_form(system, word) == want


@pytest.mark.parametrize("system", list(all_systems(3)) + [path4()])
def test_multiply_generator_matches_whole_word(system):
    for u in cox.enumerate_elements(system, 6):
        for s in range(system.rank):
            got = cox.multiply_generator(u, s).word
            assert got == cox.normal_form(system, u.word + (s,)).word
            assert got == oracle_normal_form(system, u.word + (s,)), (u, s)


@pytest.mark.parametrize("system, radius", [(system, 4) for system in all_systems(3)] + [(path4(), 3)])
def test_initial_position_matches_the_full_scan(system, radius):
    # Every mask of wanted types on every type word of the chamber balls whose
    # base-panel images tests/test_rab.py checks.
    for w in cox.enumerate_elements(system, radius):
        for types in range(1 << system.rank):
            got = cox.initial_position(system._comm, w.word, types)
            assert got == full_scan_initial_position(system._comm, w.word, types), (w, types)


@st.composite
def commuting_graph_word_and_types(draw):
    rank = draw(st.integers(1, 5))
    names = [f"g{i}" for i in range(rank)]
    system = cox.RACoxeterSystem.create(
        names, [p for p in itertools.combinations(names, 2) if draw(st.booleans())])
    word = draw(st.lists(st.integers(0, rank - 1), max_size=24))
    return system, word, draw(st.integers(0, (1 << rank) - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(commuting_graph_word_and_types())
def test_initial_position_matches_the_full_scan_on_any_word(case):
    system, word, types = case
    assert cox.initial_position(system._comm, word, types) == \
        full_scan_initial_position(system._comm, word, types)


def test_multiply_generator_rejects_bad_index():
    with pytest.raises(ValueError):
        cox.multiply_generator(cox.identity(dinf()), 2)
    with pytest.raises(ValueError):
        cox.multiply_generator(cox.identity(dinf()), -1)


def test_normal_form_rejects_unknown_letters():
    for bad in (["x"], [2], [-1], [["s"]]):
        with pytest.raises(ValueError):
            cox.normal_form(dinf(), bad)


@pytest.mark.parametrize("bad, shown", [("x", "'x'"), (2, "2"), (-1, "-1"), (None, "None"),
                                        (["s"], "unhashable type: 'list'")])
def test_normal_form_validates_each_letter_as_the_kernel_reads_it(bad, shown):
    # A bad letter after good ones, which the kernel has already multiplied in;
    # 2 is the rank of dinf, one past its last index.
    with pytest.raises(ValueError, match=f"^unknown generator or index out of range: {re.escape(shown)}$"):
        cox.normal_form(dinf(), ["s", "t", bad])


def test_normal_form_reads_bool_and_float_indices_and_one_shot_iterators():
    system = dinf()
    t = cox.normal_form(system, [1])
    assert cox.normal_form(system, [True]) == t
    assert cox.normal_form(system, [1.0]) == t
    assert cox.normal_form(system, ["s", True, 1.0, "s", 1]).word == (1,)
    assert cox.normal_form(system, iter(["s", "t", "t", "s", "t"])) == t
    assert cox.normal_form(system, (x for x in "sts")).names() == ("s", "t", "s")


def test_one_normal_form_kernel(monkeypatch):
    """Elements and chambers are all normalised by coxeter_ra.right_multiply,
    which rab imports: a counting wrapper put in its place in both modules
    sees a call from each of these paths."""
    assert rab.right_multiply is cox.right_multiply
    kernel = cox.right_multiply
    calls = []

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(cox, "right_multiply", counted)
    monkeypatch.setattr(rab, "right_multiply", counted)
    system = dinf()
    spec = rab.BuildingSpec(system, {"s": 3, "t": 4})
    u = cox.normal_form(system, ["s", "t"])
    C = rab.make_chamber(spec, [("s", 1), ("t", 3)])
    D = rab.make_chamber(spec, [("t", 2), ("s", 2)])
    paths = {
        "normal_form": lambda: cox.normal_form(system, ["t", "s", "t"]),
        "multiply": lambda: cox.multiply(u, u),
        "invert": lambda: cox.invert(u),
        "chamber_times": lambda: rab.chamber_times(C, ((0, 2),)),
        "weyl_distance": lambda: rab.weyl_distance(C, D),
        "gallery_distance": lambda: rab.gallery_distance(C, D),
        "project": lambda: rab.project(C, ["s"], D),
    }
    for name, call in paths.items():
        calls.clear()
        call()
        assert calls, f"{name} did not call the kernel"
        # Z/2 factors for elements, the panel sizes for chambers.
        assert set(calls) == ({system._order} if name in ("normal_form", "multiply", "invert")
                              else {spec._q}), name


def test_enumerate_elements_guard_fires_before_layer_completes():
    # free3 has 1, 4, 10, 22 elements up to lengths 0..3; the guard is checked on
    # the automaton's count, so it refuses with the exact total before any is built.
    with pytest.raises(GuardExceeded, match="^coxeter element enumeration: 22 objects exceeds guard 12$"):
        cox.enumerate_elements(free3(), 3, guard=12)
    assert len(cox.enumerate_elements(free3(), 3, guard=22)) == 22
    with pytest.raises(GuardExceeded, match="^coxeter element enumeration: 22 objects exceeds guard 21$"):
        cox.enumerate_elements(free3(), 3, guard=21)


def test_enumerate_elements_guard_edges():
    # The identity is never guard-checked: a radius-0 ball is never refused.
    assert cox.enumerate_elements(dinf(), 0, guard=0) == [cox.identity(dinf())]
    with pytest.raises(GuardExceeded, match="^coxeter element enumeration: 3 objects exceeds guard 0$"):
        cox.enumerate_elements(dinf(), 1, guard=0)
    # 3 * 2^39 elements of length 40: the count stops at length 11, the first whose
    # running total (6,142) passes the guard, and reports it as a lower bound.
    with pytest.raises(GuardExceeded,
                       match=r"^coxeter element enumeration \(lower bound\): 6142 objects exceeds guard 5000$"):
        cox.enumerate_elements(free3(), 40, guard=5000)


@pytest.mark.parametrize("n, max_length", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_iter_elements_lists_each_element_once_level_by_level(n, max_length):
    # Oracle: the normal forms of all words of length <= max_length.
    for system in all_systems(n):
        words = [w.word for w in cox.enumerate_elements(system, max_length)]
        assert words[0] == ()
        assert [len(w) for w in words] == sorted(len(w) for w in words)
        assert len(set(words)) == len(words)
        assert set(words) == {cox.normal_form(system, w).word for k in range(max_length + 1)
                              for w in itertools.product(range(n), repeat=k)}
        assert words == sorted(words, key=lambda w: (len(w), w))


@pytest.mark.parametrize("n, max_length", [(1, 6), (2, 7), (3, 6), (4, 5)])
def test_shortlex_walk_matches_the_kernel_bfs(n, max_length):
    # All 75 labelled systems with 1-4 generators: the automaton lists the words
    # the kernel BFS keeps, in the same order, with no sort on either side.
    for system in all_systems(n):
        want = [w.word for w in kernel_bfs_elements(system, max_length)]
        walk = list(cox.shortlex_walk(system._comm, system._order, max_length))
        assert [tuple(s for s, _ in syls) for syls in walk] == want, system
        assert all(c == 1 for syls in walk for _, c in syls)
        assert [w.word for w in cox.enumerate_elements(system, max_length)] == want


def test_enumerate_elements_rejects_negative_length():
    with pytest.raises(ValueError, match="max_length"):
        cox.enumerate_elements(dinf(), -3)
    with pytest.raises(ValueError):
        cox.profile_bounded_set(dinf(), -3, 3)


def test_system_json_validation():
    good = {"generators": ["s", "t"], "commuting_pairs": [["s", "t"]]}
    assert cox.RACoxeterSystem.from_json(good) == klein()
    for bad in ({"commuting_pairs": []},
                {"generators": "st"},
                {"generators": ["s", 1]},
                {"generators": ["s", "t"], "commuting_pairs": [["s", "u"]]},
                {"generators": ["s", "t"], "commuting_pairs": [["s", "s"]]},
                {"generators": ["s", "t"], "commuting_pairs": ["st"]},
                ["s", "t"]):
        with pytest.raises(ValueError):
            cox.RACoxeterSystem.from_json(bad)


def test_derived_masks_do_not_change_equality():
    a = cox.RACoxeterSystem.create(["s", "t", "u"], [("s", "t")])
    b = cox.RACoxeterSystem.create(["s", "t", "u"], [("t", "s")])
    assert a == b and hash(a) == hash(b)
    assert a.to_json() == {"generators": ["s", "t", "u"], "commuting_pairs": [["s", "t"]]}
    assert a._comm == (0b010, 0b001, 0)
