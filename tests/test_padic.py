import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tdlc import padic_pgl2 as pp
from tdlc.errors import CertificationError
from oracles import (fraction_conjugation_formula_check, fraction_perturbed_conjugate_raw,
                     fraction_triviality_evidence, fraction_valuation)


PRIMES = st.sampled_from([2, 3, 5, 7, 11])
RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
NONZERO = RATIONALS.filter(bool)
MATRICES = st.one_of(
    st.just((1, 0, 0, 1)),
    st.builds(lambda x: (1, x, 0, 1), RATIONALS),   # upper unipotent
    st.builds(lambda x: (1, 0, x, 1), RATIONALS),   # lower unipotent
    st.builds(lambda x, y: (x, 0, 0, y), NONZERO, NONZERO),   # diagonal
    st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS).filter(lambda e: e[0] * e[3] != e[1] * e[2]),
)


def test_valuation_examples():
    assert pp.valuation(Fraction(9, 2), 3) == 2
    assert pp.valuation(0, 5) == pp.INF
    assert pp.valuation(Fraction(12, 5), 2) == 2
    assert pp.valuation(Fraction(1, 8), 2) == -3
    with pytest.raises(ValueError):
        pp.valuation(1, 4)


def test_valuation_ultrametric_laws():
    rng = random.Random(7)
    for _ in range(10_000):
        p = rng.choice([2, 3, 5])
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        vx, vy = pp.valuation(x, p), pp.valuation(y, p)
        assert pp.valuation(x * y, p) == vx + vy
        assert pp.valuation(x + y, p) >= min(vx, vy)
        if vx != vy:
            assert pp.valuation(x + y, p) == min(vx, vy)


def p_power_rationals(p):
    """±p^e u / (p^f w), e and f up to 300: every branch of the p^2 recursion, on either side."""
    return st.builds(lambda e, f, u, w, sign: Fraction(sign * p**e * u, p**f * w),
                     st.integers(0, 300), st.integers(0, 300), st.integers(1, 10**9),
                     st.integers(1, 10**9), st.sampled_from([1, -1]))


@settings(max_examples=800, deadline=None)
@given(p=PRIMES, data=st.data())
def test_valuation_matches_the_fraction_copy(p, data):
    x = data.draw(st.one_of(
        st.just(0), st.just(Fraction(0)), st.integers(-10**12, 10**12), RATIONALS,
        st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
        st.integers(-10**6, 10**6).filter(lambda n: n % p),   # p does not divide x
        p_power_rationals(p),
        st.floats(allow_nan=False, allow_infinity=False), st.builds(str, RATIONALS)))
    assert pp.valuation(x, p) == fraction_valuation(x, p)


def test_canonicalization():
    m = pp.ProjMatrix((Fraction(2, 3), 4, 6, 8), 2)
    vals = [pp.valuation(x, 2) for x in m.entries]
    assert min(vals) == 0
    unit = next(x for x in m.entries if x != 0 and pp.valuation(x, 2) == 0)
    assert unit == 1
    again = pp.ProjMatrix(m.entries, 2)
    assert again == m
    scaled = pp.ProjMatrix(tuple(x * Fraction(7, 4) for x in m.entries), 2)
    assert scaled == m


def test_cartan_and_perturbed_reps():
    assert pp.cartan_rep(0, 5) == pp.identity_matrix(5)
    assert pp.cartan_rep(2, 3).entries == (9, 0, 0, 1)
    assert pp.cartan_rep(5, 2).entries == (32, 0, 0, 1)
    assert pp.perturbed_rep(3, 2).entries == (8, 0, 2, 1)
    assert pp.perturbed_rep(1, 3).entries == (3, 0, 3, 1)
    assert pp.perturbed_rep(6, 2).entries == (64, 0, 4, 1)


def test_perturbing_unit_is_in_k():
    for p in (2, 3, 5):
        for n in range(1, 20):
            k = pp.perturbing_unit(n, p)
            assert k.is_integral_unit()
            assert pp.cartan_rep(n, p) * k == pp.perturbed_rep(n, p)


def test_conjugate_basics():
    p = 3
    h = pp.ProjMatrix((1, 1, 0, 1), p)
    assert pp.conjugate(pp.identity_matrix(p), h) == h
    g = pp.cartan_rep(1, p)
    assert pp.conjugate(g, g) == g
    assert pp.conjugate(g, h).entries == (1, 3, 0, 1)


def test_conjugation_formula_check_grid():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            h = pp.random_matrix(rng, p)
            for n in range(1, 11):
                assert pp.conjugation_formula_check(h, n)
    ident = pp.identity_matrix(2)
    for n in (1, 5, 9):
        assert pp.conjugation_formula_check(ident, n)
    h = pp.ProjMatrix((1, 1, 0, 1), 2)
    assert pp.conjugation_formula_check(h, 3)


@settings(max_examples=300, deadline=None)
@given(p=PRIMES, n=st.integers(0, 60), entries=MATRICES)
def test_integer_conjugation_check_agrees_with_the_fraction_oracle(p, n, entries):
    h = pp.ProjMatrix(entries, p)
    assert pp.conjugation_formula_check(h, n) == fraction_conjugation_formula_check(h, n)
    assert pp.perturbed_conjugate_raw(h, n) == fraction_perturbed_conjugate_raw(h, n)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("entry", range(4))
def test_conjugation_check_refuses_a_product_off_by_one(monkeypatch, entry, delta):
    real = pp._conjugate_product

    def off_by_one(*args):
        product = list(real(*args))
        product[entry] += delta
        return tuple(product)

    rng = random.Random(5)
    cases = [(pp.random_matrix(rng, p), p) for p in (2, 3, 5) for _ in range(5)]
    cases += [(pp.identity_matrix(p), p) for p in (2, 3)]
    monkeypatch.setattr(pp, "_conjugate_product", off_by_one)
    for h, p in cases:
        for n in (1, 2, 3, 7, 30):
            assert not pp.conjugation_formula_check(h, n)


def test_conjugation_check_builds_no_fraction(monkeypatch):
    rng = random.Random(13)
    matrices = [pp.random_matrix(rng, p) for p in (2, 3, 5) for _ in range(5)]

    def built(*args, **kwargs):
        raise AssertionError("a Fraction was built or combined")

    for name in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(Fraction, name, built)
    assert all(pp.conjugation_formula_check(h, n) for h in matrices for n in range(1, 31))


def test_distance_to_identity():
    p = 2
    assert pp.distance_to_identity(pp.identity_matrix(p)) == pp.INF
    assert pp.distance_to_identity(pp.ProjMatrix((1, 8, 0, 1), p)) == 3
    assert pp.distance_to_identity(pp.ProjMatrix((1, 1, 0, 1), p)) == 0


def test_unipotent_contraction_table():
    for p in (2, 3, 5):
        table = pp.unipotent_contraction_check(12, p)
        assert table[0] == 0
        assert table[1] == 1
        assert table[7] == 7
        values = [table[n] for n in range(13)]
        assert values == sorted(values) and len(set(values)) == 13


def test_perturbed_divergence_regimes():
    p = 2
    cases = {
        "b": pp.ProjMatrix((1, 1, 0, 1), p),
        "c": pp.ProjMatrix((1, 0, 1, 1), p),
        "a-d": pp.ProjMatrix((1, 0, 0, 1 + p), p),
    }
    for name, h in cases.items():
        report = pp.perturbed_triviality_evidence(h, 30)
        assert report.diverges, name
        for n in range(1, 31):
            predicted = pp.predicted_bottom_left_valuation(h, n)
            assert report.bottom_left_valuations[n - 1] == predicted
            assert predicted <= 1 - n // 3
            if n % 3 == 0:
                assert predicted <= -(n // 3)


def test_perturbed_divergence_rejects_identity():
    with pytest.raises(ValueError):
        pp.perturbed_triviality_evidence(pp.identity_matrix(2), 10)
    scalar = pp.ProjMatrix((7, 0, 0, 7), 2)
    with pytest.raises(ValueError):
        pp.perturbed_triviality_evidence(scalar, 10)


@settings(max_examples=200, deadline=None)
@given(p=PRIMES, n_max=st.integers(0, 40), entries=MATRICES)
def test_divergence_report_matches_the_fraction_oracle(p, n_max, entries):
    h = pp.ProjMatrix(entries, p)
    assume(not (h.b == 0 and h.c == 0 and h.a == h.d))
    assert pp.perturbed_triviality_evidence(h, n_max) == fraction_triviality_evidence(h, n_max)


def test_divergence_report_clears_h_once_and_builds_no_raw_conjugate(monkeypatch):
    h = pp.ProjMatrix((Fraction(1, 6), Fraction(-5, 9), 3, 2), 3)
    want = fraction_triviality_evidence(h, 30)
    calls = []
    real = pp._cleared

    def raw(*args):
        raise AssertionError("a raw conjugate was built")

    monkeypatch.setattr(pp, "_cleared", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(pp, "perturbed_conjugate_raw", raw)
    assert pp.perturbed_triviality_evidence(h, 30) == want
    assert calls == [h]


def test_monotone_contraction():
    p = 3
    u = pp.unipotent_element(p)
    dists = [pp.distance_to_identity(pp.conjugate(pp.cartan_rep(n, p), u)) for n in range(10)]
    assert all(b > a for a, b in zip(dists, dists[1:]))


def test_cartan_exponent_is_double_coset_invariant():
    rng = random.Random(3)
    p = 5
    for n in range(6):
        assert pp.cartan_exponent(pp.cartan_rep(n, p)) == n
    for _ in range(50):
        n = rng.randint(0, 6)
        k1 = _random_unit(rng, p)
        k2 = _random_unit(rng, p)
        m = k1 * pp.cartan_rep(n, p) * k2
        assert pp.cartan_exponent(m) == n


def _random_unit(rng, p):
    """Random element of PGL2(Z_p) with integer entries and unit determinant."""
    while True:
        entries = [rng.randint(-20, 20) for _ in range(4)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det != 0 and det % p != 0:
            m = pp.ProjMatrix(entries, p)
            if m.is_integral_unit():
                return m


def test_padic_rational_laws():
    x = pp.PAdicRational(Fraction(9, 2), 3)
    y = pp.PAdicRational(Fraction(1, 3), 3)
    assert x.val == 2 and y.val == -1
    assert (x * y).val == 1
    assert (x + y).val == -1


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))
    assert all(pp.is_prime(n) == trial(n) for n in range(-3, 20_000))
    for n in (1_000_000_007, 998_244_353, 2**61 - 1, 10**18 + 3):
        assert pp.is_prime(n)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 1, 2, 4, 5, 6, 7, 9 and 12 prime bases
    for n in (2047, 1373653, 3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not pp.is_prime(n), n
    assert not pp.is_prime(10**18 + 1)


def test_is_prime_refuses_at_the_bound():
    # the bound is the least strong pseudoprime to all 13 bases
    assert not pp.is_prime(pp.PRIMALITY_BOUND - 1)
    with pytest.raises(CertificationError, match="certified only below"):
        pp.is_prime(pp.PRIMALITY_BOUND)
    with pytest.raises(CertificationError):
        pp.valuation(1, 2**89 - 1)


def test_primality_is_checked_once_per_outside_prime(monkeypatch):
    calls = []
    real = pp.is_prime
    monkeypatch.setattr(pp, "is_prime", lambda p: calls.append(p) or real(p))
    p = 10**18 + 3
    h = pp.ProjMatrix((1, 1, 0, 1), p)
    assert calls == [p]
    g = pp.cartan_rep(3, p)
    calls.clear()
    pp.conjugate(g, h)
    pp.distance_to_identity(h * h.inverse())
    pp.perturbed_triviality_evidence(h, 6)
    pp.cartan_exponent(g)
    assert calls == []
