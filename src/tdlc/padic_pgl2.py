"""Exact p-adic valuations and 2x2 projective matrices over the rationals.

Reproduces the rank-one example: the double coset ladder K g^n K with
g = diag(p, 1) over K = PGL2(Z_p), the unipotent element contracted by the
powers g^n, and the perturbed representatives h_n = g^n k_n whose
conjugates provably do not return to the identity.  Matrix entries are
fractions.Fraction, so every reported valuation is exact.

The conjugation formula for h_n h h_n^-1 is checked in integers: with L the
lcm of the denominators of h's canonical entries, L h has integer entries,
p^n h_n^-1 = adj(h_n) is integral, and p^n is the only denominator of the
closed form.  Scaling both sides by the nonzero integer L p^n therefore maps
the rational identity to an integer one that holds exactly when it does, so
the check compares integers with zero tolerance and builds no Fraction
(the fraction-free idea of Bareiss, Math. Comp. 22 (1968)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificationError

INF = math.inf


_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Miller-Rabin to the 13 bases in _SMALL_PRIMES, which is exact below
    PRIMALITY_BOUND (Sorenson & Webster, Math. Comp. 86 (2017)); a larger p
    is not certified."""
    if p < 4:   # 2 and 3 with no lookup: the examples use them most
        return p > 1
    if p <= 41:
        return p in _SMALL_PRIMES
    if p >= PRIMALITY_BOUND:
        raise CertificationError(f"primality of {p} is certified only below {PRIMALITY_BOUND}")
    r = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d * 2^r with d odd
    for a in _SMALL_PRIMES:
        x = pow(a, (p - 1) >> r, p)
        if x != 1:
            for _ in range(r):   # is one of x, x^2, ..., x^(2^(r-1)) equal to -1?
                if x == p - 1:
                    break
                x = x * x % p
            else:
                return False
    return True


def valuation(x, p: int):
    """Exact p-adic valuation of a rational; infinity at 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _valuation(x, p)


def _valuation(x, p: int):
    if not isinstance(x, (int, Fraction)):   # float, str, ...: read as Fraction does
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num == 0:
        return INF
    if p == 2:   # the lowest set bit
        return (num & -num).bit_length() - (den & -den).bit_length()
    return _remove(num, p)[0] - _remove(den, p)[0]


def _remove(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) for v the exponent of p in n != 0, in O(log v) big-integer divisions:
    after one p, the exponent of p^2 in the rest, doubled, plus at most one more p."""
    if n % p:
        return 0, n
    v, n = _remove(n // p, p * p)
    q, r = divmod(n, p)
    return (2 * v + 1, n) if r else (2 * v + 2, q)


@dataclass(frozen=True)
class PAdicRational:
    """A rational together with the prime defining its valuation."""

    value: Fraction
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "value", Fraction(self.value))

    @property
    def val(self):
        return _valuation(self.value, self.p)

    def __add__(self, other: "PAdicRational") -> "PAdicRational":
        self._check(other)
        return PAdicRational(self.value + other.value, self.p)

    def __mul__(self, other: "PAdicRational") -> "PAdicRational":
        self._check(other)
        return PAdicRational(self.value * other.value, self.p)

    def _check(self, other: "PAdicRational") -> None:
        if self.p != other.p:
            raise ValueError("mixed primes")


class ProjMatrix:
    """A nonsingular 2x2 rational matrix modulo scalars, over a fixed prime.

    The canonical representative scales the matrix so the minimal entry
    valuation is 0 and the first p-unit entry (scanning a, b, c, d) equals 1;
    projective equality is then literal equality of canonical entries.
    """

    __slots__ = ("a", "b", "c", "d", "p")

    def __init__(self, entries, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        a, b, c, d = (Fraction(x) for x in entries)
        if a * d - b * c == 0:
            raise ValueError("matrix is singular")
        self._canonicalize(a, b, c, d, p)

    def _canonicalize(self, a, b, c, d, p: int) -> "ProjMatrix":
        """Store the canonical entries of a nonsingular matrix over p, which is
        checked prime already: products and inverses come here directly."""
        m = min(v for v in (_valuation(x, p) for x in (a, b, c, d)) if v is not INF)
        scale = Fraction(p) ** int(-m)
        a, b, c, d = a * scale, b * scale, c * scale, d * scale
        unit = next(x for x in (a, b, c, d) if x != 0 and _valuation(x, p) == 0)
        self.p, self.a, self.b, self.c, self.d = p, a / unit, b / unit, c / unit, d / unit
        return self

    @property
    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjMatrix) and self.p == other.p and self.entries == other.entries

    def __hash__(self):
        return hash((self.entries, self.p))

    def __repr__(self):
        return f"ProjMatrix([{self.a}, {self.b}; {self.c}, {self.d}], p={self.p})"

    def __mul__(self, other: "ProjMatrix") -> "ProjMatrix":
        if self.p != other.p:
            raise ValueError("mixed primes")
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return ProjMatrix.__new__(ProjMatrix)._canonicalize(
            a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, self.p)

    def inverse(self) -> "ProjMatrix":
        a, b, c, d = self.entries
        return ProjMatrix.__new__(ProjMatrix)._canonicalize(d, -b, -c, a, self.p)  # adjugate: det is a scalar

    def det_valuation(self):
        return _valuation(self.a * self.d - self.b * self.c, self.p)

    def is_integral_unit(self) -> bool:
        """Membership in PGL2(Z_p): canonical entries p-integral with unit determinant."""
        vals = [_valuation(x, self.p) for x in self.entries if x != 0]
        return all(v >= 0 for v in vals) and self.det_valuation() == 0


def identity_matrix(p: int) -> ProjMatrix:
    return ProjMatrix((1, 0, 0, 1), p)


def cartan_rep(n: int, p: int) -> ProjMatrix:
    """The double coset ladder representative diag(p^n, 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ProjMatrix((Fraction(p) ** n, 0, 0, 1), p)


def perturbed_rep(n: int, p: int) -> ProjMatrix:
    """h_n = g^n k_n with k_n unipotent lower-triangular of depth ceil(n/3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = Fraction(p) ** ((n + 2) // 3)
    return ProjMatrix((Fraction(p) ** n, 0, q, 1), p)


def perturbing_unit(n: int, p: int) -> ProjMatrix:
    return ProjMatrix((1, 0, Fraction(p) ** ((n + 2) // 3), 1), p)


def conjugate(g: ProjMatrix, h: ProjMatrix) -> ProjMatrix:
    """g h g^-1 in canonical form."""
    return g * h * g.inverse()


def _cleared(h: ProjMatrix) -> tuple[tuple[int, int, int, int], int]:
    """h's canonical entries times the lcm L of their denominators, and L."""
    lcm = math.lcm(*(x.denominator for x in h.entries))
    return tuple(x.numerator * (lcm // x.denominator) for x in h.entries), lcm


def _conjugate_product(A: int, B: int, C: int, D: int, q: int, pn: int) -> tuple[int, int, int, int]:
    """The literal integer product h_n (A B; C D) adj(h_n), where
    h_n = [[pn, 0], [q, 1]] and adj(h_n) = [[1, 0], [-q, pn]] = pn h_n^-1."""
    m11, m12 = pn * A, pn * B   # h_n (A B; C D)
    m21, m22 = q * A + C, q * B + D
    return (m11 - q * m12, pn * m12, m21 - q * m22, pn * m22)


def perturbed_conjugate_raw(h: ProjMatrix, n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The literal matrix product h_n h h_n^-1 (true inverse, no projective rescaling).

    Projective canonicalization would absorb the diverging denominators this
    matrix is used to exhibit, so the raw entries are kept.  The product is
    taken in integers, L h and adj(h_n), and divided by L p^n at the end.
    """
    cleared, lcm = _cleared(h)
    q, pn = h.p ** ((n + 2) // 3), h.p ** n
    return tuple(Fraction(m, lcm * pn) for m in _conjugate_product(*cleared, q, pn))


def conjugation_formula_check(h: ProjMatrix, n: int) -> bool:
    """Exact entrywise comparison of h_n h h_n^-1 against the closed form."""
    return conjugation_formula_checks(h, (n,))


def conjugation_formula_checks(h: ProjMatrix, ns) -> bool:
    """conjugation_formula_check(h, n) for every n in ns, h cleared once.

    The closed form for entries (a b; c d) is
      [[a - b q, b p^n], [((a-d) q + c - b q^2) p^-n, b q + d]]
    with q = p^ceil(n/3).  Both sides are compared times L p^n, L the lcm of
    the denominators of a, b, c, d: the left side is then the integer product
    h_n (L h) adj(h_n) and the right side the closed form in A = L a, ...,
    D = L d with its p^-n cleared.  L p^n is nonzero, so the integers agree
    exactly when the rationals do; equality is exact with zero tolerance.
    """
    (A, B, C, D), _ = _cleared(h)
    for n in ns:
        q, pn = h.p ** ((n + 2) // 3), h.p ** n
        expected = (pn * (A - B * q), B * pn * pn, (A - D) * q + C - B * q * q, pn * (B * q + D))
        if _conjugate_product(A, B, C, D, q, pn) != expected:
            return False
    return True


def distance_to_identity(m: ProjMatrix):
    """Largest k with m congruent to the identity mod p^k after canonical scaling.

    Computed as the minimum entry valuation of (canonical m) - id; infinity
    means m is projectively the identity.  Can be negative for matrices far
    from the maximal compact.
    """
    diff = (m.a - 1, m.b, m.c, m.d - 1)
    return min(_valuation(x, m.p) for x in diff)


def unipotent_element(p: int) -> ProjMatrix:
    return ProjMatrix((1, 1, 0, 1), p)


def unipotent_contraction_check(n_max: int, p: int) -> dict[int, object]:
    """Table n -> distance_to_identity(g^n u g^-n); asserts the value is exactly n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    u = unipotent_element(p)
    table = {}
    for n in range(n_max + 1):
        dist = distance_to_identity(conjugate(cartan_rep(n, p), u))
        if dist != n:
            raise AssertionError(f"conjugate at n={n} has distance {dist}, expected {n}")
        table[n] = dist
    return table


@dataclass(frozen=True)
class DivergenceReport:
    """Bottom-left valuations of h_n h h_n^-1: divergence evidence for con((h_n)).

    Per-n the valuation equals min(v(a-d) + ceil(n/3) - n, v(c) - n,
    v(b) + 2 ceil(n/3) - n) barring ultrametric ties; the report certifies it
    decreases without bound along every residue class mod 3, so the raw
    distance to the identity diverges to -infinity and the conjugates leave
    every compact neighborhood of the identity.
    """

    prime: int
    bottom_left_valuations: tuple
    raw_distances: tuple
    diverges: bool


def perturbed_triviality_evidence(h: ProjMatrix, n_max: int) -> DivergenceReport:
    """The report for n = 1..n_max, read off integers with h cleared once.

    The raw conjugate h_n h h_n^-1 is the integer product M = h_n (L h)
    adj(h_n) divided by L p^n (perturbed_conjugate_raw), and a - 1 =
    (m11 - L p^n)/(L p^n), likewise d - 1.  h's canonical entries are
    p-integral, so p does not divide L, and an entry m/(L p^n) has valuation
    v(m) - n.  No Fraction is built.
    """
    if h.b == 0 and h.c == 0 and h.a == h.d:
        raise ValueError("h is projectively the identity; divergence evidence is inapplicable")
    p = h.p
    (A, B, C, D), lcm = _cleared(h)
    vals = []
    dists = []
    for n in range(1, n_max + 1):
        q, pn = p ** ((n + 2) // 3), p ** n
        m11, m12, m21, m22 = _conjugate_product(A, B, C, D, q, pn)
        scale = lcm * pn   # the raw entries are the m's over scale, and 1 is scale over scale
        vals.append(_valuation(m21, p) - n)
        dists.append(min(_valuation(m, p) for m in (m11 - scale, m12, m21, m22 - scale)) - n)
    diverges = n_max >= 4 and all(vals[i + 3] < vals[i] for i in range(n_max - 3))
    return DivergenceReport(p, tuple(vals), tuple(dists), diverges)


def predicted_bottom_left_valuation(h: ProjMatrix, n: int):
    """The three-term minimum from the closed conjugation formula."""
    p = h.p
    ceil_n3 = (n + 2) // 3
    terms = []
    if h.a != h.d:
        terms.append(_valuation(h.a - h.d, p) + ceil_n3 - n)
    if h.c != 0:
        terms.append(_valuation(h.c, p) - n)
    if h.b != 0:
        terms.append(_valuation(h.b, p) + 2 * ceil_n3 - n)
    return min(terms) if terms else INF


def cartan_exponent(m: ProjMatrix) -> int:
    """The double coset invariant: n with m in K diag(p^n,1) K.

    For a canonical representative (p-integral, some entry a unit) this is
    the valuation of the determinant, i.e. the gap between the two
    elementary divisors.
    """
    v = m.det_valuation()
    if v < 0:
        raise AssertionError("canonical form should be p-integral")
    return int(v)


def random_matrix(rng, p: int, span: int = 40) -> ProjMatrix:
    """Seeded random nonsingular matrix with small numerators and denominators."""
    while True:
        entries = [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] != 0:
            return ProjMatrix(entries, p)
