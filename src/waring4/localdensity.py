"""Congruence counting and p-adic local densities for figurate sums.

M_m(t, q) counts s-tuples (n_1, ..., n_s) in [1, t]^s whose value sum is
congruent to m mod q; M_m(q) abbreviates M_m(q, q).  The local density at a
prime p is rho_k = p^(k(1-s)) * M_m(p^k), with limit T_m(p) as k grows.

Everything on the exact path is integer arithmetic: the histogram of f mod q
comes from figurate.residue_counts, through f(n) mod q = (24 f(n) mod 24q) / 24,
and its exact s-fold cyclic self-power (exactconv.cyclic_self_power) is the
table of M_r(t, q) over every r mod q.  That table is made once per
(spec, s, t, q) and cached (_congruence_profile); count_congruence and
nonsingular_count read their entries from it.  Moduli above the exact-path
cap take the root sums (expsums.root_sums, one FFT) instead, which evaluate
the same count in floating point.

The Hensel split.  Let p >= 5 be prime, so that 24 is a unit mod p and f has
p-integral Taylor coefficients.  Call n singular when p | f'(n), a property
of n mod p, and let N_m(p^k) count the solutions mod p^k whose coordinates
are all singular.  Then for k >= 2

    M_m(p^k) = p^((k-1)(s-1)) * (M_m(p) - N_m(p)) + N_m(p^k).

Proof.  Each tuple mod p^k is x + p^(k-1) y with x fixed mod p^(k-1) and
y in (Z/p)^s.  As 2(k-1) >= k, f(x_i + p^(k-1) y_i) = f(x_i) + p^(k-1) y_i
f'(x_i) mod p^k.  So x + p^(k-1) y solves the congruence mod p^k only if x
solves it mod p^(k-1), and then exactly when sum_i y_i f'(x_i) is one fixed
residue mod p.  If some f'(x_i) is prime to p, that linear equation has
p^(s-1) solutions y.  Hence the solutions with a nonsingular coordinate
multiply by p^(s-1) per level, from M_m(p) - N_m(p) at level 1.

N_m(p^k) is cheap (_singular_class): a singular n is rho + p z with rho
one of the at most 3 roots of 12 f' mod p, and f(rho + p z) = c_rho +
p^2 F_rho(z), whose residue mod p^k depends only on z mod p^(k-2).  So N is
a sum over the ways to spread the s coordinates over the roots, each a
cyclic product of length p^(k-2), placed in the residue class mod p^2 of
its offset (mod p at k = 1).  Only the class of m is built: it sums only
the compositions whose offset lies in that class, from rows of histogram
powers that every class of the level shares (_singular_rows).  At
p = 2 and 3, 24 is not a unit and the Taylor step fails, so every level of
those ladders is read from the direct kernel's table (count_congruence),
whose self-power takes the exact number-theoretic transform there, as
every p^k is 3-smooth.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .exactconv import UNIT, cyclic_multiply, cyclic_self_power, is_prime, packed_vector, unpack
from .expsums import root_sums
from .figurate import FigurateSpec, residue_counts, residues
from .weylbounds import BoundCheckReport, bound_report

EXACT_MODULUS_CAP = 5000
# an exact table over t residues is refused when its entry bound t^s passes
# this many bits; s <= 300 passes at every modulus up to EXACT_MODULUS_CAP
TABLE_BITS_CAP = 4096
FLOAT_PERIOD_CAP = 10_000_000
# the relative change between the last two levels that counts as stabilized
STABILITY_TOL = 1e-9


@dataclass(frozen=True)
class DensityReport:
    p: int
    levels: tuple[tuple[int, float], ...]
    stabilized: bool
    estimate: float
    bound_value: float
    bound_holds: bool

    def __post_init__(self):
        # T_m(p) = 0 is a genuine local obstruction, so 0 is a valid limit
        if self.estimate < 0.0:
            raise ValueError("a density must be nonnegative")


def _check_table_bits(s: int, t: int) -> None:
    """Refuse an exact s-fold table over t residues whose entry bound t^s
    has more than TABLE_BITS_CAP bits, before anything is made.

    t^s bounds cyclic_self_power's max(vec) * sum(vec)^(s-1) for a
    histogram of t values, and every count of s-tuples of residues mod t.
    For t >= 2, t^s has more than s bits, so a huge s is refused without
    the power being formed.
    """
    if t > 1 and (s >= TABLE_BITS_CAP or (t**s).bit_length() > TABLE_BITS_CAP):
        raise BudgetError(
            f"exact congruence tables are capped at {TABLE_BITS_CAP}-bit entries: "
            f"the bound {t}^{s} is wider"
        )


# one prime walk at the series cap must fit, or each m of a report evicts the
# tables the next m reads: euler_product at s = 17 and prime_limit =
# MAX_SERIES_Q = 1000 reads 170 tables (166 primes p >= 5 at level 1 and the
# top two levels of the p = 2 and p = 3 ladders); 256 also holds the 185 of
# a walk whose ladders start at level 1 (all 12 levels of p = 2 and 7 of
# p = 3), as local_density_limit's default reads them
@lru_cache(maxsize=256)
def _congruence_profile(spec: FigurateSpec, s: int, t: int, q: int) -> tuple[int, ...]:
    """M_r(t, q) for every r mod q: the s-fold cyclic self-power of the
    residue histogram; s >= 0, and the 0-fold profile is the unit vector."""
    _check_table_bits(s, t)
    return tuple(cyclic_self_power(residue_counts(spec, t, q), s, q))


def count_congruence(spec: FigurateSpec, s: int, m: int, t: int, q: int) -> int:
    """M_m(t, q): s-tuples in [1, t]^s with value sum = m mod q, exactly."""
    if s < 1:
        raise ValueError("number of summands must be >= 1")
    if t < 1 or q < 1:
        raise ValueError("range and modulus must be >= 1")
    if q > EXACT_MODULUS_CAP:
        raise BudgetError(
            f"exact congruence counting is capped at modulus {EXACT_MODULUS_CAP}"
        )
    return _congruence_profile(spec, s, t, q)[m % q]


def scaling_identity_check(
    spec: FigurateSpec, s: int, m: int, q: int
) -> BoundCheckReport:
    """Does M_m(24q, q) equal 24^s * M_m(q, q)?

    Both sides are computed exactly; lhs is |difference| and rhs is 0, so the
    report holds only on exact equality.  The identity is a theorem for
    polynomials with integer coefficients but can fail when the binomial-basis
    denominators interact with the modulus (e.g. the {3,3,5} polynomial at
    moduli divisible by 3), so it is checked, not assumed.
    """
    if q > 30 or s > 17:
        raise ValueError("identity check is sized for q <= 30, s <= 17")
    lhs_count = count_congruence(spec, s, m, 24 * q, q)
    rhs_count = 24**s * count_congruence(spec, s, m, q, q)
    diff = abs(lhs_count - rhs_count)
    return bound_report(
        float(diff), 0.0, f"M({24*q},{q})={lhs_count} 24^s*M({q})={rhs_count}"
    )


def _derivative_valuation(spec: FigurateSpec, y: int, p: int) -> int | None:
    """v_p(f'(y)) as v_p(12 f'(y)) - v_p(12), or None when f'(y) = 0."""
    d12 = spec.deriv12_at(y)
    if d12 == 0:
        return None
    v = 0
    while d12 % p == 0:
        d12 //= p
        v += 1
    v12 = 2 if p == 2 else (1 if p == 3 else 0)
    return v - v12


@lru_cache(maxsize=128)
def _admissible_residues(spec: FigurateSpec, p: int) -> tuple[int, ...]:
    """f(n_1) mod p for every n_1 = 1..p with both f(n_1) and f'(n_1) prime
    to p, one entry per n_1."""
    return tuple(
        fn1
        for n1, fn1 in enumerate(residues(spec, p, p).tolist(), 1)
        if fn1 != 0 and _derivative_valuation(spec, n1, p) == 0
    )


def nonsingular_count(spec: FigurateSpec, s: int, m: int, p: int) -> int:
    """Solutions of the mod-p congruence whose first coordinate n_1 has both
    f(n_1) and f'(n_1) prime to p: the sum of M_(m - f(n_1))(p) over the
    other s - 1 coordinates."""
    if not is_prime(p):
        raise ValueError("modulus must be prime")
    table = _congruence_profile(spec, s - 1, p, p)
    return sum(table[(m - fn1) % p] for fn1 in _admissible_residues(spec, p))


def _check_float_period(q: int) -> None:
    """Refuse modulus q on the float path: its period 24q is past
    FLOAT_PERIOD_CAP."""
    if 24 * q > FLOAT_PERIOD_CAP:
        raise BudgetError("modulus exceeds the float-path budget")


def _density_float(spec: FigurateSpec, s: int, m: int, q: int) -> float:
    """rho = sum over t mod q of (S(q,t)/q)^s e(-tm/q), with S(q,t) the root
    sums of the histogram of f(1..q) mod q (expsums.root_sums, one FFT).

    Roundoff is of order q * s * machine-eps.
    """
    _check_float_period(q)
    F = root_sums(residue_counts(spec, q, q)) / q
    t = np.arange(q, dtype=float)
    phases = np.exp(2j * np.pi * ((m % q) * t / q))
    return float(np.real(F**s * np.conj(phases)).sum())


def _compositions(s: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of parts nonnegative integers summing to s, parts >= 1."""
    if parts == 1:
        return [(s,)]
    return [(a, *rest) for a in range(s + 1) for rest in _compositions(s - a, parts - 1)]


@lru_cache(maxsize=128)
def _singular_rows(spec: FigurateSpec, s: int, p: int, k: int) -> tuple[tuple, tuple]:
    """What every class of level k shares (_singular_class): the rows
    H_rho^(*j), j = 0..s, one per singular root rho, and for each class u
    mod p^d the (a, shift) of the compositions a of s over the roots whose
    offset o_a lies in it, shift = o_a // p^d mod L; p >= 5 prime, k >= 1."""
    q = p**k
    _check_table_bits(s, q)
    pd = p ** min(k, 2)
    L = q // pd
    roots = [rho for rho in range(p) if spec.deriv12_at(rho) % p == 0]
    vals = residues(spec, p ** max(k - 1, 1), q)
    offsets, rows = [], []
    for rho in roots:
        # f(n) mod q for n = rho + p z over one full period of z mod L
        sel = vals[(rho - 1) % p :: p]
        c = int(sel[0]) % pd
        hist = packed_vector(np.bincount((sel - c) // pd, minlength=L).tolist())
        row = [UNIT]  # H_rho^(*j) for j = 0..s
        for _ in range(s):
            row.append(cyclic_multiply(row[-1], hist, L))
        offsets.append(c)
        rows.append(tuple(row))
    classes = [[] for _ in range(pd)]
    for a in _compositions(s, len(roots)) if roots else ():
        offset = sum(map(operator.mul, a, offsets))
        classes[offset % pd].append((a, offset // pd % L))
    return tuple(rows), tuple(map(tuple, classes))


# a report reads at most three classes per prime and m (level 1 and the top
# two levels): 31 per m at prime limit 50, and 39 at any larger limit, as no
# prime past 70 has a level 2; so the classes of a four-m ladder all fit
@lru_cache(maxsize=256)
def _singular_class(spec: FigurateSpec, s: int, p: int, k: int, u: int) -> tuple[int, ...]:
    """N_r(p^k) for the r = u mod p^d, d = min(k, 2): entry i is N_(u + p^d i),
    the s-tuples mod p^k, every coordinate singular (p | f'(n)), with value
    sum u + p^d i; p >= 5 prime, k >= 1, 0 <= u < p^d.  The classes u
    together are the whole table of N over r mod p^k.

    A singular n is rho + p z, with rho a root of 12 f' mod p (not the zero
    polynomial, as f(1) - f(0) = 1 and deg f < p, so at most 3 roots) and z
    mod p^(k-1).  Let L = p^(k-d).  Since p | f'(rho), f(rho + p z) = c_rho +
    p^d F_rho(z) with c_rho = f(rho) mod p^d, and F_rho mod L depends only on
    z mod L (when d = 2, a step of z by L moves n by p^(k-1), which moves f by
    p^(k-1) f'(n) times an integer mod p^k, and p | f'(n); when d = 1, L = 1).
    Let H_rho be the histogram of F_rho mod L over z mod L; each z mod L
    stands for p^(d-1) classes mod p^(k-1).  Grouping tuples by how many
    coordinates lie over each root (a composition a of s),

        N_r = p^((d-1)s) * sum_a multinomial(s; a) * V_a[(r - o_a) / p^d mod L],

    over the a with offset o_a = sum a_rho c_rho = r mod p^d, where V_a is
    the cyclic product over Z_L of the rows H_rho^(*a_rho) (_singular_rows).
    So class u sums only the compositions with o_a = u mod p^d.
    """
    rows, classes = _singular_rows(spec, s, p, k)
    pd = p ** min(k, 2)
    L = p**k // pd
    lifted = (pd // p) ** s * math.factorial(s)
    counts = [0] * L
    for a, shift in classes[u]:
        weight = lifted // math.prod(map(math.factorial, a))
        vec = rows[0][a[0]]
        for a_rho, row in zip(a[1:], rows[1:]):
            vec = cyclic_multiply(vec, row[a_rho], L)
        entries = unpack(vec.packed, vec.width, L)
        rotated = entries[L - shift :] + entries[: L - shift]
        counts = [n + weight * v for n, v in zip(counts, rotated)]
    return tuple(counts)


def _singular_count(spec: FigurateSpec, s: int, m: int, p: int, k: int) -> int:
    """N_m(p^k), read from the class of m (_singular_class)."""
    pd = p ** min(k, 2)
    return _singular_class(spec, s, p, k, m % pd)[m % p**k // pd]


def _hensel_count(spec: FigurateSpec, s: int, m: int, p: int, k: int) -> int:
    """M_m(p^k) = p^((k-1)(s-1)) * (M_m(p) - N_m(p)) + N_m(p^k) for prime
    p >= 5 and k >= 2 (the Hensel split of the module docstring)."""
    nonsingular = count_congruence(spec, s, m, p, p) - _singular_count(spec, s, m, p, 1)
    return p ** ((k - 1) * (s - 1)) * nonsingular + _singular_count(spec, s, m, p, k)


def local_density(spec: FigurateSpec, s: int, m: int, p: int, k: int) -> float:
    """rho_k = p^(k(1-s)) * M_m(p^k); exact rational for p^k <= 5000.

    Prime p >= 5 at k >= 2 takes the Hensel split (_hensel_count; proof in
    the module docstring).  p = 2 and 3 and level 1 take the direct kernel,
    and moduli past the cap the float path.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    if k == 0:
        return 1.0
    q = p**k
    if q > EXACT_MODULUS_CAP:
        return _density_float(spec, s, m, q)
    if p >= 5 and k >= 2 and is_prime(p):
        count = _hensel_count(spec, s, m, p, k)
    else:
        count = count_congruence(spec, s, m, q, q)
    return float(Fraction(count, q ** (s - 1)))


def exact_depth(p: int) -> int:
    """The deepest exact-path level of p's ladder: the largest k with
    p^k <= EXACT_MODULUS_CAP, and 1 for p past the cap."""
    k = 1
    while p ** (k + 1) <= EXACT_MODULUS_CAP:
        k += 1
    return k


def local_density_limit(
    spec: FigurateSpec,
    s: int,
    m: int,
    p: int,
    k_max: int | None = None,
    k_min: int = 1,
) -> DensityReport:
    """Densities rho_k_min..rho_k_max with a stabilization verdict.

    The default k_max is the deepest exact-path level (exact_depth).  Only
    the levels from k_min on are computed and listed; the verdict and the
    estimate read the top two, so k_min = k_max - 1 gives the verdict of
    the whole ladder.  The report also records the classical lower bound
    the limit must beat: p^(1-s) for odd p, 2^(5(1-s)) at p = 2.
    """
    if p > EXACT_MODULUS_CAP:
        # level 1 takes the float path, and a modulus it refuses is refused
        # at every level p^k >= p; refuse before the primality test, so that
        # every such p exits 2, prime or composite
        _check_float_period(p)
    if not is_prime(p):
        raise ValueError("modulus must be prime")
    if k_max is None:
        k_max = exact_depth(p)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not 1 <= k_min <= k_max:
        raise ValueError("k_min must be between 1 and k_max")
    levels = [(k, local_density(spec, s, m, p, k)) for k in range(k_min, k_max + 1)]
    stabilized = False
    if len(levels) >= 2:
        prev, last = levels[-2][1], levels[-1][1]
        stabilized = abs(last - prev) <= STABILITY_TOL * abs(prev)
    estimate = levels[-1][1]
    bound_value = 2.0 ** (5 * (1 - s)) if p == 2 else float(p) ** (1 - s)
    return DensityReport(
        p=p,
        levels=tuple(levels),
        stabilized=stabilized,
        estimate=estimate,
        bound_value=bound_value,
        bound_holds=bool(estimate > bound_value),
    )


def valuation_tau(spec: FigurateSpec, p: int) -> int:
    """min over 1 <= y <= max(p^3, 24p) of v_p(f'(y)).

    For p >= 5 this is 0, with no scan.  Proof: suppose 12 f' = 0 mod p as
    a polynomial.  Then d/dt (24 f) = 2 * 12 f' = 0 mod p, so i * c_i = 0
    mod p for each coefficient c_i of 24 f = c4 t^4 + ... + c1 t, and as
    i <= 4 < p, 24 f = 0 mod p.  That gives 24 = 24 (f(1) - f(0)) = 0 mod
    p, impossible for p >= 5.  So 12 f' mod p is a nonzero cubic with at
    most 3 roots, some y <= p has v_p(12 f'(y)) = 0, and v_p(12) = 0.

    At p = 2 and 3 the scan runs over 1 <= y <= 24p (which is >= p^3).  The
    valuation of f'(y) depends only on y mod p^(tau+1), so the scan sees
    every class that matters.  12 f' is a cubic with leading coefficient
    2A != 0, so it vanishes at no more than 3 of the >= 48 scanned points.
    """
    if not is_prime(p):
        raise ValueError("modulus must be prime")
    if p >= 5:
        return 0
    scan = range(1, 24 * p + 1)
    return min(v for y in scan if (v := _derivative_valuation(spec, y, p)) is not None)


def hensel_lift(
    spec: FigurateSpec, c: int, a: int, p: int, j: int, tau: int
) -> list[int]:
    """All residues b mod p^(j+1) with b = a mod p^(j-tau) and f(b) = c mod p^(j+1).

    Preconditions of the generalized lifting lemma are enforced: f(a) = c
    mod p^j, v_p(f'(a)) = tau exactly, and j >= 2*tau + 1.  The lemma then
    guarantees exactly p^tau lifts, all in one class mod p^(j+1-tau); the
    enumeration here is direct, so the count doubles as a lemma check.
    """
    if not is_prime(p):
        raise ValueError("modulus must be prime")
    if tau < 0 or j < 2 * tau + 1:
        raise ValueError("lifting requires j >= 2*tau + 1")
    if (spec.value(a) - c) % p**j != 0:
        raise ValueError("a is not a root of f - c at level j")
    if _derivative_valuation(spec, a, p) != tau:
        raise ValueError("derivative valuation at a does not equal tau")
    target_mod = p ** (j + 1)
    step = p ** (j - tau)
    lifts = []
    for b in range(a % step, target_mod, step):
        if (spec.value(b) - c) % target_mod == 0:
            lifts.append(b)
    return sorted(lifts)


def cauchy_davenport_check(setA, setB, q: int) -> BoundCheckReport:
    """|A + B| >= min(q, |A| + |B| - 1) for residue sets mod a prime q,
    with 0 in B and every nonzero element of B prime to q."""
    if not is_prime(q):
        raise ValueError("modulus must be prime")
    A = {x % q for x in setA}
    B = {x % q for x in setB}
    if not A or not B:
        raise ValueError("both sets must be nonempty")
    if 0 not in B:
        raise ValueError("the shift set must contain 0")
    if any(math.gcd(b, q) != 1 for b in B if b != 0):
        raise ValueError("nonzero shifts must be prime to the modulus")
    sumset = {(x + y) % q for x in A for y in B}
    lhs = min(q, len(A) + len(B) - 1)
    return bound_report(
        float(lhs), float(len(sumset)), f"|A|={len(A)} |B|={len(B)} q={q}"
    )
