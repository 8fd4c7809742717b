"""The wreath oracle, the route to Omega that omega.py's coset route is
checked against: characters induced by brute force (one pass over each block
subgroup) and the defining fake-degree sum in the group ring Q[C_r][t].
Every zeta-valued quantity is a zeta-power vector v, worth
sum_k v[k] zeta^(k mod r), products are cyclic convolutions, and each value
is reduced modulo Phi_r once, at the end; Q[C_r] -> Q(zeta_r) is a ring map,
so this is exact.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .exact import (LaurentPoly, _dense_divmod, _exact, cyclotomic_polynomial,
                    exact_div)
from .omega import OmegaError
from .record import FrozenRecord
from .rpart import RPartition, n_star
from .symgrp import (all_perms, block_character, block_cycle_types, block_of,
                     cycles, in_young, inverse)


class WreathElement(FrozenRecord):
    """(sigma, a): the monomial matrix e_i -> zeta^(a_i) e_(sigma(i))."""

    __slots__ = ("sigma", "colors", "r")

    def __init__(self, sigma, colors, r):
        if len(sigma) != len(colors):
            raise OmegaError("color vector length must match the permutation")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "colors", tuple(c % r for c in colors))
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return len(self.sigma)

    def inv(self) -> "WreathElement":
        sig_inv = inverse(self.sigma)
        colors = tuple((-self.colors[sig_inv[i]]) % self.r
                       for i in range(self.n))
        return WreathElement(sig_inv, colors, self.r)

    def colored_cycle_type(self) -> tuple:
        """Multiset of (cycle length, color sum mod r): the conjugacy class."""
        out = []
        for cyc in cycles(self.sigma):
            out.append((len(cyc), sum(self.colors[i] for i in cyc) % self.r))
        return tuple(sorted(out, reverse=True))


def wreath_order(n: int, r: int) -> int:
    return factorial(n) * r ** n


def wreath_elements(n: int, r: int):
    """Iterate over all of S_n x (Z/rZ)^n."""
    for sigma in all_perms(n):
        for colors in itertools.product(range(r), repeat=n):
            yield WreathElement(sigma, colors, r)


def detV_value(key: tuple, r: int) -> tuple:
    """det on the reflection representation, epsilon * delta, on the class
    of colored cycle type key, as the zeta-power vector
    epsilon zeta^(sum of colors)."""
    sgn = -1 if sum(length - 1 for length, _ in key) % 2 else 1
    return (0,) * (sum(s for _, s in key) % r) + (sgn,)


def zeta_coords(v, r: int) -> tuple:
    """The zeta-power vector v, whose value is sum_k v[k] zeta^(k mod r), in
    its canonical coordinates on 1, zeta, ..., zeta^(phi(r)-1): v taken
    modulo Phi_r (which divides x^r - 1, so the wrap k mod r is free).

    >>> zeta_coords((1, 1, 1), 3)
    (0, 0)
    >>> zeta_coords((0, 0, 1), 4)
    (-1, 0)
    """
    phi = cyclotomic_polynomial(r)
    _, rem = _dense_divmod(v, phi)
    return tuple(map(_exact, rem)) + (0,) * (len(phi) - 1 - len(rem))


def _zeta_mul(a, b, r: int) -> list:
    """The product of two zeta-power vectors in the group ring Q[C_r]: a
    cyclic convolution, with nothing reduced modulo Phi_r."""
    out = [0] * r
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % r] += x * y
    return out


@lru_cache(maxsize=None)
def wreath_classes(n: int, r: int) -> tuple:
    """Conjugacy classes as (representative, size), keyed by colored type."""
    buckets: dict = {}
    for w in wreath_elements(n, r):
        key = w.colored_cycle_type()
        if key in buckets:
            buckets[key][1] += 1
        else:
            buckets[key] = [w, 1]
    return tuple((rep, size) for rep, size in
                 (buckets[k] for k in sorted(buckets)))


@lru_cache(maxsize=None)
def _induced(blam: RPartition, r: int) -> MappingProxyType:
    """rho^blam on every class of W, keyed by colored cycle type.

    rho^blam is induced from chi~^lambda on the block subgroup
    H = S_m x (Z/rZ)^n (the Young character twisted by the block-graded
    powers of delta).  By Frobenius's formula its value on a class C is
    |W| / (|H| |C|) times the sum of chi~^lambda over H meet C, so one pass
    over H sums chi~^lambda by colored cycle type, as integer counts per
    power of zeta, and each class's counts are reduced modulo Phi_r once.
    The twist of (sigma, a) is zeta^(sum_p block(p) a_p)."""
    n, m = blam.n, blam.weight()
    blocks = block_of(m)
    counts = {rep.colored_cycle_type(): [0] * r
              for rep, _ in wreath_classes(n, r)}
    for sigma in all_perms(n):
        if not in_young(sigma, m):
            continue
        value = block_character(blam, block_cycle_types(sigma, m))
        if not value:
            continue
        for colors in itertools.product(range(r), repeat=n):
            key = WreathElement(sigma, colors, r).colored_cycle_type()
            twist = sum(b * c for b, c in zip(blocks, colors))
            counts[key][twist % r] += value
    order_h = r ** n
    for size in m.parts:
        order_h *= factorial(size)
    out = {}
    for rep, size in wreath_classes(n, r):
        key = rep.colored_cycle_type()
        scale = Fraction(wreath_order(n, r), order_h * size)
        out[key] = tuple(_exact(c * scale)
                         for c in zeta_coords(counts[key], r))
    return MappingProxyType(out)


def rho_character(blam: RPartition, w: WreathElement) -> tuple:
    """Value at w of the irreducible character indexed by blam, computed by
    brute-force induction from the block subgroup, in canonical coordinates
    (zeta_coords), so that equal values compare equal."""
    if w.n != blam.n or w.r != blam.r:
        raise OmegaError("element does not match the r-partition")
    return _induced(blam, w.r)[w.colored_cycle_type()]


@lru_cache(maxsize=None)
def _class_terms(n: int, r: int) -> tuple:
    """(key, inverse key, size, prod_i (t^(ir) - 1) / det_V(t - w)) per
    class, where key is the colored cycle type of w and the inverse key that
    of w^-1 (each cycle's color sum negated), and the quotient is r
    LaurentPolys, the k-th the coefficient of zeta^k.

    det_V(t - w) is the product over the cycles of w of t^l - zeta^s, for
    the cycle's length l and color sum s, and the telescoping identity

        (t^(rl) - 1) / (t^l - zeta^s) = sum_(k<r) t^(lk) zeta^(s(r-1-k))

    holds already in Z[x]/(x^r - 1).  So each quotient is the integer
    polynomial prod_(i<=n) (t^(ir) - 1) / prod_cycles (t^(rl) - 1) times
    those sums, and nothing is divided by a value with zeta in it."""
    top = LaurentPoly.one()
    for i in range(1, n + 1):
        top = top * (LaurentPoly.t_power(i * r) - 1)
    out = []
    for rep, size in wreath_classes(n, r):
        key = rep.colored_cycle_type()
        inv_key = tuple(sorted(((length, -s % r) for length, s in key),
                               reverse=True))
        den = LaurentPoly.one()
        quot = [LaurentPoly.one()] + [LaurentPoly.zero()] * (r - 1)
        for length, s in key:
            den = den * (LaurentPoly.t_power(r * length) - 1)
            quot = [sum((quot[(m - s * (r - 1 - k)) % r].shift(length * k)
                         for k in range(r)), LaurentPoly.zero())
                    for m in range(r)]
        base = exact_div(top, den)
        out.append((key, inv_key, size, tuple(base * q for q in quot)))
    return tuple(out)


def fake_degree(n: int, r: int, chi) -> LaurentPoly:
    """The graded multiplicity generating polynomial of the class function
    chi, a callable on (class key, inverse class key) whose values are
    zeta-power vectors:

        R(chi) = prod_i (t^(ir) - 1) / |W| * sum_w det(w) chi(w) / det(t - w)

    The sum runs in the group ring Q[C_r][t], each class adding its
    quotient times |C| det(w) chi(w), and each coefficient of t is reduced
    modulo Phi_r once, at the end.  The result must be a polynomial with
    rational coefficients; anything else signals a bug in the caller's
    character values.
    """
    acc = [LaurentPoly.zero()] * r
    for key, inv_key, size, quot in _class_terms(n, r):
        scalar = _zeta_mul(detV_value(key, r), chi(key, inv_key), r)
        for i, c in enumerate(scalar):
            if c:
                for j, q in enumerate(quot):
                    k = (i + j) % r
                    acc[k] = acc[k] + q * (c * size)
    order = wreath_order(n, r)
    coeffs = {}
    for e in range(max(p.low + len(p.coeffs) for p in acc)):
        coords = zeta_coords([p.coeff(e) for p in acc], r)
        if any(coords[1:]):
            raise OmegaError(f"fake degree has the irrational coefficient "
                             f"{coords} (on 1, zeta, ...) at t^{e}")
        coeffs[e] = Fraction(coords[0], order)
    return LaurentPoly(coeffs)


@lru_cache(maxsize=None)
def omega_entry_bruteforce(lam: RPartition, mu: RPartition,
                           r: int) -> LaurentPoly:
    """omega_(lam,mu) = t^(N*) R(rho^lam x conj(rho^mu) x conj(det_V))."""
    if lam.n != mu.n or lam.r != r or mu.r != r:
        raise OmegaError("index mismatch")
    n = lam.n
    rho_lam, rho_mu = _induced(lam, r), _induced(mu, r)

    def chi(key: tuple, inv_key: tuple) -> list:
        return _zeta_mul(_zeta_mul(rho_lam[key], rho_mu[inv_key], r),
                         detV_value(inv_key, r), r)

    try:
        value = fake_degree(n, r, chi).shift(n_star(n, r))
    except OmegaError as exc:
        raise OmegaError(f"oracle entry ({lam}, {mu}): {exc}") from None
    if not value.has_nonneg_int_coeffs():
        raise OmegaError(
            f"oracle entry ({lam}, {mu}) is not in Z>=0[t]: {value}")
    return value
