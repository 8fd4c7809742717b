"""The wreath oracle, which the coset route of omega.py is checked against,
on the conjugacy classes of W = S_n x (Z/rZ)^n alone: a class is a colored
cycle type, an r-partition rho whose rho^(s) lists the lengths of the cycles
of color sum s mod r, and the characters follow from the wreath
Murnaghan-Nakayama rule (Macdonald; Stembridge, Pacific J. Math. 140, 1989).
A zeta-valued quantity is a zeta-power vector v of ints, worth
sum_k v[k] zeta^(k mod r), multiplied by cyclic convolution in Z[C_r] and
reduced modulo Phi_r once, at the end (a ring map onto Z[zeta_r]).  The
fake-degree sums run on integers packed at t = 2^bits by exact's Kronecker
codec, which the coset route does not use."""
from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import mul

from .exact import (ExactError, LaurentPoly, _dense_divmod, _exact, _laurent,
                    _packed, _ratio, _unpacked, exact_div)
from .omega import OmegaError
from .rpart import RPartition, enumerate_rpartitions, n_star
from .symgrp import centralizer_order, rim_hooks


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple:
    """Integer coefficients of Phi_r, constant term first.

    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if r < 1:
        raise ExactError("conductor must be positive")
    coeffs = [-1] + [0] * (r - 1) + [1]  # x^r - 1
    for d in range(1, r):
        if r % d == 0:
            quot, rem = _dense_divmod(coeffs, cyclotomic_polynomial(d))
            assert not rem
            coeffs = [int(c) for c in quot]
    return tuple(coeffs)


def detV_value(rho: RPartition) -> tuple:
    """det on the reflection representation, epsilon * delta, on the class
    rho, as the zeta-power vector epsilon zeta^(sum of colors)."""
    colors = sum(s * len(part) for s, part in enumerate(rho.parts))
    return (0,) * (colors % rho.r) + \
        ((-1) ** (rho.n - sum(map(len, rho.parts))),)


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
    """The product of two zeta-power vectors in the group ring Z[C_r]: a
    cyclic convolution, with nothing reduced modulo Phi_r."""
    out = [0] * r
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % r] += x * y
    return out


@lru_cache(maxsize=None)
def _mn(parts: tuple, rho: tuple) -> tuple:
    """The character indexed by the r-partition parts on the class rho, as a
    zeta-power vector, by the wreath Murnaghan-Nakayama rule (Macdonald,
    App. B): a rim hook of a longest cycle's length removed from component j
    contributes (-1)^height zeta^(j s), for the cycle's color s."""
    r = len(parts)
    out = [0] * r
    if not any(rho):
        out[0] = 1
        return tuple(out)
    s = max(range(r), key=lambda c: rho[c][:1])
    rest = rho[:s] + (rho[s][1:],) + rho[s + 1:]
    for j, comp in enumerate(parts):
        for smaller, height in rim_hooks(comp, rho[s][0]):
            sub = _mn(parts[:j] + (smaller,) + parts[j + 1:], rest)
            for k, c in enumerate(sub):
                out[(k + j * s) % r] += (-1) ** height * c
    return tuple(out)


def rho_character(blam: RPartition, rho: RPartition) -> tuple:
    """The irreducible character indexed by blam on the class rho, in
    canonical coordinates (zeta_coords), so that equal values compare equal."""
    if rho.n != blam.n or rho.r != blam.r:
        raise OmegaError("class does not match the r-partition")
    return zeta_coords(_mn(blam.parts, rho.parts), blam.r)


@lru_cache(maxsize=None)
def _classes(n: int, r: int) -> tuple:
    """(rho, its inverse, |W| / prod_s z_(rho^(s)) r^(l(rho^(s))), and
    prod_i (t^(ir) - 1) / det_V(t - w) as r LaurentPolys, the k-th the
    coefficient of zeta^k) per class rho.  A cycle of length l and color s
    adds t^l - zeta^s to det_V, and (t^(rl) - 1) / (t^l - zeta^s) is
    sum_(k<r) t^(lk) zeta^(s(r-1-k)) in Z[x]/(x^r - 1)."""
    top = LaurentPoly.one()
    for i in range(1, n + 1):
        top = top * (LaurentPoly.t_power(i * r) - 1)
    out = []
    for rho in enumerate_rpartitions(n, r):
        z, den = 1, LaurentPoly.one()
        quot = [LaurentPoly.one()] + [LaurentPoly.zero()] * (r - 1)
        for s, part in enumerate(rho.parts):
            z *= centralizer_order(part) * r ** len(part)
            for length in part:
                den = den * (LaurentPoly.t_power(r * length) - 1)
                quot = [sum((quot[(m - s * (r - 1 - k)) % r].shift(length * k)
                             for k in range(r)), LaurentPoly.zero())
                        for m in range(r)]
        base = exact_div(top, den)
        inv = RPartition._unchecked(rho.parts[:1] + rho.parts[:0:-1])
        out.append((rho, inv, factorial(n) * r ** n // z,
                    tuple(base * q for q in quot)))
    return tuple(out)


def _height(quot) -> int:
    return max(abs(c) for q in quot for c in q.coeffs)


def _width(r: int, bound: int) -> int:
    """The least width at which a sum with coefficients at most bound in
    absolute value decodes once reduced modulo Phi_r: the reduction grows a
    coefficient at most reach-fold, reach the largest sum over k < r of the
    absolute values of one coordinate of zeta^k."""
    units = (zeta_coords((0,) * k + (1,), r) for k in range(r))
    reach = max(sum(map(abs, row)) for row in zip(*units))
    return (reach * bound).bit_length() + 1


@lru_cache(maxsize=None)
def _packed_quotients(n: int, r: int, bits: int) -> tuple:
    """Each class quotient's r components packed at t = 2^bits, about t^0."""
    return tuple(tuple(v << offset if v else 0 for offset, v in
                       (_packed(q, bits) for q in quot))
                 for *_, quot in _classes(n, r))


def _by_power(vectors, r: int) -> tuple:
    """Zeta-power vectors, one per class, as r columns, one per power."""
    return tuple(zip(*(tuple(v) + (0,) * (r - len(v)) for v in vectors)))


def _fake_degree_sum(n: int, r: int, left: tuple, right: tuple,
                     bits: int) -> LaurentPoly:
    """(1/|W|) sum_C left_C right_C from the _by_power of left's ints and of
    right's values packed at 2^bits (_width): r dot products per power of
    zeta, reduced modulo Phi_r; an irrational result raises OmegaError."""
    totals = [sum(sum(map(mul, left[i], right[(m - i) % r]))
                  for i in range(r)) for m in range(r)]
    _, rem = _dense_divmod(totals, cyclotomic_polynomial(r))
    if any(rem[1:]):
        raise OmegaError("fake degree is irrational, on 1, zeta, ...: " +
                         ", ".join(str(_unpacked(v, 0, bits)) for v in rem))
    value = _unpacked(rem[0] if rem else 0, 0, bits)
    order = factorial(n) * r ** n
    return _laurent(value.low, [_ratio(c, order) for c in value.coeffs])


def fake_degree(n: int, r: int, chi) -> LaurentPoly:
    """The graded multiplicity generating polynomial of the class function
    chi, a callable on (class, inverse class) whose values are zeta-power
    vectors of ints: R(chi) = prod_i (t^(ir) - 1) / |W| *
    sum_w det(w) chi(w) / det(t - w), which must be rational."""
    classes = _classes(n, r)
    scalars = [[size * c for c in _zeta_mul(detV_value(rho), chi(rho, inv), r)]
               for rho, inv, size, _ in classes]
    bits = _width(r, sum(sum(map(abs, s)) * _height(quot)
                         for s, (*_, quot) in zip(scalars, classes)))
    return _fake_degree_sum(n, r, _by_power(scalars, r),
                            _by_power(_packed_quotients(n, r, bits), r), bits)


@lru_cache(maxsize=None)
def _entry_bits(n: int, r: int) -> int:
    """The entries' packing width: rho^mu(C^-1) is rho^mu(C) with the powers
    of zeta negated, so with A_C the largest sum of |v_k| over the character
    vectors v on C, sum_C |C| A_C^2 height(C) bounds every coefficient."""
    items = enumerate_rpartitions(n, r)
    return _width(r, sum(
        size * _height(quot) *
        max(sum(map(abs, _mn(lam.parts, rho.parts))) for lam in items) ** 2
        for rho, _, size, quot in _classes(n, r)))


@lru_cache(maxsize=None)
def _halves(lam: RPartition) -> tuple:
    """lam's halves of the entries in its row and in its column, as _by_power:
    rho^lam(C), and |C| rho^lam(C^-1) times C's packed quotient."""
    n, r = lam.n, lam.r
    classes = _classes(n, r)
    packed = _packed_quotients(n, r, _entry_bits(n, r))
    return (_by_power((_mn(lam.parts, rho.parts) for rho, *_ in classes), r),
            _by_power((_zeta_mul([size * c for c in _mn(lam.parts, inv.parts)],
                                 q, r)
                       for (_, inv, size, _), q in zip(classes, packed)), r))


@lru_cache(maxsize=None)
def omega_entry_bruteforce(lam: RPartition, mu: RPartition,
                           r: int) -> LaurentPoly:
    """omega_(lam,mu) = t^(N*) R(rho^lam x conj(rho^mu) x conj(det_V)): as
    det_V conj(det_V) is 1 in Z[C_r], the sum over C of |C| rho^lam(C)
    rho^mu(C^-1) times C's quotient, lam's row half by mu's column half."""
    if lam.n != mu.n or lam.r != r or mu.r != r:
        raise OmegaError("index mismatch")
    n = lam.n
    try:
        value = _fake_degree_sum(n, r, _halves(lam)[0], _halves(mu)[1],
                                 _entry_bits(n, r)).shift(n_star(n, r))
    except OmegaError as exc:
        raise OmegaError(f"oracle entry ({lam}, {mu}): {exc}") from None
    if not value.has_nonneg_int_coeffs():
        raise OmegaError(
            f"oracle entry ({lam}, {mu}) is not in Z>=0[t]: {value}")
    return value
