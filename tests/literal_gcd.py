"""The primitive pseudo-remainder sequence over Z, kept as the oracle of
exact.poly_gcd (which runs Euclid's algorithm over Q[t] on the dense
kernel).

Denominators are cleared first, so the coefficients never leave the
integers until the last step scales the gcd to be monic (Knuth, TAOCP
Vol. 2, section 4.6.1).
"""
from fractions import Fraction
from math import gcd, lcm

from wkostka.exact import ExactError, LaurentPoly


def _primitive(cs: list) -> list:
    """cs divided by the gcd of its coefficients, with a positive lead."""
    g = 0
    for c in cs:
        g = gcd(g, c)
    cs = [c // g for c in cs] if g > 1 else cs
    return [-c for c in cs] if cs and cs[-1] < 0 else cs


def _pseudo_rem(a: list, b: list) -> list:
    """The pseudo-remainder of a by b: lead(b)^k * a mod b, over Z."""
    a = list(a)
    db = len(b) - 1
    while a and len(a) - 1 >= db:
        shift, c = len(a) - 1 - db, a[-1]
        a = [v * b[-1] for v in a]
        for j in range(db + 1):
            a[shift + j] -= c * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def _integral(p: LaurentPoly) -> list:
    """p's coefficients from t^0 up, times the lcm of their denominators."""
    cs = [Fraction(p.coeff(e)) for e in range(p.max_exp + 1)]
    denom = lcm(*(c.denominator for c in cs))
    return [int(c * denom) for c in cs]


def _monic(p: LaurentPoly) -> LaurentPoly:
    return p * Fraction(1, p.coeff(p.max_exp)) if not p.is_zero else p


def literal_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Monic gcd in Q[t] of two polynomials with nonnegative exponents."""
    if p.is_zero:
        return _monic(q)
    if q.is_zero:
        return _monic(p)
    if p.min_exp < 0 or q.min_exp < 0:
        raise ExactError("negative exponents in polynomial context")
    a, b = _integral(p), _integral(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    a = _primitive(a)
    return LaurentPoly({e: Fraction(c, a[-1]) for e, c in enumerate(a)})
